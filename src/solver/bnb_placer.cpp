#include "bnb_placer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "solver/objective.hpp"
#include "support/logging.hpp"

namespace qc {

namespace {

/**
 * Branching order over program qubits: most CNOTs to already-ordered
 * qubits first (so the search starts from the heaviest qubit overall),
 * then highest CNOT degree, then lowest index. It keeps the bounds of
 * both searches tight. Qubits without CNOTs come last.
 */
std::vector<ProgQubit>
branchOrder(const OrderedCnotWeights &weights)
{
    const int n = weights.numQubits();
    std::vector<int> degree(n, 0);
    for (const auto &e : weights.entries()) {
        degree[e.control] += e.count;
        degree[e.target] += e.count;
    }
    std::vector<ProgQubit> order;
    std::vector<bool> placed(n, false);
    for (int lvl = 0; lvl < n; ++lvl) {
        int best = -1;
        int best_conn = -1;
        int best_deg = -1;
        for (int q = 0; q < n; ++q) {
            if (placed[q])
                continue;
            int conn = 0;
            for (const auto &e : weights.entries()) {
                if (e.control == q && placed[e.target])
                    conn += e.count;
                if (e.target == q && placed[e.control])
                    conn += e.count;
            }
            if (conn > best_conn ||
                (conn == best_conn && degree[q] > best_deg)) {
                best = q;
                best_conn = conn;
                best_deg = degree[q];
            }
        }
        placed[best] = true;
        order.push_back(best);
    }
    return order;
}

} // namespace

BnbPlacer::BnbPlacer(const Machine &machine, const Circuit &prog,
                     BnbOptions options)
    : machine_(machine),
      prog_(prog),
      options_(options),
      numProg_(prog.numQubits()),
      numHw_(machine.numQubits())
{
    if (numProg_ > numHw_)
        QC_FATAL("program needs ", numProg_, " qubits but machine has ",
                 numHw_);

    OrderedCnotWeights weights(prog);
    readouts_.resize(numProg_);
    for (int q = 0; q < numProg_; ++q)
        readouts_[q] = weights.readouts(q);

    logRo_.resize(numHw_);
    for (HwQubit h = 0; h < numHw_; ++h)
        logRo_[h] = std::log(machine_.cal().readoutReliability(h));

    logEc_.assign(numHw_, std::vector<double>(numHw_, 0.0));
    for (HwQubit a = 0; a < numHw_; ++a)
        for (HwQubit b = 0; b < numHw_; ++b)
            if (a != b)
                logEc_[a][b] =
                    std::log(machine_.bestPathReliability(a, b));

    order_ = branchOrder(weights);

    // Per-level edges back to already-branched levels.
    std::vector<int> level_of(numProg_, -1);
    for (int lvl = 0; lvl < numProg_; ++lvl)
        level_of[order_[lvl]] = lvl;
    levelEdges_.assign(numProg_, {});
    for (const auto &e : weights.entries()) {
        int lc = level_of[e.control];
        int lt = level_of[e.target];
        if (lc > lt) {
            // control branched later; earlier endpoint is the target
            levelEdges_[lc].push_back({lt, e.count, true});
        } else {
            levelEdges_[lt].push_back({lc, e.count, false});
        }
    }

    for (const auto &e : weights.entries())
        terms_.push_back({e.control, e.target, e.count});
}

double
BnbPlacer::readoutGain(ProgQubit q, HwQubit h) const
{
    return options_.readoutWeight * readouts_[q] * logRo_[h];
}

double
BnbPlacer::edgeGain(HwQubit hc, HwQubit ht) const
{
    return (1.0 - options_.readoutWeight) * logEc_[hc][ht];
}

double
BnbPlacer::bound(int level) const
{
    const double w = options_.readoutWeight;
    double b = 0.0;

    // Readout bound: each unplaced qubit could land on the best free
    // readout location.
    double best_free_ro = -std::numeric_limits<double>::infinity();
    for (HwQubit h = 0; h < numHw_; ++h)
        if (!used_[h])
            best_free_ro = std::max(best_free_ro, logRo_[h]);
    for (int lvl = level; lvl < numProg_; ++lvl) {
        ProgQubit q = order_[lvl];
        if (readouts_[q] > 0)
            b += w * readouts_[q] * best_free_ro;
    }

    // CNOT bound: each not-yet-determined term could use the best EC
    // consistent with its placed endpoint (or the global best).
    for (const auto &t : terms_) {
        HwQubit hc = assign_[t.control];
        HwQubit ht = assign_[t.target];
        if (hc != kInvalidQubit && ht != kInvalidQubit)
            continue; // already counted in the node value
        double best = -std::numeric_limits<double>::infinity();
        if (hc != kInvalidQubit) {
            for (HwQubit h = 0; h < numHw_; ++h)
                if (!used_[h])
                    best = std::max(best, logEc_[hc][h]);
        } else if (ht != kInvalidQubit) {
            for (HwQubit h = 0; h < numHw_; ++h)
                if (!used_[h])
                    best = std::max(best, logEc_[h][ht]);
        } else {
            for (HwQubit a = 0; a < numHw_; ++a) {
                if (used_[a])
                    continue;
                for (HwQubit bq = 0; bq < numHw_; ++bq)
                    if (bq != a && !used_[bq])
                        best = std::max(best, logEc_[a][bq]);
            }
        }
        b += (1.0 - w) * t.weight * best;
    }
    return b;
}

void
BnbPlacer::dfs(int level, double value)
{
    if (hitLimit_)
        return;
    // Never trip the limit before the first (greedy) leaf: solve()
    // must always return a valid placement.
    if (++nodes_ > options_.nodeLimit && !best_.empty()) {
        hitLimit_ = true;
        return;
    }
    if (level == numProg_) {
        if (value > bestObj_ || best_.empty()) {
            bestObj_ = value;
            best_ = assign_;
        }
        return;
    }
    if (!best_.empty() && value + bound(level) <= bestObj_ + 1e-12)
        return;

    ProgQubit q = order_[level];
    std::vector<std::pair<double, HwQubit>> cands;
    for (HwQubit h = 0; h < numHw_; ++h) {
        if (used_[h])
            continue;
        double gain = readoutGain(q, h);
        for (const auto &e : levelEdges_[level]) {
            HwQubit other = assign_[order_[e.earlierLevel]];
            gain += e.asControl ? e.weight * edgeGain(h, other)
                                : e.weight * edgeGain(other, h);
        }
        cands.push_back({gain, h});
    }
    std::stable_sort(cands.begin(), cands.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });

    for (const auto &[gain, h] : cands) {
        assign_[q] = h;
        used_[h] = true;
        dfs(level + 1, value + gain);
        used_[h] = false;
        assign_[q] = kInvalidQubit;
        if (hitLimit_)
            return;
    }
}

BnbResult
BnbPlacer::solve()
{
    assign_.assign(numProg_, kInvalidQubit);
    used_.assign(numHw_, false);
    best_.clear();
    bestObj_ = -std::numeric_limits<double>::infinity();
    nodes_ = 0;
    hitLimit_ = false;

    dfs(0, 0.0);

    QC_ASSERT(!best_.empty(), "branch-and-bound found no placement");
    BnbResult result;
    result.layout = best_;
    result.objective = bestObj_;
    result.nodesExplored = nodes_;
    result.optimal = !hitLimit_;
    return result;
}

// ------------------------------------------------------------------ //
// Makespan lower bound
// ------------------------------------------------------------------ //

MakespanBoundSearch::MakespanBoundSearch(const Circuit &prog, int numHw,
                                         std::vector<Timeslot> cnotDuration,
                                         Timeslot oneQubitDuration,
                                         Timeslot readoutDuration)
    : numProg_(prog.numQubits()),
      numHw_(numHw),
      dag_(prog),
      dur_(std::move(cnotDuration))
{
    if (numProg_ > numHw_)
        QC_FATAL("program needs ", numProg_, " qubits but machine has ",
                 numHw_);
    QC_ASSERT(dur_.size() == static_cast<size_t>(numHw_) * numHw_,
              "CNOT duration table arity mismatch");

    std::vector<bool> has_cnot(numProg_, false);
    gates_.resize(prog.size());
    for (size_t i = 0; i < prog.size(); ++i) {
        const Gate &g = prog.gate(i);
        GateTiming &t = gates_[i];
        if (g.op == Op::CNOT) {
            t.control = g.q0;
            t.target = g.q1;
            has_cnot[g.q0] = has_cnot[g.q1] = true;
        } else {
            t.fixed = g.isMeasure() ? readoutDuration : oneQubitDuration;
        }
    }

    // Partners of each hardware qubit, fastest first.
    auto d = [this](HwQubit c, HwQubit t) {
        return dur_[static_cast<size_t>(c) * numHw_ + t];
    };
    globalMin_ = std::numeric_limits<Timeslot>::max();
    for (HwQubit h = 0; h < numHw_; ++h) {
        std::vector<HwQubit> from;
        for (HwQubit x = 0; x < numHw_; ++x) {
            if (x != h) {
                from.push_back(x);
                globalMin_ = std::min(globalMin_, d(h, x));
            }
        }
        std::vector<HwQubit> to = from;
        std::stable_sort(from.begin(), from.end(),
                         [&](HwQubit a, HwQubit b) {
                             return d(h, a) < d(h, b);
                         });
        std::stable_sort(to.begin(), to.end(), [&](HwQubit a, HwQubit b) {
            return d(a, h) < d(b, h);
        });
        fromOrder_.insert(fromOrder_.end(), from.begin(), from.end());
        toOrder_.insert(toOrder_.end(), to.begin(), to.end());
    }

    // Only qubits with CNOTs can change the bound; they order first.
    order_ = branchOrder(OrderedCnotWeights(prog));
    while (!order_.empty() && !has_cnot[order_.back()])
        order_.pop_back();
}

Timeslot
MakespanBoundSearch::cnotBound(int q0, int q1) const
{
    const HwQubit hc = assign_[q0];
    const HwQubit ht = assign_[q1];
    const size_t row = static_cast<size_t>(numHw_ - 1);
    if (hc != kInvalidQubit && ht != kInvalidQubit)
        return dur_[static_cast<size_t>(hc) * numHw_ + ht];
    if (hc != kInvalidQubit) {
        const HwQubit *p = &fromOrder_[hc * row];
        for (size_t k = 0; k < row; ++k)
            if (!used_[p[k]])
                return dur_[static_cast<size_t>(hc) * numHw_ + p[k]];
    } else if (ht != kInvalidQubit) {
        const HwQubit *p = &toOrder_[ht * row];
        for (size_t k = 0; k < row; ++k)
            if (!used_[p[k]])
                return dur_[static_cast<size_t>(p[k]) * numHw_ + ht];
    }
    return globalMin_;
}

Timeslot
MakespanBoundSearch::bound(Timeslot cutoff)
{
    work_ += static_cast<std::int64_t>(gates_.size());
    Timeslot span = 0;
    for (size_t i = 0; i < gates_.size(); ++i) {
        const GateTiming &g = gates_[i];
        Timeslot start = 0;
        for (int p : dag_.preds(static_cast<int>(i)))
            start = std::max(start, finish_[p]);
        finish_[i] = start + (g.control >= 0 ? cnotBound(g.control, g.target)
                                             : g.fixed);
        span = std::max(span, finish_[i]);
        if (span >= cutoff)
            return span; // pruned either way
    }
    return span;
}

void
MakespanBoundSearch::recordLeaf(Timeslot value)
{
    bestValue_ = value;
    haveLeaf_ = true;
    // Qubits without CNOTs take the lowest free locations.
    HwQubit next = 0;
    for (int q = 0; q < numProg_; ++q) {
        if (assign_[q] != kInvalidQubit) {
            best_[q] = assign_[q];
            continue;
        }
        while (used_[next])
            ++next;
        best_[q] = next++;
    }
}

void
MakespanBoundSearch::dfs(int level)
{
    const ProgQubit q = order_[level];
    std::pair<Timeslot, HwQubit> *cands =
        &cands_[static_cast<size_t>(level) * numHw_];
    int n = 0;
    for (HwQubit h = 0; h < numHw_; ++h) {
        if (used_[h])
            continue;
        assign_[q] = h;
        used_[h] = 1;
        const Timeslot b = bound(bestValue_);
        used_[h] = 0;
        assign_[q] = kInvalidQubit;
        if (b < bestValue_)
            cands[n++] = {b, h};
        // Never trip before the first leaf: solve() always returns a
        // placement.
        if (haveLeaf_ && work_ > kMakespanBoundWork) {
            hitLimit_ = true;
            return;
        }
    }
    std::sort(cands, cands + n);

    const bool last = level + 1 == static_cast<int>(order_.size());
    for (int k = 0; k < n && cands[k].first < bestValue_; ++k) {
        const HwQubit h = cands[k].second;
        assign_[q] = h;
        used_[h] = 1;
        if (last)
            recordLeaf(cands[k].first); // bound is exact at a leaf
        else
            dfs(level + 1);
        used_[h] = 0;
        assign_[q] = kInvalidQubit;
        if (hitLimit_)
            return;
    }
}

MakespanBoundResult
MakespanBoundSearch::solve()
{
    assign_.assign(numProg_, kInvalidQubit);
    used_.assign(numHw_, 0);
    finish_.assign(gates_.size(), 0);
    cands_.assign(order_.size() * numHw_, {0, 0});
    best_.assign(numProg_, kInvalidQubit);
    bestValue_ = std::numeric_limits<Timeslot>::max();
    haveLeaf_ = false;
    work_ = 0;
    hitLimit_ = false;

    const Timeslot root = bound(bestValue_);
    if (order_.empty())
        recordLeaf(root);
    else
        dfs(0);

    MakespanBoundResult result;
    result.layout = best_;
    result.optimal = !hitLimit_;
    result.lowerBound = result.optimal ? bestValue_ : root;
    return result;
}

} // namespace qc
