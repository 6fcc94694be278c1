#include "sabre_mapper.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "mappers/greedy_mapper.hpp"
#include "mappers/qiskit_baseline.hpp"
#include "sched/tracking_router.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"

namespace qc {

namespace {

/** A program CNOT reduced to its qubit pair. */
struct CnotPair
{
    ProgQubit a;
    ProgQubit b;
};

/** The circuit's CNOTs in program order (forward direction). */
std::vector<CnotPair>
cnotSequence(const Circuit &prog)
{
    std::vector<CnotPair> out;
    out.reserve(prog.size());
    for (const Gate &g : prog.gates())
        if (g.op == Op::CNOT)
            out.push_back({g.q0, g.q1});
    return out;
}

/**
 * One SABRE routing pass over a CNOT sequence.
 *
 * Maintains a live layout (the SWAPs are committed, never undone, the
 * tracking router's movement model) and advances the qubit-level
 * dependency frontier: a CNOT is in the front layer iff it is the
 * next pending CNOT on both of its qubits — exactly the two-qubit
 * slice of the DependencyDag frontier, since single-qubit gates never
 * constrain routing. When no front gate is executable, every coupling
 * edge touching a front gate's qubits is scored and the best exchange
 * is committed.
 *
 * Only the *final layout* is of interest here (it seeds the next
 * refinement direction); the emitted movement itself is discarded —
 * the downstream scheduling pass re-routes from the chosen initial
 * layout.
 */
class SabreRoutePass
{
  public:
    SabreRoutePass(const Machine &machine, const SabreOptions &options,
                   Rng &rng)
        : machine_(machine), topo_(machine.topo()), options_(options),
          rng_(rng)
    {
    }

    std::vector<HwQubit> run(const std::vector<CnotPair> &cnots,
                             std::vector<HwQubit> layout);

  private:
    /** CNOT indices per qubit, with a per-qubit progress pointer. */
    void buildQueues(const std::vector<CnotPair> &cnots, int n_prog);

    /** Front layer: next pending CNOT on *both* of its qubits. */
    std::vector<int> collectFront(const std::vector<CnotPair> &cnots)
        const;

    /** Retire gate g: advance both endpoint pointers past it. */
    void retire(int g, const std::vector<CnotPair> &cnots);

    /**
     * First `options_.lookahead` pending CNOTs beyond the front
     * layer, in program order.
     */
    std::vector<int> lookaheadWindow(const std::vector<int> &front,
                                     const std::vector<CnotPair> &cnots)
        const;

    double scoreSwap(HwQubit u, HwQubit v,
                     const std::vector<int> &front,
                     const std::vector<int> &window,
                     const std::vector<CnotPair> &cnots,
                     const std::vector<HwQubit> &layout) const;

    void applySwap(HwQubit u, HwQubit v, std::vector<HwQubit> &layout);

    const Machine &machine_;
    const Topology &topo_;
    const SabreOptions &options_;
    Rng &rng_;

    std::vector<std::vector<int>> qubitCnots_;
    std::vector<size_t> ptr_;
    std::vector<bool> done_;
    std::vector<ProgQubit> occupant_;
    int firstPending_ = 0;
};

void
SabreRoutePass::buildQueues(const std::vector<CnotPair> &cnots,
                            int n_prog)
{
    qubitCnots_.assign(n_prog, {});
    ptr_.assign(n_prog, 0);
    done_.assign(cnots.size(), false);
    firstPending_ = 0;
    for (size_t i = 0; i < cnots.size(); ++i) {
        qubitCnots_[cnots[i].a].push_back(static_cast<int>(i));
        qubitCnots_[cnots[i].b].push_back(static_cast<int>(i));
    }
}

std::vector<int>
SabreRoutePass::collectFront(const std::vector<CnotPair> &cnots) const
{
    std::vector<int> front;
    for (ProgQubit q = 0; q < static_cast<int>(qubitCnots_.size());
         ++q) {
        if (ptr_[q] >= qubitCnots_[q].size())
            continue;
        int g = qubitCnots_[q][ptr_[q]];
        const CnotPair &c = cnots[g];
        // Count each front gate once, from its lower qubit.
        if (q != std::min(c.a, c.b))
            continue;
        ProgQubit other = c.a == q ? c.b : c.a;
        if (qubitCnots_[other][ptr_[other]] == g)
            front.push_back(g);
    }
    std::sort(front.begin(), front.end());
    return front;
}

void
SabreRoutePass::retire(int g, const std::vector<CnotPair> &cnots)
{
    done_[g] = true;
    ++ptr_[cnots[g].a];
    ++ptr_[cnots[g].b];
}

std::vector<int>
SabreRoutePass::lookaheadWindow(const std::vector<int> &front,
                                const std::vector<CnotPair> &cnots)
    const
{
    std::vector<int> window;
    if (options_.lookahead <= 0)
        return window;
    for (int g = firstPending_;
         g < static_cast<int>(cnots.size()) &&
         static_cast<int>(window.size()) < options_.lookahead;
         ++g) {
        if (done_[g] ||
            std::binary_search(front.begin(), front.end(), g))
            continue;
        window.push_back(g);
    }
    return window;
}

double
SabreRoutePass::scoreSwap(HwQubit u, HwQubit v,
                          const std::vector<int> &front,
                          const std::vector<int> &window,
                          const std::vector<CnotPair> &cnots,
                          const std::vector<HwQubit> &layout) const
{
    auto moved = [&](ProgQubit p) -> HwQubit {
        HwQubit h = layout[p];
        if (h == u)
            return v;
        if (h == v)
            return u;
        return h;
    };

    double front_cost = 0.0;
    for (int g : front)
        front_cost += topo_.distance(moved(cnots[g].a),
                                     moved(cnots[g].b));
    front_cost /= static_cast<double>(front.size());

    double look_cost = 0.0;
    if (!window.empty()) {
        double weight = 1.0;
        double weight_sum = 0.0;
        for (int g : window) {
            look_cost += weight * topo_.distance(moved(cnots[g].a),
                                                 moved(cnots[g].b));
            weight_sum += weight;
            weight *= options_.decay;
        }
        look_cost /= weight_sum;
    }

    EdgeId e = topo_.edgeBetween(u, v);
    QC_ASSERT(e != kInvalidEdge, "sabre swap candidate on non-edge");
    double edge_cost = -std::log(machine_.cal().cnotReliability(e));

    return front_cost + options_.lookaheadWeight * look_cost +
           options_.reliabilityWeight * edge_cost;
}

void
SabreRoutePass::applySwap(HwQubit u, HwQubit v,
                          std::vector<HwQubit> &layout)
{
    std::swap(occupant_[u], occupant_[v]);
    if (occupant_[u] != kInvalidQubit)
        layout[occupant_[u]] = u;
    if (occupant_[v] != kInvalidQubit)
        layout[occupant_[v]] = v;
}

std::vector<HwQubit>
SabreRoutePass::run(const std::vector<CnotPair> &cnots,
                    std::vector<HwQubit> layout)
{
    const int n_prog = static_cast<int>(layout.size());
    buildQueues(cnots, n_prog);

    occupant_.assign(topo_.numQubits(), kInvalidQubit);
    for (ProgQubit p = 0; p < n_prog; ++p)
        occupant_[layout[p]] = p;

    size_t executed = 0;
    int stalled_swaps = 0;
    const int stall_limit = 2 * topo_.numQubits() + 8;
    HwQubit last_a = kInvalidQubit, last_b = kInvalidQubit;

    // The frontier only changes when a gate retires, never when a
    // SWAP moves qubits, so it is recomputed exactly once per
    // retirement round and reused across the SWAP search steps.
    std::vector<int> front = collectFront(cnots);
    while (executed < cnots.size()) {
        // Retire every executable front gate until a fixpoint.
        bool progressed = true;
        while (progressed) {
            progressed = false;
            for (int g : front) {
                if (!topo_.adjacent(layout[cnots[g].a],
                                    layout[cnots[g].b]))
                    continue;
                retire(g, cnots);
                ++executed;
                progressed = true;
            }
            if (progressed) {
                stalled_swaps = 0;
                last_a = last_b = kInvalidQubit;
                while (firstPending_ <
                           static_cast<int>(cnots.size()) &&
                       done_[firstPending_])
                    ++firstPending_;
                front = collectFront(cnots);
            }
        }
        if (executed == cnots.size())
            break;

        QC_ASSERT(!front.empty(), "sabre frontier empty with CNOTs "
                                  "pending");

        if (stalled_swaps >= stall_limit) {
            // Anti-livelock: force-route the oldest front gate along
            // the most reliable path, guaranteeing progress whatever
            // the heuristic landscape looks like.
            const CnotPair &c = cnots[front.front()];
            std::vector<HwQubit> path =
                machine_.mostReliablePath(layout[c.a], layout[c.b]);
            for (size_t k = 0; k + 2 < path.size(); ++k)
                applySwap(path[k], path[k + 1], layout);
            stalled_swaps = 0;
            last_a = last_b = kInvalidQubit;
            continue;
        }

        // Candidate exchanges: every coupling edge touching a front
        // gate's current position, deduplicated and id-ordered.
        const std::vector<int> window = lookaheadWindow(front, cnots);
        std::vector<std::pair<HwQubit, HwQubit>> candidates;
        for (int g : front) {
            for (HwQubit h : {layout[cnots[g].a], layout[cnots[g].b]})
                for (HwQubit nb : topo_.neighbors(h))
                    candidates.emplace_back(std::min(h, nb),
                                            std::max(h, nb));
        }
        std::sort(candidates.begin(), candidates.end());
        candidates.erase(
            std::unique(candidates.begin(), candidates.end()),
            candidates.end());

        double best_score = std::numeric_limits<double>::infinity();
        std::vector<size_t> best;
        for (size_t i = 0; i < candidates.size(); ++i) {
            auto [u, v] = candidates[i];
            // Never immediately undo the previous exchange unless it
            // is the only move available.
            if (u == last_a && v == last_b && candidates.size() > 1)
                continue;
            double s = scoreSwap(u, v, front, window, cnots, layout);
            if (s < best_score - 1e-12) {
                best_score = s;
                best.assign(1, i);
            } else if (s < best_score + 1e-12) {
                best.push_back(i);
            }
        }
        QC_ASSERT(!best.empty(), "sabre swap search found no candidate");
        size_t pick =
            best.size() == 1
                ? best.front()
                : best[static_cast<size_t>(rng_.uniformInt(
                      0, static_cast<int>(best.size()) - 1))];
        auto [u, v] = candidates[pick];
        applySwap(u, v, layout);
        last_a = u;
        last_b = v;
        ++stalled_swaps;
    }

    return layout;
}

} // namespace

SabrePlacementResult
sabrePlacementDetailed(const Machine &machine, const Circuit &prog,
                       const SabreOptions &options,
                       const CancelToken *cancel)
{
    throwIfCancelled(cancel, "sabre refinement cancelled");
    const int n_prog = prog.numQubits();
    const int n_hw = machine.numQubits();
    if (n_prog > n_hw)
        QC_FATAL("program needs ", n_prog, " qubits but machine has ",
                 n_hw);
    if (options.iterations < 0)
        QC_FATAL("sabre iterations must be >= 0, got ",
                 options.iterations);
    if (options.lookahead < 0)
        QC_FATAL("sabre lookahead must be >= 0, got ",
                 options.lookahead);

    SabrePlacementResult result;
    result.layout = options.greedySeed
                        ? greedyEdgePlacement(machine, prog)
                        : qiskitTrivialLayout(prog);

    // The seed is itself a candidate, so the refined layout never
    // predicts worse than the heuristic it started from — and both
    // are scored with the same tracking-router movement model the
    // standard Sabre bundle schedules with.
    TrackingRouter evaluator(machine);
    auto evaluate = [&](const std::vector<HwQubit> &layout) {
        return evaluator.run(prog, layout, cancel).predictedSuccess;
    };
    result.predictedSuccess = evaluate(result.layout);

    std::vector<CnotPair> forward = cnotSequence(prog);
    if (forward.empty() || options.iterations == 0)
        return result; // nothing to refine against

    std::vector<CnotPair> backward(forward.rbegin(), forward.rend());

    Rng rng(options.seed, "sabre-ties");
    SabreRoutePass router(machine, options, rng);

    std::vector<HwQubit> current = result.layout;
    for (int it = 0; it < options.iterations; ++it) {
        // Round-trip boundaries are the natural cancellation points:
        // each trip is a full routed pass over the circuit.
        throwIfCancelled(cancel, "sabre refinement cancelled");
        std::vector<HwQubit> after_forward =
            router.run(forward, std::move(current));
        current = router.run(backward, std::move(after_forward));
        ++result.roundTrips;

        double score = evaluate(current);
        if (score > result.predictedSuccess) {
            result.predictedSuccess = score;
            result.layout = current;
        }
    }
    return result;
}

} // namespace qc
