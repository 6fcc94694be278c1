#include "machine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "support/logging.hpp"

namespace qc {

Machine::Machine(Topology topo, Calibration cal)
    : topo_(std::move(topo)), cal_(std::move(cal))
{
    cal_.validate(topo_);

    // Nominal (noise-unaware) CNOT duration: the rounded mean of the
    // calibrated per-edge durations, i.e. what a static datasheet
    // would quote.
    double sum = 0.0;
    for (Timeslot d : cal_.cnotDuration)
        sum += static_cast<double>(d);
    uniformCnotDuration_ = std::max<Timeslot>(
        1, static_cast<Timeslot>(std::lround(
               sum / static_cast<double>(cal_.cnotDuration.size()))));

    if (topo_.isGrid())
        buildOneBendPaths();
    else
        buildShortestCandidatePaths();
    buildDijkstra();
}

RoutePath
Machine::makeRoute(std::vector<HwQubit> nodes, HwQubit junction) const
{
    QC_ASSERT(nodes.size() >= 2, "route needs at least two nodes");
    RoutePath r;
    r.nodes = std::move(nodes);
    r.junction = junction;
    r.edges.reserve(r.nodes.size() - 1);
    for (size_t i = 0; i + 1 < r.nodes.size(); ++i) {
        EdgeId e = topo_.edgeBetween(r.nodes[i], r.nodes[i + 1]);
        QC_ASSERT(e != kInvalidEdge, "route hops non-adjacent qubits");
        r.edges.push_back(e);
    }

    // Reliability: forward SWAP chain (3 CNOTs each) + the final CNOT
    // (paper footnote 3). Duration: SWAP chain there and back + CNOT
    // (paper Sec. 4.2).
    double rel = 1.0;
    Timeslot dur = 0;
    for (size_t i = 0; i + 1 < r.edges.size(); ++i) {
        double er = cal_.cnotReliability(r.edges[i]);
        rel *= er * er * er;
        dur += 2 * 3 * cal_.cnotDuration[r.edges[i]];
    }
    EdgeId last = r.edges.back();
    rel *= cal_.cnotReliability(last);
    dur += cal_.cnotDuration[last];
    r.reliability = rel;
    r.duration = dur;
    return r;
}

void
Machine::buildOneBendPaths()
{
    const int n = topo_.numQubits();
    obp_.assign(static_cast<size_t>(n) * n, {});

    auto walk = [&](GridPos from, GridPos to) {
        // Straight-line node sequence (exclusive of `from`).
        std::vector<HwQubit> seq;
        GridPos cur = from;
        while (cur.x != to.x) {
            cur.x += (to.x > cur.x) ? 1 : -1;
            seq.push_back(topo_.qubitAt(cur.x, cur.y));
        }
        while (cur.y != to.y) {
            cur.y += (to.y > cur.y) ? 1 : -1;
            seq.push_back(topo_.qubitAt(cur.x, cur.y));
        }
        return seq;
    };

    for (HwQubit c = 0; c < n; ++c) {
        for (HwQubit t = 0; t < n; ++t) {
            if (c == t)
                continue;
            GridPos pc = topo_.posOf(c);
            GridPos pt = topo_.posOf(t);
            auto &routes = obp_[static_cast<size_t>(c) * n + t];

            // Junction A = (c.x, t.y): row-leg first, then column-leg.
            // Junction B = (t.x, c.y): column-leg first.
            GridPos ja{pc.x, pt.y};
            GridPos jb{pt.x, pc.y};

            auto build = [&](GridPos junction) {
                std::vector<HwQubit> nodes{c};
                auto leg1 = walk(pc, junction);
                nodes.insert(nodes.end(), leg1.begin(), leg1.end());
                auto leg2 = walk(junction, pt);
                nodes.insert(nodes.end(), leg2.begin(), leg2.end());
                routes.push_back(
                    makeRoute(std::move(nodes),
                              topo_.qubitAt(junction.x, junction.y)));
            };

            build(ja);
            if (!(ja == jb)) {
                build(jb);
                // Axis-aligned pairs produce the same straight walk
                // from both junctions; keep a single route then.
                if (routes[1].nodes == routes[0].nodes)
                    routes.pop_back();
            }
        }
    }
}

void
Machine::buildShortestCandidatePaths()
{
    const int n = topo_.numQubits();
    obp_.assign(static_cast<size_t>(n) * n, {});

    // Deterministic shortest-path walk from c to t: at every node,
    // step to the extreme-id neighbor that strictly decreases the
    // BFS distance to t. `smallest` picks the lexicographically
    // minimal shortest path, !smallest the maximal one — up to two
    // distinct candidates, mirroring the grid's two junctions.
    auto walk = [&](HwQubit c, HwQubit t, bool smallest) {
        std::vector<HwQubit> nodes{c};
        HwQubit cur = c;
        while (cur != t) {
            HwQubit next = kInvalidQubit;
            for (HwQubit v : topo_.neighbors(cur)) {
                if (topo_.distance(v, t) != topo_.distance(cur, t) - 1)
                    continue;
                if (next == kInvalidQubit || (smallest ? v < next
                                                       : v > next))
                    next = v;
            }
            QC_ASSERT(next != kInvalidQubit,
                      "BFS walk stuck between qubits ", c, " and ", t);
            nodes.push_back(next);
            cur = next;
        }
        return nodes;
    };

    for (HwQubit c = 0; c < n; ++c) {
        for (HwQubit t = 0; t < n; ++t) {
            if (c == t)
                continue;
            auto &routes = obp_[static_cast<size_t>(c) * n + t];
            std::vector<HwQubit> lo = walk(c, t, true);
            std::vector<HwQubit> hi = walk(c, t, false);
            bool same = lo == hi;
            routes.push_back(makeRoute(std::move(lo), kInvalidQubit));
            if (!same)
                routes.push_back(
                    makeRoute(std::move(hi), kInvalidQubit));
        }
    }
}

void
Machine::buildDijkstra()
{
    const int n = topo_.numQubits();
    djCost_.assign(n, std::vector<double>(
                          n, std::numeric_limits<double>::infinity()));
    djPrev_.assign(n, std::vector<HwQubit>(n, kInvalidQubit));

    for (HwQubit src = 0; src < n; ++src) {
        auto &cost = djCost_[src];
        auto &prev = djPrev_[src];
        cost[src] = 0.0;
        using Item = std::pair<double, HwQubit>;
        std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
        pq.push({0.0, src});
        while (!pq.empty()) {
            auto [d, u] = pq.top();
            pq.pop();
            if (d > cost[u])
                continue;
            for (HwQubit v : topo_.neighbors(u)) {
                EdgeId e = topo_.edgeBetween(u, v);
                double w = -std::log(cal_.cnotReliability(e));
                if (cost[u] + w < cost[v] - 1e-15) {
                    cost[v] = cost[u] + w;
                    prev[v] = u;
                    pq.push({cost[v], v});
                }
            }
        }
    }
}

int
Machine::numOneBendPaths(HwQubit c, HwQubit t) const
{
    QC_ASSERT(c != t, "no route from a qubit to itself");
    return static_cast<int>(
        obp_[static_cast<size_t>(c) * numQubits() + t].size());
}

const RoutePath &
Machine::oneBendPath(HwQubit c, HwQubit t, int j) const
{
    const auto &routes = obp_[static_cast<size_t>(c) * numQubits() + t];
    QC_ASSERT(j >= 0 && j < static_cast<int>(routes.size()),
              "one-bend path index ", j, " out of range");
    return routes[j];
}

const RoutePath &
Machine::bestReliabilityPath(HwQubit c, HwQubit t) const
{
    const auto &routes = obp_[static_cast<size_t>(c) * numQubits() + t];
    QC_ASSERT(!routes.empty(), "no route between identical qubits");
    if (routes.size() == 1 ||
        routes[0].reliability >= routes[1].reliability) {
        return routes[0];
    }
    return routes[1];
}

const RoutePath &
Machine::bestDurationPath(HwQubit c, HwQubit t) const
{
    const auto &routes = obp_[static_cast<size_t>(c) * numQubits() + t];
    QC_ASSERT(!routes.empty(), "no route between identical qubits");
    if (routes.size() == 1 || routes[0].duration <= routes[1].duration)
        return routes[0];
    return routes[1];
}

double
Machine::bestPathReliability(HwQubit c, HwQubit t) const
{
    return bestReliabilityPath(c, t).reliability;
}

Timeslot
Machine::bestPathDuration(HwQubit c, HwQubit t) const
{
    return bestDurationPath(c, t).duration;
}

Timeslot
Machine::uniformRouteDuration(int dist) const
{
    QC_ASSERT(dist >= 1, "route distance must be >= 1");
    Timeslot tau_cnot = uniformCnotDuration_;
    Timeslot tau_swap = 3 * tau_cnot;
    return 2 * (dist - 1) * tau_swap + tau_cnot;
}

double
Machine::mostReliablePathCost(HwQubit a, HwQubit b) const
{
    return djCost_[a][b];
}

double
Machine::mostReliablePathReliability(HwQubit a, HwQubit b) const
{
    return std::exp(-djCost_[a][b]);
}

std::vector<HwQubit>
Machine::mostReliablePath(HwQubit a, HwQubit b) const
{
    // Size the path from the predecessor chain, then fill it back to
    // front: one allocation per path.
    const auto &prev = djPrev_[a];
    size_t len = 1;
    for (HwQubit cur = b; cur != a; ++len) {
        cur = prev[cur];
        QC_ASSERT(cur != kInvalidQubit, "broken Dijkstra predecessor");
    }
    std::vector<HwQubit> path(len);
    path[len - 1] = b;
    for (size_t i = len - 1; i > 0; --i)
        path[i - 1] = prev[path[i]];
    return path;
}

RoutePath
Machine::dijkstraRoute(HwQubit c, HwQubit t) const
{
    return makeRoute(mostReliablePath(c, t), kInvalidQubit);
}

std::vector<HwQubit>
Machine::qubitsByReadoutReliability() const
{
    std::vector<HwQubit> qs(numQubits());
    for (int i = 0; i < numQubits(); ++i)
        qs[i] = i;
    std::stable_sort(qs.begin(), qs.end(), [this](HwQubit a, HwQubit b) {
        return cal_.readoutError[a] < cal_.readoutError[b];
    });
    return qs;
}

} // namespace qc
