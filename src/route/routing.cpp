#include "routing.hpp"

#include "support/logging.hpp"

namespace qc {

const char *
routingPolicyName(RoutingPolicy p)
{
    switch (p) {
      case RoutingPolicy::RectangleReservation: return "RR";
      case RoutingPolicy::OneBendPath: return "1BP";
    }
    QC_PANIC("unknown routing policy");
}

const char *
routeSelectName(RouteSelect s)
{
    switch (s) {
      case RouteSelect::BestReliability: return "best-reliability";
      case RouteSelect::BestDuration: return "best-duration";
      case RouteSelect::Dijkstra: return "dijkstra";
      case RouteSelect::Fixed: return "fixed-junctions";
    }
    QC_PANIC("unknown route selection");
}

Region
routeRegion(const Topology &topo, const RoutePath &route,
            RoutingPolicy policy)
{
    QC_ASSERT(route.nodes.size() >= 2, "route too short for a region");

    // Only RR on a grid reserves more than the route's node set: a
    // one-bend route's two leg rectangles are lines that cover exactly
    // its nodes, and Dijkstra or non-grid paths have no rectangles.
    if (!topo.isGrid() || policy == RoutingPolicy::OneBendPath)
        return Region::fromQubits(route.nodes);

    return Region::fromQubits(rectQubits(
        topo, Rect::spanning(topo.posOf(route.nodes.front()),
                             topo.posOf(route.nodes.back()))));
}

void
expandRoute(const Machine &machine, const RoutePath &route,
            Timeslot start, int prog_gate, std::vector<TimedOp> &out,
            Timeslot uniform_cnot)
{
    const auto &cal = machine.cal();
    const auto &nodes = route.nodes;
    const auto &edges = route.edges;
    const size_t d = edges.size();
    Timeslot t = start;
    auto emit = [&](Op op, HwQubit a, HwQubit b, EdgeId e) {
        const Timeslot cnot =
            uniform_cnot >= 0 ? uniform_cnot : cal.cnotDuration[e];
        TimedOp top;
        top.gate = {op, a, b, -1};
        top.start = t;
        top.duration = op == Op::Swap ? 3 * cnot : cnot;
        top.progGate = prog_gate;
        top.isRouteSwap = op == Op::Swap;
        t += top.duration;
        out.push_back(top);
    };

    // Forward SWAP chain: move the control along the path until it is
    // adjacent to the target.
    for (size_t i = 0; i + 1 < d; ++i)
        emit(Op::Swap, nodes[i], nodes[i + 1], edges[i]);

    // The CNOT itself: the (moved) control now sits at nodes[d-1].
    emit(Op::CNOT, nodes[d - 1], nodes[d], edges[d - 1]);

    // Restore SWAPs so the static placement stays valid afterwards
    // (matches the 2*(d-1)*tau_swap duration model, Sec. 4.2).
    for (size_t i = d - 1; i-- > 0;)
        emit(Op::Swap, nodes[i + 1], nodes[i], edges[i]);
}

} // namespace qc
