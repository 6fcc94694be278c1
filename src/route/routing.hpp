/**
 * @file
 * Routing policies and SWAP-chain expansion.
 *
 * Converts a chosen RoutePath into (a) the spatial Region it reserves
 * under a given policy and (b) the timed hardware operations (forward
 * SWAPs, the CNOT, restore SWAPs) that realize it.
 */

#ifndef QC_ROUTE_ROUTING_HPP
#define QC_ROUTE_ROUTING_HPP

#include <vector>

#include "ir/gate.hpp"
#include "machine/machine.hpp"
#include "route/region.hpp"

namespace qc {

/** The two routing policies of paper Sec. 4.3. */
enum class RoutingPolicy {
    RectangleReservation, ///< block the endpoints' bounding box
    OneBendPath,          ///< block only the two bend legs
};

const char *routingPolicyName(RoutingPolicy p);

/** How a mapper picks among candidate routes for each CNOT. */
enum class RouteSelect {
    BestReliability, ///< max EC one-bend route (R-SMT*)
    BestDuration,    ///< min Delta one-bend route (T-SMT variants)
    Dijkstra,        ///< most-reliable Dijkstra path (greedy heuristics)
    Fixed,           ///< junction dictated per-CNOT by the SMT solver
};

const char *routeSelectName(RouteSelect s);

/**
 * Region reserved by a route under a policy.
 *
 * On grids, RR reserves the endpoints' bounding rectangle regardless
 * of the actual path. 1BP reserves the route's node set: for a
 * one-bend route that is exactly the cells of its two leg rectangles
 * (the paper's rect formulation), for a Dijkstra path one cell per
 * node, the tightest conservative cover. On non-grid topologies a
 * bounding box does not exist, so both policies reserve the node set.
 */
Region routeRegion(const Topology &topo, const RoutePath &route,
                   RoutingPolicy policy);

/** One timed hardware operation (a Schedule entry). */
struct TimedOp
{
    Gate gate;              ///< operands are hardware qubits
    Timeslot start = 0;
    Timeslot duration = 0;
    int progGate = -1;      ///< originating program gate index
    bool isRouteSwap = false;

    Timeslot finish() const { return start + duration; }
};

/**
 * Expand a route into timed ops appended to `out`: SWAPs along
 * nodes[0..d-1], the CNOT on the final edge, then the SWAPs undone in
 * reverse, back to back from `start`. Total duration equals the
 * route's Delta entry.
 *
 * @param prog_gate    program gate index recorded on every op
 * @param uniform_cnot if >= 0, use this duration for every CNOT slot
 *                     (noise-unaware T-SMT model) instead of the
 *                     calibrated per-edge durations.
 */
void expandRoute(const Machine &machine, const RoutePath &route,
                 Timeslot start, int prog_gate, std::vector<TimedOp> &out,
                 Timeslot uniform_cnot = -1);

} // namespace qc

#endif // QC_ROUTE_ROUTING_HPP
