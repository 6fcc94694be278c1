/**
 * @file
 * Earliest-ready-gate-first list scheduler (paper Sec. 5, [27]) with
 * space-time reservations implementing the RR / 1BP routing policies.
 *
 * Given a fixed placement, the scheduler assigns every gate a start
 * time respecting data dependencies (constraint 3), expands routed
 * CNOTs into SWAP chains, and forbids CNOTs whose reserved regions
 * overlap from overlapping in time (constraints 7-9).
 *
 * The inner loop is indexed: a per-cell ReservationLedger plus an
 * incremental ready-queue that only recomputes gates a commit could
 * move. It is bit-identical to the plain full scan kept as the test
 * oracle in tests/reference_scheduler.hpp.
 *
 * Per-run state is flat and sized up front (the DAG, one gate table,
 * the ledger, the op stream), and one-bend routes are borrowed from
 * the Machine rather than copied, so a run allocates per CNOT only
 * its reserved region (plus, under Dijkstra selection, the route).
 */

#ifndef QC_SCHED_LIST_SCHEDULER_HPP
#define QC_SCHED_LIST_SCHEDULER_HPP

#include <vector>

#include "ir/circuit.hpp"
#include "machine/machine.hpp"
#include "route/routing.hpp"
#include "sched/schedule.hpp"

namespace qc {

/** Knobs controlling routing and the duration model. */
struct SchedulerOptions
{
    RoutingPolicy policy = RoutingPolicy::OneBendPath;
    RouteSelect select = RouteSelect::BestReliability;

    /**
     * false = the noise-unaware T-SMT model: every CNOT takes the
     * machine's nominal duration regardless of edge.
     */
    bool calibratedDurations = true;

    /**
     * For RouteSelect::Fixed: per program-gate-index junction choice
     * (index into Machine::oneBendPath), -1 for non-CNOT gates.
     */
    std::vector<int> fixedJunctions;
};

/**
 * Deterministic list scheduler.
 *
 * run() never reorders dependent gates and always produces the same
 * schedule for the same inputs. Among ready gates it commits the one
 * with the earliest feasible start time (ties: lowest gate index).
 */
class ListScheduler
{
  public:
    ListScheduler(const Machine &machine, SchedulerOptions options);

    /**
     * Schedule a program circuit under a placement.
     *
     * @param prog   program-level circuit
     * @param layout layout[p] = hardware qubit of program qubit p;
     *               entries must be distinct and in range
     */
    Schedule run(const Circuit &prog,
                 const std::vector<HwQubit> &layout) const;

    /**
     * The route this scheduler picks for a CNOT gate. One-bend
     * selections return the Machine's own route; a Dijkstra route is
     * built into `scratch`, which the result then refers to.
     */
    const RoutePath &chooseRoute(HwQubit c, HwQubit t, int gate_idx,
                                 RoutePath &scratch) const;

  private:
    const Machine &machine_;
    SchedulerOptions options_;
};

/** Throw FatalError unless layout is a valid injective placement. */
void validateLayout(const std::vector<HwQubit> &layout, int n_prog,
                    int n_hw);

} // namespace qc

#endif // QC_SCHED_LIST_SCHEDULER_HPP
