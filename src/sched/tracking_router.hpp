/**
 * @file
 * Live-tracking router: the "no restore" alternative to the paper's
 * SWAP-there-and-back scheme.
 *
 * The paper's model keeps the placement static: every routed CNOT
 * moves the control next to the target and then undoes its SWAPs
 * (duration 2*(d-1)*tau_swap + tau_cnot). This router instead commits
 * the movement — the layout evolves as the program runs, the way
 * later mappers (e.g. SABRE) operate — halving the SWAP cost of each
 * routed CNOT at the price of a drifting placement. It is used by the
 * restore-vs-track ablation bench and by the GreedyE*+track mapper.
 */

#ifndef QC_SCHED_TRACKING_ROUTER_HPP
#define QC_SCHED_TRACKING_ROUTER_HPP

#include <vector>

#include "ir/circuit.hpp"
#include "machine/machine.hpp"
#include "sched/schedule.hpp"

namespace qc {

/** Tracking-router knobs. */
struct TrackingOptions
{
    /**
     * true  = move along the Dijkstra most-reliable path,
     * false = move along the best-reliability one-bend path.
     */
    bool dijkstraPaths = true;
};

/**
 * Result of a tracking-routing pass: the timed schedule plus the
 * final (drifted) placement.
 */
struct TrackingResult
{
    Schedule schedule;
    std::vector<HwQubit> finalLayout; ///< program qubit -> hw qubit
    int swapCount = 0;

    /**
     * Product of per-operation reliabilities of the emitted hardware
     * program (CNOT edges, SWAPs as 3 CNOTs, readouts).
     */
    double predictedSuccess = 0.0;
};

/**
 * Route and schedule a program with a live layout.
 *
 * Gates are processed in program order (a valid topological order of
 * the dependency DAG); each distant CNOT permanently SWAPs its
 * control toward its target; single-qubit gates and measurements use
 * the qubit's location at their point in the program.
 */
class TrackingRouter
{
  public:
    TrackingRouter(const Machine &machine, TrackingOptions options = {});

    /**
     * @param prog           program-level circuit
     * @param initial_layout starting placement (validated)
     */
    TrackingResult run(const Circuit &prog,
                       std::vector<HwQubit> initial_layout) const;

  private:
    const Machine &machine_;
    TrackingOptions options_;
};

} // namespace qc

#endif // QC_SCHED_TRACKING_ROUTER_HPP
