/**
 * @file
 * Noise-aware greedy heuristics GreedyV* and GreedyE* (paper Sec. 5).
 *
 * Both place qubits greedily using the program interaction graph and
 * the machine's most-reliable-path costs (edge weights
 * -log(1 - cnot_err)); their pipeline bundles then schedule with the
 * earliest-ready-gate-first policy along the precomputed paths.
 */

#ifndef QC_MAPPERS_GREEDY_MAPPER_HPP
#define QC_MAPPERS_GREEDY_MAPPER_HPP

#include <utility>
#include <vector>

#include "ir/circuit.hpp"
#include "machine/machine.hpp"
#include "sched/list_scheduler.hpp"

namespace qc {

/**
 * Shared placement utility: the free hardware location minimizing the
 * weighted sum of most-reliable-path costs to the placed neighbors of
 * program qubit q (ties: better readout, then lower id). Returns
 * kInvalidQubit if no location is free.
 */
HwQubit bestAttachedLocation(const Machine &machine,
                             const std::vector<std::pair<HwQubit, int>>
                                 &placed_neighbors,
                             const std::vector<bool> &used);

/**
 * GreedyE* placement: heaviest-edge-first placement of the program
 * interaction graph onto the machine (Sec. 5.2). The heaviest edge
 * goes to the hardware edge with maximal combined CNOT and readout
 * reliability, then unmapped endpoints are attached to maximize path
 * reliability to their placed neighbors. Throws FatalError when the
 * program does not fit.
 */
std::vector<HwQubit> greedyEdgePlacement(const Machine &machine,
                                         const Circuit &prog);

/**
 * GreedyV* placement: program qubits in descending CNOT-degree order
 * (Sec. 5.1). The first qubit goes to the best-readout high-degree
 * hardware location, each subsequent qubit to the free location with
 * the most reliable paths to its already-placed neighbors. Throws
 * FatalError when the program does not fit.
 */
std::vector<HwQubit> greedyVertexPlacement(const Machine &machine,
                                           const Circuit &prog);

/** Scheduler setup shared by the greedy heuristics ("Best Path"). */
SchedulerOptions greedySchedulerOptions();

} // namespace qc

#endif // QC_MAPPERS_GREEDY_MAPPER_HPP
