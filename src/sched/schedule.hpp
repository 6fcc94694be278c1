/**
 * @file
 * Schedule data model: the timed hardware-level program produced for a
 * fixed placement, plus coherence-window accounting (constraint 4/6).
 */

#ifndef QC_SCHED_SCHEDULE_HPP
#define QC_SCHED_SCHEDULE_HPP

#include <string>
#include <vector>

#include "ir/circuit.hpp"
#include "machine/machine.hpp"
#include "route/routing.hpp"

namespace qc {

/** Macro-level timing of one program gate (incl. its routing). */
struct MacroTiming
{
    int progGate = -1;
    Timeslot start = 0;
    Timeslot duration = 0;

    Timeslot finish() const { return start + duration; }
};

/** A coherence violation: a qubit used past its T2 window. */
struct CoherenceViolation
{
    HwQubit qubit;
    Timeslot lastUse;   ///< finish time of the qubit's last operation
    Timeslot limit;     ///< coherence window in timeslots
};

/**
 * Complete timed mapping of one circuit onto one machine.
 */
struct Schedule
{
    int numHwQubits = 0;
    std::vector<TimedOp> ops;        ///< sorted by (start, insertion)
    std::vector<MacroTiming> macros; ///< one per program gate
    Timeslot makespan = 0;
    std::vector<Timeslot> qubitFinish; ///< last-use finish per hw qubit

    /** Total SWAP micro-operations inserted by routing. */
    int swapCount() const;

    /** Hardware CNOT count (SWAPs count as 3). */
    int hwCnotCount() const;

    /**
     * Flatten to a hardware-level Circuit (ops in start order; Swap
     * pseudo-gates preserved — the QASM emitter expands them).
     */
    Circuit toHwCircuit(const std::string &name, int n_clbits) const;

    /**
     * Qubits whose last use exceeds their coherence window.
     *
     * @param cal           calibration supplying T2 per qubit
     * @param static_limit  if >= 0, check against this uniform limit
     *                      instead (the T-SMT model's MT = 1000 slots)
     */
    std::vector<CoherenceViolation>
    coherenceViolations(const Calibration &cal,
                        Timeslot static_limit = -1) const;

    /** All ops ordered by start time (stable on ties). */
    std::vector<TimedOp> opsByStart() const;

    /**
     * Exact field-by-field equality over every schedule artifact
     * (ops, macros, makespan, qubitFinish) — the canonical
     * bit-identity predicate used by bench_scheduler_hotpath's
     * indexed-vs-reference verdict and the equivalence tests.
     */
    bool identicalTo(const Schedule &other) const;
};

} // namespace qc

#endif // QC_SCHED_SCHEDULE_HPP
