/**
 * @file
 * Z3 encoding of the paper's constrained-optimization compilation
 * problem (Sec. 4): qubit-mapping constraints (1-2), gate-scheduling
 * dependencies (3), duration/coherence constraints (4-6), routing
 * non-overlap for RR and 1BP policies (7-9), reliability tracking
 * (10-11), and the duration or weighted log-reliability objective
 * (Eq. 12).
 *
 * The objective is minimized with plain sat queries under a bound.
 * An exact branch-and-bound (solver/bnb_placer.hpp) first gives a
 * lower bound and a placement that may attain it: the Eq. 12
 * placement optimum for reliability, and for duration the smallest
 * critical path over placements with each CNOT on the fastest route
 * of its placed pair. The latter drops only route non-overlap and the
 * coherence windows, so it is a valid bound. Z3 is then asked to meet
 * the bound with the placement pinned, then with it free; a sat
 * answer proves optimality in one query. Failing that, a binary
 * search closes the gap between the bound and Z3's first model. The
 * makespan search has a deterministic work cap (kMakespanBoundWork);
 * past it the bound falls back to the critical path with every CNOT
 * at the machine's fastest pair.
 */

#ifndef QC_SOLVER_SMT_MODEL_HPP
#define QC_SOLVER_SMT_MODEL_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "ir/circuit.hpp"
#include "machine/machine.hpp"
#include "route/routing.hpp"
#include "solver/objective.hpp"

namespace qc {

/** Which objective the SMT model optimizes. */
enum class SmtObjectiveKind {
    Duration,    ///< minimize program makespan (T-SMT, T-SMT*)
    Reliability, ///< maximize Eq. 12 (R-SMT*)
};

/** Default Z3 budget of one SMT solve, in milliseconds. */
inline constexpr unsigned kDefaultSmtTimeoutMs = 60'000;

/** Configuration of one SMT solve. */
struct SmtModelOptions
{
    SmtObjectiveKind objective = SmtObjectiveKind::Reliability;

    /**
     * true  = use per-edge calibrated durations and per-qubit T2
     *         (T-SMT*, R-SMT*; constraints 5-6),
     * false = nominal uniform durations and the 1000-slot machine
     *         average coherence bound (T-SMT; constraint 4).
     */
    bool calibrationAware = true;

    /** Routing policy for duration tables and overlap constraints. */
    RoutingPolicy policy = RoutingPolicy::OneBendPath;

    /** Eq. 12's readout weight omega (Reliability objective only). */
    double readoutWeight = kDefaultReadoutWeight;

    /** Z3 wall-clock budget; best-found model is used on timeout. */
    unsigned timeoutMs = kDefaultSmtTimeoutMs;

    /**
     * true = encode start times, routing overlap and coherence jointly
     * with placement (the paper's full formulation). false = placement
     * and reliability constraints only, with scheduling realized by
     * the list scheduler afterwards — a compile-time escape hatch for
     * large synthetic programs (Fig. 11's scalability sweep).
     */
    bool jointScheduling = true;
};

/** Why a solve produced no model (meaningful when !feasible). */
enum class SmtFailure {
    None,    ///< a model was found (or no failure recorded yet)
    Unsat,   ///< constraints proven unsatisfiable
    Timeout, ///< budget exhausted without any model
    Error,   ///< Z3 raised an exception
};

/** Outcome of an SMT solve. */
struct SmtSolution
{
    bool feasible = false; ///< a model satisfying all constraints exists
    bool optimal = false;  ///< Z3 proved optimality before the timeout
    SmtFailure failure = SmtFailure::None; ///< structured no-model cause
    std::vector<HwQubit> layout; ///< program qubit -> hardware qubit
    std::vector<int> junctions;  ///< per gate: one-bend route index, -1
    /**
     * Objective value of the returned model (meaningful when
     * feasible): the makespan in timeslots for Duration, the Eq. 12
     * integer cost for Reliability. Proven minimal when optimal, so it
     * does not depend on which of several optimal models Z3 returns.
     */
    std::int64_t objective = 0;
    double solveSeconds = 0.0;
    std::string status;          ///< Z3 result string for reports
};

/**
 * Build and solve the SMT mapping model for one circuit on one
 * machine-day. Throws FatalError if the program cannot fit.
 */
SmtSolution solveSmtMapping(const Machine &machine, const Circuit &prog,
                            const SmtModelOptions &options);

} // namespace qc

#endif // QC_SOLVER_SMT_MODEL_HPP
