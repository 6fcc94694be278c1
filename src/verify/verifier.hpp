/**
 * @file
 * Translation validation: a static checker that proves a compiled
 * program legal, semantically faithful, and schedule-consistent.
 *
 * ProgramVerifier analyzes a (Circuit source, CompiledProgram out,
 * Machine) triple and emits a structured lint report instead of
 * simulating: coupling legality (every 2-qubit op on a real Topology
 * edge with finite calibration reliability), semantic faithfulness
 * (replay the SWAP chain to maintain the logical→physical map and
 * prove the hardware op stream equals the source DAG up to the
 * tracked permutation — no dropped, duplicated, or
 * reordered-across-dependency gates), schedule consistency (no
 * time-overlapping ops share a qubit or macro reservation footprint,
 * durations match the duration model, makespan matches the declared
 * value), and measurement coverage + final-permutation correctness.
 *
 * Every check is O(gates) on the success path and independent of
 * qubit count beyond O(hw qubits) bookkeeping, so it scales to the
 * 1000-qubit frontier where statevector checking dies at ~20 qubits.
 */

#ifndef QC_VERIFY_VERIFIER_HPP
#define QC_VERIFY_VERIFIER_HPP

#include <string>
#include <vector>

#include "core/compiled_program.hpp"
#include "ir/circuit.hpp"
#include "machine/machine.hpp"

namespace qc {

/** How bad one finding is. Only Error findings fail verification. */
enum class VerifySeverity {
    Warning, ///< suspicious but not a contract violation
    Error,   ///< the program violates a compiled-program contract
};

const char *verifySeverityName(VerifySeverity s);

/** Stable machine-readable issue classification (lint codes). */
enum class VerifyCode {
    // --- structural preconditions ----------------------------------
    LayoutInvalid,      ///< layout is not an injection prog→hw qubits
    ScheduleShape,      ///< sizes/counters inconsistent with machine
    OpQubitRange,       ///< op operand outside the hardware qubit set
    // --- coupling legality -----------------------------------------
    EdgeMissing,        ///< 2-qubit op not on a real coupling edge
    ReliabilityInvalid, ///< op's calibration reliability not in (0,1]
    // --- semantic faithfulness (replay) ----------------------------
    GateDropped,        ///< source gate never executed
    GateDuplicated,     ///< source gate executed more than once
    GateMismatch,       ///< hardware op matches no source gate
    DependencyOrder,    ///< gate ran before a same-qubit predecessor
    MeasureMissing,     ///< source measurement never executed
    MeasureMismatch,    ///< measurement on wrong qubit or clbit
    SwapAnnotation,     ///< Swap/isRouteSwap bookkeeping inconsistent
    FinalPermutation,   ///< final layout differs from the expected one
    Provenance,         ///< progGate provenance disagrees (warning)
    // --- schedule consistency --------------------------------------
    QubitOverlap,       ///< two ops overlap in time on one qubit
    MacroOverlap,       ///< overlapping macros share a touched qubit
    MacroWindow,        ///< an op escapes its macro's time window
    DurationModel,      ///< op duration differs from the model value
    MakespanMismatch,   ///< makespan / declared duration inconsistent
    QubitFinishMismatch,///< per-qubit last-use table is stale
};

/** Stable kebab-case name for a code (lint report / CLI output). */
const char *verifyCodeName(VerifyCode code);

/** One finding: severity + code + offending op + human detail. */
struct VerifyIssue
{
    VerifySeverity severity = VerifySeverity::Error;
    VerifyCode code = VerifyCode::GateMismatch;

    /**
     * Index into Schedule::opsByStart() of the offending op, or -1
     * for program-level findings (dropped gates, makespan, layout).
     */
    int opIndex = -1;

    std::string detail;

    /** "error[edge-missing] op 12: ..." (one lint line). */
    std::string toString() const;
};

/** Which duration model the schedule is expected to follow. */
enum class VerifyDurations {
    Auto,       ///< calibrated if it fits, else uniform
    Calibrated, ///< per-edge cnotDuration (calibratedDurations=true)
    Uniform,    ///< machine.uniformCnotDuration() for every CNOT
};

/** Verification policy knobs (derived from the producing pipeline). */
struct VerifyOptions
{
    VerifyDurations durations = VerifyDurations::Auto;

    /**
     * Require the final logical→physical permutation to equal the
     * initial layout. True for the list-scheduler bundles (expandRoute
     * restores every SWAP chain); false for live-tracking routing,
     * whose layout drifts and whose measurements chase the qubits.
     */
    bool expectRestoredLayout = false;

    /**
     * Check the macro reservation footprint: two macros overlapping
     * in time must touch disjoint hardware qubit sets. Holds for
     * every scheduler in this repo (both serialize a macro's touched
     * qubits to its finish time); disable for external schedules.
     */
    bool checkMacroExclusion = true;
};

/** The structured lint report one verification run produces. */
struct VerifyReport
{
    std::vector<VerifyIssue> issues;

    /**
     * Final logical→physical map after replaying the SWAP chain:
     * finalLayout[prog qubit] = hw qubit. Equals the initial layout
     * when routing restores it; meaningful only when the replay ran
     * (empty after a LayoutInvalid finding).
     */
    std::vector<HwQubit> finalLayout;

    /** Duration model actually checked: "calibrated" or "uniform". */
    std::string durationsChecked;

    bool ok() const { return errorCount() == 0; }
    int errorCount() const;
    int warningCount() const;

    /** True if any issue (any severity) carries `code`. */
    bool has(VerifyCode code) const;

    /** Multi-line lint-style report ending in a summary line. */
    std::string toString() const;
};

/**
 * The static translation validator. Stateless and cheap to construct;
 * bind one per machine snapshot and reuse across programs.
 */
class ProgramVerifier
{
  public:
    explicit ProgramVerifier(const Machine &machine,
                             VerifyOptions options = {});

    /**
     * Statically verify `program` against its source circuit. Never
     * throws on verification findings (they land in the report);
     * throws nothing for malformed programs either — structural
     * damage is itself a finding.
     */
    VerifyReport verify(const Circuit &source,
                        const CompiledProgram &program) const;

    const VerifyOptions &options() const { return options_; }

  private:
    const Machine *machine_;
    VerifyOptions options_;
};

/**
 * Whether pipelines should verify by default: on in assert-enabled
 * (Debug) builds, off in Release — overridable either way with the
 * QC_VERIFY environment variable (0/false/off disable, anything else
 * enables; CI sets QC_VERIFY=1 on Release builds).
 */
bool defaultVerifyEnabled();

} // namespace qc

#endif // QC_VERIFY_VERIFIER_HPP
