/**
 * @file
 * Structured compile status and per-stage tracing.
 *
 * CompileStatus is the API-level failure channel of the pass
 * pipeline: instead of throwing FatalError across the public API,
 * Pipeline::run classifies every outcome as ok / infeasible /
 * solver-timeout / internal-error with a human-readable message.
 * StageTrace records what each pipeline stage did and how long it
 * took; a vector of them rides on every CompiledProgram so services
 * and the CLI can show where time (or a failure) went.
 *
 * Lives in support/ so every layer — mappers, core, service — can
 * attach them without upward includes.
 */

#ifndef QC_SUPPORT_STATUS_HPP
#define QC_SUPPORT_STATUS_HPP

#include <string>
#include <utility>
#include <vector>

namespace qc {

/** Outcome classification of one compilation. */
enum class CompileStatusCode {
    Ok,            ///< a program was produced normally
    Infeasible,    ///< the input cannot be compiled (e.g. too many qubits)
    SolverTimeout, ///< the solver exhausted its budget without a model
    InternalError, ///< unexpected failure (library or solver bug)
    VerifyFailed,  ///< the translation validator rejected the output
};

const char *compileStatusCodeName(CompileStatusCode code);

/** Structured result status: a code plus a diagnostic message. */
struct CompileStatus
{
    CompileStatusCode code = CompileStatusCode::Ok;
    std::string message;

    bool ok() const { return code == CompileStatusCode::Ok; }

    static CompileStatus success() { return {}; }
    static CompileStatus infeasible(std::string msg)
    {
        return {CompileStatusCode::Infeasible, std::move(msg)};
    }
    static CompileStatus solverTimeout(std::string msg)
    {
        return {CompileStatusCode::SolverTimeout, std::move(msg)};
    }
    static CompileStatus internalError(std::string msg)
    {
        return {CompileStatusCode::InternalError, std::move(msg)};
    }
    static CompileStatus verifyFailed(std::string msg)
    {
        return {CompileStatusCode::VerifyFailed, std::move(msg)};
    }
};

/** What one pipeline stage did: name, wall time, diagnostics. */
struct StageTrace
{
    std::string stage;   ///< role: "placement", "routing", ...
    std::string pass;    ///< pass name, e.g. "GreedyE*", "1BP", "list"
    double seconds = 0.0;
    std::string note;    ///< pass-specific diagnostic, may be empty
};

/** Sum of stage wall times (the pipeline's compile time). */
double totalStageSeconds(const std::vector<StageTrace> &traces);

} // namespace qc

#endif // QC_SUPPORT_STATUS_HPP
