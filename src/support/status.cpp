#include "status.hpp"

#include "support/logging.hpp"

namespace qc {

const char *
compileStatusCodeName(CompileStatusCode code)
{
    switch (code) {
      case CompileStatusCode::Ok: return "ok";
      case CompileStatusCode::Infeasible: return "infeasible";
      case CompileStatusCode::SolverTimeout: return "solver-timeout";
      case CompileStatusCode::InternalError: return "internal-error";
      case CompileStatusCode::VerifyFailed: return "verify-failed";
    }
    QC_PANIC("unknown compile status code");
}

double
totalStageSeconds(const std::vector<StageTrace> &traces)
{
    double total = 0.0;
    for (const StageTrace &t : traces)
        total += t.seconds;
    return total;
}

} // namespace qc
