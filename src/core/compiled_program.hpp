/**
 * @file
 * The CompiledProgram artifact every compiler bundle produces (Table 1
 * of the paper enumerates the bundles; core/compiler.hpp builds them).
 */

#ifndef QC_CORE_COMPILED_PROGRAM_HPP
#define QC_CORE_COMPILED_PROGRAM_HPP

#include <string>
#include <vector>

#include "ir/circuit.hpp"
#include "sched/schedule.hpp"
#include "support/status.hpp"

namespace qc {

/**
 * The output of one compilation: placement, timed hardware schedule,
 * and the model's own reliability/duration predictions.
 */
struct CompiledProgram
{
    std::string mapperName;
    std::string programName;

    std::vector<HwQubit> layout;   ///< program qubit -> hardware qubit
    std::vector<int> junctions;    ///< per gate one-bend route; empty ok
    Schedule schedule;

    Timeslot duration = 0;         ///< schedule makespan (timeslots)
    double logReliability = 0.0;   ///< sum log(eps) over CNOTs+readouts
    double predictedSuccess = 0.0; ///< exp(logReliability)
    int swapCount = 0;             ///< routing SWAPs in the schedule

    double compileSeconds = 0.0;
    bool solverOptimal = true;     ///< solver proved optimality
    std::string solverStatus;      ///< diagnostic (SMT variants)

    /** Per-stage wall times and notes (core/pipeline.hpp). */
    std::vector<StageTrace> stageTraces;

    /** Hardware-level circuit (Swaps preserved; QASM expands them). */
    Circuit hwCircuit(int n_clbits) const
    {
        return schedule.toHwCircuit(programName + "." + mapperName,
                                    n_clbits);
    }
};

} // namespace qc

#endif // QC_CORE_COMPILED_PROGRAM_HPP
