/**
 * @file
 * Reliability-objective arithmetic shared by the SMT model, the
 * branch-and-bound placer, and the mapper reports.
 *
 * The paper's objective (Eq. 12) maximizes
 *     w * sum_readouts log(eps) + (1 - w) * sum_cnots log(eps)
 * with per-operation reliabilities eps drawn from the calibration
 * (readout) or the one-bend-path matrix EC (CNOT).
 */

#ifndef QC_SOLVER_OBJECTIVE_HPP
#define QC_SOLVER_OBJECTIVE_HPP

#include <cstdint>
#include <vector>

#include "ir/circuit.hpp"
#include "machine/machine.hpp"

namespace qc {

/** Default Eq. 12 readout weight omega, for every layer that takes one. */
inline constexpr double kDefaultReadoutWeight = 0.5;

/** Fixed-point scale for log-reliability integers fed to Z3. */
inline constexpr double kLogScale = 1e5;

/** log(eps) scaled to a non-positive integer cost (rounded). */
std::int64_t scaledLog(double reliability);

/** Split log-reliability of a placed circuit. */
struct ReliabilityBreakdown
{
    double readoutLog = 0.0; ///< sum of log(readout eps)
    double cnotLog = 0.0;    ///< sum of log(CNOT EC)

    /** Eq. 12 with readout weight w. */
    double weighted(double w) const
    {
        return w * readoutLog + (1.0 - w) * cnotLog;
    }

    /** Unweighted product of all operation reliabilities. */
    double successEstimate() const;
};

/**
 * Evaluate the reliability breakdown of a layout.
 *
 * Each CNOT contributes its best-junction EC entry unless `junctions`
 * pins a specific one-bend route per program gate index (as the SMT
 * solution does); each readout contributes its hardware qubit's
 * readout reliability.
 */
ReliabilityBreakdown
evaluateReliability(const Circuit &prog, const std::vector<HwQubit> &layout,
                    const Machine &machine,
                    const std::vector<int> *junctions = nullptr);

/**
 * Per-ordered-pair CNOT multiplicities of a circuit: how many CNOTs
 * have control a and target b. Drives the decomposed placement
 * objective in the branch-and-bound placer.
 */
struct OrderedCnotWeights
{
    explicit OrderedCnotWeights(const Circuit &prog);

    int numQubits() const { return n_; }

    /** CNOT count with control a, target b. */
    int weight(ProgQubit a, ProgQubit b) const
    {
        return w_[static_cast<size_t>(a) * n_ + b];
    }

    /** All (control, target, count) triples with count > 0. */
    struct Entry { ProgQubit control; ProgQubit target; int count; };
    const std::vector<Entry> &entries() const { return entries_; }

    /** Readout multiplicity of qubit q. */
    int readouts(ProgQubit q) const { return readouts_[q]; }

  private:
    int n_;
    std::vector<int> w_;
    std::vector<int> readouts_;
    std::vector<Entry> entries_;
};

} // namespace qc

#endif // QC_SOLVER_OBJECTIVE_HPP
