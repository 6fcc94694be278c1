/**
 * @file
 * Public entry point: the noise-adaptive compiler facade.
 *
 * Wraps machine construction (topology + calibration), the Table 1
 * pass bundles, compilation, and OpenQASM emission behind one object.
 * The pass pipeline (core/pipeline.hpp) is the only compile path:
 * standardPipeline() maps each MapperKind to its
 * placement/routing/scheduling/prediction bundle, and
 * NoiseAdaptiveCompiler runs that bundle. Use the Pipeline API
 * directly for custom pass combinations.
 */

#ifndef QC_CORE_COMPILER_HPP
#define QC_CORE_COMPILER_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/compiled_program.hpp"
#include "core/pipeline.hpp"
#include "ir/circuit.hpp"
#include "ir/qasm.hpp"
#include "machine/calibration_model.hpp"
#include "machine/machine.hpp"
#include "route/routing.hpp"

namespace qc {

/** The compiler variants of Table 1, plus post-paper extensions. */
enum class MapperKind {
    Qiskit,   ///< calibration-blind baseline
    TSmt,     ///< SMT, minimize duration, static machine model
    TSmtStar, ///< SMT, minimize duration, calibration-aware
    RSmtStar, ///< SMT, maximize reliability (Eq. 12)
    GreedyV,  ///< greatest-vertex-degree-first heuristic
    GreedyE,  ///< greatest-weighted-edge-first heuristic
    GreedyETrack, ///< GreedyE* placement + live-tracking routing
    Sabre,    ///< SABRE-refined placement + live-tracking routing
};

/** Every MapperKind, in Table 1 order (iteration helper). */
inline constexpr MapperKind kAllMapperKinds[] = {
    MapperKind::Qiskit,       MapperKind::TSmt,
    MapperKind::TSmtStar,     MapperKind::RSmtStar,
    MapperKind::GreedyV,      MapperKind::GreedyE,
    MapperKind::GreedyETrack, MapperKind::Sabre,
};

const char *mapperKindName(MapperKind k);

/**
 * Parse a variant name. Matching is case-insensitive and ignores
 * '-', '_', '+' and spaces, so "R-SMT*", "rsmt*" and "r smt*" all
 * work; common aliases ("r-smt" for R-SMT*, "greedye" for GreedyE*,
 * "track" for GreedyE*+track) are accepted too. Throws FatalError
 * naming the offending input and the full valid list.
 */
MapperKind mapperKindFromName(const std::string &name);

/**
 * Portfolio-racing configuration (core/portfolio.hpp). Lives inside
 * CompilerOptions so it rides through CompileRequest, the daemon
 * protocol and — crucially — the service's option fingerprint: every
 * knob here changes which program comes back, so every knob is part
 * of the compile-cache key.
 */
struct PortfolioOptions
{
    /** Race `bundles` instead of compiling options.mapper alone. */
    bool enabled = false;

    /** Candidate bundles in priority order; empty = all 8 kinds. */
    std::vector<MapperKind> bundles;

    /**
     * Cap on each SMT candidate's solver budget (ms): its effective
     * smtTimeoutMs becomes min(smtTimeoutMs, deadlineMs), so a hard
     * SMT instance degrades to its timeout fallback (ineligible to
     * win) instead of holding the whole race hostage. 0 = no cap.
     */
    unsigned deadlineMs = 10'000;

    /**
     * Cap on pool workers a portfolio job may borrow for its
     * candidates (besides the slot it occupies). <= 0 = no cap.
     */
    int maxWorkers = 0;
};

/** Top-level compiler configuration. */
struct CompilerOptions
{
    MapperKind mapper = MapperKind::RSmtStar;
    RoutingPolicy policy = RoutingPolicy::OneBendPath;
    double readoutWeight = 0.5;   ///< Eq. 12 omega (R-SMT*)
    unsigned smtTimeoutMs = 60'000;
    bool jointScheduling = true;  ///< full SMT formulation

    /** @name Sabre knobs (MapperKind::Sabre only)
     *  Forwarded to SabreOptions; both steer the mapping, so both are
     *  part of the service's compile-cache key (fingerprintOptions).
     *  @{ */
    int sabreIterations = 3; ///< refinement round trips
    int sabreLookahead = 20; ///< decayed lookahead window (CNOTs)
    /** @} */

    /**
     * Force the translation validator (verify/verifier.hpp) on for
     * every compilation regardless of build type — what naqc --verify
     * sets. Execution-only: it cannot change which program a bundle
     * produces, so it is deliberately NOT part of the service's
     * compile-cache fingerprint.
     */
    bool verify = false;

    /** Portfolio racing (core/portfolio.hpp); disabled by default. */
    PortfolioOptions portfolio;
};

/**
 * The bundle list a PortfolioOptions actually races: its explicit
 * list, or all of kAllMapperKinds when the list is empty.
 */
std::vector<MapperKind> resolvedPortfolioBundles(
    const PortfolioOptions &options);

/**
 * The Table 1 bundle for `options.mapper` as a pass pipeline:
 * placement (Qiskit baseline / GreedyV* / GreedyE* / SMT variants),
 * route selection, scheduling (list or live-tracking) and
 * reliability prediction. tests/test_grid_identity.cpp pins every
 * bundle's output on the Table 2 set.
 */
Pipeline standardPipeline(std::shared_ptr<const Machine> machine,
                          const CompilerOptions &options);

/**
 * Noise-adaptive compiler for one machine-day.
 *
 * Holds the machine snapshot it compiles against as a shared,
 * immutable view; re-create the compiler per calibration cycle (the
 * paper recompiles daily), or hand it a snapshot from a
 * service::MachinePool so many compilers share one precompute.
 */
class NoiseAdaptiveCompiler
{
  public:
    NoiseAdaptiveCompiler(Topology topo, Calibration cal,
                          CompilerOptions options = {});

    /** Wrap an existing shared machine snapshot (never null). */
    explicit NoiseAdaptiveCompiler(std::shared_ptr<const Machine> machine,
                                   CompilerOptions options = {});

    /**
     * Compile a program circuit to a placed, scheduled executable.
     * Throws FatalError when no program can be produced (see
     * Pipeline::compile); prefer compileWithStatus for structured
     * errors.
     */
    CompiledProgram compile(const Circuit &prog) const;

    /**
     * Compile with the structured status/trace channel: infeasible
     * inputs and solver timeouts come back as CompileStatus values
     * with per-stage traces instead of exceptions.
     */
    PipelineResult compileWithStatus(const Circuit &prog) const;

    /** Compile and emit IBMQ16-ready OpenQASM 2.0 text. */
    std::string compileToQasm(const Circuit &prog) const;

    const Machine &machine() const { return *machine_; }

    /** The shared snapshot this compiler works against. */
    const std::shared_ptr<const Machine> &machineSnapshot() const
    {
        return machine_;
    }

    const CompilerOptions &options() const { return options_; }

    /** The pass pipeline this facade runs. */
    const Pipeline &pipeline() const { return pipeline_; }

  private:
    std::shared_ptr<const Machine> machine_;
    CompilerOptions options_;
    Pipeline pipeline_;
};

} // namespace qc

#endif // QC_CORE_COMPILER_HPP
