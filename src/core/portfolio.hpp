/**
 * @file
 * Portfolio racing: compile one job with N candidate mapper bundles,
 * cancel provable losers early, return the best predicted-success
 * candidate — deterministically.
 *
 * The paper's Table 2 shows that which mapping policy wins swings
 * per program and per calibration day; instead of making the user
 * guess, PortfolioPass races every enabled MapperKind bundle over the
 * same circuit and machine snapshot and keeps the one with the best
 * predicted success probability.
 *
 * Determinism is the design center. The winner must not depend on
 * thread timing, so:
 *
 *  - Eligibility is timing-free: a candidate can win iff it produced
 *    a program with an ok status and a deterministic solve
 *    (solverOptimal — timeout-truncated SMT incumbents depend on
 *    wall-clock luck and are excluded; so are degraded fallbacks and
 *    cancelled runs, which produce no program at all).
 *  - Selection happens after the race over the full candidate array
 *    in bundle order: max predicted success, ties broken by the
 *    lower bundle index.
 *  - Early cancellation only kills *provable* losers. A completed
 *    eligible candidate i with predicted success p cancels an
 *    unfinished candidate j only when p > ub — where ub is
 *    circuitSuccessUpperBound, a bound no mapping of this circuit on
 *    this machine can exceed — or when p == ub and i precedes j in
 *    bundle order (j can at best tie and then loses the tie-break
 *    anyway). Both predictions and the
 *    bound are exp(sum-of-logs) accumulated in program-gate order,
 *    so the bound dominates term-by-term.
 *
 * Execution is pluggable so this layer stays free of the service's
 * ThreadPool: a PortfolioExecutor runs the candidate closures, the
 * built-in SerialPortfolioExecutor runs them in launch order on the
 * calling thread (the bit-identity oracle), and the service provides
 * a pool-backed one (service/portfolio_executor.hpp) with a
 * help-while-wait worker budget. Launch order puts the cheap
 * heuristic bundles before the SMT bundles so early completions can
 * cancel expensive solves, and PortfolioOptions::deadlineMs caps each
 * SMT candidate's solver budget identically in serial and parallel
 * runs.
 */

#ifndef QC_CORE_PORTFOLIO_HPP
#define QC_CORE_PORTFOLIO_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "core/pipeline.hpp"
#include "support/cancel.hpp"

namespace qc {

/** One raced bundle's outcome, win or lose. */
struct PortfolioCandidate
{
    MapperKind kind = MapperKind::Qiskit;
    std::string name;           ///< mapperKindName(kind)
    CompileStatus status;
    std::string failedStage;    ///< empty when ok
    bool hasProgram = false;
    bool eligible = false;      ///< could this candidate win?
    bool winner = false;
    bool cancelled = false;     ///< status.code == Cancelled
    bool verifyRejected = false; ///< won selection, failed validation
    double predictedSuccess = 0.0; ///< valid iff hasProgram
    Timeslot duration = 0;         ///< valid iff hasProgram
    int swapCount = 0;             ///< valid iff hasProgram
    double seconds = 0.0;          ///< candidate wall-clock
    std::vector<StageTrace> stageTraces;
};

/** Outcome of one portfolio race. */
struct PortfolioResult
{
    /**
     * The winning candidate's pipeline result. When no candidate was
     * eligible, the best degraded program (same comparator) or — with
     * no program anywhere — the first candidate's failure, so callers
     * see the same ok/degraded/failed contract as a single bundle.
     */
    PipelineResult best;

    int winnerIndex = -1; ///< into candidates; -1 = nothing usable
    std::vector<PortfolioCandidate> candidates;

    int launchedCount = 0;  ///< candidates whose pipeline actually ran
    int cancelledCount = 0; ///< cancelled (incl. skipped before start)

    /**
     * Would-be winners the translation validator rejected before
     * selection committed (each demoted deterministically, the next
     * best candidate re-selected in bundle order).
     */
    int verifyRejectedCount = 0;

    /** circuitSuccessUpperBound for this race (diagnostic). */
    double upperBound = 0.0;

    bool ok() const { return best.ok(); }
};

/**
 * Runs the candidate closures to completion. Implementations may run
 * them concurrently but must not return before every closure has
 * finished. Closures are self-contained and never enqueue more work.
 */
class PortfolioExecutor
{
  public:
    virtual ~PortfolioExecutor() = default;
    virtual void runAll(std::vector<std::function<void()>> tasks) = 0;
};

/** In-order execution on the calling thread (bit-identity oracle). */
class SerialPortfolioExecutor final : public PortfolioExecutor
{
  public:
    void runAll(std::vector<std::function<void()>> tasks) override;
};

/**
 * An upper bound on the predicted success probability any mapping of
 * `prog` on `machine` can report: every CNOT at the machine's best
 * edge reliability, every measurement at its best readout
 * reliability, zero SWAPs — accumulated exp(sum-of-logs) in program
 * order, the same form both prediction models use, so no real
 * mapping's prediction exceeds it.
 */
double circuitSuccessUpperBound(const Machine &machine,
                                const Circuit &prog);

/**
 * The racing engine. Construction prebuilds one standardPipeline per
 * enabled bundle (options.portfolio decides the list; options.mapper
 * is ignored); run() races them and selects deterministically.
 * Thread-safe for concurrent run() calls, like Pipeline.
 */
class PortfolioPass
{
  public:
    PortfolioPass(std::shared_ptr<const Machine> machine,
                  CompilerOptions options);

    /**
     * Race every bundle over `prog`.
     *
     * @param executor null = SerialPortfolioExecutor
     * @param cancel   cancels the whole race (all candidates)
     */
    PortfolioResult run(const Circuit &prog,
                        PortfolioExecutor *executor = nullptr,
                        const CancelToken *cancel = nullptr) const;

    const std::vector<MapperKind> &bundles() const { return bundles_; }

    /**
     * Candidate indices in launch order: cheap heuristics first, SMT
     * bundles last, stable within each class.
     */
    static std::vector<size_t> launchOrder(
        const std::vector<MapperKind> &bundles);

  private:
    std::shared_ptr<const Machine> machine_;
    CompilerOptions options_;
    std::vector<MapperKind> bundles_;
    std::vector<Pipeline> pipelines_; ///< one per bundle
};

/**
 * Compile one job on `machine`: a PortfolioPass race when
 * options.portfolio.enabled, else options.mapper's standardPipeline.
 * Either way `best` holds the pipeline result; the race fields
 * (winnerIndex, candidates, counts, upperBound) are filled only for
 * a race. The one per-job compile of naqc, CompileService and naqcd.
 *
 * @param executor runs a race's candidates; null = serial
 */
PortfolioResult compileJob(const std::shared_ptr<const Machine> &machine,
                           const Circuit &prog,
                           const CompilerOptions &options,
                           PortfolioExecutor *executor = nullptr);

} // namespace qc

#endif // QC_CORE_PORTFOLIO_HPP
