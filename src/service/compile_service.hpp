/**
 * @file
 * Concurrent compilation service for batch/daily workloads.
 *
 * The paper's operational model (Sec. 2, Fig. 6) recompiles every
 * program against each fresh calibration snapshot — at production
 * scale, thousands of independent (circuit x calibration-day) jobs
 * per cycle. This service turns the one-shot NoiseAdaptiveCompiler
 * facade into that batch engine:
 *
 *   - a ThreadPool executes jobs concurrently,
 *   - a MachinePool builds each machine-day snapshot once and shares
 *     it across all jobs of that day,
 *   - a CompileCache returns previously compiled results for exact
 *     (circuit, calibration, options) repeats.
 *
 * Jobs compile through compileOnWorker, the job runner naqcd shares:
 * failures come back as structured CompileStatus values with the
 * failing stage recorded, and every fresh compile carries per-stage
 * wall times that ServiceReport aggregates into a batch-wide
 * breakdown.
 *
 * Every mapper is deterministic, so a batch compiled with N workers
 * is bit-identical to the same batch compiled serially — the
 * test suite asserts this.
 */

#ifndef QC_SERVICE_COMPILE_SERVICE_HPP
#define QC_SERVICE_COMPILE_SERVICE_HPP

#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/compiler.hpp"
#include "core/portfolio.hpp"
#include "ir/circuit.hpp"
#include "machine/calibration_model.hpp"
#include "service/compile_cache.hpp"
#include "service/machine_pool.hpp"
#include "service/portfolio_executor.hpp"
#include "service/thread_pool.hpp"

namespace qc::service {

/**
 * Service-wide configuration. The machine pool keeps MachinePool's
 * default 64 LRU snapshots; the compile cache has no byte cap.
 */
struct ServiceOptions
{
    int threads = 0;                ///< workers; <= 0 = hardware
    std::size_t cacheCapacity = 4096; ///< compile-cache entries; 0 off
};

/** One compilation job: a program against one machine-day. */
struct CompileRequest
{
    std::string tag;        ///< caller's label, echoed in the result
    int day = 0;            ///< calibration day (reports only)
    Circuit circuit;
    Topology topo = GridTopology::ibmq16();
    Calibration cal;
    CompilerOptions options;
};

/** Outcome of one job. */
struct CompileResult
{
    std::string tag;
    int day = 0;
    bool ok = false;       ///< a compiled artifact was produced
    bool cacheHit = false;

    /**
     * Diagnostic text: the status message (also set for degraded
     * fallbacks), empty on clean success.
     */
    const std::string &error() const { return status.message; }

    /**
     * Structured outcome: ok / infeasible / solver-timeout /
     * internal-error. May be non-ok while `ok` is true when the
     * solver timed out but the pipeline produced a degraded fallback
     * program (such results are never cached).
     */
    CompileStatus status;

    /** Pipeline stage that failed ("placement", ...); empty if none. */
    std::string failedStage;

    /**
     * Per-stage wall times and notes for freshly compiled jobs —
     * recorded for failures too, so a failed job shows which stage
     * died and how long it ran. Empty for cache hits (the cached
     * program carries its original compile's traces).
     */
    std::vector<StageTrace> stageTraces;

    /**
     * Per-candidate outcomes when the job raced a portfolio
     * (options.portfolio.enabled), in bundle order; empty otherwise
     * and for cache hits. The winner's stage traces appear here *and*
     * in stageTraces — report aggregation reads only this vector for
     * portfolio jobs to avoid double counting.
     */
    std::vector<PortfolioCandidate> portfolio;

    /** Winning bundle's name for portfolio jobs; empty otherwise. */
    std::string winner;

    /** The compiled artifact (shared with the cache); null on error. */
    std::shared_ptr<const CompiledProgram> program;

    /**
     * The machine snapshot the job compiled against. Null on error;
     * may also be null for a cache hit whose snapshot was LRU-evicted
     * from the machine pool (hits never pay for a rebuild).
     */
    std::shared_ptr<const Machine> machine;

    /** Job wall time, failures included (cache hits ~0). */
    double seconds = 0.0;
};

/**
 * The per-job compile every service and daemon worker runs: take the
 * machine snapshot from `snapshot()`, compile with compileJob (a
 * race's candidates borrow idle `pool` workers) and fill `result`'s
 * status, failedStage, stageTraces, portfolio, winner, program and
 * machine. Any exception, `snapshot()`'s included, becomes an
 * internalError result and never escapes the worker. Returns true
 * when the result may be cached: a program with an ok status
 * (degraded fallbacks are usable but not worth pinning).
 */
template <class Snapshot>
bool
compileOnWorker(Snapshot &&snapshot, const Circuit &circuit,
                const CompilerOptions &options, ThreadPool &pool,
                CompileResult &result)
{
    try {
        result.machine = snapshot();
        PoolPortfolioExecutor exec(pool, options.portfolio.maxWorkers);
        PortfolioResult job =
            compileJob(result.machine, circuit, options, &exec);
        PipelineResult &compiled = job.best;
        result.status = std::move(compiled.status);
        result.failedStage = std::move(compiled.failedStage);
        if (job.winnerIndex >= 0)
            result.winner =
                job.candidates[static_cast<std::size_t>(job.winnerIndex)]
                    .name;
        result.portfolio = std::move(job.candidates);
        if (compiled.hasProgram) {
            // The program keeps its own trace copy: it may outlive
            // this result through a cache.
            result.stageTraces = compiled.program.stageTraces;
            result.program = std::make_shared<const CompiledProgram>(
                std::move(compiled.program));
            result.ok = true;
            return result.status.ok();
        }
        result.stageTraces = std::move(compiled.program.stageTraces);
    } catch (const std::exception &e) {
        // bad_alloc, a calibration that does not fit the topology,
        // queue shutdown, ... (compile failures themselves already
        // surface as status values).
        result.status = CompileStatus::internalError(e.what());
    } catch (...) {
        result.status = CompileStatus::internalError(
            "unknown exception during compilation");
    }
    result.ok = false;
    result.program = nullptr;
    result.machine = nullptr;
    return false;
}

/** Per-stage aggregate across a batch. */
struct StageSummary
{
    std::string stage;   ///< "placement/GreedyE*", "scheduling/list", ...
    int runs = 0;
    double seconds = 0.0;
    int failures = 0;    ///< jobs whose pipeline died in this stage
};

/** Aggregate accounting for one batch (or a whole service lifetime). */
struct ServiceReport
{
    int jobs = 0;
    int succeeded = 0;
    int failed = 0;
    int cacheHits = 0;
    int degraded = 0;    ///< ok jobs with a non-ok status (fallbacks)

    /**
     * Per-stage time breakdown over freshly compiled jobs, in
     * first-seen stage order (cache hits contribute nothing).
     */
    std::vector<StageSummary> stages;

    /** Jobs that actually raced a portfolio (cache hits race nothing). */
    int portfolioJobs = 0;
    /**
     * Wins per bundle ("<name>" -> count), in kAllMapperKinds order so
     * the report is deterministic. Only bundles that won appear.
     */
    std::vector<std::pair<std::string, int>> portfolioWins;

    double wallSeconds = 0.0;    ///< batch wall-clock time
    double jobSeconds = 0.0;     ///< sum of per-job times
    /** Jobs per wall-clock second. */
    double throughput() const
    {
        return wallSeconds <= 0.0 ? 0.0 : jobs / wallSeconds;
    }

    MachinePoolStats machinePool;
    CompileCacheStats cache;

    /** Multi-line human-readable summary. */
    std::string toString() const;
};

/** A batch's results plus its aggregate report. */
struct BatchResult
{
    std::vector<CompileResult> results; ///< in request order
    ServiceReport report;
};

/**
 * The compilation service.
 *
 * Thread-safe: submit()/compileBatch() may be called from any thread.
 * The machine pool and compile cache persist across batches, so a
 * second identical batch is served almost entirely from cache.
 */
class CompileService
{
  public:
    explicit CompileService(ServiceOptions options = {});

    /** Worker count actually in use. */
    int numThreads() const { return pool_.numThreads(); }

    /** Enqueue one job; the future never throws (errors go in .ok). */
    std::future<CompileResult> submit(CompileRequest request);

    /**
     * Compile a whole batch, blocking until every job finishes.
     * Results come back in request order with a batch report.
     */
    BatchResult compileBatch(std::vector<CompileRequest> requests);

    /**
     * Drop jobs submitted but not yet started (their futures become
     * broken promises — callers must not get() them). Returns the
     * number cancelled. Used by naqc's SIGINT path to stop a batch
     * without waiting out the whole queue.
     */
    std::size_t cancelPending();

    /**
     * Build the daily-recompilation workload: every program compiled
     * against each of days [firstDay, firstDay + numDays). Tags are
     * "<name>@d<day>".
     */
    static std::vector<CompileRequest>
    dailyBatch(const CalibrationModel &model,
               const std::vector<std::pair<std::string, Circuit>>
                   &programs,
               int firstDay, int numDays,
               const CompilerOptions &options);

    CompileCacheStats cacheStats() const { return cache_.stats(); }

    /** Report over arbitrary results (adds current pool/cache stats). */
    ServiceReport makeReport(const std::vector<CompileResult> &results,
                             double wall_seconds) const;

  private:
    CompileResult runJob(const CompileRequest &request);

    MachinePool machines_;
    CompileCache cache_;
    ThreadPool pool_; ///< last member: workers die before state above
};

} // namespace qc::service

#endif // QC_SERVICE_COMPILE_SERVICE_HPP
