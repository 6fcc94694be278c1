/**
 * @file
 * Shared pieces of the end-to-end benchmark: run arguments, the result
 * every workload returns, the output oracle (translation validation
 * plus noiseless simulation), program digests, and a traced replay of
 * the compile service's job path built from naqc's public pieces.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sched.h>

#include "core/compiler.hpp"
#include "service/compile_cache.hpp"
#include "service/machine_pool.hpp"
#include "service/thread_pool.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

/**
 * Service workers and naqcd threads. One, not one per core: jobs share
 * the cache, the machine pool and their inputs' reference counts, so a
 * job's time rose with the number of workers that ran at once (daily-
 * table2's p50 was 33 us with one worker, 47 us with two), and that
 * number changed with whatever else the host ran. Measured with three
 * busy processes beside it, one worker moved daily-table2's p50 by 1%,
 * four workers halved its throughput.
 */
inline constexpr int kWorkers = 1;

/** Set-ups per run; setup_s is their median. A set-up takes 10-40 ms,
 *  and the median of five still moved by 0.4 of itself between runs. */
inline constexpr int kSetups = 15;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string binDir;  ///< where naqc and naqcd were built
    std::string workDir; ///< private scratch space inside the checkout
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0; ///< failed, refused, rejected or wrong
    bool correct = true;      ///< false also on a digest mismatch
    std::map<std::string, Metric> metrics;
    std::vector<std::string> notes; ///< human-readable lines

    void set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{value, unit};
    }
    void fail(const std::string &why);
};

/**
 * Keeps the calling thread, and the threads and processes it starts, on
 * one CPU (the last one it may use) while in scope. A chain of hand-offs
 * between threads or processes then runs as context switches on that
 * CPU instead of waiting on wake-ups across idle vCPUs, whose latency
 * changes with the rest of the host.
 */
class OneCpu
{
  public:
    OneCpu()
    {
        if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0)
            return;
        int last = -1;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &saved_))
                last = c;
        if (last < 0)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(last, &one);
        pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
    }
    ~OneCpu()
    {
        if (pinned_)
            ::sched_setaffinity(0, sizeof saved_, &saved_);
    }
    OneCpu(const OneCpu &) = delete;
    OneCpu &operator=(const OneCpu &) = delete;

  private:
    cpu_set_t saved_{};
    bool pinned_ = false;
};

/** Peak resident set of this process, in MB. */
double selfPeakRssMb();

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** 64-bit FNV-1a, chainable. */
std::uint64_t fnv1a(const std::string &bytes, std::uint64_t h = kFnvBasis);

/** Digest of a compiled program's layout and timed op stream. */
std::uint64_t programDigest(const qc::CompiledProgram &program);

std::string hex64(std::uint64_t v);

/**
 * Compare `digest` with the one a previous run of the same workload
 * and seed left in the work dir, then store it. Returns "" when equal
 * or new, else a note naming both digests.
 */
std::string checkDigest(const Args &args, std::uint64_t digest);

/** True for the bundles whose scheduler routes live. */
bool routesLive(qc::MapperKind kind);

/**
 * Checks every produced program: translation validation against its
 * machine and, for programs with a known answer, a noiseless
 * simulation of the hardware circuit (deduplicated by digest).
 */
class Oracle
{
  public:
    /** Number of verifier issues (errors + warnings). */
    int verify(const qc::Machine &machine, qc::MapperKind kind,
               const qc::Circuit &source,
               const qc::CompiledProgram &program);

    /**
     * Noiselessly simulate `hw` (only the qubits it touches) and
     * compare the outcome with `expected`. Cached per digest.
     */
    bool simulate(const qc::Circuit &hw, const std::string &expected,
                  std::uint64_t digest);

    std::uint64_t issues() const { return issues_; }

  private:
    std::mutex mu_;
    std::unordered_map<std::uint64_t, bool> simulated_;
    std::atomic<std::uint64_t> issues_{0};
};

/** Noiseless outcome of a hardware circuit over the qubits it uses. */
std::string compactIdealOutcome(const qc::Circuit &hw);

/** One compile job of a batch workload. */
struct Job
{
    std::uint64_t id = 0;
    std::string name; ///< kernel or circuit label
    std::shared_ptr<const qc::Circuit> circuit;
    std::shared_ptr<const qc::Topology> topo;
    std::shared_ptr<const qc::Calibration> cal;
    qc::CompilerOptions options;
    std::string expected; ///< known answer; empty = none
    bool repeat = false;  ///< repeats an earlier job of its batch
};

struct JobResult
{
    bool ok = false;
    bool cacheHit = false;
    double latencyUs = 0.0;
    std::shared_ptr<const qc::CompiledProgram> program;
    std::shared_ptr<const qc::Machine> machine;
};

/** Span name of the layer a pipeline stage belongs to. */
const char *stageLayer(const std::string &stage, qc::MapperKind kind);

/**
 * CompileService::runJob rebuilt from public pieces (fingerprints,
 * CompileCache, MachinePool, ThreadPool and each Pass::run on a
 * CompileContext), with a span around every call. With the tracer
 * off it runs the same code without spans, which is how the tracing
 * overhead is measured.
 */
class ServiceReplay
{
  public:
    ServiceReplay(Tracer &tracer, int threads);

    /** Run a batch on the pool; results in job order. */
    std::vector<JobResult> runBatch(const std::vector<Job> &jobs);

    double queueWaitUs() const { return queueWaitUs_; }
    std::uint64_t jobs() const { return jobs_; }
    std::uint64_t poolHits() const { return poolHits_; }
    std::uint64_t poolLookups() const { return poolLookups_; }
    qc::service::CompileCacheStats cacheStats() const
    {
        return cache_.stats();
    }

  private:
    JobResult runOne(const Job &job, double submittedUs);

    Tracer &tracer_;
    qc::service::MachinePool machines_;
    qc::service::CompileCache cache_;
    std::mutex mu_;
    double queueWaitUs_ = 0.0;
    std::uint64_t jobs_ = 0;
    std::atomic<std::uint64_t> poolHits_{0};
    std::atomic<std::uint64_t> poolLookups_{0};
    qc::service::ThreadPool pool_; ///< last: workers die first
};

/**
 * Run one pipeline stage by stage with a span per pass, assembling
 * the program as Pipeline::run does. Returns false if no program came
 * out (status in `status`).
 */
bool tracedPipeline(Tracer &tracer, const qc::Pipeline &pipeline,
                    qc::MapperKind kind, const qc::Circuit &circuit,
                    qc::CompiledProgram &out, qc::CompileStatus &status);

/** One per-layer metric per span name: its self time per call. */
void setLayerMetrics(const std::map<std::string, LayerTime> &layers,
                     Outcome &out);

/**
 * Per-layer metrics from a traced run: each span name's self time per
 * call (setLayerMetrics), the mean latency of the `root` spans (whole
 * jobs), and the part of it no layer span inside a root's tree covers.
 * Also a notes table of time per job whose rows add up to the job's
 * latency; spans outside every job (the oracle) are listed apart.
 */
void reportLayers(const Tracer &tracer, const std::string &root,
                  Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
