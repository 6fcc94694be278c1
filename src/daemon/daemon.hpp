/**
 * @file
 * The always-on compile daemon core (transport-agnostic).
 *
 * naqcd wraps this class in a Unix-socket server; tests drive it
 * in-process. Jobs compile through service::compileOnWorker, which
 * owns the result and cacheability rules; this class adds the
 * long-running server's three production properties the paper's
 * daily-recompilation story needs:
 *
 *  1. **Sharded submission queue** — admitted jobs land in a
 *     per-tenant-sharded, priority-laned queue (submission_queue.hpp)
 *     whose consumers run on the existing service ThreadPool; a
 *     bounded per-tenant in-flight quota rejects over-quota submits
 *     with a structured reason instead of letting one tenant bury
 *     everyone's queue.
 *
 *  2. **Persistent content-addressed cache** — results are cached in
 *     memory (service::CompileCache) and spilled to a cache
 *     directory (disk_cache.hpp) keyed by the same content
 *     fingerprints, so a restarted daemon serves the previous
 *     working set from disk instead of recompiling it.
 *
 *  3. **Zero-downtime calibration rollover** — reload() builds the
 *     new machine snapshot off the worker path, atomically flips a
 *     shared epoch pointer (jobs pick up the epoch when they start
 *     and keep their snapshot to completion — nothing blocks,
 *     nothing fails), then proactively recompiles the top-K hottest
 *     (circuit, options) fingerprints against the new day so the
 *     post-rollover rush hits a warm cache.
 */

#ifndef QC_DAEMON_DAEMON_HPP
#define QC_DAEMON_DAEMON_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/compiler.hpp"
#include "daemon/disk_cache.hpp"
#include "daemon/submission_queue.hpp"
#include "machine/calibration.hpp"
#include "machine/topology.hpp"
#include "service/compile_cache.hpp"
#include "service/compile_service.hpp"
#include "service/thread_pool.hpp"

namespace qc::daemon {

/** Daemon-wide configuration. */
struct DaemonOptions
{
    int threads = 0;  ///< compile workers; <= 0 = hardware
    int shards = 0;   ///< queue shards; <= 0 = min(4, workers)
    std::size_t cacheCapacity = 4096;     ///< in-memory entries
    std::size_t cacheByteCapacity = 0;    ///< in-memory bytes; 0 off
    std::string cacheDir;                 ///< empty = no persistence
    std::uint64_t tenantQuota = 64; ///< max in-flight per tenant; 0 off
    int warmTopK = 32;      ///< hot fingerprints recompiled on rollover

    /**
     * Run the translation validator over every disk-cache entry
     * before serving it. A checksum-valid but semantically broken
     * entry (torn tooling, stale format, bit rot the frame missed) is
     * unlinked and recompiled instead of served — counted as healed.
     * Jobs with CompilerOptions::verify set verify every cache hit,
     * memory or disk, whatever this says.
     */
    bool verifyOnLoad = true;
};

/** One calibration epoch: an immutable machine-day snapshot. */
struct Epoch
{
    int id = 0;          ///< monotonically increasing flip counter
    int day = 0;         ///< calibration day (reporting)
    std::string source;  ///< where the calibration came from
    std::uint64_t machineFp = 0; ///< machineKey(topo, cal)
    std::shared_ptr<const Machine> machine;
};

enum class JobState { Queued, Running, Done };

const char *jobStateName(JobState state);

/** How a finished job's result was obtained. */
enum class CacheSource { None, Memory, Disk };

const char *cacheSourceName(CacheSource src);

/** Externally visible view of one job. */
struct JobSnapshot
{
    std::uint64_t id = 0;
    std::string tenant;
    Lane lane = Lane::Normal;
    JobState state = JobState::Queued;
    int epochId = 0;          ///< epoch the job compiled against
    CacheSource cacheSource = CacheSource::None;
    int numClbits = 0;        ///< of the submitted circuit
    service::CompileResult result; ///< meaningful once Done
};

/**
 * The `ok ...` status line naqcd answers for a job: id, state,
 * tenant, lane, epoch and cache source; once done also ok, status,
 * the program's swaps/duration/psuccess, a race's winner= and
 * raced=, and error= for a non-ok status.
 */
std::string describeResult(const JobSnapshot &snap);

/** Per-tenant admission accounting. */
struct TenantStats
{
    std::string tenant;
    std::uint64_t inFlight = 0; ///< queued or running right now
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
};

/** Aggregate daemon accounting for `stats` and tests. */
struct DaemonStats
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t diskHits = 0; ///< jobs served from the disk cache
    std::uint64_t warmRecompiles = 0; ///< rollover warm jobs enqueued
    std::uint64_t verifiedOnLoad = 0; ///< disk entries served verified
    std::uint64_t healed = 0; ///< broken disk entries purged on load
    int epochId = 0;
    int epochDay = 0;
    QueueStats queue;
    service::CompileCacheStats memCache;
    DiskCacheStats disk;
    std::size_t diskEntries = 0;
    std::vector<TenantStats> tenants; ///< sorted by tenant name
};

/**
 * The daemon engine. Thread-safe: every public method may be called
 * from any thread (the socket server calls them from per-connection
 * threads while workers run jobs).
 */
class CompileDaemon
{
  public:
    /**
     * @param topo    the machine coupling graph (fixed for the
     *                daemon's lifetime; calibration epochs roll over)
     * @param initial first calibration snapshot
     * @param day     day index of `initial` (reporting)
     * @param source  label for `initial` (reporting)
     */
    CompileDaemon(Topology topo, Calibration initial,
                  DaemonOptions options, int day = 0,
                  std::string source = "startup");

    /** Drains in-flight work, then joins the workers. */
    ~CompileDaemon();

    CompileDaemon(const CompileDaemon &) = delete;
    CompileDaemon &operator=(const CompileDaemon &) = delete;

    int numThreads() const { return pool_.numThreads(); }
    const Topology &topology() const { return topo_; }

    /** Outcome of a submit attempt. */
    struct SubmitOutcome
    {
        bool accepted = false;
        std::uint64_t id = 0;   ///< valid when accepted
        std::string reason;     ///< "rejected:over-quota ..." etc.
    };

    /**
     * Admit a job into the queue. Rejection (over-quota, shutting
     * down) is a structured outcome, not an error.
     */
    SubmitOutcome submit(const std::string &tenant, Lane lane,
                         Circuit circuit,
                         const CompilerOptions &options,
                         std::string tag);

    /** Non-blocking job view; false when the id is unknown. */
    bool status(std::uint64_t id, JobSnapshot &out) const;

    /** Block until the job completes; false when the id is unknown. */
    bool wait(std::uint64_t id, JobSnapshot &out);

    /** Outcome of a calibration rollover. */
    struct ReloadOutcome
    {
        int epochId = 0;
        int warmed = 0; ///< hot fingerprints queued for recompile
    };

    /**
     * Zero-downtime rollover: build the Machine for `cal` in the
     * calling thread (workers keep compiling on the old epoch),
     * atomically flip the epoch pointer, then enqueue warm
     * recompiles of the hottest fingerprints against the new day.
     */
    ReloadOutcome reload(Calibration cal, int day, std::string source);

    /** The epoch new jobs will compile against. */
    std::shared_ptr<const Epoch> currentEpoch() const;

    /** Block until no job is queued or running. */
    void awaitIdle();

    /** Stop admitting jobs (drain continues; idempotent). */
    void beginShutdown();

    bool acceptingJobs() const;

    DaemonStats stats() const;

  private:
    struct JobRecord;

    void pump(int home_shard);
    void runJob(const std::shared_ptr<JobRecord> &record);
    std::shared_ptr<const CompiledProgram> loadVerified(
        const service::CacheKey &key, const Circuit &circuit,
        const Machine &machine, bool verify, bool &verifiedOnLoad,
        bool &healedEntry);
    void finishJob(const std::shared_ptr<JobRecord> &record);
    void noteHotUse(const Circuit &circuit,
                    const CompilerOptions &options,
                    std::uint64_t circuit_fp,
                    std::uint64_t options_fp);
    JobSnapshot snapshotLocked(const JobRecord &record) const;

    const Topology topo_;
    const DaemonOptions options_;

    mutable std::mutex epochMu_;
    std::shared_ptr<const Epoch> epoch_;

    ShardedSubmissionQueue queue_;
    service::CompileCache memCache_;
    DiskCacheStore disk_;

    mutable std::mutex jobsMu_;
    std::condition_variable jobDone_;   ///< some job reached Done
    std::condition_variable allIdle_;   ///< outstanding_ hit zero
    std::unordered_map<std::uint64_t, std::shared_ptr<JobRecord>>
        jobs_;
    std::deque<std::uint64_t> doneOrder_; ///< completion order (prune)
    std::uint64_t nextJobId_ = 1;
    std::size_t outstanding_ = 0; ///< jobs queued or running
    bool accepting_ = true;
    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t diskHits_ = 0;
    std::uint64_t warmRecompiles_ = 0;
    std::uint64_t verifiedOnLoad_ = 0;
    std::uint64_t healed_ = 0;
    std::unordered_map<std::string, TenantStats> tenants_;

    mutable std::mutex hotMu_;
    struct HotEntry
    {
        Circuit circuit;
        CompilerOptions options;
        std::uint64_t uses = 0;
        std::uint64_t firstSeen = 0; ///< tie-break: earlier wins
    };
    std::unordered_map<std::uint64_t, HotEntry> hot_;
    std::uint64_t hotSeq_ = 0; ///< first-seen ordering for ties

    service::ThreadPool pool_; ///< last member: workers die first
};

} // namespace qc::daemon

#endif // QC_DAEMON_DAEMON_HPP
