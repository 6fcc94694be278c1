#include "daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "daemon/protocol.hpp"
#include "service/fingerprints.hpp"
#include "support/fingerprint.hpp"
#include "support/logging.hpp"
#include "support/stats.hpp"
#include "verify/verifier.hpp"

namespace qc::daemon {

namespace {

std::string
hexFp(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

int
resolveThreads(int threads)
{
    if (threads > 0)
        return threads;
    return std::max(
        1, static_cast<int>(std::thread::hardware_concurrency()));
}

int
defaultShards(int threads)
{
    return std::max(1, std::min(4, threads));
}

/** The internal tenant warm recompiles run under (bypasses quota). */
const char *const kWarmTenant = "@warm";

/** Completed job records kept for status/wait; older ones are pruned. */
constexpr std::size_t kJobHistory = 65536;

} // namespace

const char *
jobStateName(JobState state)
{
    switch (state) {
    case JobState::Queued:
        return "queued";
    case JobState::Running:
        return "running";
    case JobState::Done:
        return "done";
    }
    return "?";
}

const char *
cacheSourceName(CacheSource src)
{
    switch (src) {
    case CacheSource::None:
        return "none";
    case CacheSource::Memory:
        return "memory";
    case CacheSource::Disk:
        return "disk";
    }
    return "?";
}

std::string
describeResult(const JobSnapshot &snap)
{
    const service::CompileResult &r = snap.result;
    std::ostringstream oss;
    oss << "id=" << snap.id << " state=" << jobStateName(snap.state)
        << " tenant=" << tokenSafe(snap.tenant)
        << " lane=" << laneName(snap.lane) << " epoch=" << snap.epochId
        << " cache=" << cacheSourceName(snap.cacheSource);
    if (snap.state != JobState::Done)
        return oss.str();
    oss << " ok=" << (r.ok ? 1 : 0)
        << " status=" << compileStatusCodeName(r.status.code);
    if (r.ok && r.program) {
        oss << " swaps=" << r.program->swapCount
            << " duration=" << r.program->duration
            << " psuccess=" << r.program->predictedSuccess;
    }
    if (!r.portfolio.empty())
        oss << " winner=" << (r.winner.empty() ? "-" : tokenSafe(r.winner))
            << " raced=" << r.portfolio.size();
    if (!r.status.ok())
        oss << " error=" << tokenSafe(r.error());
    return oss.str();
}

struct CompileDaemon::JobRecord
{
    std::uint64_t id = 0;
    std::string tenant;
    Lane lane = Lane::Normal;
    std::string tag;
    bool warm = false;
    Circuit circuit;
    CompilerOptions options;
    std::uint64_t circuitFp = 0;
    std::uint64_t optionsFp = 0;
    int numClbits = 0;

    JobState state = JobState::Queued;
    int epochId = 0;
    CacheSource cacheSource = CacheSource::None;
    service::CompileResult result;
};

CompileDaemon::CompileDaemon(Topology topo, Calibration initial,
                             DaemonOptions options, int day,
                             std::string source)
    : topo_(std::move(topo)),
      options_(options),
      queue_(options.shards > 0
                 ? options.shards
                 : defaultShards(resolveThreads(options.threads))),
      memCache_(options.cacheCapacity, options.cacheByteCapacity),
      disk_(options.cacheDir),
      pool_(options.threads)
{
    initial.validate(topo_);
    auto epoch = std::make_shared<Epoch>();
    epoch->id = 1;
    epoch->day = day;
    epoch->source = std::move(source);
    epoch->machineFp = service::machineKey(topo_, initial);
    epoch->machine =
        std::make_shared<const Machine>(topo_, std::move(initial));
    std::lock_guard<std::mutex> lock(epochMu_);
    epoch_ = std::move(epoch);
}

CompileDaemon::~CompileDaemon()
{
    beginShutdown();
    awaitIdle();
}

CompileDaemon::SubmitOutcome
CompileDaemon::submit(const std::string &tenant, Lane lane,
                      Circuit circuit, const CompilerOptions &options,
                      std::string tag)
{
    const bool warm = tenant == kWarmTenant;
    const std::uint64_t circuit_fp =
        service::fingerprintCircuit(circuit);
    const std::uint64_t options_fp =
        service::fingerprintOptions(options);

    auto record = std::make_shared<JobRecord>();
    record->tenant = tenant;
    record->lane = lane;
    record->tag = std::move(tag);
    record->warm = warm;
    record->numClbits = circuit.numClbits();
    record->circuit = std::move(circuit);
    record->options = options;
    record->circuitFp = circuit_fp;
    record->optionsFp = options_fp;

    {
        std::lock_guard<std::mutex> lock(jobsMu_);
        if (!accepting_) {
            ++rejected_;
            return {false, 0, "rejected:shutting-down"};
        }
        TenantStats &ts = tenants_[tenant];
        if (ts.tenant.empty())
            ts.tenant = tenant;
        if (!warm && options_.tenantQuota > 0 &&
            ts.inFlight >= options_.tenantQuota) {
            ++rejected_;
            ++ts.rejected;
            return {false, 0,
                    "rejected:over-quota tenant=" + tenant +
                        " inflight=" + std::to_string(ts.inFlight) +
                        " quota=" +
                        std::to_string(options_.tenantQuota)};
        }
        record->id = nextJobId_++;
        jobs_[record->id] = record;
        ++outstanding_;
        ++submitted_;
        ++ts.submitted;
        ++ts.inFlight;
    }

    const int shard = queue_.shardForTenant(tenant);
    queue_.push(shard, lane, record->id);
    pool_.submit([this, shard]() { pump(shard); });
    return {true, record->id, ""};
}

void
CompileDaemon::pump(int home_shard)
{
    const std::uint64_t id = queue_.popReserved(home_shard);
    std::shared_ptr<JobRecord> record;
    {
        std::lock_guard<std::mutex> lock(jobsMu_);
        auto it = jobs_.find(id);
        QC_ASSERT(it != jobs_.end(), "queued job without a record");
        record = it->second;
    }
    runJob(record);
}

void
CompileDaemon::runJob(const std::shared_ptr<JobRecord> &record)
{
    const auto start = std::chrono::steady_clock::now();

    // The epoch is captured once, here: this job compiles — and is
    // cached — against this snapshot even if a rollover flips the
    // current epoch mid-compile.
    std::shared_ptr<const Epoch> epoch = currentEpoch();

    {
        std::lock_guard<std::mutex> lock(jobsMu_);
        record->state = JobState::Running;
        record->epochId = epoch->id;
    }

    service::CompileResult result;
    result.tag = record->tag;
    result.day = epoch->day;

    service::CacheKey key;
    key.circuit = record->circuitFp;
    key.calibration = epoch->machineFp;
    key.options = record->optionsFp;

    if (!record->warm)
        noteHotUse(record->circuit, record->options,
                   record->circuitFp, record->optionsFp);

    // verify=1 means verified: memory entries may come from
    // unverified verify=0 compiles, so a rejected one is a miss.
    const bool verify = record->options.verify;
    CacheSource source = CacheSource::None;
    bool verifiedOnLoad = false;
    bool healedEntry = false;
    auto cached = memCache_.lookup(key);
    if (cached && verify &&
        !ProgramVerifier(*epoch->machine)
             .verify(record->circuit, *cached)
             .ok())
        cached = nullptr;
    if (cached) {
        source = CacheSource::Memory;
    } else if ((cached = loadVerified(
                    key, record->circuit, *epoch->machine,
                    verify || options_.verifyOnLoad, verifiedOnLoad,
                    healedEntry))) {
        memCache_.insert(key, cached);
        source = CacheSource::Disk;
    }

    if (cached) {
        result.ok = true;
        result.cacheHit = true;
        result.program = std::move(cached);
        result.machine = epoch->machine;
    } else if (service::compileOnWorker(
                   [&] { return epoch->machine; }, record->circuit,
                   record->options, pool_, result)) {
        memCache_.insert(key, result.program);
        disk_.store(key, *result.program);
    }
    result.seconds = secondsSince(start);

    {
        std::lock_guard<std::mutex> lock(jobsMu_);
        record->cacheSource = source;
        record->result = std::move(result);
        if (source == CacheSource::Disk)
            ++diskHits_;
        if (verifiedOnLoad)
            ++verifiedOnLoad_;
        if (healedEntry)
            ++healed_;
    }
    finishJob(record);
}

std::shared_ptr<const CompiledProgram>
CompileDaemon::loadVerified(const service::CacheKey &key,
                            const Circuit &circuit,
                            const Machine &machine, bool verify,
                            bool &verifiedOnLoad, bool &healedEntry)
{
    auto loaded = disk_.load(key);
    if (!loaded || !verify)
        return loaded;
    // The frame checksum only proves the bytes round-tripped; the
    // translation validator proves the program still satisfies the
    // compiled-program contracts against *this* epoch's machine (the
    // cache key pins the machine fingerprint, so a mismatch means
    // the entry is broken, not merely stale). Auto durations: the
    // producing bundle's duration model is not recorded in the entry.
    const VerifyReport report =
        ProgramVerifier(machine).verify(circuit, *loaded);
    if (report.ok()) {
        verifiedOnLoad = true;
        return loaded;
    }
    // Checksum-valid but semantically broken: purge the entry and
    // recompile — the fresh ok result re-stores, healing the slot.
    disk_.remove(key);
    healedEntry = true;
    return nullptr;
}

void
CompileDaemon::finishJob(const std::shared_ptr<JobRecord> &record)
{
    std::lock_guard<std::mutex> lock(jobsMu_);
    record->state = JobState::Done;
    ++completed_;
    auto it = tenants_.find(record->tenant);
    if (it != tenants_.end()) {
        ++it->second.completed;
        --it->second.inFlight;
    }
    doneOrder_.push_back(record->id);
    while (doneOrder_.size() > kJobHistory) {
        jobs_.erase(doneOrder_.front());
        doneOrder_.pop_front();
    }
    QC_ASSERT(outstanding_ > 0, "job accounting underflow");
    --outstanding_;
    jobDone_.notify_all();
    if (outstanding_ == 0)
        allIdle_.notify_all();
}

void
CompileDaemon::noteHotUse(const Circuit &circuit,
                          const CompilerOptions &options,
                          std::uint64_t circuit_fp,
                          std::uint64_t options_fp)
{
    Fingerprint fp;
    fp.mix(circuit_fp).mix(options_fp);
    std::lock_guard<std::mutex> lock(hotMu_);
    HotEntry &entry = hot_[fp.value()];
    if (entry.uses == 0) {
        entry.circuit = circuit;
        entry.options = options;
        entry.firstSeen = hotSeq_++;
    }
    ++entry.uses;
}

bool
CompileDaemon::status(std::uint64_t id, JobSnapshot &out) const
{
    std::lock_guard<std::mutex> lock(jobsMu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    out = snapshotLocked(*it->second);
    return true;
}

bool
CompileDaemon::wait(std::uint64_t id, JobSnapshot &out)
{
    std::shared_ptr<JobRecord> record;
    std::unique_lock<std::mutex> lock(jobsMu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    record = it->second;
    jobDone_.wait(lock,
                  [&] { return record->state == JobState::Done; });
    out = snapshotLocked(*record);
    return true;
}

JobSnapshot
CompileDaemon::snapshotLocked(const JobRecord &record) const
{
    JobSnapshot snap;
    snap.id = record.id;
    snap.tenant = record.tenant;
    snap.lane = record.lane;
    snap.state = record.state;
    snap.epochId = record.epochId;
    snap.cacheSource = record.cacheSource;
    snap.numClbits = record.numClbits;
    snap.result = record.result;
    return snap;
}

CompileDaemon::ReloadOutcome
CompileDaemon::reload(Calibration cal, int day, std::string source)
{
    cal.validate(topo_);

    // Build the new snapshot outside every lock: the expensive
    // all-pairs precompute runs while workers keep serving the old
    // epoch — rollover never blocks the compile path.
    auto machine =
        std::make_shared<const Machine>(topo_, cal);
    auto epoch = std::make_shared<Epoch>();
    epoch->day = day;
    epoch->source = std::move(source);
    epoch->machineFp = service::machineKey(topo_, cal);
    epoch->machine = std::move(machine);
    {
        std::lock_guard<std::mutex> lock(epochMu_);
        epoch->id = epoch_->id + 1;
        epoch_ = epoch; // the atomic flip: new jobs see it from here
    }

    // Proactive warm-up: recompile the hottest fingerprints against
    // the new day in the low-priority lane so the morning rush hits
    // a warm cache without starving interactive submits.
    std::vector<HotEntry> hottest;
    {
        std::lock_guard<std::mutex> lock(hotMu_);
        hottest.reserve(hot_.size());
        for (const auto &[fp, entry] : hot_)
            hottest.push_back(entry);
    }
    std::sort(hottest.begin(), hottest.end(),
              [](const HotEntry &a, const HotEntry &b) {
                  if (a.uses != b.uses)
                      return a.uses > b.uses;
                  return a.firstSeen < b.firstSeen;
              });
    if (options_.warmTopK >= 0 &&
        hottest.size() > static_cast<std::size_t>(options_.warmTopK))
        hottest.resize(static_cast<std::size_t>(options_.warmTopK));

    int warmed = 0;
    for (HotEntry &entry : hottest) {
        const std::uint64_t circuit_fp =
            service::fingerprintCircuit(entry.circuit);
        SubmitOutcome outcome =
            submit(kWarmTenant, Lane::Low, std::move(entry.circuit),
                   entry.options, "warm:" + hexFp(circuit_fp));
        if (outcome.accepted)
            ++warmed;
    }
    {
        std::lock_guard<std::mutex> lock(jobsMu_);
        warmRecompiles_ += static_cast<std::uint64_t>(warmed);
    }
    return {epoch->id, warmed};
}

std::shared_ptr<const Epoch>
CompileDaemon::currentEpoch() const
{
    std::lock_guard<std::mutex> lock(epochMu_);
    return epoch_;
}

void
CompileDaemon::awaitIdle()
{
    std::unique_lock<std::mutex> lock(jobsMu_);
    allIdle_.wait(lock, [&] { return outstanding_ == 0; });
}

void
CompileDaemon::beginShutdown()
{
    std::lock_guard<std::mutex> lock(jobsMu_);
    accepting_ = false;
}

bool
CompileDaemon::acceptingJobs() const
{
    std::lock_guard<std::mutex> lock(jobsMu_);
    return accepting_;
}

DaemonStats
CompileDaemon::stats() const
{
    DaemonStats s;
    {
        std::lock_guard<std::mutex> lock(jobsMu_);
        s.submitted = submitted_;
        s.completed = completed_;
        s.rejected = rejected_;
        s.diskHits = diskHits_;
        s.warmRecompiles = warmRecompiles_;
        s.verifiedOnLoad = verifiedOnLoad_;
        s.healed = healed_;
        for (const auto &[name, ts] : tenants_)
            s.tenants.push_back(ts);
    }
    std::sort(s.tenants.begin(), s.tenants.end(),
              [](const TenantStats &a, const TenantStats &b) {
                  return a.tenant < b.tenant;
              });
    {
        std::lock_guard<std::mutex> lock(epochMu_);
        s.epochId = epoch_->id;
        s.epochDay = epoch_->day;
    }
    s.queue = queue_.stats();
    s.memCache = memCache_.stats();
    s.disk = disk_.stats();
    s.diskEntries = disk_.entryCount();
    return s;
}

} // namespace qc::daemon
