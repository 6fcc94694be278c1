/**
 * @file
 * Compile-daemon tests: the three subsystem pillars — sharded
 * admission queue with per-tenant quotas, persistent content-
 * addressed cache surviving restart and corruption, zero-downtime
 * calibration rollover — plus the protocol helpers and the
 * end-to-end guarantee that daemon output is bit-identical to the
 * one-shot pipeline.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "daemon/daemon.hpp"
#include "daemon/program_serdes.hpp"
#include "daemon/protocol.hpp"
#include "ir/qasm.hpp"
#include "machine/calibration_model.hpp"
#include "support/rng.hpp"
#include "tests/test_util.hpp"
#include "verify/mutate.hpp"
#include "verify/verifier.hpp"
#include "workloads/benchmarks.hpp"

namespace {

using namespace qc;
using daemon::CompileDaemon;
using daemon::DaemonOptions;
using daemon::JobSnapshot;
using daemon::Lane;

namespace fs = std::filesystem;

/** Fresh, empty scratch directory removed on destruction. */
struct ScratchDir
{
    fs::path path;

    explicit ScratchDir(const std::string &name)
        : path(fs::temp_directory_path() /
               ("naqc-test-" + name + "-" +
                std::to_string(::getpid())))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir() { fs::remove_all(path); }
};

GridTopology
topo()
{
    return GridTopology(2, 4);
}

Calibration
day(int d)
{
    return CalibrationModel(topo(), test::kSeed).forDay(d);
}

DaemonOptions
fastOptions()
{
    DaemonOptions opts;
    opts.threads = 2;
    opts.shards = 2;
    return opts;
}

CompilerOptions
greedyOptions()
{
    CompilerOptions copts;
    copts.mapper = MapperKind::GreedyE;
    return copts;
}

JobSnapshot
submitAndWait(CompileDaemon &d, const Circuit &circuit,
              const std::string &tenant = "t0",
              Lane lane = Lane::Normal)
{
    CompileDaemon::SubmitOutcome out = d.submit(
        tenant, lane, circuit, greedyOptions(), circuit.name());
    EXPECT_TRUE(out.accepted) << out.reason;
    JobSnapshot snap;
    EXPECT_TRUE(d.wait(out.id, snap));
    EXPECT_EQ(snap.state, daemon::JobState::Done);
    return snap;
}

/**
 * Rewrite every cache entry under `dir` as a *well-framed* blob whose
 * program is semantically broken (a dropped gate). Returns the count.
 */
std::size_t
breakDiskEntries(const fs::path &dir)
{
    auto machine = std::make_shared<const Machine>(topo(), day(0));
    std::size_t rewritten = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(dir)) {
        std::ifstream in(e.path(), std::ios::binary);
        std::ostringstream oss;
        oss << in.rdbuf();
        in.close();
        CompiledProgram program;
        Rng rng(test::kSeed);
        if (!daemon::deserializeCompiledProgram(oss.str(), program) ||
            !applyMutation(program, *machine, MutationKind::DropGate,
                           rng))
            return 0;
        std::ofstream out(e.path(), std::ios::binary);
        out << daemon::serializeCompiledProgram(program);
        ++rewritten;
    }
    return rewritten;
}

// ---------------------------------------------------------------- //
// Protocol helpers
// ---------------------------------------------------------------- //

TEST(Protocol, ParsesCommandArgsAndBareFlags)
{
    daemon::Request req = daemon::parseRequest(
        "SUBMIT bench=BV4  tenant=alice \t wait priority=high");
    EXPECT_EQ(req.command, "submit");
    EXPECT_EQ(req.get("bench"), "BV4");
    EXPECT_EQ(req.get("tenant"), "alice");
    EXPECT_EQ(req.get("priority"), "high");
    EXPECT_EQ(req.get("wait"), "1"); // bare flag
    EXPECT_EQ(req.get("absent", "fallback"), "fallback");
    EXPECT_EQ(req.getInt("wait", 0), 1);
    EXPECT_EQ(req.getInt("bench", -7), -7); // malformed int
    EXPECT_TRUE(daemon::parseRequest("").command.empty());
}

TEST(Protocol, LaneNamesRoundTrip)
{
    Lane lane;
    ASSERT_TRUE(daemon::laneFromName("high", lane));
    EXPECT_EQ(lane, Lane::High);
    ASSERT_TRUE(daemon::laneFromName("low", lane));
    EXPECT_EQ(lane, Lane::Low);
    EXPECT_FALSE(daemon::laneFromName("urgent", lane));
    EXPECT_STREQ(daemon::laneName(Lane::Normal), "normal");
}

// ---------------------------------------------------------------- //
// Submission queue
// ---------------------------------------------------------------- //

TEST(SubmissionQueue, LaneMajorAcrossShardsWithStealing)
{
    daemon::ShardedSubmissionQueue q(2);
    q.push(0, Lane::Low, 1);
    q.push(0, Lane::Normal, 2);
    q.push(1, Lane::High, 3);

    std::uint64_t id = 0;
    bool stolen = false;
    // Home shard 0 has no high-lane job: the high job on shard 1
    // must still drain before any normal/low job.
    ASSERT_TRUE(q.tryPop(0, id, stolen));
    EXPECT_EQ(id, 3u);
    EXPECT_TRUE(stolen);
    ASSERT_TRUE(q.tryPop(0, id, stolen));
    EXPECT_EQ(id, 2u);
    EXPECT_FALSE(stolen);
    ASSERT_TRUE(q.tryPop(0, id, stolen));
    EXPECT_EQ(id, 1u);
    EXPECT_FALSE(stolen);
    EXPECT_FALSE(q.tryPop(0, id, stolen));

    daemon::QueueStats stats = q.stats();
    EXPECT_EQ(stats.pushes, 3u);
    EXPECT_EQ(stats.pops, 3u);
    EXPECT_EQ(stats.steals, 1u);
    EXPECT_EQ(stats.depth, 0u);
}

TEST(SubmissionQueue, TenantAlwaysHashesToSameShard)
{
    daemon::ShardedSubmissionQueue q(4);
    const int shard = q.shardForTenant("alice");
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(q.shardForTenant("alice"), shard);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
}

// ---------------------------------------------------------------- //
// Daemon: compile correctness and caching
// ---------------------------------------------------------------- //

TEST(Daemon, BitIdenticalToOneShotPipeline)
{
    CompileDaemon d(topo(), day(0), fastOptions());

    auto machine =
        std::make_shared<const Machine>(topo(), day(0));
    for (const char *name : {"BV4", "Toffoli", "Fredkin"}) {
        const Benchmark bench = benchmarkByName(name);
        PipelineResult direct =
            standardPipeline(machine, greedyOptions())
                .run(bench.circuit);
        ASSERT_TRUE(direct.hasProgram);

        JobSnapshot snap = submitAndWait(d, bench.circuit);
        ASSERT_TRUE(snap.result.ok);
        EXPECT_EQ(
            emitQasm(snap.result.program->hwCircuit(
                bench.circuit.numClbits())),
            emitQasm(direct.program.hwCircuit(
                bench.circuit.numClbits())))
            << name;
    }
}

TEST(Daemon, RepeatSubmitHitsMemoryCache)
{
    CompileDaemon d(topo(), day(0), fastOptions());
    const Circuit circuit = benchmarkByName("BV4").circuit;

    JobSnapshot first = submitAndWait(d, circuit);
    EXPECT_EQ(first.cacheSource, daemon::CacheSource::None);
    JobSnapshot second = submitAndWait(d, circuit, "t1");
    EXPECT_EQ(second.cacheSource, daemon::CacheSource::Memory);
    EXPECT_TRUE(second.result.cacheHit);
    // Cached artifact is the same object, not a recompile.
    EXPECT_EQ(second.result.program.get(),
              first.result.program.get());
}

TEST(Daemon, OverQuotaSubmitIsRejectedStructurally)
{
    DaemonOptions opts;
    opts.threads = 1;
    opts.shards = 1;
    opts.tenantQuota = 1;
    CompileDaemon d(topo(), day(0), opts);

    // A dense circuit keeps the single worker busy long enough for
    // the second submit to land while the first is in flight. At
    // 7000 CNOTs the compile takes milliseconds, so the submitting
    // thread would have to be preempted for that long in between.
    Circuit big("big", 8);
    for (int round = 0; round < 1000; ++round)
        for (int q = 0; q + 1 < 8; ++q)
            big.cnot(q, q + 1);

    CompileDaemon::SubmitOutcome first =
        d.submit("alice", Lane::Normal, big, greedyOptions(), "j1");
    ASSERT_TRUE(first.accepted);
    CompileDaemon::SubmitOutcome second =
        d.submit("alice", Lane::Normal, big, greedyOptions(), "j2");
    EXPECT_FALSE(second.accepted);
    EXPECT_EQ(second.reason.rfind("rejected:over-quota", 0), 0u)
        << second.reason;

    // Another tenant is not affected by alice's quota.
    CompileDaemon::SubmitOutcome other = d.submit(
        "bob", Lane::Normal, benchmarkByName("BV4").circuit,
        greedyOptions(), "j3");
    EXPECT_TRUE(other.accepted);

    d.awaitIdle();
    daemon::DaemonStats stats = d.stats();
    EXPECT_EQ(stats.rejected, 1u);
    for (const daemon::TenantStats &t : stats.tenants) {
        if (t.tenant == "alice") {
            EXPECT_EQ(t.rejected, 1u);
            EXPECT_EQ(t.completed, 1u);
            EXPECT_EQ(t.inFlight, 0u);
        }
    }
}

TEST(Daemon, ShutdownRejectsNewSubmits)
{
    CompileDaemon d(topo(), day(0), fastOptions());
    d.beginShutdown();
    EXPECT_FALSE(d.acceptingJobs());
    CompileDaemon::SubmitOutcome out = d.submit(
        "t0", Lane::Normal, benchmarkByName("BV4").circuit,
        greedyOptions(), "late");
    EXPECT_FALSE(out.accepted);
    EXPECT_EQ(out.reason, "rejected:shutting-down");
}

// ---------------------------------------------------------------- //
// Daemon: persistent cache
// ---------------------------------------------------------------- //

TEST(Daemon, RestartServesWorkingSetFromDisk)
{
    ScratchDir scratch("restart");
    DaemonOptions opts = fastOptions();
    opts.cacheDir = scratch.path.string();

    std::vector<std::string> names = {"BV4",     "BV6",    "Toffoli",
                                      "Fredkin", "Or",     "Peres",
                                      "HS2",     "HS4"};
    {
        CompileDaemon d(topo(), day(0), opts);
        for (const std::string &n : names)
            ASSERT_TRUE(
                submitAndWait(d, benchmarkByName(n).circuit)
                    .result.ok);
        daemon::DaemonStats stats = d.stats();
        EXPECT_EQ(stats.disk.stores, names.size());
        EXPECT_EQ(stats.diskEntries, names.size());
    }

    // Fresh daemon, same cache dir: the whole working set must come
    // back from disk (the >= 90% restart acceptance bar; here 100%).
    CompileDaemon d2(topo(), day(0), opts);
    std::size_t disk_hits = 0;
    for (const std::string &n : names) {
        JobSnapshot snap =
            submitAndWait(d2, benchmarkByName(n).circuit);
        ASSERT_TRUE(snap.result.ok);
        if (snap.cacheSource == daemon::CacheSource::Disk)
            ++disk_hits;
    }
    EXPECT_EQ(disk_hits, names.size());
    EXPECT_EQ(d2.stats().diskHits, names.size());

    // ... and bit-identical to a direct compile.
    auto machine =
        std::make_shared<const Machine>(topo(), day(0));
    const Benchmark bench = benchmarkByName("Toffoli");
    PipelineResult direct =
        standardPipeline(machine, greedyOptions()).run(bench.circuit);
    JobSnapshot cached = submitAndWait(d2, bench.circuit);
    EXPECT_EQ(emitQasm(cached.result.program->hwCircuit(
                  bench.circuit.numClbits())),
              emitQasm(direct.program.hwCircuit(
                  bench.circuit.numClbits())));
}

TEST(Daemon, CorruptCacheEntryIsRejectedAndRecompiled)
{
    ScratchDir scratch("corrupt");
    DaemonOptions opts = fastOptions();
    opts.cacheDir = scratch.path.string();
    const Circuit circuit = benchmarkByName("BV4").circuit;

    {
        CompileDaemon d(topo(), day(0), opts);
        ASSERT_TRUE(submitAndWait(d, circuit).result.ok);
    }

    // Damage every entry on disk.
    for (const fs::directory_entry &e :
         fs::directory_iterator(scratch.path)) {
        std::ofstream out(e.path(), std::ios::binary);
        out << "garbage";
    }

    CompileDaemon d2(topo(), day(0), opts);
    JobSnapshot snap = submitAndWait(d2, circuit);
    ASSERT_TRUE(snap.result.ok);
    // Not served from disk: the corrupt entry was unlinked and the
    // job recompiled (then re-stored, healing the cache).
    EXPECT_EQ(snap.cacheSource, daemon::CacheSource::None);
    daemon::DaemonStats stats = d2.stats();
    EXPECT_EQ(stats.disk.corruptRejected, 1u);
    EXPECT_EQ(stats.disk.stores, 1u);

    JobSnapshot healed = submitAndWait(d2, circuit, "t1");
    EXPECT_EQ(healed.cacheSource, daemon::CacheSource::Memory);
}

TEST(Daemon, DiskEntriesAreVerifiedOnLoad)
{
    ScratchDir scratch("verify-load");
    DaemonOptions opts = fastOptions();
    opts.cacheDir = scratch.path.string();
    const Circuit circuit = benchmarkByName("BV4").circuit;

    {
        CompileDaemon d(topo(), day(0), opts);
        ASSERT_TRUE(submitAndWait(d, circuit).result.ok);
        EXPECT_EQ(d.stats().verifiedOnLoad, 0u); // no disk load yet
    }

    CompileDaemon d2(topo(), day(0), opts);
    JobSnapshot snap = submitAndWait(d2, circuit);
    ASSERT_TRUE(snap.result.ok);
    EXPECT_EQ(snap.cacheSource, daemon::CacheSource::Disk);
    daemon::DaemonStats stats = d2.stats();
    EXPECT_EQ(stats.verifiedOnLoad, 1u);
    EXPECT_EQ(stats.healed, 0u);
}

TEST(Daemon, ChecksumValidButBrokenEntryIsHealedOnLoad)
{
    ScratchDir scratch("heal");
    DaemonOptions opts = fastOptions();
    opts.cacheDir = scratch.path.string();
    const Circuit circuit = benchmarkByName("BV4").circuit;

    {
        CompileDaemon d(topo(), day(0), opts);
        ASSERT_TRUE(submitAndWait(d, circuit).result.ok);
    }

    // The checksum passes, so only verify-on-load can catch it.
    ASSERT_EQ(breakDiskEntries(scratch.path), 1u);

    CompileDaemon d2(topo(), day(0), opts);
    JobSnapshot snap = submitAndWait(d2, circuit);
    ASSERT_TRUE(snap.result.ok);
    // The broken entry was purged and the job recompiled fresh.
    EXPECT_EQ(snap.cacheSource, daemon::CacheSource::None);
    daemon::DaemonStats stats = d2.stats();
    EXPECT_EQ(stats.healed, 1u);
    EXPECT_EQ(stats.verifiedOnLoad, 0u);
    EXPECT_EQ(stats.disk.corruptRejected, 0u); // frame was valid
    EXPECT_EQ(stats.disk.stores, 1u);          // re-stored: healed

    // The healed entry now verifies and serves from disk again.
    CompileDaemon d3(topo(), day(0), opts);
    JobSnapshot again = submitAndWait(d3, circuit);
    ASSERT_TRUE(again.result.ok);
    EXPECT_EQ(again.cacheSource, daemon::CacheSource::Disk);
    EXPECT_EQ(d3.stats().verifiedOnLoad, 1u);
    EXPECT_EQ(d3.stats().healed, 0u);
}

TEST(Daemon, VerifySubmitNeverServesABrokenMemoryEntry)
{
    // Plant a broken program in the memory cache the way a verify=0
    // job can: with verify-on-load off, it is served from a broken
    // disk entry unverified and cached in memory.
    ScratchDir scratch("verify-mem");
    DaemonOptions opts = fastOptions();
    opts.cacheDir = scratch.path.string();
    opts.verifyOnLoad = false;
    const Circuit circuit = benchmarkByName("BV4").circuit;
    {
        CompileDaemon d(topo(), day(0), opts);
        ASSERT_TRUE(submitAndWait(d, circuit).result.ok);
    }
    ASSERT_EQ(breakDiskEntries(scratch.path), 1u);

    CompileDaemon d(topo(), day(0), opts);
    const Machine &machine = *d.currentEpoch()->machine;
    JobSnapshot broken = submitAndWait(d, circuit);
    ASSERT_EQ(broken.cacheSource, daemon::CacheSource::Disk);
    ASSERT_FALSE(ProgramVerifier(machine)
                     .verify(circuit, *broken.result.program)
                     .ok());
    ASSERT_EQ(submitAndWait(d, circuit).result.program,
              broken.result.program); // now a memory hit

    // verify=1 refuses the memory entry and the disk entry behind it,
    // recompiles, and replaces both.
    CompilerOptions verified = greedyOptions();
    verified.verify = true;
    CompileDaemon::SubmitOutcome out =
        d.submit("t0", Lane::Normal, circuit, verified, "verified");
    ASSERT_TRUE(out.accepted);
    JobSnapshot snap;
    ASSERT_TRUE(d.wait(out.id, snap));
    ASSERT_TRUE(snap.result.ok);
    EXPECT_EQ(snap.cacheSource, daemon::CacheSource::None);
    EXPECT_TRUE(
        ProgramVerifier(machine).verify(circuit, *snap.result.program).ok());
    EXPECT_EQ(d.stats().healed, 1u);
    EXPECT_EQ(submitAndWait(d, circuit).result.program,
              snap.result.program);
}

TEST(Daemon, VerifyOnLoadCanBeDisabled)
{
    ScratchDir scratch("verify-off");
    DaemonOptions opts = fastOptions();
    opts.cacheDir = scratch.path.string();
    opts.verifyOnLoad = false;
    const Circuit circuit = benchmarkByName("BV4").circuit;

    {
        CompileDaemon d(topo(), day(0), opts);
        ASSERT_TRUE(submitAndWait(d, circuit).result.ok);
    }

    CompileDaemon d2(topo(), day(0), opts);
    JobSnapshot snap = submitAndWait(d2, circuit);
    ASSERT_TRUE(snap.result.ok);
    EXPECT_EQ(snap.cacheSource, daemon::CacheSource::Disk);
    EXPECT_EQ(d2.stats().verifiedOnLoad, 0u);
}

// ---------------------------------------------------------------- //
// Daemon: calibration rollover
// ---------------------------------------------------------------- //

TEST(Daemon, RolloverFlipsEpochForNewJobsOnly)
{
    CompileDaemon d(topo(), day(0), fastOptions());
    const std::uint64_t fp0 = d.currentEpoch()->machineFp;

    JobSnapshot before =
        submitAndWait(d, benchmarkByName("BV4").circuit);
    EXPECT_EQ(before.epochId, 1);

    CompileDaemon::ReloadOutcome reload =
        d.reload(day(1), 1, "test-day-1");
    EXPECT_EQ(reload.epochId, 2);
    d.awaitIdle(); // let warm recompiles drain

    auto epoch = d.currentEpoch();
    EXPECT_EQ(epoch->id, 2);
    EXPECT_EQ(epoch->day, 1);
    EXPECT_NE(epoch->machineFp, fp0);

    JobSnapshot after =
        submitAndWait(d, benchmarkByName("BV4").circuit);
    EXPECT_EQ(after.epochId, 2);
    // Day-1 calibration differs, so the day-0 cache entry must not
    // serve this job... but the rollover warm pass already
    // recompiled BV4 against day 1, so it's a memory hit.
    EXPECT_EQ(after.cacheSource, daemon::CacheSource::Memory);

    daemon::DaemonStats stats = d.stats();
    EXPECT_EQ(stats.epochId, 2);
    EXPECT_GE(stats.warmRecompiles, 1u);
    EXPECT_EQ(stats.rejected, 0u); // zero-downtime: nothing failed
}

TEST(Daemon, RolloverRecompileIsBitIdenticalToNewDayPipeline)
{
    CompileDaemon d(topo(), day(0), fastOptions());
    const Benchmark bench = benchmarkByName("Toffoli");
    submitAndWait(d, bench.circuit);

    d.reload(day(3), 3, "test-day-3");
    JobSnapshot snap = submitAndWait(d, bench.circuit);
    ASSERT_TRUE(snap.result.ok);

    auto machine =
        std::make_shared<const Machine>(topo(), day(3));
    PipelineResult direct =
        standardPipeline(machine, greedyOptions()).run(bench.circuit);
    ASSERT_TRUE(direct.hasProgram);
    EXPECT_EQ(emitQasm(snap.result.program->hwCircuit(
                  bench.circuit.numClbits())),
              emitQasm(direct.program.hwCircuit(
                  bench.circuit.numClbits())));
}

TEST(Daemon, InFlightJobsFinishOnOldEpochDuringRollover)
{
    DaemonOptions opts;
    opts.threads = 1;
    opts.shards = 1;
    opts.warmTopK = 0; // isolate the in-flight job's epoch
    CompileDaemon d(topo(), day(0), opts);

    Circuit big("big", 8);
    for (int round = 0; round < 40; ++round)
        for (int q = 0; q + 1 < 8; ++q)
            big.cnot(q, q + 1);

    CompileDaemon::SubmitOutcome out =
        d.submit("t0", Lane::Normal, big, greedyOptions(), "slow");
    ASSERT_TRUE(out.accepted);
    // Flip the epoch while the job is (likely) queued or running;
    // whichever epoch the job captured, it must complete cleanly on
    // exactly one of them — never fail, never block.
    d.reload(day(1), 1, "mid-flight");

    JobSnapshot snap;
    ASSERT_TRUE(d.wait(out.id, snap));
    EXPECT_TRUE(snap.result.ok);
    EXPECT_TRUE(snap.epochId == 1 || snap.epochId == 2)
        << snap.epochId;
    EXPECT_EQ(d.stats().rejected, 0u);
}

// ---------------------------------------------------------------- //
// One job runner: the daemon and the batch service agree
// ---------------------------------------------------------------- //

/** One job through a CompileService and a CompileDaemon, ibmq16 day 0. */
std::pair<service::CompileResult, service::CompileResult>
serviceAndDaemon(const Circuit &circuit, const CompilerOptions &options)
{
    const Topology ibmq16 = GridTopology::ibmq16();
    const Calibration cal =
        CalibrationModel(ibmq16, test::kSeed).forDay(0);

    service::CompileRequest req;
    req.circuit = circuit;
    req.topo = ibmq16;
    req.cal = cal;
    req.options = options;
    service::ServiceOptions sopts;
    sopts.threads = 2;
    service::CompileService svc(sopts);
    service::CompileResult fromService = svc.submit(req).get();

    CompileDaemon d(ibmq16, cal, fastOptions());
    CompileDaemon::SubmitOutcome out =
        d.submit("t0", Lane::Normal, circuit, options, "agree");
    EXPECT_TRUE(out.accepted) << out.reason;
    JobSnapshot snap;
    EXPECT_TRUE(d.wait(out.id, snap));
    return {fromService, snap.result};
}

TEST(Daemon, AgreesWithCompileServiceOnAHeuristicRace)
{
    CompilerOptions options;
    options.portfolio.enabled = true;
    options.portfolio.bundles = {MapperKind::Qiskit, MapperKind::GreedyE,
                                 MapperKind::Sabre};
    const Circuit circuit = benchmarkByName("Toffoli").circuit;
    const auto [svc, dmn] = serviceAndDaemon(circuit, options);

    ASSERT_TRUE(svc.ok) << svc.error();
    ASSERT_TRUE(dmn.ok) << dmn.error();
    EXPECT_FALSE(svc.winner.empty());
    EXPECT_EQ(dmn.winner, svc.winner);
    ASSERT_EQ(svc.portfolio.size(), 3u);
    ASSERT_EQ(dmn.portfolio.size(), svc.portfolio.size());
    for (std::size_t i = 0; i < svc.portfolio.size(); ++i) {
        EXPECT_EQ(dmn.portfolio[i].name, svc.portfolio[i].name);
        EXPECT_EQ(dmn.portfolio[i].status.code,
                  svc.portfolio[i].status.code);
        EXPECT_EQ(dmn.portfolio[i].eligible, svc.portfolio[i].eligible);
    }
    const int n_clbits = circuit.numClbits();
    EXPECT_EQ(emitQasm(dmn.program->hwCircuit(n_clbits)),
              emitQasm(svc.program->hwCircuit(n_clbits)));

    // naqcd's status line names the race's winner and size.
    JobSnapshot snap;
    snap.state = daemon::JobState::Done;
    snap.result = dmn;
    const std::string line = daemon::describeResult(snap);
    EXPECT_NE(line.find(" winner=" + daemon::tokenSafe(dmn.winner) + " "),
              std::string::npos)
        << line;
    EXPECT_NE(line.find(" raced=3"), std::string::npos) << line;
}

TEST(Daemon, AgreesWithCompileServiceOnAnInfeasibleJob)
{
    Circuit big("big", 17); // 17 qubits on the 16-qubit ibmq16
    big.h(16);
    big.measure(16, 0);
    const auto [svc, dmn] = serviceAndDaemon(big, greedyOptions());

    EXPECT_FALSE(svc.ok);
    EXPECT_FALSE(dmn.ok);
    EXPECT_EQ(svc.status.code, CompileStatusCode::Infeasible);
    EXPECT_EQ(dmn.status.code, svc.status.code);
    EXPECT_FALSE(svc.failedStage.empty());
    EXPECT_EQ(dmn.failedStage, svc.failedStage);
    EXPECT_EQ(svc.program, nullptr);
    EXPECT_EQ(dmn.program, nullptr);
    EXPECT_EQ(svc.machine, nullptr);
    EXPECT_EQ(dmn.machine, nullptr);
}

} // namespace
