/**
 * @file
 * Compile-service subsystem tests: fingerprints, thread pool,
 * machine-snapshot pool, LRU compile cache, and the end-to-end
 * guarantees the service makes — above all that a multi-threaded
 * batch is bit-identical to serial compilation.
 */

#include <atomic>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "ir/qasm.hpp"
#include "service/compile_service.hpp"
#include "service/fingerprints.hpp"
#include "support/fingerprint.hpp"
#include "tests/test_util.hpp"
#include "workloads/random_circuits.hpp"

namespace {

using namespace qc;
using namespace qc::service;

// ---------------------------------------------------------------- //
// Fingerprints
// ---------------------------------------------------------------- //

TEST(Fingerprint, OrderAndBoundariesMatter)
{
    Fingerprint a, b, c;
    a.mix(std::string("ab")).mix(std::string("c"));
    b.mix(std::string("a")).mix(std::string("bc"));
    c.mix(std::string("ab")).mix(std::string("c"));
    EXPECT_NE(a.value(), b.value());
    EXPECT_EQ(a.value(), c.value());
}

TEST(Fingerprints, CircuitContentSensitive)
{
    Circuit c1("x", 3);
    c1.h(0);
    c1.cnot(0, 1);
    Circuit c2 = c1;
    Circuit c3("renamed", 3);
    c3.h(0);
    c3.cnot(0, 1);
    Circuit c4("x", 3);
    c4.h(0);
    c4.cnot(1, 0); // operands swapped

    EXPECT_EQ(fingerprintCircuit(c1), fingerprintCircuit(c2));
    // Content-only: the name is presentation, not semantics.
    EXPECT_EQ(fingerprintCircuit(c1), fingerprintCircuit(c3));
    EXPECT_NE(fingerprintCircuit(c1), fingerprintCircuit(c4));
}

// Option fingerprints: tests/test_options.cpp, driven by the table.
TEST(Fingerprints, CalibrationSensitive)
{
    GridTopology topo(2, 4);
    Calibration cal = test::uniformCalibration(topo);
    Calibration cal2 = cal;
    cal2.cnotError[0] += 1e-9;
    EXPECT_NE(fingerprintCalibration(cal), fingerprintCalibration(cal2));
    EXPECT_NE(machineKey(topo, cal), machineKey(GridTopology(4, 2), cal));
}

TEST(Fingerprints, TopologyHashCannotAliasEqualQubitCounts)
{
    // Regression for the rows/cols-only machine fingerprint: these
    // all have 8 qubits (and the first three even have compatible
    // "shapes"), so a shape-only hash would alias machine-pool and
    // compile-cache entries across genuinely different coupling
    // graphs.
    GridTopology grid24(2, 4);
    RingTopology ring8(8);
    LinearTopology linear8(8);
    GraphTopology custom8 = GraphTopology::fromEdgeList(
        "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n0 4\n", "custom8");
    Calibration cal = test::uniformCalibration(grid24);

    std::vector<std::uint64_t> keys = {
        fingerprintTopology(grid24), fingerprintTopology(ring8),
        fingerprintTopology(linear8), fingerprintTopology(custom8)};
    for (size_t i = 0; i < keys.size(); ++i)
        for (size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;

    // ring8 and linear8 share qubit AND edge-compatible calibration
    // arity, so machineKey must still separate them.
    Calibration ring_cal = test::uniformCalibration(ring8);
    EXPECT_NE(machineKey(ring8, ring_cal),
              machineKey(GridTopology(2, 4), ring_cal));

    // Same graph, different construction path: identical key (the
    // hash is content-based, not type-based) — a linear chain loaded
    // from an edge list still counts as a distinct kind, though.
    GraphTopology linear_as_graph = GraphTopology::fromEdgeList(
        "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n", "linear-as-graph");
    EXPECT_NE(fingerprintTopology(linear8),
              fingerprintTopology(linear_as_graph));
}

// ---------------------------------------------------------------- //
// Thread pool
// ---------------------------------------------------------------- //

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4);

    std::atomic<int> ran{0};
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([i, &ran] {
            ++ran;
            return i * i;
        }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ExceptionsTravelThroughFutures)
{
    ThreadPool pool(2);
    auto f = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);

    // The worker that threw is still alive and usable.
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, WaitIdleDrainsAndSubmitAfterShutdownThrows)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i)
        pool.submit([&ran] { ++ran; });
    pool.waitIdle();
    EXPECT_EQ(ran.load(), 16);

    pool.shutdown();
    EXPECT_THROW(pool.submit([] { return 1; }), FatalError);
}

// ---------------------------------------------------------------- //
// Machine pool
// ---------------------------------------------------------------- //

TEST(MachinePool, BuildsOncePerCalibrationDay)
{
    GridTopology topo(2, 4);
    CalibrationModel model(topo, test::kSeed);
    MachinePool pool;

    auto m0a = pool.acquire(topo, model.forDay(0));
    auto m0b = pool.acquire(topo, model.forDay(0));
    auto m1 = pool.acquire(topo, model.forDay(1));

    EXPECT_EQ(m0a.get(), m0b.get()); // literally the same snapshot
    EXPECT_NE(m0a.get(), m1.get());
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_EQ(pool.stats().builds, 2u);
    EXPECT_EQ(pool.stats().hits, 1u);

    // Snapshots survive a pool clear (shared ownership).
    pool.clear();
    EXPECT_EQ(pool.size(), 0u);
    EXPECT_EQ(m0a->numQubits(), topo.numQubits());
}

TEST(MachinePool, EvictsLeastRecentlyUsedBeyondCapacity)
{
    GridTopology topo(2, 4);
    CalibrationModel model(topo, test::kSeed);
    MachinePool pool(2);

    auto m0 = pool.acquire(topo, model.forDay(0));
    pool.acquire(topo, model.forDay(1));
    pool.acquire(topo, model.forDay(0)); // day 0 becomes MRU
    pool.acquire(topo, model.forDay(2)); // evicts day 1

    EXPECT_EQ(pool.size(), 2u);
    EXPECT_EQ(pool.stats().evictions, 1u);

    // Day 0 survived the eviction, day 1 must rebuild.
    EXPECT_EQ(pool.acquire(topo, model.forDay(0)).get(), m0.get());
    EXPECT_EQ(pool.stats().builds, 3u);
    pool.acquire(topo, model.forDay(1));
    EXPECT_EQ(pool.stats().builds, 4u);

    // Evicted snapshots stay alive through outstanding references.
    EXPECT_EQ(m0->numQubits(), topo.numQubits());

    // tryAcquire never builds: pooled day -> snapshot, evicted -> null.
    auto builds = pool.stats().builds;
    EXPECT_NE(pool.tryAcquire(topo, model.forDay(1)), nullptr);
    EXPECT_EQ(pool.tryAcquire(topo, model.forDay(2)), nullptr);
    EXPECT_EQ(pool.stats().builds, builds);
}

TEST(MachinePool, ConcurrentAcquiresShareOneBuild)
{
    GridTopology topo(2, 4);
    CalibrationModel model(topo, test::kSeed);
    Calibration cal = model.forDay(3);

    MachinePool machines;
    ThreadPool workers(8);
    std::vector<std::future<std::shared_ptr<const Machine>>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(workers.submit(
            [&] { return machines.acquire(topo, cal); }));

    std::set<const Machine *> distinct;
    for (auto &f : futures)
        distinct.insert(f.get().get());
    EXPECT_EQ(distinct.size(), 1u);
    EXPECT_EQ(machines.stats().builds, 1u);
    EXPECT_EQ(machines.stats().hits, 31u);
}

// ---------------------------------------------------------------- //
// Compile cache
// ---------------------------------------------------------------- //

CacheKey
keyOf(std::uint64_t circuit)
{
    CacheKey k;
    k.circuit = circuit;
    k.calibration = 1;
    k.options = 2;
    return k;
}

std::shared_ptr<const CompiledProgram>
dummyProgram(const std::string &name)
{
    auto p = std::make_shared<CompiledProgram>();
    p->programName = name;
    return p;
}

TEST(CompileCache, HitMissAndStats)
{
    CompileCache cache(4);
    EXPECT_EQ(cache.lookup(keyOf(1)), nullptr);
    cache.insert(keyOf(1), dummyProgram("a"));
    auto hit = cache.lookup(keyOf(1));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->programName, "a");

    auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(CompileCache, EvictsLeastRecentlyUsed)
{
    CompileCache cache(2);
    cache.insert(keyOf(1), dummyProgram("a"));
    cache.insert(keyOf(2), dummyProgram("b"));

    // Touch 1 so that 2 becomes the LRU victim.
    EXPECT_NE(cache.lookup(keyOf(1)), nullptr);
    cache.insert(keyOf(3), dummyProgram("c"));

    EXPECT_EQ(cache.size(), 2u);
    EXPECT_NE(cache.lookup(keyOf(1)), nullptr);
    EXPECT_EQ(cache.lookup(keyOf(2)), nullptr); // evicted
    EXPECT_NE(cache.lookup(keyOf(3)), nullptr);
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CompileCache, ReinsertRefreshesInsteadOfDuplicating)
{
    CompileCache cache(2);
    cache.insert(keyOf(1), dummyProgram("a"));
    cache.insert(keyOf(1), dummyProgram("a2"));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.lookup(keyOf(1))->programName, "a2");
}

TEST(CompileCache, ZeroCapacityDisables)
{
    CompileCache cache(0);
    cache.insert(keyOf(1), dummyProgram("a"));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.lookup(keyOf(1)), nullptr);
}

TEST(CompileCache, ApproxBytesGrowWithContent)
{
    CompiledProgram small;
    CompiledProgram big;
    big.programName = std::string(256, 'x');
    big.layout.assign(64, 0);
    big.schedule.ops.resize(512);
    big.stageTraces.push_back({"placement", "GreedyE*", 0.1, "note"});
    EXPECT_GT(approxProgramBytes(big), approxProgramBytes(small));
    EXPECT_GE(approxProgramBytes(small), sizeof(CompiledProgram));
}

TEST(CompileCache, TracksEntryAndByteCounters)
{
    CompileCache cache(4);
    auto a = dummyProgram("a");
    auto b = dummyProgram(std::string(512, 'b'));
    cache.insert(keyOf(1), a);
    cache.insert(keyOf(2), b);

    CompileCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.bytes,
              approxProgramBytes(*a) + approxProgramBytes(*b));
    EXPECT_EQ(cache.sizeBytes(), stats.bytes);

    // A refresh replaces the accounted size, not adds to it.
    cache.insert(keyOf(2), dummyProgram("b2"));
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_LT(cache.stats().bytes, stats.bytes);
}

TEST(CompileCache, ByteCapacityEvictsLruTail)
{
    auto sized = [](char c) {
        auto p = std::make_shared<CompiledProgram>();
        p->programName = std::string(1024, c);
        return p;
    };
    const std::size_t one = approxProgramBytes(*sized('a'));

    // Room for two sized entries but not three.
    CompileCache cache(100, 2 * one + one / 2);
    cache.insert(keyOf(1), sized('a'));
    cache.insert(keyOf(2), sized('b'));
    EXPECT_EQ(cache.size(), 2u);

    cache.insert(keyOf(3), sized('c'));
    EXPECT_EQ(cache.size(), 2u); // LRU key 1 evicted on bytes
    EXPECT_EQ(cache.lookup(keyOf(1)), nullptr);
    EXPECT_NE(cache.lookup(keyOf(2)), nullptr);
    EXPECT_NE(cache.lookup(keyOf(3)), nullptr);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_LE(cache.sizeBytes(), cache.byteCapacity());
}

TEST(CompileCache, ByteCapacityAlwaysKeepsNewestEntry)
{
    auto huge = std::make_shared<CompiledProgram>();
    huge->programName = std::string(1 << 16, 'h');

    // Cap far below a single entry: the newest insert must still be
    // resident (caching the current job beats caching nothing).
    CompileCache cache(100, 64);
    cache.insert(keyOf(1), huge);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_NE(cache.lookup(keyOf(1)), nullptr);

    cache.insert(keyOf(2), dummyProgram("next"));
    EXPECT_EQ(cache.lookup(keyOf(1)), nullptr); // huge evicted now
    EXPECT_NE(cache.lookup(keyOf(2)), nullptr);
}

// ---------------------------------------------------------------- //
// Compile service, end to end
// ---------------------------------------------------------------- //

/** The workload both determinism runs share. */
std::vector<std::pair<std::string, Circuit>>
serviceWorkload()
{
    std::vector<std::pair<std::string, Circuit>> programs;
    for (int i = 0; i < 6; ++i) {
        RandomCircuitSpec spec;
        spec.numQubits = 4 + (i % 3);
        spec.numGates = 24;
        spec.seed = test::kSeed + static_cast<std::uint64_t>(i);
        programs.emplace_back("rand" + std::to_string(i),
                              makeRandomCircuit(spec));
    }
    return programs;
}

std::vector<CompileRequest>
serviceBatch(const CalibrationModel &model, MapperKind mapper)
{
    CompilerOptions options;
    options.mapper = mapper;
    return CompileService::dailyBatch(model, serviceWorkload(), 0, 2,
                                      options);
}

TEST(CompileService, EightWorkersMatchSerialBitForBit)
{
    CalibrationModel model(GridTopology::ibmq16(), test::kSeed);
    auto programs = serviceWorkload();

    for (MapperKind mapper :
         {MapperKind::GreedyE, MapperKind::GreedyV}) {
        ServiceOptions serial_opts;
        serial_opts.threads = 1;
        CompileService serial(serial_opts);
        ServiceOptions par_opts;
        par_opts.threads = 8;
        CompileService parallel(par_opts);

        BatchResult s = serial.compileBatch(serviceBatch(model, mapper));
        BatchResult p =
            parallel.compileBatch(serviceBatch(model, mapper));

        ASSERT_EQ(s.results.size(), p.results.size());
        ASSERT_EQ(s.report.failed, 0);
        ASSERT_EQ(p.report.failed, 0);
        for (size_t i = 0; i < s.results.size(); ++i) {
            const auto &sr = s.results[i];
            const auto &pr = p.results[i];
            EXPECT_EQ(sr.tag, pr.tag);
            int n_clbits =
                programs[i % programs.size()].second.numClbits();
            EXPECT_EQ(emitQasm(sr.program->hwCircuit(n_clbits)),
                      emitQasm(pr.program->hwCircuit(n_clbits)))
                << "job " << sr.tag << " diverged under "
                << mapperKindName(mapper);
            EXPECT_EQ(sr.program->layout, pr.program->layout);
            EXPECT_EQ(sr.program->duration, pr.program->duration);
        }
    }
}

TEST(CompileService, SecondIdenticalBatchHitsCache)
{
    CalibrationModel model(GridTopology::ibmq16(), test::kSeed);
    ServiceOptions opts;
    opts.threads = 4;
    CompileService svc(opts);

    BatchResult first =
        svc.compileBatch(serviceBatch(model, MapperKind::GreedyE));
    EXPECT_EQ(first.report.cacheHits, 0);
    EXPECT_EQ(first.report.failed, 0);
    // One machine snapshot per day, shared across jobs.
    EXPECT_EQ(first.report.machinePool.builds, 2u);

    BatchResult second =
        svc.compileBatch(serviceBatch(model, MapperKind::GreedyE));
    EXPECT_EQ(second.report.failed, 0);
    EXPECT_EQ(second.report.cacheHits, second.report.jobs);
    EXPECT_GE(svc.cacheStats().hitRate(), 0.45); // 12 of 24 lookups
    EXPECT_EQ(second.report.machinePool.builds, 2u); // no rebuilds

    // Cache hits return the very same artifact.
    for (size_t i = 0; i < first.results.size(); ++i) {
        EXPECT_TRUE(second.results[i].cacheHit);
        EXPECT_EQ(first.results[i].program.get(),
                  second.results[i].program.get());
    }
}

TEST(CompileService, JobErrorsAreIsolated)
{
    CalibrationModel model(GridTopology(2, 2), test::kSeed);

    CompileRequest fits;
    fits.tag = "fits";
    fits.circuit = Circuit("small", 2);
    fits.circuit.h(0);
    fits.circuit.cnot(0, 1);
    fits.circuit.measure(0, 0);
    fits.circuit.measure(1, 1);
    fits.topo = model.topology();
    fits.cal = model.forDay(0);
    fits.options.mapper = MapperKind::GreedyE;

    CompileRequest too_big = fits;
    too_big.tag = "too-big";
    too_big.circuit = Circuit("big", 9); // 9 qubits on a 4-qubit grid
    too_big.circuit.h(8);
    too_big.circuit.measure(8, 0);

    ServiceOptions opts;
    opts.threads = 2;
    CompileService svc(opts);
    BatchResult batch = svc.compileBatch({fits, too_big});

    EXPECT_TRUE(batch.results[0].ok);
    EXPECT_TRUE(batch.results[0].status.ok());
    EXPECT_FALSE(batch.results[1].ok);
    EXPECT_FALSE(batch.results[1].error().empty());
    EXPECT_EQ(batch.report.succeeded, 1);
    EXPECT_EQ(batch.report.failed, 1);

    // Structured status: the failing stage and its wall time are
    // recorded even though the job produced no program.
    const CompileResult &failed = batch.results[1];
    EXPECT_EQ(failed.status.code, CompileStatusCode::Infeasible);
    EXPECT_FALSE(failed.failedStage.empty());
    EXPECT_FALSE(failed.stageTraces.empty());
    EXPECT_GE(failed.seconds, 0.0);

    // Successful fresh compiles carry all four stage traces, and the
    // report aggregates a per-stage breakdown including the failure.
    EXPECT_EQ(batch.results[0].stageTraces.size(), 4u);
    EXPECT_FALSE(batch.report.stages.empty());
    int stage_failures = 0;
    for (const StageSummary &s : batch.report.stages)
        stage_failures += s.failures;
    EXPECT_EQ(stage_failures, 1);

    // The report renders without throwing and shows the breakdown.
    const std::string text = batch.report.toString();
    EXPECT_NE(text.find("jobs: 2"), std::string::npos);
    EXPECT_NE(text.find("stage breakdown"), std::string::npos);
    EXPECT_NE(text.find("failed here"), std::string::npos);
}

TEST(CompileService, SubmitSingleJob)
{
    CalibrationModel model(GridTopology::ibmq16(), test::kSeed);
    CompileRequest req;
    req.tag = "single";
    req.day = 5;
    req.circuit = serviceWorkload()[0].second;
    req.topo = model.topology();
    req.cal = model.forDay(5);
    req.options.mapper = MapperKind::GreedyETrack;

    CompileService svc;
    CompileResult res = svc.submit(req).get();
    ASSERT_TRUE(res.ok) << res.error();
    EXPECT_EQ(res.day, 5);
    ASSERT_NE(res.program, nullptr);
    ASSERT_NE(res.machine, nullptr);
    EXPECT_GT(res.program->predictedSuccess, 0.0);

    // The snapshot handed back is the pooled one.
    EXPECT_EQ(res.machine.get(),
              svc.submit(req).get().machine.get());

    // A compiler wrapped around that snapshot reproduces the result
    // (the service's own compile path under the hood).
    NoiseAdaptiveCompiler compiler(res.machine, req.options);
    EXPECT_EQ(compiler.machineSnapshot().get(), res.machine.get());
    CompiledProgram direct = compiler.compile(req.circuit);
    EXPECT_EQ(direct.layout, res.program->layout);
    EXPECT_EQ(direct.duration, res.program->duration);
}

} // namespace
