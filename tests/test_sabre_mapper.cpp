/**
 * @file
 * SABRE placement-refinement tests: determinism (repeated runs and
 * 8-thread service batches), the improve-or-tie guarantee against the
 * GreedyE*+track seed on the Table 2 set, non-grid smoke (heavy-hex,
 * ring, edge-list) and composition with the standard list-scheduling
 * passes. The Sabre bundle's exact output on the Table 2 set is
 * pinned by tests/test_grid_identity.cpp.
 *
 * The refinement keeps the best layout by tracking-router predicted
 * success and the seed layout is itself a candidate, so Sabre can
 * never predict worse than GreedyE*+track — the bench_ablation CI
 * gate holds those margins; here we assert the invariant itself.
 */

#include <gtest/gtest.h>

#include "core/passes.hpp"
#include "mappers/greedy_mapper.hpp"
#include "mappers/sabre_mapper.hpp"
#include "service/compile_service.hpp"
#include "test_util.hpp"

namespace qc {
namespace {

using test::env;
using test::kSeed;

std::shared_ptr<const Machine>
machineFor(const Topology &topo)
{
    CalibrationModel model(topo, kSeed);
    return std::make_shared<const Machine>(topo, model.forDay(0));
}

CompilerOptions
sabreOptions()
{
    CompilerOptions opts;
    opts.mapper = MapperKind::Sabre;
    return opts;
}

TEST(SabrePlacement, DeterministicAcrossRepeatedRuns)
{
    auto machine =
        std::make_shared<const Machine>(env().machineForDay(0));
    Pipeline pipe = standardPipeline(machine, sabreOptions());
    for (const char *name : {"Toffoli", "Adder", "BV8"}) {
        SCOPED_TRACE(name);
        Benchmark b = benchmarkByName(name);
        PipelineResult first = pipe.run(b.circuit);
        ASSERT_TRUE(first.ok()) << first.status.message;
        for (int rep = 0; rep < 3; ++rep) {
            PipelineResult again = pipe.run(b.circuit);
            ASSERT_TRUE(again.ok());
            EXPECT_EQ(first.program.layout, again.program.layout);
            EXPECT_EQ(first.program.predictedSuccess,
                      again.program.predictedSuccess);
            EXPECT_TRUE(first.program.schedule.identicalTo(
                again.program.schedule));
        }
    }
}

TEST(SabrePlacement, DeterministicAcrossEightServiceThreads)
{
    // The acceptance bar from the issue: identical layouts whether
    // the jobs run serially or across an 8-worker service (caching
    // off, so every job is a fresh compile).
    CalibrationModel model(GridTopology::ibmq16(), kSeed);
    std::vector<std::pair<std::string, Circuit>> programs;
    for (const char *name : {"BV8", "Toffoli", "Fredkin", "Adder"})
        programs.emplace_back(name, benchmarkByName(name).circuit);
    auto batch = [&] {
        return service::CompileService::dailyBatch(model, programs, 0,
                                                   2, sabreOptions());
    };

    service::ServiceOptions serial_opts;
    serial_opts.threads = 1;
    serial_opts.cacheCapacity = 0;
    service::CompileService serial(serial_opts);
    service::ServiceOptions par_opts;
    par_opts.threads = 8;
    par_opts.cacheCapacity = 0;
    service::CompileService parallel(par_opts);

    service::BatchResult s = serial.compileBatch(batch());
    service::BatchResult p = parallel.compileBatch(batch());
    ASSERT_EQ(s.report.failed, 0);
    ASSERT_EQ(p.report.failed, 0);
    ASSERT_EQ(s.results.size(), p.results.size());
    for (size_t i = 0; i < s.results.size(); ++i) {
        EXPECT_EQ(s.results[i].program->layout,
                  p.results[i].program->layout)
            << "job " << s.results[i].tag;
        EXPECT_EQ(s.results[i].program->predictedSuccess,
                  p.results[i].program->predictedSuccess);
    }
}

TEST(SabrePlacement, ImprovesOrTiesGreedyTrackOnTable2)
{
    auto machine =
        std::make_shared<const Machine>(env().machineForDay(0));
    CompilerOptions greedy;
    greedy.mapper = MapperKind::GreedyETrack;
    Pipeline greedy_pipe = standardPipeline(machine, greedy);
    Pipeline sabre_pipe = standardPipeline(machine, sabreOptions());

    int improved = 0;
    for (const Benchmark &b : paperBenchmarks()) {
        SCOPED_TRACE(b.name);
        PipelineResult g = greedy_pipe.run(b.circuit);
        PipelineResult s = sabre_pipe.run(b.circuit);
        ASSERT_TRUE(g.ok());
        ASSERT_TRUE(s.ok());
        EXPECT_GE(s.program.predictedSuccess,
                  g.program.predictedSuccess - 1e-12);
        if (s.program.predictedSuccess >
            g.program.predictedSuccess + 1e-12)
            ++improved;
    }
    // The refinement must actually move the needle somewhere on the
    // set, not just echo its seed everywhere.
    EXPECT_GE(improved, 1);
}

class SabreNonGrid : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SabreNonGrid, CompilesAndComputesCorrectAnswer)
{
    Topology topo = topologyFromSpec(GetParam());
    auto machine = machineFor(topo);
    Pipeline pipe = standardPipeline(machine, sabreOptions());
    for (const char *name : {"Toffoli", "BV6"}) {
        SCOPED_TRACE(name);
        Benchmark b = benchmarkByName(name);
        PipelineResult r = pipe.run(b.circuit);
        ASSERT_TRUE(r.ok()) << r.status.message;
        validateLayout(r.program.layout, b.circuit.numQubits(),
                       machine->numQubits());
        test::expectScheduleWellFormed(*machine, r.program.schedule);
        EXPECT_GT(r.program.predictedSuccess, 0.0);

        auto ideal = runNoisy(*machine, r.program.schedule,
                              b.circuit.numClbits(), b.expected,
                              test::noiselessOptions());
        EXPECT_DOUBLE_EQ(ideal.successRate, 1.0)
            << name << " mis-compiled on " << topo.name();
    }
}

INSTANTIATE_TEST_SUITE_P(Topologies, SabreNonGrid,
                         ::testing::Values("heavyhex:3", "ring:16",
                                           "linear:9"),
                         [](const ::testing::TestParamInfo<const char *>
                                &info) {
                             std::string n = info.param;
                             for (char &c : n)
                                 if (c == ':')
                                     c = '_';
                             return n;
                         });

TEST(SabrePlacement, ComposesWithListSchedulingPasses)
{
    // First-class PlacementPass: the refined layout drives the
    // standard precomputed-route scheduler just like any greedy
    // placement (a bundle MapperKind never shipped).
    auto machine =
        std::make_shared<const Machine>(env().machineForDay(0));
    Benchmark b = benchmarkByName("Toffoli");

    Pipeline pipe = Pipeline::forMachine(machine)
                        .placement(passes::sabrePlacement())
                        .routing(passes::routeSelection(
                            RoutingPolicy::OneBendPath,
                            RouteSelect::BestReliability))
                        .named("Sabre+1BP")
                        .build();
    PipelineResult r = pipe.run(b.circuit);
    ASSERT_TRUE(r.ok()) << r.status.message;
    EXPECT_EQ(r.program.mapperName, "Sabre+1BP");
    test::expectScheduleWellFormed(*machine, r.program.schedule);
    EXPECT_GT(r.program.predictedSuccess, 0.0);

    const auto &traces = r.program.stageTraces;
    ASSERT_EQ(traces.size(), 4u);
    EXPECT_EQ(traces[0].pass, "Sabre");
    EXPECT_NE(traces[0].note.find("round trips"), std::string::npos);
}

TEST(SabrePlacement, OversizedProgramIsInfeasibleNotThrown)
{
    GridTopology small(2, 2);
    auto machine = machineFor(small);
    PipelineResult r = standardPipeline(machine, sabreOptions())
                           .run(benchmarkByName("BV6").circuit);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.hasProgram);
    EXPECT_EQ(r.status.code, CompileStatusCode::Infeasible);
    EXPECT_EQ(r.failedStage, "placement");
}

TEST(SabrePlacement, ZeroIterationsIsTheGreedySeed)
{
    // The knobs' cache-key coverage is in tests/test_options.cpp.
    Machine m = env().machineForDay(0);
    Benchmark b = benchmarkByName("Toffoli");

    SabreOptions none;
    none.iterations = 0;
    EXPECT_EQ(sabrePlacementDetailed(m, b.circuit, none).layout,
              greedyEdgePlacement(m, b.circuit));
}

} // namespace
} // namespace qc
