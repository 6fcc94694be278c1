/**
 * @file
 * Non-grid end-to-end tests: heavy-hex, ring, and file-loaded
 * coupling graphs compile through every Table 1 bundle and the
 * compiled programs compute the correct answer on the (noise-free)
 * simulator — the semantic-preservation property, now machine-shape
 * independent.
 */

#include <gtest/gtest.h>

#include "machine/calibration_io.hpp"
#include "machine/calibration_model.hpp"
#include "reference_scheduler.hpp"
#include "test_util.hpp"

namespace qc {
namespace {

using test::expectScheduleWellFormed;
using test::kSeed;
using test::noiselessOptions;

/** The non-grid fleet every bundle must serve. */
std::vector<Topology>
nonGridMachines()
{
    // A file-style edge list: IBMQ5-yorktown-like "bowtie" graph.
    const char *bowtie = "# bowtie device\n"
                         "0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n";
    return {
        HeavyHexTopology(3),
        RingTopology(8),
        GraphTopology::fromEdgeList(bowtie, "bowtie5"),
    };
}

struct TopoE2eCase
{
    std::string topoName; ///< index into nonGridMachines() by name
    std::string benchmark;
    MapperKind mapper;
};

class NonGridEndToEnd : public ::testing::TestWithParam<TopoE2eCase>
{
  protected:
    static Topology
    topoByName(const std::string &name)
    {
        for (Topology &t : cache())
            if (t.name() == name)
                return t;
        QC_FATAL("unknown test topology ", name);
    }

  private:
    static std::vector<Topology> &
    cache()
    {
        static std::vector<Topology> topos = nonGridMachines();
        return topos;
    }
};

TEST_P(NonGridEndToEnd, CompiledProgramComputesCorrectAnswer)
{
    const auto &p = GetParam();
    Topology topo = topoByName(p.topoName);
    CalibrationModel model(topo, kSeed);
    auto machine =
        std::make_shared<const Machine>(topo, model.forDay(0));
    Benchmark b = benchmarkByName(p.benchmark);

    CompilerOptions opts;
    opts.mapper = p.mapper;
    opts.smtTimeoutMs = 30'000;
    PipelineResult r = standardPipeline(machine, opts).run(b.circuit);
    ASSERT_TRUE(r.hasProgram) << r.status.message;
    const CompiledProgram &cp = r.program;

    validateLayout(cp.layout, b.circuit.numQubits(),
                   machine->numQubits());
    expectScheduleWellFormed(*machine, cp.schedule);
    EXPECT_GT(cp.predictedSuccess, 0.0);
    EXPECT_LE(cp.predictedSuccess, 1.0);

    // Semantic preservation: the placed, routed, scheduled hardware
    // program returns the benchmark's answer on a noise-free machine.
    auto ideal = runNoisy(*machine, cp.schedule,
                          b.circuit.numClbits(), b.expected,
                          noiselessOptions());
    EXPECT_DOUBLE_EQ(ideal.successRate, 1.0)
        << p.benchmark << " mis-compiled by " << cp.mapperName
        << " on " << topo.name();
}

std::vector<TopoE2eCase>
cases()
{
    std::vector<TopoE2eCase> out;
    const std::vector<std::string> topos = {"heavyhex3", "ring8",
                                            "bowtie5"};
    // Every bundle on every machine with a movement-heavy kernel;
    // spot-check a swap-free one on the cheap heuristics.
    for (const auto &t : topos) {
        for (MapperKind k : kAllMapperKinds) {
            // bowtie5 has 5 qubits: Toffoli (3 qubits) fits
            // everywhere; BV4 needs 5+.
            out.push_back({t, "Toffoli", k});
        }
        out.push_back({t, "BV4", MapperKind::GreedyE});
        out.push_back({t, "BV4", MapperKind::GreedyETrack});
        out.push_back({t, "QFT", MapperKind::Qiskit});
    }
    return out;
}

std::string
caseName(const ::testing::TestParamInfo<TopoE2eCase> &info)
{
    std::string n = info.param.topoName + "_" + info.param.benchmark +
                    "_" + mapperKindName(info.param.mapper);
    for (char &c : n)
        if (c == '-' || c == '*' || c == '+')
            c = '_';
    return n;
}

INSTANTIATE_TEST_SUITE_P(Matrix, NonGridEndToEnd,
                         ::testing::ValuesIn(cases()), caseName);

TEST(NonGridScheduling, IndexedMatchesReferenceOnHeavyHex)
{
    // The indexed per-qubit ledger must stay bit-identical to the
    // reference full scan off the grid too.
    HeavyHexTopology topo(3);
    CalibrationModel model(topo, kSeed);
    auto machine =
        std::make_shared<const Machine>(topo, model.forDay(0));
    for (MapperKind kind :
         {MapperKind::GreedyE, MapperKind::GreedyV, MapperKind::Qiskit}) {
        SCOPED_TRACE(mapperKindName(kind));
        CompilerOptions opts;
        opts.mapper = kind;
        Pipeline indexed = standardPipeline(machine, opts);
        Pipeline reference = test::withReferenceScheduling(indexed);
        for (const char *bench : {"BV6", "Toffoli", "Adder"}) {
            Benchmark b = benchmarkByName(bench);
            PipelineResult ri = indexed.run(b.circuit);
            PipelineResult rr = reference.run(b.circuit);
            ASSERT_TRUE(ri.ok()) << ri.status.message;
            ASSERT_TRUE(rr.ok()) << rr.status.message;
            EXPECT_TRUE(rr.program.schedule.identicalTo(
                ri.program.schedule))
                << bench;
            EXPECT_EQ(rr.program.swapCount, ri.program.swapCount);
            EXPECT_EQ(rr.program.duration, ri.program.duration);
        }
    }
}

TEST(NonGridCalibrationIo, RoundTripsThroughTopologyHeader)
{
    RingTopology topo(8);
    CalibrationModel model(topo, kSeed);
    Calibration cal = model.forDay(3);
    std::string text = saveCalibration(cal, topo);
    EXPECT_NE(text.find("topology ring8 8 8"), std::string::npos);
    Calibration back = loadCalibration(text, topo);
    EXPECT_EQ(back.day, cal.day);
    EXPECT_EQ(back.t2Us, cal.t2Us);
    EXPECT_EQ(back.cnotError, cal.cnotError);
    EXPECT_EQ(back.cnotDuration, cal.cnotDuration);

    // Loading against a different topology fails loudly.
    LinearTopology other(8);
    EXPECT_THROW(loadCalibration(text, other), FatalError);
}

} // namespace
} // namespace qc
