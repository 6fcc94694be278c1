/**
 * @file
 * SMT bundle tests (T-SMT, T-SMT*, R-SMT*): the Z3 optimum must agree
 * with the independent branch-and-bound optimum on the reliability
 * objective, duration variants must prove optimality, and solutions
 * must be valid. Also the portfolio's bundle-order tie-break between
 * a heuristic and an SMT bundle, kept out of the ThreadSanitizer
 * suites because TSan flags Z3's internal timer locking.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/portfolio.hpp"
#include "mappers/smt_mapper.hpp"
#include "solver/bnb_placer.hpp"
#include "solver/objective.hpp"
#include "test_util.hpp"

namespace qc {
namespace {

using test::compileWith;
using test::day0;
using test::expectScheduleWellFormed;

/** R-SMT* with a 30 s budget (the configuration most tests use). */
CompilerOptions
rsmtOptions()
{
    CompilerOptions opts;
    opts.mapper = MapperKind::RSmtStar;
    opts.readoutWeight = 0.5;
    opts.smtTimeoutMs = 30'000;
    return opts;
}

class RsmtVsBnb : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RsmtVsBnb, PlacementObjectivesAgree)
{
    // Like-for-like cross-validation: Z3 in placement-only mode
    // solves exactly the branch-and-bound problem, so the optima
    // must coincide.
    Machine m = day0();
    Benchmark b = benchmarkByName(GetParam());

    CompilerOptions opts = rsmtOptions();
    opts.jointScheduling = false;
    CompiledProgram smt = compileWith(m, opts, b.circuit);
    ASSERT_TRUE(smt.solverOptimal) << smt.solverStatus;

    BnbOptions bnb_opts;
    bnb_opts.readoutWeight = 0.5;
    BnbPlacer bnb(m, b.circuit, bnb_opts);
    BnbResult br = bnb.solve();
    ASSERT_TRUE(br.optimal);

    double smt_obj =
        evaluateReliability(b.circuit, smt.layout, m).weighted(0.5);
    EXPECT_NEAR(smt_obj, br.objective, 1e-6)
        << "Z3 and branch-and-bound disagree on " << b.name;
}

TEST_P(RsmtVsBnb, JointObjectiveNeverBeatsPlacementRelaxation)
{
    // The joint formulation adds constraints (coherence, routing
    // overlap), so its optimum can only be as good as or worse than
    // the placement-only relaxation the branch-and-bound solves.
    Machine m = day0();
    Benchmark b = benchmarkByName(GetParam());

    CompiledProgram smt = compileWith(m, rsmtOptions(), b.circuit);
    ASSERT_TRUE(smt.solverOptimal) << smt.solverStatus;

    BnbOptions bnb_opts;
    bnb_opts.readoutWeight = 0.5;
    BnbPlacer bnb(m, b.circuit, bnb_opts);
    BnbResult br = bnb.solve();
    ASSERT_TRUE(br.optimal);

    double smt_obj =
        evaluateReliability(b.circuit, smt.layout, m).weighted(0.5);
    EXPECT_LE(smt_obj, br.objective + 1e-6) << b.name;
}

INSTANTIATE_TEST_SUITE_P(Paper, RsmtVsBnb,
                         ::testing::Values("BV4", "BV6", "HS2", "HS4",
                                           "QFT", "Peres", "Toffoli"));

TEST(SmtBundles, Names)
{
    auto m = std::make_shared<const Machine>(day0());
    CompilerOptions opts;
    opts.mapper = MapperKind::TSmt;
    opts.policy = RoutingPolicy::RectangleReservation;
    EXPECT_EQ(standardPipeline(m, opts).name(), "T-SMT RR");
    opts.mapper = MapperKind::TSmtStar;
    opts.policy = RoutingPolicy::OneBendPath;
    EXPECT_EQ(standardPipeline(m, opts).name(), "T-SMT* 1BP");
    EXPECT_EQ(standardPipeline(m, rsmtOptions()).name(), "R-SMT* w=0.5");
}

TEST(SmtBundles, RSmtStarForcesOneBendPaths)
{
    SmtMapperOptions smt;
    smt.variant = SmtVariant::RSmtStar;
    smt.policy = RoutingPolicy::RectangleReservation;
    EXPECT_EQ(effectiveSmtOptions(smt).policy, RoutingPolicy::OneBendPath);

    // The bundle routes with 1BP even when asked for RR.
    CompilerOptions opts = rsmtOptions();
    opts.policy = RoutingPolicy::RectangleReservation;
    Pipeline pipe =
        standardPipeline(std::make_shared<const Machine>(day0()), opts);
    EXPECT_EQ(pipe.stages()[1]->name(), "1BP");
}

TEST(SmtBundles, DurationVariantsProveOptimality)
{
    Machine m = day0();
    Benchmark b = benchmarkByName("BV4");
    for (MapperKind kind : {MapperKind::TSmt, MapperKind::TSmtStar}) {
        CompilerOptions opts;
        opts.mapper = kind;
        opts.smtTimeoutMs = 30'000;
        CompiledProgram cp = compileWith(m, opts, b.circuit);
        EXPECT_TRUE(cp.solverOptimal) << cp.solverStatus;
        expectScheduleWellFormed(m, cp.schedule);
        validateLayout(cp.layout, b.circuit.numQubits(), m.numQubits());
    }
}

TEST(SmtBundles, ZeroSwapBenchmarksGetZeroSwapsOnUniformMachine)
{
    // Star/pair interaction graphs embed in the grid: with uniform
    // error rates the optimal reliability mapping strictly prefers
    // adjacency, so it uses no qubit movement (paper Sec. 7). (On a
    // real calibration day, movement can legitimately win if it buys
    // much better readout qubits.)
    GridTopology topo = GridTopology::ibmq16();
    Machine m(topo, test::uniformCalibration(topo));
    for (const char *name : {"BV4", "BV8", "HS6", "QFT", "Adder"}) {
        Benchmark b = benchmarkByName(name);
        CompiledProgram cp = compileWith(m, rsmtOptions(), b.circuit);
        EXPECT_EQ(cp.swapCount, 0) << name;
    }
}

TEST(SmtBundles, TriangleBenchmarksNeedSwaps)
{
    // Triangles cannot embed in a bipartite grid: at least one routed
    // CNOT (there-and-back SWAP pair) is unavoidable.
    GridTopology topo = GridTopology::ibmq16();
    Machine m(topo, test::uniformCalibration(topo));
    for (const char *name : {"Toffoli", "Peres"}) {
        Benchmark b = benchmarkByName(name);
        CompiledProgram cp = compileWith(m, rsmtOptions(), b.circuit);
        EXPECT_GE(cp.swapCount, 2) << name;
    }
}

TEST(SmtBundles, JunctionsRecordedForCnots)
{
    Machine m = day0();
    Benchmark b = benchmarkByName("Toffoli");
    CompiledProgram cp = compileWith(m, rsmtOptions(), b.circuit);
    ASSERT_EQ(cp.junctions.size(), b.circuit.size());
    for (size_t i = 0; i < b.circuit.size(); ++i) {
        if (b.circuit.gate(i).op == Op::CNOT)
            EXPECT_GE(cp.junctions[i], 0);
        else
            EXPECT_EQ(cp.junctions[i], -1);
    }
}

TEST(SmtBundles, OmegaOnePlacesMeasuredQubitsOnBestReadouts)
{
    // With w = 1 only readout terms score. Placement-only mode is
    // used because the joint formulation's coherence constraint can
    // legitimately veto far-apart readout-optimal placements (their
    // routed CNOTs run long) — exactly the Fig. 8c pathology.
    Machine m = day0();
    Benchmark b = benchmarkByName("HS2");
    CompilerOptions opts = rsmtOptions();
    opts.readoutWeight = 1.0;
    opts.jointScheduling = false;
    CompiledProgram cp = compileWith(m, opts, b.circuit);
    ASSERT_TRUE(cp.solverOptimal);
    auto order = m.qubitsByReadoutReliability();
    double best = std::log(m.cal().readoutReliability(order[0])) +
                  std::log(m.cal().readoutReliability(order[1]));
    double got = std::log(m.cal().readoutReliability(cp.layout[0])) +
                 std::log(m.cal().readoutReliability(cp.layout[1]));
    EXPECT_NEAR(got, best, 1e-9);
}

TEST(SmtBundles, TinyTimeoutStillProducesRunnableCode)
{
    Machine m = day0();
    Benchmark b = benchmarkByName("Fredkin");
    CompilerOptions opts = rsmtOptions();
    opts.smtTimeoutMs = 1; // effectively no solver time
    CompiledProgram cp = compileWith(m, opts, b.circuit);
    validateLayout(cp.layout, b.circuit.numQubits(), m.numQubits());
    expectScheduleWellFormed(m, cp.schedule);
}

TEST(SmtBundles, RejectsOversizedProgram)
{
    GridTopology topo(2, 2);
    CalibrationModel model(topo, 3);
    Machine m(topo, model.forDay(0));
    Benchmark b = benchmarkByName("BV6");
    EXPECT_THROW(compileWith(m, rsmtOptions(), b.circuit), FatalError);
}

TEST(SmtBundles, NonJointSchedulingMatchesJointObjective)
{
    // Placement-only mode must reach the same Eq. 12 optimum; only
    // start times are realized differently.
    Machine m = day0();
    Benchmark b = benchmarkByName("HS4");

    CompiledProgram a = compileWith(m, rsmtOptions(), b.circuit);

    CompilerOptions flat = rsmtOptions();
    flat.jointScheduling = false;
    CompiledProgram c = compileWith(m, flat, b.circuit);

    double obj_a =
        evaluateReliability(b.circuit, a.layout, m).weighted(0.5);
    double obj_c =
        evaluateReliability(b.circuit, c.layout, m).weighted(0.5);
    EXPECT_NEAR(obj_a, obj_c, 1e-6);
}

TEST(PortfolioRace, EqualPredictionsGoToTheEarlierBundle)
{
    // On a uniform machine every placement of the single-CNOT program
    // predicts the same success, so GreedyE* and R-SMT* both finish
    // with equal, eligible predictions and bundle order decides.
    GridTopology topo(2, 4);
    auto machine = std::make_shared<const Machine>(
        topo, test::uniformCalibration(topo));
    Circuit prog("bell", 2);
    prog.cnot(0, 1);
    prog.measure(0, 0);
    prog.measure(1, 1);

    for (const std::vector<MapperKind> &bundles :
         {std::vector<MapperKind>{MapperKind::GreedyE,
                                  MapperKind::RSmtStar},
          std::vector<MapperKind>{MapperKind::RSmtStar,
                                  MapperKind::GreedyE}}) {
        CompilerOptions options;
        options.portfolio.enabled = true;
        options.portfolio.bundles = bundles;
        PortfolioResult raced = PortfolioPass(machine, options).run(prog);

        ASSERT_TRUE(raced.ok());
        ASSERT_EQ(raced.candidates.size(), 2u);
        for (const PortfolioCandidate &c : raced.candidates) {
            EXPECT_TRUE(c.hasProgram) << c.name;
            EXPECT_TRUE(c.eligible) << c.name;
        }
        EXPECT_EQ(raced.candidates[0].predictedSuccess,
                  raced.candidates[1].predictedSuccess);
        EXPECT_EQ(raced.winnerIndex, 0);
        EXPECT_TRUE(raced.candidates[0].winner);
        EXPECT_FALSE(raced.candidates[1].winner);
        EXPECT_EQ(raced.candidates[0].kind, bundles[0]);
        EXPECT_EQ(raced.best.program.predictedSuccess,
                  raced.candidates[0].predictedSuccess);
    }
}

} // namespace
} // namespace qc
