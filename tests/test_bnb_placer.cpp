/**
 * @file
 * Branch-and-bound placer tests, including the exhaustive-enumeration
 * cross-checks: on small machines the B&B optima (Eq. 12 placement,
 * makespan lower bound) must equal the brute-force optima over all
 * injective placements, and the makespan bound must never exceed the
 * makespan Z3 proves for T-SMT and T-SMT*.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>

#include "daemon/program_serdes.hpp"
#include "ir/dag.hpp"
#include "solver/bnb_placer.hpp"
#include "solver/objective.hpp"
#include "solver/smt_model.hpp"
#include "test_util.hpp"
#include "workloads/random_circuits.hpp"

namespace qc {
namespace {

using test::day0;
using test::kSeed;

/** Eq. 12 value of a layout using best-junction EC entries. */
double
layoutObjective(const Circuit &prog, const std::vector<HwQubit> &layout,
                const Machine &m, double w)
{
    return evaluateReliability(prog, layout, m).weighted(w);
}

/** Brute-force best objective over all injective placements. */
double
bruteForceBest(const Circuit &prog, const Machine &m, double w)
{
    std::vector<HwQubit> perm(m.numQubits());
    for (int i = 0; i < m.numQubits(); ++i)
        perm[i] = i;
    double best = -std::numeric_limits<double>::infinity();
    // Enumerate placements as permutations' prefixes.
    std::vector<HwQubit> layout(prog.numQubits());
    std::vector<bool> used(m.numQubits(), false);
    std::function<void(int)> rec = [&](int q) {
        if (q == prog.numQubits()) {
            best = std::max(best, layoutObjective(prog, layout, m, w));
            return;
        }
        for (int h = 0; h < m.numQubits(); ++h) {
            if (used[h])
                continue;
            used[h] = true;
            layout[q] = h;
            rec(q + 1);
            used[h] = false;
        }
    };
    rec(0);
    return best;
}

struct BnbCase
{
    int progQubits;
    int gates;
    std::uint64_t seed;
    double weight;
};

class BnbVsBruteForce : public ::testing::TestWithParam<BnbCase>
{
};

TEST_P(BnbVsBruteForce, MatchesExhaustiveOptimum)
{
    const auto &p = GetParam();
    GridTopology topo(2, 3);
    CalibrationModel model(topo, kSeed + p.seed);
    Machine m(topo, model.forDay(0));

    RandomCircuitSpec spec;
    spec.numQubits = p.progQubits;
    spec.numGates = p.gates;
    spec.seed = p.seed;
    Circuit prog = makeRandomCircuit(spec);

    BnbOptions opts;
    opts.readoutWeight = p.weight;
    BnbPlacer placer(m, prog, opts);
    BnbResult result = placer.solve();
    EXPECT_TRUE(result.optimal);
    validateLayout(result.layout, prog.numQubits(), m.numQubits());

    double brute = bruteForceBest(prog, m, p.weight);
    EXPECT_NEAR(result.objective, brute, 1e-9);
    EXPECT_NEAR(layoutObjective(prog, result.layout, m, p.weight),
                result.objective, 1e-9);
}

std::vector<BnbCase>
bnbCases()
{
    std::vector<BnbCase> cases;
    for (std::uint64_t seed : {1u, 2u, 3u, 4u})
        for (double w : {0.0, 0.5, 1.0})
            cases.push_back({4, 40, seed, w});
    cases.push_back({5, 60, 9, 0.5});
    cases.push_back({6, 80, 10, 0.5});
    cases.push_back({2, 12, 11, 0.3});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Cases, BnbVsBruteForce,
                         ::testing::ValuesIn(bnbCases()));

TEST(BnbPlacer, PaperBenchmarksGetValidOptimalLayouts)
{
    Machine m = day0();
    for (const auto &b : paperBenchmarks()) {
        BnbPlacer placer(m, b.circuit);
        BnbResult r = placer.solve();
        EXPECT_TRUE(r.optimal) << b.name;
        validateLayout(r.layout, b.circuit.numQubits(), m.numQubits());
        EXPECT_NEAR(r.objective,
                    layoutObjective(b.circuit, r.layout, m, 0.5), 1e-9)
            << b.name;
    }
}

TEST(BnbPlacer, OmegaOneMaximizesReadout)
{
    // With w = 1, the objective only scores readout locations, so the
    // chosen locations of measured qubits must be the global best set.
    Machine m = day0();
    Circuit c("ro", 2);
    c.cnot(0, 1);
    c.measure(0, 0);
    c.measure(1, 1);
    BnbOptions opts;
    opts.readoutWeight = 1.0;
    BnbPlacer placer(m, c, opts);
    BnbResult r = placer.solve();
    auto order = m.qubitsByReadoutReliability();
    double best_two = std::log(m.cal().readoutReliability(order[0])) +
                      std::log(m.cal().readoutReliability(order[1]));
    double got = std::log(m.cal().readoutReliability(r.layout[0])) +
                 std::log(m.cal().readoutReliability(r.layout[1]));
    EXPECT_NEAR(got, best_two, 1e-9);
}

TEST(BnbPlacer, NodeLimitReportsNonOptimal)
{
    Machine m = day0();
    Benchmark b = benchmarkByName("Adder");
    BnbOptions opts;
    opts.nodeLimit = 3;
    BnbPlacer placer(m, b.circuit, opts);
    BnbResult r = placer.solve();
    EXPECT_FALSE(r.optimal);
    validateLayout(r.layout, b.circuit.numQubits(), m.numQubits());
}

TEST(BnbPlacer, RejectsOversizedPrograms)
{
    GridTopology topo(2, 2);
    CalibrationModel model(topo, 1);
    Machine m(topo, model.forDay(0));
    RandomCircuitSpec spec;
    spec.numQubits = 5;
    spec.numGates = 10;
    Circuit prog = makeRandomCircuit(spec);
    EXPECT_THROW(BnbPlacer(m, prog), FatalError);
}

TEST(BnbPlacer, IsolatedQubitsPlaced)
{
    Machine m = day0();
    Circuit c("iso", 3);
    c.h(0);
    c.h(1);
    c.h(2);
    c.measure(0, 0);
    BnbPlacer placer(m, c);
    BnbResult r = placer.solve();
    EXPECT_TRUE(r.optimal);
    validateLayout(r.layout, 3, m.numQubits());
}

// ------------------------------------------------------------------ //
// Makespan lower bound (T-SMT, T-SMT*)
// ------------------------------------------------------------------ //

/**
 * Fastest route duration per ordered pair, as the duration model
 * times a CNOT: calibrated one-bend routes (T-SMT*) or the uniform
 * distance formula (T-SMT).
 */
std::vector<Timeslot>
fastestCnotTable(const Machine &m, bool calibrationAware)
{
    const int n = m.numQubits();
    std::vector<Timeslot> table(static_cast<size_t>(n) * n, 0);
    for (HwQubit a = 0; a < n; ++a)
        for (HwQubit b = 0; b < n; ++b)
            if (a != b)
                table[static_cast<size_t>(a) * n + b] =
                    calibrationAware
                        ? m.bestPathDuration(a, b)
                        : m.uniformRouteDuration(m.topo().distance(a, b));
    return table;
}

MakespanBoundResult
makespanBound(const Machine &m, const Circuit &prog, bool calibrationAware)
{
    return MakespanBoundSearch(prog, m.numQubits(),
                               fastestCnotTable(m, calibrationAware),
                               m.cal().oneQubitDuration,
                               m.cal().readoutDuration)
        .solve();
}

/** ASAP finish time of every gate of `prog` placed by `layout`. */
std::vector<Timeslot>
relaxedFinish(const Circuit &prog, const std::vector<HwQubit> &layout,
              const Machine &m, const std::vector<Timeslot> &table)
{
    DependencyDag dag(prog);
    std::vector<Timeslot> finish(prog.size(), 0);
    for (size_t i = 0; i < prog.size(); ++i) {
        const Gate &g = prog.gate(i);
        Timeslot start = 0;
        for (int p : dag.preds(static_cast<int>(i)))
            start = std::max(start, finish[p]);
        Timeslot d =
            g.op == Op::CNOT
                ? table[static_cast<size_t>(layout[g.q0]) *
                            m.numQubits() +
                        layout[g.q1]]
            : g.isMeasure() ? m.cal().readoutDuration
                            : m.cal().oneQubitDuration;
        finish[i] = start + d;
    }
    return finish;
}

Timeslot
relaxedMakespan(const Circuit &prog, const std::vector<HwQubit> &layout,
                const Machine &m, const std::vector<Timeslot> &table)
{
    std::vector<Timeslot> finish = relaxedFinish(prog, layout, m, table);
    return finish.empty() ? 0
                          : *std::max_element(finish.begin(), finish.end());
}

/** Visit every injective placement of prog's qubits on m. */
void
forEachPlacement(const Circuit &prog, const Machine &m,
                 const std::function<void(const std::vector<HwQubit> &)>
                     &visit)
{
    std::vector<HwQubit> layout(prog.numQubits());
    std::vector<bool> used(m.numQubits(), false);
    std::function<void(int)> rec = [&](int q) {
        if (q == prog.numQubits()) {
            visit(layout);
            return;
        }
        for (HwQubit h = 0; h < m.numQubits(); ++h) {
            if (used[h])
                continue;
            used[h] = true;
            layout[q] = h;
            rec(q + 1);
            used[h] = false;
        }
    };
    rec(0);
}

/** Small machines the soundness cases run on. */
Machine
smallMachine(const std::string &name)
{
    Topology topo = name == "grid2x3" ? Topology(GridTopology(2, 3))
                    : name == "ring6" ? Topology(RingTopology(6))
                                      : Topology(HeavyHexTopology(2));
    CalibrationModel model(topo, kSeed);
    return Machine(topo, model.forDay(0));
}

struct MakespanCase
{
    std::string machine;
    int progQubits;
    int gates;
    std::uint64_t seed;
};

std::string
makespanCaseName(const ::testing::TestParamInfo<MakespanCase> &info)
{
    const MakespanCase &c = info.param;
    return c.machine + "_q" + std::to_string(c.progQubits) + "_g" +
           std::to_string(c.gates) + "_s" + std::to_string(c.seed);
}

std::vector<MakespanCase>
makespanCases()
{
    std::vector<MakespanCase> cases;
    for (const char *m : {"grid2x3", "ring6", "heavyhex2"})
        for (std::uint64_t seed : {1u, 2u, 3u})
            cases.push_back({m, 2 + static_cast<int>(seed % 3),
                             8 + 4 * static_cast<int>(seed), seed});
    return cases;
}

Circuit
makespanCircuit(const MakespanCase &c)
{
    RandomCircuitSpec spec;
    spec.numQubits = c.progQubits;
    spec.numGates = c.gates;
    spec.seed = c.seed;
    return makeRandomCircuit(spec);
}

/**
 * Exact duration-model optimum of a circuit whose CNOTs are totally
 * ordered by its dependencies. No two routes can then overlap in time
 * (constraints 7-9 are vacuous), so the optimum is the best relaxed
 * ASAP schedule that fits its coherence windows, over all placements.
 * Also returns the relaxation optimum, windows ignored.
 */
std::pair<Timeslot, Timeslot>
chainOptimum(const Circuit &prog, const Machine &m, bool calibrationAware)
{
    const std::vector<Timeslot> table = fastestCnotTable(m, calibrationAware);
    auto window = [&](HwQubit h) {
        return calibrationAware ? m.cal().coherenceSlots(h)
                                : Machine::kStaticCoherenceSlots;
    };
    Timeslot relaxed = std::numeric_limits<Timeslot>::max();
    Timeslot feasible = std::numeric_limits<Timeslot>::max();
    forEachPlacement(prog, m, [&](const std::vector<HwQubit> &l) {
        std::vector<Timeslot> finish = relaxedFinish(prog, l, m, table);
        Timeslot span = *std::max_element(finish.begin(), finish.end());
        relaxed = std::min(relaxed, span);
        bool fits = true;
        for (size_t i = 0; i < prog.size(); ++i) {
            const Gate &g = prog.gate(i);
            Timeslot w = window(l[g.q0]);
            if (g.op == Op::CNOT)
                w = std::min(w, window(l[g.q1]));
            fits = fits && finish[i] <= w;
        }
        if (fits)
            feasible = std::min(feasible, span);
    });
    return {feasible, relaxed};
}

SmtSolution
solveDuration(const Machine &m, const Circuit &prog, bool calibrationAware)
{
    SmtModelOptions opts;
    opts.objective = SmtObjectiveKind::Duration;
    opts.calibrationAware = calibrationAware;
    opts.timeoutMs = 30'000;
    return solveSmtMapping(m, prog, opts);
}

/** Random circuit whose every CNOT shares a qubit with the previous. */
Circuit
chainCircuit(int qubits, int cnots, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    Circuit c("chain" + std::to_string(seed), qubits);
    int a = 0, b = 1;
    for (int i = 0; i < cnots; ++i) {
        const int keep = rng() % 2 ? a : b;
        int other = static_cast<int>(rng() % qubits);
        while (other == keep)
            other = static_cast<int>(rng() % qubits);
        a = rng() % 2 ? keep : other;
        b = a == keep ? other : keep;
        if (rng() % 3 == 0)
            c.h(a);
        c.cnot(a, b);
    }
    for (int q = 0; q < qubits; ++q)
        c.measure(q, q);
    return c;
}

class MakespanBoundCases : public ::testing::TestWithParam<MakespanCase>
{
};

TEST_P(MakespanBoundCases, MatchesExhaustiveRelaxationOptimum)
{
    const Machine m = smallMachine(GetParam().machine);
    const Circuit prog = makespanCircuit(GetParam());
    for (bool calibrated : {false, true}) {
        SCOPED_TRACE(calibrated ? "T-SMT*" : "T-SMT");
        const std::vector<Timeslot> table =
            fastestCnotTable(m, calibrated);
        Timeslot brute = std::numeric_limits<Timeslot>::max();
        forEachPlacement(prog, m, [&](const std::vector<HwQubit> &l) {
            brute = std::min(brute, relaxedMakespan(prog, l, m, table));
        });

        MakespanBoundResult r = makespanBound(m, prog, calibrated);
        EXPECT_TRUE(r.optimal);
        EXPECT_EQ(r.lowerBound, brute);
        validateLayout(r.layout, prog.numQubits(), m.numQubits());
        EXPECT_EQ(relaxedMakespan(prog, r.layout, m, table), brute);
    }
}

TEST_P(MakespanBoundCases, NeverExceedsProvenSmtMakespan)
{
    const Machine m = smallMachine(GetParam().machine);
    const Circuit prog = makespanCircuit(GetParam());
    for (bool calibrated : {false, true}) {
        SCOPED_TRACE(calibrated ? "T-SMT*" : "T-SMT");
        SmtSolution sol = solveDuration(m, prog, calibrated);
        ASSERT_TRUE(sol.feasible) << sol.status;
        EXPECT_TRUE(sol.optimal) << sol.status;

        MakespanBoundResult r = makespanBound(m, prog, calibrated);
        EXPECT_LE(r.lowerBound, sol.objective);
        // The relaxation of Z3's own placement is below its schedule.
        EXPECT_LE(relaxedMakespan(prog, sol.layout, m,
                                  fastestCnotTable(m, calibrated)),
                  sol.objective);
    }
}

TEST_P(MakespanBoundCases, ChainCircuitsReachTheExactOptimum)
{
    const MakespanCase &p = GetParam();
    const Machine m = smallMachine(p.machine);
    const Circuit prog =
        chainCircuit(std::max(3, p.progQubits), p.gates / 2, p.seed);
    for (bool calibrated : {false, true}) {
        SCOPED_TRACE(calibrated ? "T-SMT*" : "T-SMT");
        const Timeslot optimum = chainOptimum(prog, m, calibrated).first;
        SmtSolution sol = solveDuration(m, prog, calibrated);
        ASSERT_TRUE(sol.feasible) << sol.status;
        EXPECT_TRUE(sol.optimal) << sol.status;
        EXPECT_EQ(sol.objective, optimum);
    }
}

INSTANTIATE_TEST_SUITE_P(Cases, MakespanBoundCases,
                         ::testing::ValuesIn(makespanCases()),
                         makespanCaseName);

/**
 * When the relaxation's argmin violates a coherence window, the
 * pinned query is unsat and the solve must fall through to the
 * general search and still prove the true optimum.
 */
TEST(MakespanBound, TightCoherenceWindowStillReachesOptimum)
{
    GridTopology topo(2, 3);
    Calibration cal = CalibrationModel(topo, kSeed).forDay(0);
    // Make edge 0 by far the fastest, and its endpoints too short-lived
    // to finish the program on it.
    for (Timeslot &d : cal.cnotDuration)
        d = std::max<Timeslot>(d, 20);
    cal.cnotDuration[0] = 2;
    const HwQubit fa = topo.edge(0).a, fb = topo.edge(0).b;
    Circuit prog("chain", 2);
    prog.h(0);
    for (int i = 0; i < 4; ++i)
        prog.cnot(i % 2, 1 - i % 2);
    prog.measure(0, 0);
    prog.measure(1, 1);
    const double slot_per_us =
        static_cast<double>(cal.coherenceSlots(fa)) / cal.t2Us[fa];
    cal.t2Us[fa] = cal.t2Us[fb] = 20.0 / slot_per_us; // ~20 slots
    Machine m(topo, cal);

    const auto [feasible, relaxed] = chainOptimum(prog, m, true);
    ASSERT_LT(relaxed, feasible) << "the argmin must be infeasible";
    EXPECT_EQ(makespanBound(m, prog, true).lowerBound, relaxed);

    SmtSolution sol = solveDuration(m, prog, true);
    ASSERT_TRUE(sol.feasible) << sol.status;
    EXPECT_TRUE(sol.optimal) << sol.status;
    EXPECT_EQ(sol.objective, feasible);
}

TEST(MakespanBound, WorkBudgetFallsBackToEmptyPlacementBound)
{
    // Large enough to exhaust kMakespanBoundWork (tens of ms).
    Machine m = day0();
    RandomCircuitSpec spec;
    spec.numQubits = 10;
    spec.numGates = 200;
    spec.seed = 10200;
    Circuit prog = makeRandomCircuit(spec);
    MakespanBoundResult r = makespanBound(m, prog, true);
    EXPECT_FALSE(r.optimal);
    validateLayout(r.layout, prog.numQubits(), m.numQubits());

    // Every CNOT at the machine's fastest pair.
    const std::vector<Timeslot> table = fastestCnotTable(m, true);
    Timeslot fastest = std::numeric_limits<Timeslot>::max();
    for (HwQubit a = 0; a < m.numQubits(); ++a)
        for (HwQubit b = 0; b < m.numQubits(); ++b)
            if (a != b)
                fastest = std::min(
                    fastest, table[static_cast<size_t>(a) * m.numQubits() + b]);
    std::vector<Timeslot> durations(prog.size());
    for (size_t i = 0; i < prog.size(); ++i) {
        const Gate &g = prog.gate(i);
        durations[i] = g.op == Op::CNOT ? fastest
                       : g.isMeasure()  ? m.cal().readoutDuration
                                        : m.cal().oneQubitDuration;
    }
    EXPECT_EQ(r.lowerBound, DependencyDag(prog).criticalPath(durations));
}

/**
 * A proven T-SMT* optimum does not depend on the budget: the Adder
 * program that once came out 168 or 171 timeslots depending on how
 * far the wall-clock search got is now the same program at 5 s and
 * 30 s.
 */
TEST(MakespanBound, AdderTSmtStarIsBudgetIndependent)
{
    auto machine = std::make_shared<const Machine>(day0());
    std::string bytes[2];
    const unsigned budgets[2] = {5'000, 30'000};
    for (int k = 0; k < 2; ++k) {
        CompilerOptions opts;
        opts.mapper = MapperKind::TSmtStar;
        opts.smtTimeoutMs = budgets[k];
        PipelineResult r = standardPipeline(machine, opts)
                               .run(benchmarkByName("Adder").circuit);
        ASSERT_TRUE(r.ok()) << r.status.message;
        ASSERT_TRUE(r.program.solverOptimal) << r.program.solverStatus;
        EXPECT_EQ(r.program.duration, 168);
        // Only the wall times may differ; the program proper may not.
        r.program.compileSeconds = 0.0;
        r.program.stageTraces.clear();
        bytes[k] = daemon::serializeCompiledProgram(r.program);
    }
    EXPECT_EQ(bytes[0], bytes[1]);
}

} // namespace
} // namespace qc
