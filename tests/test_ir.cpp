/**
 * @file
 * IR tests: gates, circuits, the dependency DAG and the program
 * interaction graph, including property sweeps over all benchmarks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ir/circuit.hpp"
#include "ir/dag.hpp"
#include "ir/program_graph.hpp"
#include "support/logging.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/random_circuits.hpp"

namespace qc {
namespace {

TEST(Gate, ArityAndNames)
{
    EXPECT_EQ(opArity(Op::H), 1);
    EXPECT_EQ(opArity(Op::CNOT), 2);
    EXPECT_EQ(opArity(Op::Swap), 2);
    EXPECT_TRUE(opIsTwoQubit(Op::CNOT));
    EXPECT_FALSE(opIsTwoQubit(Op::Measure));
    EXPECT_STREQ(opName(Op::CNOT), "cx");
    EXPECT_STREQ(opName(Op::Sdg), "sdg");

    Op op;
    EXPECT_TRUE(opFromName("cx", op));
    EXPECT_EQ(op, Op::CNOT);
    EXPECT_TRUE(opFromName("tdg", op));
    EXPECT_EQ(op, Op::Tdg);
    EXPECT_FALSE(opFromName("notagate", op));
}

TEST(Gate, TouchesAndToString)
{
    Gate cx{Op::CNOT, 1, 3, -1};
    EXPECT_TRUE(cx.touches(1));
    EXPECT_TRUE(cx.touches(3));
    EXPECT_FALSE(cx.touches(2));
    EXPECT_EQ(cx.toString(), "cx q1, q3");

    Gate m{Op::Measure, 2, kInvalidQubit, 5};
    EXPECT_EQ(m.toString(), "measure q2 -> c5");
}

TEST(Circuit, BuilderAndCounts)
{
    Circuit c("test", 3);
    c.h(0);
    c.cnot(0, 1);
    c.swap(1, 2);
    c.measure(0, 0);
    EXPECT_EQ(c.size(), 4u);
    EXPECT_EQ(c.cnotCount(), 4);     // 1 CNOT + SWAP(=3)
    EXPECT_EQ(c.gateCount(), 3);     // measure excluded
    EXPECT_EQ(c.measureCount(), 1);
    EXPECT_EQ(c.twoQubitCount(), 2);
    EXPECT_TRUE(c.usesQubit(2));
    EXPECT_EQ(c.measuredQubits(), std::vector<int>{0});
}

TEST(Circuit, ValidatesOperands)
{
    Circuit c("test", 2);
    EXPECT_DEATH(c.h(5), "out of range");
    EXPECT_DEATH(c.cnot(0, 0), "identical operands");
    EXPECT_DEATH(c.measure(0, 7), "out of range");
}

TEST(Circuit, ToffoliDecomposition)
{
    Circuit c("toff", 3);
    c.toffoli(0, 1, 2);
    EXPECT_EQ(c.cnotCount(), 6);
    EXPECT_EQ(c.gateCount(), 15);
}

TEST(Circuit, CzDecomposition)
{
    Circuit c("cz", 2);
    c.cz(0, 1);
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(c.cnotCount(), 1);
}

TEST(Dag, Bv4Dependencies)
{
    Benchmark bv = makeBernsteinVazirani(4);
    DependencyDag dag(bv.circuit);
    // All three CNOTs share the ancilla: they are chained.
    std::vector<int> cnots;
    for (size_t i = 0; i < bv.circuit.size(); ++i)
        if (bv.circuit.gate(i).op == Op::CNOT)
            cnots.push_back(static_cast<int>(i));
    ASSERT_EQ(cnots.size(), 3u);
    EXPECT_TRUE(dag.dependsOn(cnots[1], cnots[0]));
    EXPECT_TRUE(dag.dependsOn(cnots[2], cnots[0]));
    EXPECT_FALSE(dag.dependsOn(cnots[0], cnots[1]));
}

TEST(Dag, CriticalPathUnitDurations)
{
    Circuit c("chain", 2);
    c.h(0);
    c.cnot(0, 1);
    c.h(1);
    DependencyDag dag(c);
    std::vector<Timeslot> unit(c.size(), 1);
    EXPECT_EQ(dag.criticalPath(unit), 3);

    Circuit par("parallel", 2);
    par.h(0);
    par.h(1);
    DependencyDag dag2(par);
    std::vector<Timeslot> unit2(par.size(), 1);
    EXPECT_EQ(dag2.criticalPath(unit2), 1);
}

TEST(Dag, DepthsMonotone)
{
    Circuit c("d", 2);
    c.h(0);
    c.cnot(0, 1);
    c.h(1);
    DependencyDag dag(c);
    auto depths = dag.depths();
    EXPECT_EQ(depths, (std::vector<int>{1, 2, 3}));
}

class DagAllBenchmarks : public ::testing::TestWithParam<std::string>
{
};

TEST_P(DagAllBenchmarks, ProgramOrderIsTopological)
{
    Benchmark b = benchmarkByName(GetParam());
    DependencyDag dag(b.circuit);
    for (size_t i = 0; i < dag.numGates(); ++i)
        for (int p : dag.preds(static_cast<int>(i)))
            EXPECT_LT(p, static_cast<int>(i));
    EXPECT_FALSE(dag.roots().empty());
    EXPECT_FALSE(dag.sinks().empty());
}

TEST_P(DagAllBenchmarks, PredsAndSuccsAreInverse)
{
    Benchmark b = benchmarkByName(GetParam());
    DependencyDag dag(b.circuit);
    for (size_t i = 0; i < dag.numGates(); ++i) {
        for (int p : dag.preds(static_cast<int>(i))) {
            const auto &ss = dag.succs(p);
            EXPECT_NE(std::find(ss.begin(), ss.end(),
                                static_cast<int>(i)),
                      ss.end());
        }
    }
}

/**
 * The DAG contract, pinned against an O(n^2) last-writer scan: preds
 * in operand order (q0's last writer, then q1's, deduplicated), succs
 * in increasing gate index, at most two of either. The SMT encoding
 * adds its dependency constraints in this order.
 */
void
expectDagMatchesLastWriterScan(const Circuit &c)
{
    const int n = static_cast<int>(c.size());
    std::vector<std::vector<int>> preds(c.size());
    for (int i = 0; i < n; ++i) {
        const Gate &g = c.gate(static_cast<size_t>(i));
        std::vector<int> operands{g.q0};
        if (g.isTwoQubit())
            operands.push_back(g.q1);
        for (int q : operands) {
            for (int j = i - 1; j >= 0; --j) {
                const Gate &h = c.gate(static_cast<size_t>(j));
                if (h.q0 != q && !(h.isTwoQubit() && h.q1 == q))
                    continue;
                auto &ps = preds[static_cast<size_t>(i)];
                if (std::find(ps.begin(), ps.end(), j) == ps.end())
                    ps.push_back(j);
                break;
            }
        }
    }

    DependencyDag dag(c);
    ASSERT_EQ(dag.numGates(), c.size());
    for (int i = 0; i < n; ++i) {
        std::vector<int> succs;
        for (int j = i + 1; j < n; ++j) {
            const auto &ps = preds[static_cast<size_t>(j)];
            if (std::find(ps.begin(), ps.end(), i) != ps.end())
                succs.push_back(j);
        }
        auto got_preds = dag.preds(i);
        auto got_succs = dag.succs(i);
        EXPECT_EQ(std::vector<int>(got_preds.begin(), got_preds.end()),
                  preds[static_cast<size_t>(i)])
            << "preds of gate " << i;
        EXPECT_EQ(std::vector<int>(got_succs.begin(), got_succs.end()),
                  succs)
            << "succs of gate " << i;
        EXPECT_LE(got_preds.size(), 2u);
        EXPECT_LE(got_succs.size(), 2u);
        for (size_t k = 0; k < got_preds.size(); ++k)
            EXPECT_EQ(got_preds[k], preds[static_cast<size_t>(i)][k]);
    }
}

TEST_P(DagAllBenchmarks, MatchesLastWriterScan)
{
    expectDagMatchesLastWriterScan(benchmarkByName(GetParam()).circuit);
}

TEST(Dag, RandomCircuitMatchesLastWriterScan)
{
    RandomCircuitSpec spec;
    spec.numQubits = 8;
    spec.numGates = 200;
    spec.seed = 20190131;
    spec.measureAll = false;
    Circuit c = makeRandomCircuit(spec);
    ASSERT_EQ(c.size(), 200u);
    expectDagMatchesLastWriterScan(c);
}

TEST(Dag, RepeatedCnotIsOneEdge)
{
    Circuit c("repeat", 3);
    c.cnot(0, 1);
    c.cnot(0, 1);
    c.cnot(1, 0);
    c.h(2);
    DependencyDag dag(c);
    ASSERT_EQ(dag.preds(1).size(), 1u);
    EXPECT_EQ(dag.preds(1)[0], 0);
    ASSERT_EQ(dag.succs(0).size(), 1u);
    EXPECT_EQ(dag.succs(0)[0], 1);
    ASSERT_EQ(dag.preds(2).size(), 1u);
    EXPECT_EQ(dag.preds(2)[0], 1);
    EXPECT_TRUE(dag.preds(3).empty());
    EXPECT_TRUE(dag.succs(3).empty());
    expectDagMatchesLastWriterScan(c);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, DagAllBenchmarks,
    ::testing::Values("BV4", "BV6", "BV8", "HS2", "HS4", "HS6", "Toffoli",
                      "Fredkin", "Or", "Peres", "QFT", "Adder"));

TEST(ProgramGraph, Bv4StarShape)
{
    Benchmark bv = makeBernsteinVazirani(4);
    ProgramGraph pg(bv.circuit);
    EXPECT_EQ(pg.edges().size(), 3u);
    EXPECT_EQ(pg.degree(3), 3); // ancilla in all CNOTs
    EXPECT_EQ(pg.degree(0), 1);
    EXPECT_EQ(pg.edgeWeight(0, 3), 1);
    EXPECT_EQ(pg.edgeWeight(3, 0), 1); // symmetric lookup
    EXPECT_EQ(pg.edgeWeight(0, 1), 0);
    EXPECT_EQ(pg.totalCnots(), 3);
    EXPECT_EQ(pg.readoutCount(0), 1);
    EXPECT_EQ(pg.readoutCount(3), 0); // ancilla unmeasured
    EXPECT_EQ(pg.sortedQubitsByDegree().front(), 3);
}

TEST(ProgramGraph, WeightsAccumulate)
{
    Circuit c("w", 3);
    c.cnot(0, 1);
    c.cnot(1, 0);
    c.cnot(1, 2);
    ProgramGraph pg(c);
    EXPECT_EQ(pg.edgeWeight(0, 1), 2);
    EXPECT_EQ(pg.edgeWeight(1, 2), 1);
    auto edges = pg.sortedEdgesByWeight();
    EXPECT_EQ(edges.front().weight, 2);
    auto nbrs = pg.neighbors(1);
    EXPECT_EQ(nbrs.size(), 2u);
}

} // namespace
} // namespace qc
