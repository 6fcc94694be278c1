/**
 * @file
 * Reservation/scheduler hot-path stress tests: the indexed
 * incremental list scheduler (ReservationLedger + cached ready-queue)
 * must be bit-identical to the full-scan oracle in
 * reference_scheduler.hpp — across every route selection and policy
 * on the Table 2 set, across the list-scheduled MapperKind bundles,
 * and on randomized dense-CNOT programs with seeded RNG on machines
 * larger than IBMQ16.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <new>

#include "core/passes.hpp"
#include "mappers/greedy_mapper.hpp"
#include "reference_scheduler.hpp"
#include "sched/reservation_ledger.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "workloads/random_circuits.hpp"

// Counting global allocator for this binary: the allocation-budget
// test switches counting on around ListScheduler::run only. The tests
// here are single-threaded, so plain globals suffice. Every
// non-aligned form is replaced, so each allocation is released by
// the matching replacement.
namespace {
std::size_t g_allocations = 0;
bool g_count_allocations = false;

void *
countedMalloc(std::size_t size) noexcept
{
    if (g_count_allocations)
        ++g_allocations;
    return std::malloc(size == 0 ? 1 : size);
}
} // namespace

void *
operator new(std::size_t size)
{
    if (void *p = countedMalloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace qc {
namespace {

using test::day0;
using test::kSeed;

/**
 * Full field-by-field Schedule equality. The verdict is
 * Schedule::identicalTo (shared with bench_scheduler_hotpath's CI
 * smoke); the per-field expectations below only localize a failure.
 */
void
expectSchedulesIdentical(const Schedule &a, const Schedule &b)
{
    EXPECT_TRUE(a.identicalTo(b));
    EXPECT_EQ(a.numHwQubits, b.numHwQubits);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.qubitFinish, b.qubitFinish);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    for (size_t i = 0; i < a.ops.size(); ++i) {
        EXPECT_EQ(a.ops[i].gate, b.ops[i].gate) << "op " << i;
        EXPECT_EQ(a.ops[i].start, b.ops[i].start) << "op " << i;
        EXPECT_EQ(a.ops[i].duration, b.ops[i].duration) << "op " << i;
        EXPECT_EQ(a.ops[i].progGate, b.ops[i].progGate) << "op " << i;
        EXPECT_EQ(a.ops[i].isRouteSwap, b.ops[i].isRouteSwap)
            << "op " << i;
    }
    ASSERT_EQ(a.macros.size(), b.macros.size());
    for (size_t i = 0; i < a.macros.size(); ++i) {
        EXPECT_EQ(a.macros[i].progGate, b.macros[i].progGate);
        EXPECT_EQ(a.macros[i].start, b.macros[i].start);
        EXPECT_EQ(a.macros[i].duration, b.macros[i].duration);
    }
}

/** Run the scheduler and the reference scan; demand identity. */
void
expectIndexedMatchesReference(const Machine &m, const Circuit &prog,
                              const std::vector<HwQubit> &layout,
                              const SchedulerOptions &opts)
{
    Schedule indexed = ListScheduler(m, opts).run(prog, layout);
    Schedule reference = test::referenceSchedule(m, opts, prog, layout);
    expectSchedulesIdentical(reference, indexed);
    test::expectScheduleWellFormed(m, indexed);
}

/** Scattered injective layout (stride 5 is coprime to 16). */
std::vector<HwQubit>
scatterLayout(const Circuit &prog, int n_hw, int stride)
{
    std::vector<HwQubit> layout(prog.numQubits());
    for (int q = 0; q < prog.numQubits(); ++q)
        layout[q] = (q * stride) % n_hw;
    return layout;
}

// ------------------------------------------------------------------ //
// Table 2 set, every route selection / policy / duration model
// ------------------------------------------------------------------ //

TEST(SchedulerHotpath, Table2SetIsBitIdenticalAcrossConfigs)
{
    Machine m = day0();
    for (const Benchmark &b : paperBenchmarks()) {
        SCOPED_TRACE(b.name);
        std::vector<HwQubit> layout =
            scatterLayout(b.circuit, m.numQubits(), 5);

        struct Config
        {
            RouteSelect select;
            RoutingPolicy policy;
            bool calibrated;
        };
        const Config configs[] = {
            {RouteSelect::BestReliability, RoutingPolicy::OneBendPath,
             true},
            {RouteSelect::BestDuration,
             RoutingPolicy::RectangleReservation, true},
            {RouteSelect::Dijkstra, RoutingPolicy::OneBendPath, true},
            {RouteSelect::BestDuration, RoutingPolicy::OneBendPath,
             false},
        };
        for (const Config &cfg : configs) {
            SchedulerOptions opts;
            opts.select = cfg.select;
            opts.policy = cfg.policy;
            opts.calibratedDurations = cfg.calibrated;
            expectIndexedMatchesReference(m, b.circuit, layout, opts);
        }

        // Fixed per-gate junctions (the SMT/Qiskit route mode).
        SchedulerOptions fixed;
        fixed.select = RouteSelect::Fixed;
        fixed.fixedJunctions.assign(b.circuit.size(), -1);
        for (size_t i = 0; i < b.circuit.size(); ++i)
            if (b.circuit.gate(i).op == Op::CNOT)
                fixed.fixedJunctions[i] = static_cast<int>(i) % 2;
        expectIndexedMatchesReference(m, b.circuit, layout, fixed);
    }
}

/**
 * The daily-recompilation hot path allocates per run, not per gate:
 * the DAG and gate state are flat arrays, one-bend routes are borrowed
 * from the machine, Dijkstra routes land in a pre-sized arena, and ops
 * are emitted into a pre-sized vector. Budget, for the GreedyE*
 * bundle's scheduler on the Table 2 set: at most 3 heap allocations
 * per gate on average (the per-gate-vector design made 7.6).
 */
TEST(SchedulerHotpath, Table2AllocationBudget)
{
    Machine m = day0();
    const ListScheduler scheduler(m, greedySchedulerOptions());
    std::size_t allocations = 0;
    std::size_t gates = 0;
    for (const Benchmark &b : paperBenchmarks()) {
        const std::vector<HwQubit> layout =
            greedyEdgePlacement(m, b.circuit);
        g_allocations = 0;
        g_count_allocations = true;
        Schedule sched = scheduler.run(b.circuit, layout);
        g_count_allocations = false;
        ASSERT_EQ(sched.macros.size(), b.circuit.size()) << b.name;
        allocations += g_allocations;
        gates += b.circuit.size();
    }
    const double per_gate =
        static_cast<double>(allocations) / static_cast<double>(gates);
    RecordProperty("allocations_per_gate", std::to_string(per_gate));
    EXPECT_LE(per_gate, 3.0)
        << allocations << " allocations over " << gates << " gates";
}

// ------------------------------------------------------------------ //
// Randomized dense-CNOT stress, IBMQ16 and larger grids
// ------------------------------------------------------------------ //

struct StressCase
{
    int rows;
    int cols;
    int qubits;
    int gates;
    int cnotPermille;
    std::uint64_t seed;
    RoutingPolicy policy;
};

class HotpathStress : public ::testing::TestWithParam<StressCase>
{
};

TEST_P(HotpathStress, DenseRandomProgramsAreBitIdentical)
{
    const StressCase &p = GetParam();
    GridTopology topo(p.rows, p.cols);
    CalibrationModel model(topo, kSeed);
    Machine m(topo, model.forDay(0));

    Circuit prog = makeDenseCnotCircuit(p.qubits, p.gates, p.seed,
                                        p.cnotPermille);
    // Stride 5 is coprime to every tested grid size, so the scatter
    // stays injective while forcing long routes.
    ASSERT_NE(m.numQubits() % 5, 0);
    std::vector<HwQubit> layout =
        scatterLayout(prog, m.numQubits(), 5);

    SchedulerOptions opts;
    opts.policy = p.policy;
    opts.select = RouteSelect::BestReliability;
    expectIndexedMatchesReference(m, prog, layout, opts);
}

std::vector<StressCase>
stressCases()
{
    std::vector<StressCase> cases;
    for (std::uint64_t seed : {11u, 12u, 13u}) {
        cases.push_back({2, 8, 12, 200, 700, seed,
                         RoutingPolicy::OneBendPath});
        cases.push_back({2, 8, 16, 250, 700, seed,
                         RoutingPolicy::RectangleReservation});
    }
    cases.push_back({4, 8, 24, 300, 600, 21,
                     RoutingPolicy::OneBendPath});
    cases.push_back({4, 8, 32, 400, 600, 22,
                     RoutingPolicy::RectangleReservation});
    cases.push_back({8, 8, 48, 400, 500, 23,
                     RoutingPolicy::OneBendPath});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HotpathStress, ::testing::ValuesIn(stressCases()),
    [](const ::testing::TestParamInfo<StressCase> &info) {
        const StressCase &c = info.param;
        return "g" + std::to_string(c.rows) + "x" +
               std::to_string(c.cols) + "_q" +
               std::to_string(c.qubits) + "_n" +
               std::to_string(c.gates) + "_s" +
               std::to_string(c.seed) + "_" +
               routingPolicyName(c.policy);
    });

TEST(SchedulerHotpath, UniformRandomMixMatchesToo)
{
    Machine m = day0();
    for (std::uint64_t seed : {31u, 32u}) {
        RandomCircuitSpec spec;
        spec.numQubits = 12;
        spec.numGates = 300;
        spec.seed = seed;
        Circuit prog = makeRandomCircuit(spec);
        SchedulerOptions opts;
        expectIndexedMatchesReference(
            m, prog, scatterLayout(prog, m.numQubits(), 5), opts);
    }
}

// ------------------------------------------------------------------ //
// The list-scheduled MapperKind bundles on the Table 2 set
// ------------------------------------------------------------------ //

/** Replays a previously computed placement (layout + junctions). */
class FixedPlacementPass : public PlacementPass
{
  public:
    FixedPlacementPass(std::vector<HwQubit> layout,
                       std::vector<int> junctions)
        : layout_(std::move(layout)), junctions_(std::move(junctions))
    {
    }

    std::string name() const override { return "fixed"; }

    CompileStatus run(CompileContext &ctx) const override
    {
        ctx.layout = layout_;
        ctx.junctions = junctions_;
        return CompileStatus::success();
    }

  private:
    std::vector<HwQubit> layout_;
    std::vector<int> junctions_;
};

bool
isSmtKind(MapperKind kind)
{
    return kind == MapperKind::TSmt || kind == MapperKind::TSmtStar ||
           kind == MapperKind::RSmtStar;
}

class BundleIdentity : public ::testing::TestWithParam<MapperKind>
{
};

/**
 * The bundles route-select differently (fixed junctions, best
 * reliability/duration, Dijkstra) — each must produce the same
 * program whether its scheduling stage runs indexed or as the
 * reference scan. SMT placements are solved once (each solve must
 * prove optimality) and replayed through a fixed placement pass, so
 * both schedulers see the same placement. The live-tracking bundles
 * (GreedyE*+track, Sabre) never run the list scheduler, so they are
 * not instantiated here.
 */
TEST_P(BundleIdentity, IndexedEqualsReferenceOnTable2Set)
{
    const MapperKind kind = GetParam();
    auto machine = std::make_shared<const Machine>(day0());

    CompilerOptions opts;
    opts.mapper = kind;
    opts.smtTimeoutMs = 10'000;
    Pipeline standard = standardPipeline(machine, opts);

    for (const Benchmark &b : paperBenchmarks()) {
        SCOPED_TRACE(b.name);

        Pipeline indexed = standard;
        if (isSmtKind(kind)) {
            PipelineResult solved = standard.run(b.circuit);
            ASSERT_TRUE(solved.hasProgram) << solved.status.message;
            ASSERT_TRUE(solved.program.solverOptimal)
                << solved.program.solverStatus;
            const RouteSelect select =
                kind == MapperKind::RSmtStar
                    ? RouteSelect::BestReliability
                    : RouteSelect::BestDuration;
            indexed = Pipeline::forMachine(machine)
                          .placement(std::make_unique<FixedPlacementPass>(
                              solved.program.layout,
                              solved.program.junctions))
                          .routing(passes::routeSelection(
                              RoutingPolicy::OneBendPath, select))
                          .build();
        }
        PipelineResult ri = indexed.run(b.circuit);
        PipelineResult rr =
            test::withReferenceScheduling(indexed).run(b.circuit);
        ASSERT_TRUE(ri.ok()) << ri.status.message;
        ASSERT_TRUE(rr.ok()) << rr.status.message;
        EXPECT_EQ(rr.program.layout, ri.program.layout);
        expectSchedulesIdentical(rr.program.schedule, ri.program.schedule);
        EXPECT_EQ(rr.program.swapCount, ri.program.swapCount);
        EXPECT_EQ(rr.program.duration, ri.program.duration);
        EXPECT_EQ(rr.program.predictedSuccess,
                  ri.program.predictedSuccess);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, BundleIdentity,
    ::testing::Values(MapperKind::Qiskit, MapperKind::TSmt,
                      MapperKind::TSmtStar, MapperKind::RSmtStar,
                      MapperKind::GreedyV, MapperKind::GreedyE),
    [](const ::testing::TestParamInfo<MapperKind> &info) {
        std::string n = mapperKindName(info.param);
        for (char &c : n)
            if (c == '-' || c == '*' || c == '+')
                c = '_';
        return n;
    });

// ------------------------------------------------------------------ //
// ReservationLedger unit behavior
// ------------------------------------------------------------------ //

/** Single-cell region on the 2x8 grid (row-major qubit ids). */
Region
cellRegion(int x, int y)
{
    return Region::fromQubits({x * 8 + y});
}

TEST(ReservationLedger, PushesPastOverlappingIntervals)
{
    ReservationLedger ledger(16);
    Region a = cellRegion(0, 0);
    ledger.reserve(a, 0, 10);
    ledger.reserve(a, 12, 20);

    // Overlap with both reservations in turn: 0 -> 10, fits [10,12)?
    // duration 5 collides with [12,20) -> 20.
    EXPECT_EQ(ledger.feasibleStart(a, 5, 0), 20);
    // Duration 2 fits the [10, 12) gap exactly.
    EXPECT_EQ(ledger.feasibleStart(a, 2, 0), 10);
    // Spatially disjoint region is never pushed.
    EXPECT_EQ(ledger.feasibleStart(cellRegion(1, 5), 5, 0), 0);
}

TEST(ReservationLedger, FrontierRetiresDeadReservations)
{
    ReservationLedger ledger(16);
    for (int i = 0; i < 8; ++i)
        ledger.reserve(cellRegion(0, i), i * 10,
                       i * 10 + 10);
    EXPECT_EQ(ledger.liveCount(), 8);
    ledger.advanceFrontier(35);
    EXPECT_EQ(ledger.liveCount(), 5); // ends 40, 50, ..., 80 survive

    // Queries clamp to the frontier; retired intervals never push.
    EXPECT_EQ(ledger.feasibleStart(cellRegion(0, 0), 5, 0), 35);
    // A long window from the frontier still collides with [70, 80).
    EXPECT_EQ(ledger.feasibleStart(cellRegion(0, 7), 40, 0), 80);

    // The frontier is monotone: lesser values are ignored.
    ledger.advanceFrontier(10);
    EXPECT_EQ(ledger.frontier(), 35);
}

/**
 * Fuzz the ledger against the O(history) reference scan under a
 * monotone commit frontier — the scheduler's usage pattern — with a
 * caller-supplied random-region generator.
 */
void
fuzzLedgerAgainstBruteForce(int num_qubits,
                            const std::function<Region()> &random_region,
                            Rng &rng)
{
    ReservationLedger ledger(num_qubits);

    struct Res
    {
        Region region;
        Timeslot start, end;
    };
    std::vector<Res> all;
    Timeslot frontier = 0;

    auto bruteForce = [&](const Region &region, Timeslot dur,
                          Timeslot earliest) {
        Timeslot start = std::max(earliest, frontier);
        bool moved = true;
        while (moved) {
            moved = false;
            for (const Res &res : all) {
                if (start < res.end && res.start < start + dur &&
                    region.overlaps(res.region)) {
                    start = res.end;
                    moved = true;
                }
            }
        }
        return start;
    };

    for (int step = 0; step < 400; ++step) {
        Region region = random_region();
        Timeslot dur = rng.uniformInt(1, 30);
        Timeslot earliest = frontier + rng.uniformInt(0, 40);
        ASSERT_EQ(ledger.feasibleStart(region, dur, earliest),
                  bruteForce(region, dur, earliest))
            << "step " << step;
        // Occasionally commit at a monotone frontier, like the
        // scheduler does.
        if (rng.bernoulli(0.6)) {
            Timeslot s = bruteForce(region, dur, earliest);
            ledger.advanceFrontier(s);
            frontier = s;
            ledger.reserve(region, s, s + dur);
            all.push_back({region, s, s + dur});
        }
    }
    EXPECT_GT(ledger.totalCount(), ledger.liveCount());
}

TEST(ReservationLedger, MatchesBruteForceOnRandomWorkload)
{
    Rng rng(kSeed, "ledger-fuzz");
    GridTopology topo(4, 8);
    auto randomRegion = [&]() {
        int x0 = rng.uniformInt(0, 3), x1 = rng.uniformInt(0, 3);
        int y0 = rng.uniformInt(0, 7), y1 = rng.uniformInt(0, 7);
        return regionFromRects(
            topo, {Rect::spanning({x0, y0}, {x1, y1})});
    };
    fuzzLedgerAgainstBruteForce(topo.numQubits(), randomRegion, rng);
}

TEST(ReservationLedger, MatchesBruteForceOnHeavyHexGraph)
{
    // Non-grid regression: regions are BFS-path footprints on a
    // heavy-hex lattice, so buckets no longer correspond to grid
    // cells at all.
    Rng rng(kSeed, "ledger-fuzz-heavyhex");
    HeavyHexTopology topo(3);
    Machine machine(topo, test::uniformCalibration(topo));
    auto randomRegion = [&]() {
        HwQubit a = rng.uniformInt(0, topo.numQubits() - 1);
        HwQubit b = rng.uniformInt(0, topo.numQubits() - 1);
        if (a == b)
            b = (b + 1) % topo.numQubits();
        int j = rng.uniformInt(0, machine.numOneBendPaths(a, b) - 1);
        return routeRegion(topo, machine.oneBendPath(a, b, j),
                           RoutingPolicy::OneBendPath);
    };
    fuzzLedgerAgainstBruteForce(topo.numQubits(), randomRegion, rng);
}

} // namespace
} // namespace qc
