/**
 * @file
 * Region-level scheduler property tests: the paper's routing
 * constraint S(i,j) => !T(i,j) (Eq. 7-9) must hold in every emitted
 * schedule — two routed CNOTs whose reserved regions overlap in space
 * may never overlap in time, under both policies and across random
 * programs.
 */

#include <gtest/gtest.h>

#include "test_util.hpp"
#include "workloads/random_circuits.hpp"

namespace qc {
namespace {

using test::day0;

/** Rebuild each routed CNOT's reservation and check Eq. 7-9. */
void
expectNoSpaceTimeConflicts(const Machine &m, const Circuit &prog,
                           const Schedule &sched,
                           const std::vector<HwQubit> &layout,
                           const SchedulerOptions &opts)
{
    ListScheduler sched_engine(m, opts);
    struct Res
    {
        Region region;
        Timeslot start;
        Timeslot end;
    };
    std::vector<Res> reservations;
    for (size_t i = 0; i < prog.size(); ++i) {
        const Gate &g = prog.gate(i);
        if (g.op != Op::CNOT)
            continue;
        RoutePath scratch;
        const RoutePath &route = sched_engine.chooseRoute(
            layout[g.q0], layout[g.q1], static_cast<int>(i), scratch);
        Region region = routeRegion(m.topo(), route, opts.policy);
        reservations.push_back({std::move(region), sched.macros[i].start,
                                sched.macros[i].finish()});
    }
    for (size_t i = 0; i < reservations.size(); ++i) {
        for (size_t j = i + 1; j < reservations.size(); ++j) {
            const Res &a = reservations[i];
            const Res &b = reservations[j];
            bool time_overlap = a.start < b.end && b.start < a.end;
            if (time_overlap) {
                EXPECT_FALSE(a.region.overlaps(b.region))
                    << "CNOT reservations " << i << " and " << j
                    << " overlap in space and time";
            }
        }
    }
}

struct ResCase
{
    std::uint64_t seed;
    int qubits;
    int gates;
    RoutingPolicy policy;
};

class ReservationProperty : public ::testing::TestWithParam<ResCase>
{
};

TEST_P(ReservationProperty, RandomProgramsRespectEq79)
{
    const auto &p = GetParam();
    Machine m = day0();

    RandomCircuitSpec spec;
    spec.numQubits = p.qubits;
    spec.numGates = p.gates;
    spec.seed = p.seed;
    Circuit prog = makeRandomCircuit(spec);

    // Scatter the program across the chip so routes actually cross.
    std::vector<HwQubit> layout(p.qubits);
    for (int q = 0; q < p.qubits; ++q)
        layout[q] = (q * 5) % m.numQubits();
    // Make injective for any qubit count <= 16 (5 is coprime to 16).
    ASSERT_EQ(m.numQubits(), 16);

    SchedulerOptions opts;
    opts.policy = p.policy;
    opts.select = RouteSelect::BestReliability;
    ListScheduler engine(m, opts);
    Schedule sched = engine.run(prog, layout);

    test::expectScheduleWellFormed(m, sched);
    expectNoSpaceTimeConflicts(m, prog, sched, layout, opts);
}

std::vector<ResCase>
resCases()
{
    std::vector<ResCase> cases;
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
        cases.push_back({seed, 8, 100,
                         RoutingPolicy::RectangleReservation});
        cases.push_back({seed, 8, 100, RoutingPolicy::OneBendPath});
    }
    cases.push_back({7, 12, 200, RoutingPolicy::RectangleReservation});
    cases.push_back({8, 12, 200, RoutingPolicy::OneBendPath});
    cases.push_back({9, 16, 300, RoutingPolicy::OneBendPath});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReservationProperty, ::testing::ValuesIn(resCases()),
    [](const ::testing::TestParamInfo<ResCase> &info) {
        return "s" + std::to_string(info.param.seed) + "_q" +
               std::to_string(info.param.qubits) + "_" +
               routingPolicyName(info.param.policy);
    });

TEST(ReservationProperty, PaperBenchmarksRespectEq79)
{
    Machine m = day0();
    for (const auto &b : paperBenchmarks()) {
        std::vector<HwQubit> layout(b.circuit.numQubits());
        for (int q = 0; q < b.circuit.numQubits(); ++q)
            layout[q] = (q * 5) % m.numQubits();
        for (RoutingPolicy policy :
             {RoutingPolicy::RectangleReservation,
              RoutingPolicy::OneBendPath}) {
            SchedulerOptions opts;
            opts.policy = policy;
            ListScheduler engine(m, opts);
            Schedule sched = engine.run(b.circuit, layout);
            expectNoSpaceTimeConflicts(m, b.circuit, sched, layout,
                                       opts);
        }
    }
}

} // namespace
} // namespace qc
