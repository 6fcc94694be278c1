/**
 * @file
 * Routing-geometry tests: rectangle overlap (Eq. 7), reserved regions
 * for RR / 1BP / Dijkstra routes, and SWAP-chain expansion.
 */

#include <gtest/gtest.h>

#include <random>

#include "route/region.hpp"
#include "route/routing.hpp"
#include "test_util.hpp"

namespace qc {
namespace {

using test::day0;

TEST(Rect, SpanningNormalizes)
{
    Rect r = Rect::spanning({3, 1}, {0, 5});
    EXPECT_EQ(r.x0, 0);
    EXPECT_EQ(r.x1, 3);
    EXPECT_EQ(r.y0, 1);
    EXPECT_EQ(r.y1, 5);
    EXPECT_EQ(r.area(), 4 * 5);
}

TEST(Rect, OverlapCases)
{
    Rect a = Rect::spanning({0, 0}, {1, 3});
    Rect b = Rect::spanning({1, 3}, {2, 5}); // touches at (1,3)
    Rect c = Rect::spanning({2, 4}, {3, 7});
    EXPECT_TRUE(a.overlaps(b));
    EXPECT_TRUE(b.overlaps(a));
    EXPECT_FALSE(a.overlaps(c));
    EXPECT_TRUE(b.overlaps(c));
    EXPECT_TRUE(a.overlaps(a));
}

TEST(Rect, Contains)
{
    Rect r = Rect::spanning({0, 2}, {1, 4});
    EXPECT_TRUE(r.contains({0, 3}));
    EXPECT_TRUE(r.contains({1, 4}));
    EXPECT_FALSE(r.contains({0, 5}));
}

TEST(Region, OverlapAnyPair)
{
    GridTopology topo = GridTopology::ibmq16();
    Region a = regionFromRects(topo,
                               {Rect::spanning({0, 0}, {0, 1}),
                                Rect::spanning({1, 5}, {1, 6})});
    Region b = regionFromRects(topo, {Rect::spanning({1, 6}, {1, 7})});
    Region c = regionFromRects(topo, {Rect::spanning({0, 3}, {0, 4})});
    EXPECT_TRUE(a.overlaps(b));
    EXPECT_FALSE(a.overlaps(c));
    EXPECT_TRUE(a.contains(topo.qubitAt(1, 5)));
    EXPECT_FALSE(a.contains(topo.qubitAt(0, 4)));
}

TEST(Region, FromQubitsSortsAndDedupes)
{
    Region r = Region::fromQubits({7, 3, 3, 0, 7});
    EXPECT_EQ(r.qubits, (std::vector<HwQubit>{0, 3, 7}));
    EXPECT_TRUE(r.contains(3));
    EXPECT_FALSE(r.contains(5));
}

/**
 * The grid bit-identity anchor of the footprint refactor: for random
 * rect unions on random grids, the qubit-set overlap equals the
 * paper's pairwise rectangle-overlap predicate (Eq. 7/9) — inclusive
 * rectangles intersect exactly when they share a cell.
 */
TEST(Region, QubitFootprintOverlapEqualsRectOverlapOnGrids)
{
    std::mt19937_64 rng(test::kSeed);
    for (int iter = 0; iter < 400; ++iter) {
        int rows = 1 + static_cast<int>(rng() % 7);
        int cols = 1 + static_cast<int>(rng() % 7);
        GridTopology topo(rows, cols);
        auto random_rects = [&] {
            std::vector<Rect> rects;
            int n = 1 + static_cast<int>(rng() % 3);
            for (int i = 0; i < n; ++i) {
                GridPos a{static_cast<int>(rng() % rows),
                          static_cast<int>(rng() % cols)};
                GridPos b{static_cast<int>(rng() % rows),
                          static_cast<int>(rng() % cols)};
                rects.push_back(Rect::spanning(a, b));
            }
            return rects;
        };
        std::vector<Rect> ra = random_rects();
        std::vector<Rect> rb = random_rects();
        bool rect_overlap = false;
        for (const Rect &x : ra)
            for (const Rect &y : rb)
                rect_overlap = rect_overlap || x.overlaps(y);
        Region a = regionFromRects(topo, ra);
        Region b = regionFromRects(topo, rb);
        EXPECT_EQ(a.overlaps(b), rect_overlap)
            << "grid " << rows << "x" << cols << " iteration " << iter;
    }
}

class RouteRegions : public ::testing::Test
{
  protected:
    Machine m_ = day0();
};

TEST_F(RouteRegions, RectangleReservationIsBoundingBox)
{
    const auto &topo = m_.topo();
    for (HwQubit a = 0; a < topo.numQubits(); ++a) {
        for (HwQubit b = 0; b < topo.numQubits(); ++b) {
            if (a == b)
                continue;
            const RoutePath &r = m_.oneBendPath(a, b, 0);
            Region region = routeRegion(
                topo, r, RoutingPolicy::RectangleReservation);
            Rect bb = Rect::spanning(topo.posOf(a), topo.posOf(b));
            // The footprint is exactly the bounding box's cells.
            ASSERT_EQ(static_cast<int>(region.qubits.size()),
                      bb.area());
            for (HwQubit h : region.qubits)
                EXPECT_TRUE(bb.contains(topo.posOf(h)));
            // Every route node sits inside the reservation.
            for (HwQubit h : r.nodes)
                EXPECT_TRUE(region.contains(h));
        }
    }
}

TEST_F(RouteRegions, OneBendRegionCoversPathOnly)
{
    const auto &topo = m_.topo();
    for (HwQubit a = 0; a < topo.numQubits(); ++a) {
        for (HwQubit b = 0; b < topo.numQubits(); ++b) {
            if (a == b)
                continue;
            for (int j = 0; j < m_.numOneBendPaths(a, b); ++j) {
                const RoutePath &r = m_.oneBendPath(a, b, j);
                Region region =
                    routeRegion(topo, r, RoutingPolicy::OneBendPath);
                for (HwQubit h : r.nodes)
                    EXPECT_TRUE(region.contains(h));
                // 1BP legs are lines: the footprint is exactly the
                // path's node set, nothing more.
                EXPECT_EQ(region.qubits.size(), r.nodes.size());
            }
        }
    }
}

/**
 * The 1BP footprint is built from the route's nodes; on grids it must
 * equal the paper's rect formulation, the union of the two leg
 * rectangles through the junction. RR stays the bounding box.
 */
TEST(RouteRegionRects, FootprintsEqualRectFormulation)
{
    for (const char *spec : {"grid:2x8", "grid:4x8"}) {
        SCOPED_TRACE(spec);
        Topology topo = topologyFromSpec(spec);
        Machine m(topo, test::uniformCalibration(topo));
        for (HwQubit a = 0; a < topo.numQubits(); ++a) {
            for (HwQubit b = 0; b < topo.numQubits(); ++b) {
                if (a == b)
                    continue;
                const GridPos pa = topo.posOf(a);
                const GridPos pb = topo.posOf(b);
                for (int j = 0; j < m.numOneBendPaths(a, b); ++j) {
                    const RoutePath &r = m.oneBendPath(a, b, j);
                    ASSERT_NE(r.junction, kInvalidQubit);
                    const GridPos pj = topo.posOf(r.junction);
                    EXPECT_EQ(
                        routeRegion(topo, r, RoutingPolicy::OneBendPath)
                            .qubits,
                        regionFromRects(topo, {Rect::spanning(pa, pj),
                                               Rect::spanning(pj, pb)})
                            .qubits)
                        << a << " -> " << b << " junction " << j;
                    EXPECT_EQ(
                        routeRegion(topo, r,
                                    RoutingPolicy::RectangleReservation)
                            .qubits,
                        regionFromRects(topo, {Rect::spanning(pa, pb)})
                            .qubits)
                        << a << " -> " << b << " junction " << j;
                }
            }
        }
    }
}

TEST_F(RouteRegions, DijkstraRegionIsPerNode)
{
    const auto &topo = m_.topo();
    RoutePath r = m_.dijkstraRoute(0, topo.numQubits() - 1);
    Region region = routeRegion(topo, r, RoutingPolicy::OneBendPath);
    EXPECT_EQ(region.qubits.size(), r.nodes.size());
    for (HwQubit h : r.nodes)
        EXPECT_TRUE(region.contains(h));
}

class RouteExpansion : public ::testing::Test
{
  protected:
    Machine m_ = day0();
};

TEST_F(RouteExpansion, AdjacentPairIsBareCnot)
{
    std::vector<TimedOp> ops;
    expandRoute(m_, m_.bestReliabilityPath(0, 1), 7, 3, ops);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].gate.op, Op::CNOT);
    EXPECT_FALSE(ops[0].isRouteSwap);
    EXPECT_EQ(ops[0].start, 7);
    EXPECT_EQ(ops[0].progGate, 3);
}

TEST_F(RouteExpansion, DistantPairSwapsThereAndBack)
{
    const auto &topo = m_.topo();
    HwQubit a = topo.qubitAt(0, 0);
    HwQubit b = topo.qubitAt(1, 3);
    const RoutePath &r = m_.bestReliabilityPath(a, b);
    int d = topo.distance(a, b);
    // expandRoute appends after the ops the caller already holds.
    std::vector<TimedOp> ops(1);
    expandRoute(m_, r, 5, 0, ops);
    ops.erase(ops.begin());
    // (d-1) forward SWAPs + CNOT + (d-1) restore SWAPs.
    ASSERT_EQ(static_cast<int>(ops.size()), 2 * (d - 1) + 1);
    int swaps = 0;
    Timeslot total = 0;
    Timeslot cursor = 5;
    for (const auto &op : ops) {
        EXPECT_EQ(op.start, cursor) << "ops must be back-to-back";
        cursor += op.duration;
        total += op.duration;
        if (op.gate.op == Op::Swap) {
            ++swaps;
            EXPECT_TRUE(op.isRouteSwap);
        }
    }
    EXPECT_EQ(swaps, 2 * (d - 1));
    EXPECT_EQ(total, r.duration);
    // Middle op is the CNOT, adjacent to the target.
    const auto &mid = ops[static_cast<size_t>(d - 1)];
    EXPECT_EQ(mid.gate.op, Op::CNOT);
    EXPECT_EQ(mid.gate.q1, b);
    EXPECT_TRUE(topo.adjacent(mid.gate.q0, b));
    // Restore swaps mirror the forward ones.
    EXPECT_EQ(ops.front().gate.q0, ops.back().gate.q1);
    EXPECT_EQ(ops.front().gate.q1, ops.back().gate.q0);
}

TEST_F(RouteExpansion, UniformDurationsMatchStaticModel)
{
    const auto &topo = m_.topo();
    HwQubit a = topo.qubitAt(0, 0);
    HwQubit b = topo.qubitAt(0, 4);
    const RoutePath &r = m_.bestDurationPath(a, b);
    Timeslot tau = m_.uniformCnotDuration();
    std::vector<TimedOp> ops;
    expandRoute(m_, r, 0, 0, ops, tau);
    Timeslot total = 0;
    for (const auto &op : ops)
        total += op.duration;
    EXPECT_EQ(total, m_.uniformRouteDuration(topo.distance(a, b)));
}

TEST(RoutingPolicy, Names)
{
    EXPECT_STREQ(routingPolicyName(RoutingPolicy::RectangleReservation),
                 "RR");
    EXPECT_STREQ(routingPolicyName(RoutingPolicy::OneBendPath), "1BP");
}

} // namespace
} // namespace qc
