/**
 * @file
 * Test oracle for the list scheduler: the plain full-scan form of
 * earliest-ready-gate-first scheduling with space-time reservations.
 *
 * Every step rescans every ready gate and pushes each routed gate past
 * every overlapping reservation in the whole history — O(steps x ready
 * x reservations). ListScheduler computes the same commit sequence
 * incrementally (ReservationLedger + a cached ready-queue), so the two
 * must agree bit for bit on every input. The scheduler hot-path tests
 * and bench_scheduler_hotpath compare against this header; the
 * library itself has one scheduler. Header-only and gtest-free, so
 * the bench can include it too.
 */

#ifndef QC_TESTS_REFERENCE_SCHEDULER_HPP
#define QC_TESTS_REFERENCE_SCHEDULER_HPP

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "ir/dag.hpp"
#include "sched/list_scheduler.hpp"
#include "support/logging.hpp"

namespace qc::test {

/** Schedule `prog` under `layout` with the full-scan reference. */
inline Schedule
referenceSchedule(const Machine &machine, const SchedulerOptions &options,
                  const Circuit &prog, const std::vector<HwQubit> &layout)
{
    const auto &topo = machine.topo();
    const auto &cal = machine.cal();
    validateLayout(layout, prog.numQubits(), topo.numQubits());

    // Route choice is a pure function of the options; reuse it.
    const ListScheduler router(machine, options);
    const Timeslot uniform_cnot =
        options.calibratedDurations ? -1 : machine.uniformCnotDuration();

    DependencyDag dag(prog);
    const size_t n_gates = prog.size();

    struct GatePlan
    {
        std::vector<HwQubit> touched;
        Timeslot duration = 0;
        RoutePath route;
        Region region;
        bool routed = false;
    };
    std::vector<GatePlan> plans(n_gates);
    for (size_t i = 0; i < n_gates; ++i) {
        const Gate &g = prog.gate(i);
        GatePlan &plan = plans[i];
        if (g.op == Op::CNOT) {
            RoutePath scratch;
            plan.route = router.chooseRoute(layout[g.q0], layout[g.q1],
                                            static_cast<int>(i), scratch);
            plan.duration =
                uniform_cnot >= 0
                    ? machine.uniformRouteDuration(
                          static_cast<int>(plan.route.edges.size()))
                    : plan.route.duration;
            plan.region = routeRegion(topo, plan.route, options.policy);
            plan.touched = plan.route.nodes;
            plan.routed = true;
        } else if (g.isMeasure()) {
            plan.duration = cal.readoutDuration;
            plan.touched = {layout[g.q0]};
        } else if (g.op == Op::Swap) {
            QC_FATAL("program-level circuits must not contain Swap");
        } else {
            plan.duration = cal.oneQubitDuration;
            plan.touched = {layout[g.q0]};
        }
    }

    std::vector<Timeslot> qubit_avail(topo.numQubits(), 0);
    std::vector<Timeslot> gate_finish(n_gates, 0);
    std::vector<int> preds_left(n_gates, 0);
    for (size_t i = 0; i < n_gates; ++i)
        preds_left[i] =
            static_cast<int>(dag.preds(static_cast<int>(i)).size());

    Schedule sched;
    sched.numHwQubits = topo.numQubits();
    sched.macros.resize(n_gates);
    sched.qubitFinish.assign(topo.numQubits(), 0);

    struct Reservation
    {
        Region region;
        Timeslot start;
        Timeslot end;
    };
    std::vector<Reservation> reservations;

    auto feasible_start = [&](int gi) {
        const GatePlan &plan = plans[gi];
        Timeslot start = 0;
        for (int p : dag.preds(gi))
            start = std::max(start, gate_finish[p]);
        for (HwQubit h : plan.touched)
            start = std::max(start, qubit_avail[h]);
        if (!plan.routed)
            return start;
        // Push past every spatially-overlapping reservation that
        // would overlap in time (S(i,j) => !T(i,j), Eq. 7-9).
        bool moved = true;
        while (moved) {
            moved = false;
            for (const Reservation &res : reservations) {
                if (start < res.end && res.start < start + plan.duration &&
                    plan.region.overlaps(res.region)) {
                    start = res.end;
                    moved = true;
                }
            }
        }
        return start;
    };

    std::vector<int> ready = dag.roots();
    for (size_t scheduled = 0; scheduled < n_gates; ++scheduled) {
        QC_ASSERT(!ready.empty(), "scheduler deadlock: no ready gates");

        // Commit the ready gate with the smallest feasible start
        // (ties: lowest index).
        int gi = -1;
        Timeslot start = std::numeric_limits<Timeslot>::max();
        size_t pos = 0;
        for (size_t k = 0; k < ready.size(); ++k) {
            Timeslot s = feasible_start(ready[k]);
            if (s < start || (s == start && ready[k] < gi)) {
                start = s;
                gi = ready[k];
                pos = k;
            }
        }
        ready.erase(ready.begin() + static_cast<long>(pos));

        const Gate &g = prog.gate(gi);
        const GatePlan &plan = plans[gi];
        const Timeslot finish = start + plan.duration;
        sched.macros[gi] = {gi, start, plan.duration};
        gate_finish[gi] = finish;
        if (plan.routed) {
            expandRoute(machine, plan.route, start, gi, sched.ops,
                        uniform_cnot);
            reservations.push_back({plan.region, start, finish});
        } else {
            TimedOp top;
            top.gate = g;
            top.gate.q0 = layout[g.q0];
            top.start = start;
            top.duration = plan.duration;
            top.progGate = gi;
            sched.ops.push_back(top);
        }
        for (HwQubit h : plan.touched)
            qubit_avail[h] = finish;
        sched.makespan = std::max(sched.makespan, finish);

        for (int s : dag.succs(gi))
            if (--preds_left[s] == 0)
                ready.push_back(s);
    }

    for (const TimedOp &op : sched.ops) {
        sched.qubitFinish[op.gate.q0] =
            std::max(sched.qubitFinish[op.gate.q0], op.finish());
        if (op.gate.isTwoQubit())
            sched.qubitFinish[op.gate.q1] =
                std::max(sched.qubitFinish[op.gate.q1], op.finish());
    }
    return sched;
}

/**
 * A list-scheduling stage that runs the reference scan, so a whole
 * bundle can be compiled against the oracle:
 * Pipeline::forMachine(m).placement(...).scheduling(
 *     std::make_unique<ReferenceSchedulingPass>()).build().
 */
class ReferenceSchedulingPass : public SchedulingPass
{
  public:
    std::string name() const override { return "reference-list"; }

    CompileStatus run(CompileContext &ctx) const override
    {
        ctx.schedule = referenceSchedule(ctx.mach(), ctx.schedOptions,
                                         ctx.circuit(), ctx.layout);
        ctx.duration = ctx.schedule.makespan;
        ctx.swapCount = ctx.schedule.swapCount();

        std::ostringstream oss;
        oss << "makespan " << ctx.duration << ", " << ctx.swapCount
            << " swaps";
        ctx.addNote(oss.str());
        return CompileStatus::success();
    }
};

/** Re-exposes a stage of an existing pipeline under another role. */
template <class Stage>
class SharedStage : public Stage
{
  public:
    explicit SharedStage(std::shared_ptr<const Pass> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }

    CompileStatus run(CompileContext &ctx) const override
    {
        return inner_->run(ctx);
    }

  private:
    std::shared_ptr<const Pass> inner_;
};

/**
 * `indexed` (a list-scheduled pipeline, e.g. a standardPipeline
 * bundle) with its scheduling stage swapped for the reference scan;
 * placement, routing and prediction are the very same pass objects.
 */
inline Pipeline
withReferenceScheduling(const Pipeline &indexed)
{
    QC_ASSERT(!indexed.routesLive(),
              "the reference scan replaces the list scheduler only");
    const auto &stages = indexed.stages();
    return Pipeline::forMachine(indexed.machineSnapshot())
        .placement(std::make_unique<SharedStage<PlacementPass>>(stages[0]))
        .routing(std::make_unique<SharedStage<RoutingPass>>(stages[1]))
        .scheduling(std::make_unique<ReferenceSchedulingPass>())
        .prediction(
            std::make_unique<SharedStage<PredictionPass>>(stages[3]))
        .named(indexed.name())
        .verification(indexed.verifies() ? PipelineVerify::On
                                         : PipelineVerify::Off)
        .build();
}

} // namespace qc::test

#endif // QC_TESTS_REFERENCE_SCHEDULER_HPP
