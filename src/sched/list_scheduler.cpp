#include "list_scheduler.hpp"

#include <algorithm>
#include <queue>
#include <utility>

#include "ir/dag.hpp"
#include "sched/reservation_ledger.hpp"
#include "support/logging.hpp"

namespace qc {

void
validateLayout(const std::vector<HwQubit> &layout, int n_prog, int n_hw)
{
    if (static_cast<int>(layout.size()) != n_prog)
        QC_FATAL("layout arity ", layout.size(), " != program qubits ",
                 n_prog);
    std::vector<bool> used(n_hw, false);
    for (HwQubit h : layout) {
        if (h < 0 || h >= n_hw)
            QC_FATAL("layout maps to out-of-range hardware qubit ", h);
        if (used[h])
            QC_FATAL("layout maps two program qubits to hardware qubit ",
                     h);
        used[h] = true;
    }
}

ListScheduler::ListScheduler(const Machine &machine,
                             SchedulerOptions options)
    : machine_(machine), options_(std::move(options))
{
}

RoutePath
ListScheduler::chooseRoute(HwQubit c, HwQubit t, int gate_idx) const
{
    switch (options_.select) {
      case RouteSelect::BestReliability:
        return machine_.bestReliabilityPath(c, t);
      case RouteSelect::BestDuration:
        return machine_.bestDurationPath(c, t);
      case RouteSelect::Dijkstra:
        return machine_.dijkstraRoute(c, t);
      case RouteSelect::Fixed: {
        QC_ASSERT(gate_idx >= 0 &&
                      gate_idx <
                          static_cast<int>(options_.fixedJunctions.size()),
                  "no fixed junction recorded for gate ", gate_idx);
        int j = options_.fixedJunctions[gate_idx];
        QC_ASSERT(j >= 0, "fixed junction missing for CNOT gate ",
                  gate_idx);
        j = std::min(j, machine_.numOneBendPaths(c, t) - 1);
        return machine_.oneBendPath(c, t, j);
      }
    }
    QC_PANIC("unknown route selection");
}

Schedule
ListScheduler::run(const Circuit &prog,
                   const std::vector<HwQubit> &layout,
                   const CancelToken *cancel) const
{
    const auto &topo = machine_.topo();
    const auto &cal = machine_.cal();
    validateLayout(layout, prog.numQubits(), topo.numQubits());

    const Timeslot uniform_cnot =
        options_.calibratedDurations ? -1 : machine_.uniformCnotDuration();

    DependencyDag dag(prog);
    const size_t n_gates = prog.size();

    // Per-gate routing decisions, computed once.
    struct GatePlan
    {
        std::vector<HwQubit> touched; ///< hw qubits whose time advances
        Timeslot duration = 0;
        RoutePath route;              ///< CNOTs only
        Region region;                ///< CNOTs only
        bool routed = false;
    };
    std::vector<GatePlan> plans(n_gates);
    for (size_t i = 0; i < n_gates; ++i) {
        const Gate &g = prog.gate(i);
        GatePlan &plan = plans[i];
        if (g.op == Op::CNOT) {
            HwQubit c = layout[g.q0];
            HwQubit t = layout[g.q1];
            plan.route = chooseRoute(c, t, static_cast<int>(i));
            if (uniform_cnot >= 0) {
                plan.duration = machine_.uniformRouteDuration(
                    static_cast<int>(plan.route.edges.size()));
            } else {
                plan.duration = plan.route.duration;
            }
            plan.region = routeRegion(topo, plan.route, options_.policy);
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
        preds_left[i] = static_cast<int>(dag.preds(static_cast<int>(i))
                                             .size());

    Schedule sched;
    sched.numHwQubits = topo.numQubits();
    sched.macros.resize(n_gates);
    sched.qubitFinish.assign(topo.numQubits(), 0);

    // Dependency/qubit lower bound on a ready gate's start time (the
    // reservation constraints push routed gates past this).
    auto lower_bound = [&](int gi) {
        Timeslot start = 0;
        for (int p : dag.preds(gi))
            start = std::max(start, gate_finish[p]);
        for (HwQubit h : plans[gi].touched)
            start = std::max(start, qubit_avail[h]);
        return start;
    };

    // Commit one gate at its feasible start: record macro timing,
    // emit the timed hardware ops, advance the touched qubits.
    auto commit = [&](int gi, Timeslot start) {
        const Gate &g = prog.gate(gi);
        const GatePlan &plan = plans[gi];
        Timeslot finish = start + plan.duration;

        sched.macros[gi] = {gi, start, plan.duration};
        gate_finish[gi] = finish;

        if (plan.routed) {
            for (const MicroOp &mop :
                 expandRoute(machine_, plan.route, uniform_cnot)) {
                TimedOp top;
                top.gate = mop.gate;
                top.start = start + mop.offset;
                top.duration = mop.duration;
                top.progGate = gi;
                top.isRouteSwap = mop.isRouteSwap;
                sched.ops.push_back(top);
            }
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
        return finish;
    };

    // Earliest-ready-gate-first, computed incrementally.
    //
    // Reservations live in a per-cell ledger instead of a flat
    // history, and each ready gate's feasible start is cached:
    // a commit only dirties the ready gates it can actually move
    // (shared touched qubits, or — for routed gates — a spatially
    // overlapping region). Everything else keeps its cached
    // value, which stays exact because feasible starts depend
    // only on predecessor finishes (fixed once ready), the
    // touched qubits' availability, and spatially overlapping
    // reservations.
    //
    // Selection uses a lazy min-heap keyed by (start, gate):
    // cached values only grow, so a stale key is a lower bound;
    // a clean popped entry is therefore the true lexicographic
    // minimum — the same gate a full scan of the ready set would
    // commit (tests/reference_scheduler.hpp keeps that scan as the
    // test oracle).
    //
    // Commit starts are monotone non-decreasing (the minimum
    // feasible start never shrinks as reservations accumulate),
    // which is what lets the ledger clamp queries to the frontier
    // and retire reservations behind it without changing any
    // result.
    ReservationLedger ledger(topo.numQubits());

    std::vector<Timeslot> cached(n_gates, 0);
    std::vector<char> dirty(n_gates, 0);
    std::vector<char> done(n_gates, 0);
    std::vector<int> ready_list;
    std::vector<int> ready_pos(n_gates, -1);
    std::vector<int> qubit_mark(topo.numQubits(), -1);
    int commit_serial = -1;

    using HeapEntry = std::pair<Timeslot, int>;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>>
        heap;

    auto recompute = [&](int gi) {
        const GatePlan &plan = plans[gi];
        Timeslot s = lower_bound(gi);
        if (plan.routed)
            s = ledger.feasibleStart(plan.region, plan.duration, s);
        cached[gi] = s;
    };
    auto make_ready = [&](int gi) {
        ready_pos[gi] = static_cast<int>(ready_list.size());
        ready_list.push_back(gi);
        recompute(gi);
        heap.push({cached[gi], gi});
    };
    for (int r : dag.roots())
        make_ready(r);

    size_t scheduled = 0;
    while (scheduled < n_gates) {
        throwIfCancelled(cancel, "scheduling cancelled");
        QC_ASSERT(!heap.empty(),
                  "scheduler deadlock: no ready gates");
        auto [key, gi] = heap.top();
        heap.pop();
        if (done[gi] || key != cached[gi])
            continue; // superseded duplicate
        if (dirty[gi]) {
            dirty[gi] = 0;
            recompute(gi);
            heap.push({cached[gi], gi});
            continue;
        }

        done[gi] = 1;
        const int pos = ready_pos[gi];
        const int back = ready_list.back();
        ready_list[pos] = back;
        ready_pos[back] = pos;
        ready_list.pop_back();
        ready_pos[gi] = -1;

        const GatePlan &plan = plans[gi];
        Timeslot finish = commit(gi, key);
        ledger.advanceFrontier(key);
        if (plan.routed)
            ledger.reserve(plan.region, key, finish);

        // Dirty exactly the ready gates this commit can move.
        ++commit_serial;
        for (HwQubit h : plan.touched)
            qubit_mark[h] = commit_serial;
        for (int g : ready_list) {
            if (dirty[g])
                continue;
            bool hit = false;
            for (HwQubit h : plans[g].touched) {
                if (qubit_mark[h] == commit_serial) {
                    hit = true;
                    break;
                }
            }
            if (!hit && plan.routed && plans[g].routed &&
                plans[g].region.overlaps(plan.region))
                hit = true;
            if (hit)
                dirty[g] = 1;
        }

        for (int s : dag.succs(gi)) {
            if (--preds_left[s] == 0)
                make_ready(s);
        }
        ++scheduled;
    }

    // Last physical use of each qubit (macro windows are conservative
    // for availability; decoherence accounting wants actual op times).
    for (const auto &op : sched.ops) {
        sched.qubitFinish[op.gate.q0] =
            std::max(sched.qubitFinish[op.gate.q0], op.finish());
        if (op.gate.isTwoQubit()) {
            sched.qubitFinish[op.gate.q1] =
                std::max(sched.qubitFinish[op.gate.q1], op.finish());
        }
    }

    return sched;
}

} // namespace qc
