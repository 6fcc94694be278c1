#include "list_scheduler.hpp"

#include <algorithm>
#include <queue>
#include <utility>

#include "ir/dag.hpp"
#include "sched/reservation_ledger.hpp"
#include "support/logging.hpp"

namespace qc {

namespace {

/** Read-only view of a contiguous run of hardware qubits. */
struct QubitView
{
    const HwQubit *first = nullptr;
    const HwQubit *last = nullptr;

    const HwQubit *begin() const { return first; }
    const HwQubit *end() const { return last; }
};

} // namespace

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

const RoutePath &
ListScheduler::chooseRoute(HwQubit c, HwQubit t, int gate_idx,
                           RoutePath &scratch) const
{
    switch (options_.select) {
      case RouteSelect::BestReliability:
        return machine_.bestReliabilityPath(c, t);
      case RouteSelect::BestDuration:
        return machine_.bestDurationPath(c, t);
      case RouteSelect::Dijkstra:
        scratch = machine_.dijkstraRoute(c, t);
        return scratch;
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

    // Per-gate routing decisions (computed once) and scheduling state,
    // in one array. A CNOT's route is borrowed from the machine, or
    // under Dijkstra selection built into its `scratch` slot; the
    // slots are reserved up front, so borrowed pointers stay valid.
    struct GateState
    {
        const RoutePath *route = nullptr; ///< CNOTs only
        Region region;                    ///< CNOTs only
        QubitView touched; ///< hw qubits whose time advances
        Timeslot duration = 0;
        Timeslot finish = 0;
        Timeslot cached = 0; ///< feasible start while ready
        int predsLeft = 0;
        int readyPos = -1;
        bool dirty = false;
        bool done = false;

        bool routed() const { return route != nullptr; }
    };
    std::vector<GateState> gates(n_gates);
    std::vector<RoutePath> scratch;
    scratch.reserve(static_cast<size_t>(prog.cnotCount()));
    size_t n_ops = 0;
    size_t n_routed = 0;
    size_t n_cells = 0; ///< region qubits over all routed gates
    for (size_t i = 0; i < n_gates; ++i) {
        const Gate &g = prog.gate(i);
        GateState &gs = gates[i];
        gs.predsLeft =
            static_cast<int>(dag.preds(static_cast<int>(i)).size());
        if (g.op == Op::CNOT) {
            HwQubit c = layout[g.q0];
            HwQubit t = layout[g.q1];
            const RoutePath &route = chooseRoute(
                c, t, static_cast<int>(i), scratch.emplace_back());
            gs.route = &route;
            if (uniform_cnot >= 0) {
                gs.duration = machine_.uniformRouteDuration(
                    static_cast<int>(route.edges.size()));
            } else {
                gs.duration = route.duration;
            }
            gs.region = routeRegion(topo, route, options_.policy);
            gs.touched = {route.nodes.data(),
                          route.nodes.data() + route.nodes.size()};
            n_ops += 2 * route.edges.size() - 1;
            ++n_routed;
            n_cells += gs.region.qubits.size();
            continue;
        }
        if (g.op == Op::Swap)
            QC_FATAL("program-level circuits must not contain Swap");
        gs.duration = g.isMeasure() ? cal.readoutDuration
                                    : cal.oneQubitDuration;
        gs.touched = {&layout[g.q0], &layout[g.q0] + 1};
        ++n_ops;
    }

    std::vector<Timeslot> qubit_avail(topo.numQubits(), 0);

    Schedule sched;
    sched.numHwQubits = topo.numQubits();
    sched.ops.reserve(n_ops);
    sched.macros.resize(n_gates);
    sched.qubitFinish.assign(topo.numQubits(), 0);

    // Dependency/qubit lower bound on a ready gate's start time (the
    // reservation constraints push routed gates past this).
    auto lower_bound = [&](int gi) {
        Timeslot start = 0;
        for (int p : dag.preds(gi))
            start = std::max(start, gates[p].finish);
        for (HwQubit h : gates[gi].touched)
            start = std::max(start, qubit_avail[h]);
        return start;
    };

    // Commit one gate at its feasible start: record macro timing,
    // emit the timed hardware ops, advance the touched qubits.
    auto commit = [&](int gi, Timeslot start) {
        GateState &gs = gates[gi];
        const Timeslot finish = start + gs.duration;

        sched.macros[gi] = {gi, start, gs.duration};
        gs.finish = finish;

        if (gs.routed()) {
            expandRoute(machine_, *gs.route, start, gi, sched.ops,
                        uniform_cnot);
        } else {
            const Gate &g = prog.gate(gi);
            TimedOp top;
            top.gate = g;
            top.gate.q0 = layout[g.q0];
            top.start = start;
            top.duration = gs.duration;
            top.progGate = gi;
            sched.ops.push_back(top);
        }

        for (HwQubit h : gs.touched)
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
    ledger.reserveCapacity(n_routed, n_cells);

    std::vector<int> ready_list;
    ready_list.reserve(n_gates);
    std::vector<int> qubit_mark(topo.numQubits(), -1);
    int commit_serial = -1;

    using HeapEntry = std::pair<Timeslot, int>;
    std::vector<HeapEntry> heap_storage;
    heap_storage.reserve(n_gates);
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>>
        heap(std::greater<HeapEntry>(), std::move(heap_storage));

    auto recompute = [&](int gi) {
        GateState &gs = gates[gi];
        Timeslot s = lower_bound(gi);
        if (gs.routed())
            s = ledger.feasibleStart(gs.region, gs.duration, s);
        gs.cached = s;
    };
    auto make_ready = [&](int gi) {
        gates[gi].readyPos = static_cast<int>(ready_list.size());
        ready_list.push_back(gi);
        recompute(gi);
        heap.push({gates[gi].cached, gi});
    };
    for (size_t i = 0; i < n_gates; ++i)
        if (gates[i].predsLeft == 0)
            make_ready(static_cast<int>(i));

    size_t scheduled = 0;
    while (scheduled < n_gates) {
        throwIfCancelled(cancel, "scheduling cancelled");
        QC_ASSERT(!heap.empty(),
                  "scheduler deadlock: no ready gates");
        auto [key, gi] = heap.top();
        heap.pop();
        GateState &gs = gates[gi];
        if (gs.done || key != gs.cached)
            continue; // superseded duplicate
        if (gs.dirty) {
            gs.dirty = false;
            recompute(gi);
            heap.push({gs.cached, gi});
            continue;
        }

        gs.done = true;
        const int pos = gs.readyPos;
        const int back = ready_list.back();
        ready_list[pos] = back;
        gates[back].readyPos = pos;
        ready_list.pop_back();
        gs.readyPos = -1;

        Timeslot finish = commit(gi, key);
        ledger.advanceFrontier(key);
        if (gs.routed())
            ledger.reserve(gs.region, key, finish);

        // Dirty exactly the ready gates this commit can move.
        ++commit_serial;
        for (HwQubit h : gs.touched)
            qubit_mark[h] = commit_serial;
        for (int g : ready_list) {
            GateState &other = gates[g];
            if (other.dirty)
                continue;
            bool hit = false;
            for (HwQubit h : other.touched) {
                if (qubit_mark[h] == commit_serial) {
                    hit = true;
                    break;
                }
            }
            if (!hit && gs.routed() && other.routed() &&
                other.region.overlaps(gs.region))
                hit = true;
            if (hit)
                other.dirty = true;
        }

        for (int s : dag.succs(gi)) {
            if (--gates[s].predsLeft == 0)
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
