#include "tracking_router.hpp"

#include <algorithm>
#include <cmath>

#include "sched/list_scheduler.hpp"
#include "support/logging.hpp"

namespace qc {

TrackingRouter::TrackingRouter(const Machine &machine,
                               TrackingOptions options)
    : machine_(machine), options_(options)
{
}

TrackingResult
TrackingRouter::run(const Circuit &prog,
                    std::vector<HwQubit> initial_layout) const
{
    const auto &topo = machine_.topo();
    const auto &cal = machine_.cal();
    validateLayout(initial_layout, prog.numQubits(), topo.numQubits());

    // Live placement and its inverse (hw qubit -> program qubit or
    // kInvalidQubit for a free location).
    std::vector<HwQubit> layout = std::move(initial_layout);
    std::vector<ProgQubit> occupant(topo.numQubits(), kInvalidQubit);
    for (ProgQubit p = 0; p < prog.numQubits(); ++p)
        occupant[layout[p]] = p;

    TrackingResult result;
    Schedule &sched = result.schedule;
    sched.numHwQubits = topo.numQubits();
    sched.macros.resize(prog.size());
    sched.qubitFinish.assign(topo.numQubits(), 0);

    std::vector<Timeslot> avail(topo.numQubits(), 0);
    double log_rel = 0.0;

    auto emit = [&](Op op, HwQubit a, HwQubit b, int cbit,
                    Timeslot start, Timeslot dur, int prog_gate,
                    bool is_swap) {
        TimedOp top;
        top.gate = {op, a, b, cbit};
        top.start = start;
        top.duration = dur;
        top.progGate = prog_gate;
        top.isRouteSwap = is_swap;
        sched.ops.push_back(top);
        sched.makespan = std::max(sched.makespan, start + dur);
    };

    // Perform one live SWAP on an edge, exchanging occupants.
    auto do_swap = [&](HwQubit a, HwQubit b, Timeslot start,
                       int prog_gate) {
        EdgeId e = topo.edgeBetween(a, b);
        QC_ASSERT(e != kInvalidEdge, "tracking swap on non-edge");
        Timeslot dur = 3 * cal.cnotDuration[e];
        emit(Op::Swap, a, b, -1, start, dur, prog_gate, true);
        double rel = cal.cnotReliability(e);
        log_rel += 3.0 * std::log(rel);
        std::swap(occupant[a], occupant[b]);
        if (occupant[a] != kInvalidQubit)
            layout[occupant[a]] = a;
        if (occupant[b] != kInvalidQubit)
            layout[occupant[b]] = b;
        ++result.swapCount;
        return dur;
    };

    for (size_t gi = 0; gi < prog.size(); ++gi) {
        const Gate &g = prog.gate(gi);
        if (g.op == Op::Swap)
            QC_FATAL("program-level circuits must not contain Swap");

        if (g.op == Op::CNOT) {
            HwQubit c = layout[g.q0];
            HwQubit t = layout[g.q1];
            std::vector<HwQubit> path =
                options_.dijkstraPaths
                    ? machine_.mostReliablePath(c, t)
                    : machine_.bestReliabilityPath(c, t).nodes;

            // All qubits on the path serialize with this macro-op.
            Timeslot start = 0;
            for (HwQubit h : path)
                start = std::max(start, avail[h]);

            Timeslot cursor = start;
            // One-way SWAP chain: move the control to the node
            // adjacent to the target (no restore).
            for (size_t k = 0; k + 2 < path.size(); ++k)
                cursor += do_swap(path[k], path[k + 1], cursor,
                                  static_cast<int>(gi));

            HwQubit moved_c = path[path.size() - 2];
            EdgeId e = topo.edgeBetween(moved_c, t);
            QC_ASSERT(e != kInvalidEdge, "tracking CNOT on non-edge");
            emit(Op::CNOT, moved_c, t, -1, cursor,
                 cal.cnotDuration[e], static_cast<int>(gi), false);
            log_rel += std::log(cal.cnotReliability(e));
            cursor += cal.cnotDuration[e];

            sched.macros[gi] = {static_cast<int>(gi), start,
                                cursor - start};
            for (HwQubit h : path)
                avail[h] = cursor;
        } else if (g.isMeasure()) {
            HwQubit h = layout[g.q0];
            Timeslot start = avail[h];
            emit(Op::Measure, h, kInvalidQubit, g.cbit, start,
                 cal.readoutDuration, static_cast<int>(gi), false);
            log_rel += std::log(cal.readoutReliability(h));
            avail[h] = start + cal.readoutDuration;
            sched.macros[gi] = {static_cast<int>(gi), start,
                                cal.readoutDuration};
        } else {
            HwQubit h = layout[g.q0];
            Timeslot start = avail[h];
            emit(g.op, h, kInvalidQubit, -1, start,
                 cal.oneQubitDuration, static_cast<int>(gi), false);
            avail[h] = start + cal.oneQubitDuration;
            sched.macros[gi] = {static_cast<int>(gi), start,
                                cal.oneQubitDuration};
        }
    }

    for (const auto &op : sched.ops) {
        sched.qubitFinish[op.gate.q0] =
            std::max(sched.qubitFinish[op.gate.q0], op.finish());
        if (op.gate.isTwoQubit())
            sched.qubitFinish[op.gate.q1] =
                std::max(sched.qubitFinish[op.gate.q1], op.finish());
    }

    result.finalLayout = std::move(layout);
    result.predictedSuccess = std::exp(log_rel);
    return result;
}

} // namespace qc
