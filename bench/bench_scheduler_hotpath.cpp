/**
 * @file
 * Scheduling-stage hot-path benchmark: the indexed list scheduler
 * (ReservationLedger + incremental ready-queue) against the full-scan
 * oracle in tests/reference_scheduler.hpp, on the
 * Table 2 set and on large random programs (16-400+ gates) across
 * machine sizes. Both implementations are run on every instance, the
 * schedules are verified identical (exit 1 on any divergence — the
 * CI perf job doubles as a correctness smoke), and per-instance wall
 * seconds, makespan and swap counts are reported.
 *
 * `--json out.json` additionally writes the machine-readable envelope
 * (bench/bench_json.hpp) that tools/bench_check.py gates CI on;
 * refresh bench/baselines/scheduler.json from this output after
 * intentional perf changes (see README "Performance").
 */

#include <chrono>
#include <cstdlib>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "machine/calibration_model.hpp"
#include "mappers/greedy_mapper.hpp"
#include "sched/list_scheduler.hpp"
#include "tests/reference_scheduler.hpp"
#include "workloads/random_circuits.hpp"

using namespace qc;

namespace {

/** One benchmark instance: a circuit pinned to a machine + layout. */
struct Instance
{
    std::string name;
    std::string machineName;
    Topology topo;
    Circuit circuit;
    std::vector<HwQubit> layout;
    RoutingPolicy policy;
    int reps; ///< timing repetitions (more for tiny circuits)
};

struct Result
{
    double referenceSeconds = 0.0;
    double indexedSeconds = 0.0;
    Timeslot makespan = 0;
    int swaps = 0;
    bool identical = true;
};

std::vector<HwQubit>
scatterLayout(int n_prog, int n_hw)
{
    std::vector<HwQubit> layout(n_prog);
    for (int q = 0; q < n_prog; ++q)
        layout[q] = (q * 5) % n_hw; // injective: 5 coprime to 2^k
    return layout;
}

/** Dense workload CNOT mix (see makeDenseCnotCircuit). */
constexpr int kDenseCnotPermille = 600;

/** Mean wall seconds of `reps` calls; keeps the last schedule. */
template <class ScheduleFn>
double
timeScheduler(const ScheduleFn &schedule, int reps, Schedule &last)
{
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
        last = schedule();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count() / reps;
}

Result
runInstance(const Instance &inst, std::uint64_t seed)
{
    CalibrationModel model(inst.topo, seed);
    Machine machine(inst.topo, model.forDay(0));

    SchedulerOptions opts;
    opts.policy = inst.policy;
    opts.select = RouteSelect::BestReliability;

    Result res;
    Schedule indexed, reference;
    ListScheduler scheduler(machine, opts);
    res.indexedSeconds = timeScheduler(
        [&] { return scheduler.run(inst.circuit, inst.layout); },
        inst.reps, indexed);
    res.referenceSeconds = timeScheduler(
        [&] {
            return test::referenceSchedule(machine, opts, inst.circuit,
                                           inst.layout);
        },
        inst.reps, reference);
    res.makespan = indexed.makespan;
    res.swaps = indexed.swapCount();
    res.identical = reference.identicalTo(indexed);
    return res;
}

std::vector<Instance>
buildInstances(std::uint64_t seed)
{
    std::vector<Instance> instances;

    // Table 2 set under the GreedyE* placement on the paper machine.
    {
        GridTopology topo = GridTopology::ibmq16();
        CalibrationModel model(topo, seed);
        Machine machine(topo, model.forDay(0));
        for (const Benchmark &b : paperBenchmarks()) {
            Instance inst{"table2/" + b.name,
                          topo.name(),
                          topo,
                          b.circuit,
                          greedyEdgePlacement(machine, b.circuit),
                          RoutingPolicy::OneBendPath,
                          200};
            instances.push_back(std::move(inst));
        }
    }

    // Random programs across gate counts and machine sizes (the
    // paper's Sec. 6 scalability axis: 16-400 gates here, uniform
    // 1-in-7 CNOT mix plus dense 60%-CNOT stress variants).
    struct RandomSpec
    {
        int rows, cols, qubits, gates, reps;
        bool dense;
        RoutingPolicy policy;
    };
    const RandomSpec specs[] = {
        {2, 8, 8, 16, 400, false, RoutingPolicy::OneBendPath},
        {2, 8, 12, 100, 100, false, RoutingPolicy::OneBendPath},
        {2, 8, 16, 200, 40, false, RoutingPolicy::OneBendPath},
        {2, 8, 16, 200, 40, true, RoutingPolicy::OneBendPath},
        {2, 8, 16, 400, 20, true, RoutingPolicy::RectangleReservation},
        {4, 8, 24, 200, 30, true, RoutingPolicy::OneBendPath},
        {4, 8, 32, 400, 10, true, RoutingPolicy::OneBendPath},
        {8, 8, 48, 400, 8, true, RoutingPolicy::OneBendPath},
        {8, 8, 64, 400, 5, true, RoutingPolicy::RectangleReservation},
        // Daily-recompilation scale: the reference scan's cost grows
        // quadratically in committed reservations, so these are the
        // entries the CI speedup gate actually watches.
        {2, 8, 16, 2000, 10, true, RoutingPolicy::OneBendPath},
        {4, 8, 32, 2000, 8, true, RoutingPolicy::OneBendPath},
        {8, 8, 64, 1500, 8, true, RoutingPolicy::OneBendPath},
        {8, 8, 64, 3000, 6, true, RoutingPolicy::RectangleReservation},
    };
    for (const RandomSpec &s : specs) {
        GridTopology topo(s.rows, s.cols);
        Circuit circuit =
            s.dense ? makeDenseCnotCircuit(s.qubits, s.gates, seed,
                                           kDenseCnotPermille)
                    : makeRandomCircuit({s.qubits, s.gates, seed, true});
        std::string name =
            std::string(s.dense ? "dense" : "random") + "/" +
            topo.name() + "_q" + std::to_string(s.qubits) + "_g" +
            std::to_string(s.gates) + "_" +
            routingPolicyName(s.policy);
        Instance inst{std::move(name),
                      topo.name(),
                      topo,
                      std::move(circuit),
                      scatterLayout(s.qubits, topo.numQubits()),
                      s.policy,
                      s.reps};
        instances.push_back(std::move(inst));
    }

    // Non-grid machines through the same per-qubit ledger: heavy-hex
    // (IBM-style lattice) at two scales plus a ring, so the
    // rebucketing is regression-gated off the grid too.
    struct NonGridSpec
    {
        const char *spec;
        int qubits, gates, reps;
    };
    const NonGridSpec ng_specs[] = {
        {"heavyhex:3", 16, 400, 20},
        {"heavyhex:5", 48, 1500, 8},
        {"ring:16", 16, 1000, 10},
    };
    for (const NonGridSpec &s : ng_specs) {
        Topology topo = topologyFromSpec(s.spec);
        Circuit circuit = makeDenseCnotCircuit(s.qubits, s.gates, seed,
                                               kDenseCnotPermille);
        // Stride-7 scatter: coprime to every lattice size above (18,
        // 55, 16), so the layout stays injective.
        std::vector<HwQubit> layout(s.qubits);
        for (int q = 0; q < s.qubits; ++q)
            layout[q] = (q * 7) % topo.numQubits();
        std::string name = "dense/" + topo.name() + "_q" +
                           std::to_string(s.qubits) + "_g" +
                           std::to_string(s.gates) + "_1BP";
        Instance inst{std::move(name),
                      topo.name(),
                      topo,
                      std::move(circuit),
                      std::move(layout),
                      RoutingPolicy::OneBendPath,
                      s.reps};
        instances.push_back(std::move(inst));
    }
    return instances;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t seed = bench::benchSeed();
    const std::string json_path = bench::jsonOutPath(argc, argv);

    std::cout << "=== Scheduler hot path: indexed vs reference scan "
                 "===\nseed "
              << seed << "\n\n";

    std::vector<Instance> instances = buildInstances(seed);
    std::vector<Result> results;
    results.reserve(instances.size());

    // Times print in microseconds: the Table 2 runs take a few µs,
    // which a seconds column rounds to 0.000. The JSON keeps seconds.
    Table t({"Instance", "gates", "ref us/run", "idx us/run", "speedup",
             "makespan", "swaps", "identical"});
    double total_ref = 0.0, total_idx = 0.0;
    bool all_identical = true;
    for (const Instance &inst : instances) {
        Result r = runInstance(inst, seed);
        total_ref += r.referenceSeconds;
        total_idx += r.indexedSeconds;
        all_identical = all_identical && r.identical;
        t.addRow({inst.name,
                  Table::fmt(static_cast<long long>(
                      inst.circuit.size())),
                  Table::fmt(r.referenceSeconds * 1e6),
                  Table::fmt(r.indexedSeconds * 1e6),
                  Table::fmt(r.referenceSeconds /
                             std::max(r.indexedSeconds, 1e-12)),
                  Table::fmt(static_cast<long long>(r.makespan)),
                  Table::fmt(static_cast<long long>(r.swaps)),
                  r.identical ? "yes" : "NO"});
        results.push_back(r);
    }
    t.print(std::cout);
    std::cout << "\ntotal scheduling us/run: reference "
              << total_ref * 1e6 << ", indexed " << total_idx * 1e6
              << " (speedup "
              << total_ref / std::max(total_idx, 1e-12) << "x)\n";
    if (!all_identical)
        std::cout << "ERROR: indexed scheduler diverged from the "
                     "reference scan\n";

    if (!json_path.empty()) {
        std::ofstream out = bench::openJsonOut(json_path);
        bench::JsonWriter w(out);
        w.beginObject()
            .field("schema_version", 1)
            .field("bench", "scheduler_hotpath")
            .field("seed", seed);
        w.key("entries").beginArray();
        for (size_t i = 0; i < instances.size(); ++i) {
            const Instance &inst = instances[i];
            const Result &r = results[i];
            w.beginObject()
                .field("name", inst.name)
                .field("machine", inst.machineName)
                .field("qubits", inst.circuit.numQubits())
                .field("gates",
                       static_cast<long long>(inst.circuit.size()))
                .field("policy", routingPolicyName(inst.policy))
                .field("reps", inst.reps);
            w.key("metrics")
                .beginObject()
                .field("reference_s", r.referenceSeconds)
                .field("indexed_s", r.indexedSeconds)
                .field("speedup",
                       r.referenceSeconds /
                           std::max(r.indexedSeconds, 1e-12))
                .field("makespan", static_cast<long long>(r.makespan))
                .field("swaps", r.swaps)
                .field("identical", r.identical ? 1 : 0)
                .endObject();
            w.endObject();
        }
        w.endArray();
        w.key("totals")
            .beginObject()
            .field("reference_s", total_ref)
            .field("indexed_s", total_idx)
            .field("speedup", total_ref / std::max(total_idx, 1e-12))
            .endObject();
        w.endObject();
        out << "\n";
        std::cout << "wrote " << json_path << "\n";
    }

    return all_identical ? 0 : 1;
}
