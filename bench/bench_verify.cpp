/**
 * @file
 * Translation-validation overhead on the Table 2 set.
 *
 * Three bundles per benchmark: the two heuristic families (GreedyE*
 * through the expandRoute list scheduler, SABRE through live-tracking
 * routing) prove every program shape verifies clean, and the paper's
 * default R-SMT* bundle — the production path, where a compile costs
 * milliseconds to seconds of Z3 — carries the overhead gate. The CI
 * gate (tools/bench_check.py against bench/baselines/verify.json):
 *
 *   - verified_clean_count: every compiled program verifies clean on
 *     every instance of all three bundles;
 *   - overhead_within_bound_count: on the R-SMT* instances,
 *     verification must cost < 5% of the compile. (The heuristic
 *     compiles finish in tens of microseconds — the same order as a
 *     verification pass — so a relative bound there measures timer
 *     noise, not the validator; their timings are informational.)
 *
 * Absolute compile_s / verify_s are informational (runner-speed
 * dependent, not gated). QC_BENCH_SMT_TIMEOUT_MS (default 10000)
 * bounds each Z3 solve, as in bench_portfolio.
 */

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "core/compiler.hpp"
#include "support/stats.hpp"
#include "verify/verifier.hpp"

using namespace qc;

namespace {

constexpr int kVerifyReps = 32;
constexpr double kOverheadBound = 0.05; // verify_s < 5% of compile_s

unsigned
smtTimeoutMs()
{
    if (const char *s = std::getenv("QC_BENCH_SMT_TIMEOUT_MS"))
        return static_cast<unsigned>(std::strtoul(s, nullptr, 10));
    return 10'000;
}

struct InstanceRow
{
    std::string name; ///< "<bundle>/<bench>"
    double compileS = 0.0;
    double verifyS = 0.0; ///< average of kVerifyReps runs
    bool clean = false;
    bool gated = false; ///< instance participates in the overhead gate
    bool withinBound = false;
};

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t seed = bench::benchSeed();
    const std::string json_path = bench::jsonOutPath(argc, argv);
    const unsigned smt_ms = smtTimeoutMs();

    bench::banner("Translation-validation overhead (Table 2 set)",
                  seed);

    const Topology topo = GridTopology::ibmq16();
    CalibrationModel model(topo, seed);
    auto machine =
        std::make_shared<const Machine>(topo, model.forDay(0));

    struct BundleCase
    {
        MapperKind kind;
        bool gateOverhead;
    };
    const BundleCase bundles[] = {
        {MapperKind::GreedyE, false},
        {MapperKind::Sabre, false},
        {MapperKind::RSmtStar, true},
    };

    std::vector<InstanceRow> rows;
    for (const BundleCase &bc : bundles) {
        CompilerOptions opts;
        opts.mapper = bc.kind;
        opts.smtTimeoutMs = smt_ms;
        const Pipeline pipeline = standardPipeline(machine, opts);
        VerifyOptions vopts;
        vopts.expectRestoredLayout = !pipeline.routesLive();
        const ProgramVerifier verifier(*machine, vopts);

        for (const Benchmark &b : paperBenchmarks()) {
            InstanceRow row;
            row.name =
                std::string(mapperKindName(bc.kind)) + "/" + b.name;
            row.gated = bc.gateOverhead;

            const auto t_compile = std::chrono::steady_clock::now();
            const PipelineResult r = pipeline.run(b.circuit);
            row.compileS = secondsSince(t_compile);
            QC_ASSERT(r.hasProgram, "compile failed on ", row.name,
                      ": ", r.status.message);

            const auto t_verify = std::chrono::steady_clock::now();
            bool clean = true;
            for (int rep = 0; rep < kVerifyReps; ++rep)
                clean = verifier.verify(b.circuit, r.program).ok() &&
                        clean;
            row.verifyS = secondsSince(t_verify) / kVerifyReps;

            row.clean = clean;
            row.withinBound =
                row.verifyS < kOverheadBound * row.compileS;
            rows.push_back(std::move(row));
        }
    }

    int clean_total = 0;
    int gated_total = 0;
    int within_total = 0;
    double compile_total = 0.0, verify_total = 0.0;
    Table t({"Instance", "compile (ms)", "verify (us)", "overhead",
             "verdict"});
    for (const InstanceRow &r : rows) {
        clean_total += r.clean ? 1 : 0;
        compile_total += r.compileS;
        verify_total += r.verifyS;
        const double pct =
            r.compileS > 0.0 ? 100.0 * r.verifyS / r.compileS : 0.0;
        std::string verdict;
        if (!r.clean) {
            verdict = "NOT CLEAN";
        } else if (!r.gated) {
            verdict = "ok (ungated)";
        } else {
            ++gated_total;
            within_total += r.withinBound ? 1 : 0;
            verdict = r.withinBound ? "ok" : "TOO SLOW";
        }
        t.addRow({r.name, Table::fmt(r.compileS * 1e3, 3),
                  Table::fmt(r.verifyS * 1e6, 1),
                  Table::fmt(pct, 2) + "%", verdict});
    }
    t.print(std::cout);

    std::cout << "\n" << clean_total << "/" << rows.size()
              << " instances verify clean, " << within_total << "/"
              << gated_total << " gated instances under the "
              << Table::fmt(100.0 * kOverheadBound, 0)
              << "% overhead bound\n";

    if (json_path.empty())
        return 0;

    std::ofstream out = bench::openJsonOut(json_path);
    bench::JsonWriter json(out);
    json.beginObject()
        .field("schema_version", 1)
        .field("bench", "bench_verify")
        .field("seed", seed)
        .field("smt_timeout_ms", static_cast<long long>(smt_ms))
        .key("entries")
        .beginArray();
    for (const InstanceRow &r : rows) {
        json.beginObject()
            .field("name", r.name)
            .key("metrics")
            .beginObject()
            .field("verified_clean_count", r.clean ? 1 : 0);
        if (r.gated)
            json.field("overhead_within_bound_count",
                       r.withinBound ? 1 : 0);
        json.field("compile_s", r.compileS)
            .field("verify_s", r.verifyS)
            .endObject()
            .endObject();
    }
    json.endArray()
        .key("totals")
        .beginObject()
        .field("verified_clean_count", clean_total)
        .field("overhead_within_bound_count", within_total)
        .field("overhead_gated_count",
               static_cast<long long>(gated_total))
        .field("instance_count",
               static_cast<long long>(rows.size()))
        .field("compile_s", compile_total)
        .field("verify_s", verify_total)
        .endObject()
        .endObject();
    out << "\n";
    std::cout << "wrote " << json_path << "\n";
    return 0;
}
