/**
 * @file
 * Portfolio racing vs best-single-bundle (core/portfolio.hpp).
 *
 * For every Table 2 benchmark on three machines (the paper's 2x8
 * grid, a distance-3 heavy-hex, a 16-qubit ring) this bench compiles
 * the program two ways:
 *
 *   - sequential: every MapperKind bundle alone, one after another —
 *     what a user sweeping "which mapper should I use?" pays, and the
 *     oracle for the best single-bundle answer;
 *   - portfolio: one PortfolioPass race over the same bundles on a
 *     pool-backed executor, early-cancelling provable losers.
 *
 * The quality gate (CI perf-smoke, tools/bench_check.py against
 * bench/baselines/portfolio.json) is `tie_or_beat_count`: the
 * portfolio's predicted success must tie or beat the best single
 * bundle on EVERY instance — exact-match, since both sides race the
 * same deterministic pipelines. The wall-clock `race_speedup`
 * (sequential seconds / portfolio seconds) is reported, not gated:
 * it depends on runner core count, but the racing design target is
 * >= 2x on a multi-core host.
 *
 * QC_BENCH_SMT_TIMEOUT_MS (default 10000) bounds each Z3 solve and
 * doubles as the portfolio deadline, keeping the SMT budget identical
 * on both sides of the comparison.
 */

#include <chrono>
#include <cmath>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "core/portfolio.hpp"
#include "service/portfolio_executor.hpp"
#include "service/thread_pool.hpp"
#include "support/stats.hpp"

using namespace qc;

namespace {

unsigned
smtTimeoutMs()
{
    if (const char *s = std::getenv("QC_BENCH_SMT_TIMEOUT_MS"))
        return static_cast<unsigned>(std::strtoul(s, nullptr, 10));
    return 10'000;
}

struct InstanceRow
{
    std::string name;        ///< "<topo>/<bench>"
    std::string singleBest;  ///< best single bundle's name
    std::string winner;      ///< portfolio winner's name
    double singlePsuccess = 0.0;
    double portfolioPsuccess = 0.0;
    int cancelled = 0;       ///< candidates early-cancelled in the race
    double sequentialS = 0.0;
    double portfolioS = 0.0;
    bool tieOrBeat = false;
};

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t seed = bench::benchSeed();
    const std::string json_path = bench::jsonOutPath(argc, argv);
    const unsigned smt_ms = smtTimeoutMs();

    bench::banner("Portfolio racing vs best single bundle", seed);

    struct TopoCase { const char *label; Topology topo; };
    const std::vector<TopoCase> topos = {
        {"grid2x8", GridTopology::ibmq16()},
        {"heavyhex3", HeavyHexTopology(3)},
        {"ring16", RingTopology(16)},
    };

    service::ThreadPool pool;

    std::vector<InstanceRow> rows;
    for (const TopoCase &tc : topos) {
        CalibrationModel model(tc.topo, seed);
        auto machine = std::make_shared<const Machine>(
            tc.topo, model.forDay(0));

        CompilerOptions base;
        base.smtTimeoutMs = smt_ms;

        CompilerOptions racing = base;
        racing.portfolio.enabled = true; // empty bundle list = all 8
        racing.portfolio.deadlineMs = smt_ms;
        PortfolioPass pass(machine, racing);
        service::PoolPortfolioExecutor exec(pool);

        for (const Benchmark &b : paperBenchmarks()) {
            InstanceRow row;
            row.name = std::string(tc.label) + "/" + b.name;

            // Sequential sweep: each bundle alone, best kept under
            // the same comparator the portfolio uses (max predicted
            // success, earlier bundle wins ties).
            const auto t_seq = std::chrono::steady_clock::now();
            for (MapperKind kind : kAllMapperKinds) {
                CompilerOptions o = base;
                o.mapper = kind;
                PipelineResult r =
                    standardPipeline(machine, o).run(b.circuit);
                if (!r.hasProgram)
                    continue;
                if (row.singleBest.empty() ||
                    r.program.predictedSuccess > row.singlePsuccess) {
                    row.singleBest = mapperKindName(kind);
                    row.singlePsuccess = r.program.predictedSuccess;
                }
            }
            row.sequentialS = secondsSince(t_seq);

            const auto t_race = std::chrono::steady_clock::now();
            PortfolioResult raced = pass.run(b.circuit, &exec);
            row.portfolioS = secondsSince(t_race);

            QC_ASSERT(raced.ok(), "portfolio failed on ", row.name);
            row.winner =
                raced.candidates[static_cast<size_t>(raced.winnerIndex)]
                    .name;
            row.portfolioPsuccess =
                raced.best.program.predictedSuccess;
            row.cancelled = raced.cancelledCount;
            row.tieOrBeat =
                row.portfolioPsuccess >= row.singlePsuccess;
            rows.push_back(std::move(row));
        }
    }

    int tie_or_beat = 0;
    double seq_total = 0.0, race_total = 0.0;
    Table t({"Instance", "best single", "p", "portfolio winner", "p ",
             "cancelled", "seq (s)", "race (s)", "verdict"});
    for (const InstanceRow &r : rows) {
        if (r.tieOrBeat)
            ++tie_or_beat;
        seq_total += r.sequentialS;
        race_total += r.portfolioS;
        t.addRow({r.name, r.singleBest, Table::fmt(r.singlePsuccess),
                  r.winner, Table::fmt(r.portfolioPsuccess),
                  Table::fmt(static_cast<long long>(r.cancelled)),
                  Table::fmt(r.sequentialS, 3),
                  Table::fmt(r.portfolioS, 3),
                  r.tieOrBeat ? (r.portfolioPsuccess >
                                         r.singlePsuccess
                                     ? "improved"
                                     : "tie")
                              : "LOST"});
    }
    t.print(std::cout);

    const double speedup =
        race_total > 0.0 ? seq_total / race_total : 0.0;
    std::cout << "\nportfolio ties-or-beats the best single bundle on "
              << tie_or_beat << "/" << rows.size() << " instances\n"
              << "sequential all-bundles " << Table::fmt(seq_total, 2)
              << "s vs portfolio " << Table::fmt(race_total, 2)
              << "s — race speedup " << Table::fmt(speedup, 2)
              << "x (" << pool.numThreads() << " workers)\n";

    if (json_path.empty())
        return 0;

    std::ofstream out = bench::openJsonOut(json_path);
    bench::JsonWriter json(out);
    json.beginObject()
        .field("schema_version", 1)
        .field("bench", "bench_portfolio")
        .field("seed", seed)
        .field("smt_timeout_ms",
               static_cast<long long>(smt_ms))
        .key("entries")
        .beginArray();
    for (const InstanceRow &r : rows) {
        json.beginObject()
            .field("name", r.name)
            .field("single_best", r.singleBest)
            .field("winner", r.winner)
            .key("metrics")
            .beginObject()
            .field("portfolio_psuccess", r.portfolioPsuccess)
            .field("single_psuccess", r.singlePsuccess)
            .field("tie_or_beat_count", r.tieOrBeat ? 1 : 0)
            .field("sequential_s", r.sequentialS)
            .field("portfolio_s", r.portfolioS)
            .endObject()
            .endObject();
    }
    json.endArray()
        .key("totals")
        .beginObject()
        .field("tie_or_beat_count", tie_or_beat)
        .field("instance_count",
               static_cast<long long>(rows.size()))
        .field("race_speedup", speedup)
        .field("sequential_s", seq_total)
        .field("portfolio_s", race_total)
        .endObject()
        .endObject();
    out << "\n";
    std::cout << "wrote " << json_path << "\n";
    return 0;
}
