/**
 * @file
 * oneshot-portfolio: one `naqc --qasm F --portfolio
 * --portfolio-deadline-ms 1000 --verify --day D` process per (Table 2
 * kernel, day), run one after another: all 8 bundles raced, every SMT
 * candidate capped at 1 s.
 *
 * The CLI default cap is 10 s. With it, half the kernels finish early
 * and half run into or near the cap, so the median process time falls
 * between two kernels' race times (BV8 at 0.8-2.0 s, HS6 at 2.2 s) and
 * spread by 0.27 of its median over ten runs on a shared 4-vCPU host,
 * more than any bound the benchmark may set. At 1 s the same race,
 * including T-SMT* running into its cap on Adder and five other
 * kernels, gives a median that holds within 0.03, in 9 s a round.
 */

#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "core/portfolio.hpp"
#include "ir/qasm.hpp"
#include "machine/calibration_model.hpp"
#include "service/portfolio_executor.hpp"
#include "workloads/benchmarks.hpp"

namespace perfbench {

using namespace qc;

namespace {

/**
 * A round compiles each of the 12 kernels against its own calibration
 * day, in seeded order. A run measures whole rounds, at least two, so
 * every run holds the same mix of cheap and deadline-bound kernels and
 * each process time is measured twice. The (kernel, day) pairs are the
 * same for every seed: a kernel's SMT time moves with the day by more
 * than the bound a run must hold.
 */
constexpr int kMinRounds = 2;
constexpr unsigned kDeadlineMs = 1000;

struct OneshotJob
{
    std::uint64_t id = 0;
    const Benchmark *bench = nullptr;
    std::string qasmPath;
    int day = 0;
};

std::vector<OneshotJob>
round(const std::vector<Benchmark> &kernels,
      const std::vector<std::string> &paths, std::uint64_t seed, int r)
{
    std::vector<OneshotJob> jobs;
    for (std::size_t i = 0; i < kernels.size(); ++i)
        jobs.push_back({0, &kernels[i], paths[i], 3 + 5 * static_cast<int>(i)});
    std::mt19937_64 rng(seed * 31337 + static_cast<unsigned>(r));
    std::shuffle(jobs.begin(), jobs.end(), rng);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        jobs[i].id = static_cast<std::uint64_t>(r) * 100 + i + 1;
    return jobs;
}

/** The value after `key` on the first stderr line that starts with it. */
std::string
reportField(const std::string &text, const std::string &key)
{
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind(key, 0) == 0)
            return line.substr(key.size());
    return "";
}

CompilerOptions
cliOptions()
{
    CompilerOptions copts; // naqc's, given the flags runProcesses passes
    copts.verify = true;
    copts.portfolio.enabled = true;
    copts.portfolio.deadlineMs = kDeadlineMs;
    return copts;
}

struct Setup
{
    std::vector<Benchmark> kernels;
    std::vector<std::string> paths;
};

/**
 * Write the kernels' QASM into a new directory `dir` under the work dir.
 * Each set-up writes new files: rewriting existing ones made truncation
 * part of the set-up, and it took 1 to 5 ms from one set-up to the next.
 */
Setup
prepare(const Args &args, const std::string &dir)
{
    Setup s;
    s.kernels = paperBenchmarks();
    std::filesystem::create_directories(args.workDir + "/" + dir);
    for (const Benchmark &b : s.kernels) {
        s.paths.push_back(args.workDir + "/" + dir + "/" + b.name + ".qasm");
        std::ofstream(s.paths.back()) << emitQasm(b.circuit);
    }
    return s;
}

Outcome
runProcesses(const Args &args)
{
    Outcome out;
    const std::string naqc = args.binDir + "/naqc";
    Setup setup;
    std::vector<double> setups;
    {
        // Set-up is one process after another: the median of fifteen
        // warm-up starts ranged 4.2-5.0 ms on one CPU and 4.6-6.5 ms
        // across all four over a few minutes.
        const OneCpu pin;
        for (int i = 0; i < kSetups; ++i) {
            const double t0 = nowUs();
            setup = prepare(args, "inputs" + std::to_string(i));
            // Warm-up: one short process loads the binary and Z3.
            const pid_t pid = spawn({naqc, "--qasm", setup.paths[0],
                                     "--mapper", "GreedyE*"},
                                    "", "");
            if (waitChild(pid) != 0)
                out.fail("warm-up naqc process failed");
            setups.push_back((nowUs() - t0) / 1e6);
        }
    }
    out.set("setup_s", median(setups), "s");

    Oracle oracle;
    std::vector<double> latencies, psuccess, duration;
    std::uint64_t digest = kFnvBasis;
    double peak_rss = 0.0, wall_us = 0.0;
    std::map<std::string, int> winners;
    std::ostringstream per_process;
    const std::string out_path = args.workDir + "/naqc.out";
    const std::string err_path = args.workDir + "/naqc.err";
    const double start = nowUs();
    for (int r = 0; r < kMinRounds || nowUs() - start < args.seconds * 1e6;
         ++r) {
        for (const OneshotJob &job :
             round(setup.kernels, setup.paths, args.seed, r)) {
            ++out.attempted;
            const double t0 = nowUs();
            const pid_t pid =
                spawn({naqc, "--qasm", job.qasmPath, "--portfolio",
                       "--portfolio-deadline-ms", std::to_string(kDeadlineMs),
                       "--verify", "--day", std::to_string(job.day),
                       "--report"},
                      out_path, err_path);
            double rss = 0.0;
            const int status = waitChild(pid, &rss);
            const double us = nowUs() - t0;
            wall_us += us;
            latencies.push_back(us);
            peak_rss = std::max(peak_rss, rss);

            const std::string name = job.bench->name + "@d" +
                                     std::to_string(job.day);
            const std::string qasm = readFile(out_path);
            const std::string report = readFile(err_path);
            if (status != 0) {
                out.fail(name + ": naqc exited " + std::to_string(status));
                continue;
            }
            digest = fnv1a(qasm, digest);
            try {
                const Circuit hw = parseQasm(qasm, name);
                if (!oracle.simulate(hw, job.bench->expected,
                                     fnv1a(qasm))) {
                    out.fail(name + ": wrong answer");
                    continue;
                }
            } catch (const std::exception &e) {
                out.fail(name + ": unparsable output: " + e.what());
                continue;
            }
            const std::string ps = reportField(report, "predicted success: ");
            const std::string du = reportField(report, "duration: ");
            if (ps.empty() || du.empty()) {
                out.fail(name + ": no --report figures");
                continue;
            }
            psuccess.push_back(std::stod(ps));
            duration.push_back(std::stod(du));
            ++winners[reportField(report, "mapper: ")];
            per_process << " " << name << "=" << us / 1e6 << "s";
        }
    }

    out.set("jobs_per_s",
            static_cast<double>(latencies.size()) / (wall_us / 1e6), "1/s");
    out.set("latency_p50_us", median(latencies), "us");
    const Tail tail = tailPercentile(latencies);
    out.set("latency_tail_us", tail.value, "us");
    out.set("psuccess_geomean", geomean(psuccess), "prob");
    out.set("duration_geomean", geomean(duration), "timeslots");
    out.set("peak_rss_mb", peak_rss, "MB");
    std::ostringstream oss;
    oss << "process wall: n=" << latencies.size() << " p50="
        << median(latencies) << " us, tail=p" << tail.percentile << " "
        << tail.value << " us; winners:";
    for (const auto &[w, n] : winners)
        oss << " " << w << "=" << n;
    out.notes.push_back(oss.str());
    out.notes.push_back("process wall times:" + per_process.str());
    out.notes.push_back("digest " + hex64(digest));
    const std::string diff = checkDigest(args, digest);
    if (!diff.empty())
        out.notes.push_back("NOTE " + diff +
                            " (wall-clock SMT budgets can do that)");
    return out;
}

/** The same jobs replayed in-process, with spans around each call. */
Outcome
replayTraced(const Args &args)
{
    Outcome out;
    const Setup setup = prepare(args, "inputs");
    const CompilerOptions copts = cliOptions();
    const Topology topo = GridTopology::ibmq16();
    const std::uint64_t cal_seed = 20190131; // naqc's default --seed

    Tracer tracer;
    tracer.enabled = true;
    Oracle oracle;
    std::map<std::string, LayerTime> candidate_layers;
    std::uint64_t candidates = 0, cancelled = 0, timeouts = 0;
    std::uint64_t smt_solves = 0, smt_optimal = 0;
    double race_wall = 0.0, cand_sum = 0.0, wasted = 0.0;
    std::uint64_t digest = kFnvBasis;
    for (int r = 0; r < kMinRounds; ++r) {
        for (const OneshotJob &job :
             round(setup.kernels, setup.paths, args.seed, r)) {
            ++out.attempted;
            ScopedSpan::setJob(job.id);
            PortfolioResult raced;
            Circuit prog;
            std::shared_ptr<const Machine> machine;
            std::string qasm;
            {
                ScopedSpan root(tracer, "oneshot.job");
                const std::string text = readFile(job.qasmPath);
                {
                    ScopedSpan s(tracer, "ir.qasm_parse");
                    prog = parseQasm(text, "cli-program");
                }
                {
                    ScopedSpan s(tracer, "machine.build");
                    CalibrationModel model(topo, cal_seed);
                    machine = std::make_shared<const Machine>(
                        topo, model.forDay(job.day));
                }
                const double t0 = nowUs();
                {
                    ScopedSpan s(tracer, "core.portfolio.race");
                    PortfolioPass pass(machine, copts);
                    service::ThreadPool pool; // as naqc: one per process
                    service::PoolPortfolioExecutor exec(
                        pool, copts.portfolio.maxWorkers);
                    raced = pass.run(prog, &exec);
                }
                race_wall += nowUs() - t0;
                if (raced.best.hasProgram) {
                    ScopedSpan s(tracer, "ir.qasm_emit");
                    qasm = emitQasm(raced.best.program.hwCircuit(
                        prog.numClbits()));
                }
            }
            const std::string name =
                job.bench->name + "@d" + std::to_string(job.day);
            if (!raced.best.hasProgram || !raced.best.ok() ||
                raced.winnerIndex < 0) {
                out.fail(name + ": no program");
                continue;
            }
            {
                ScopedSpan s(tracer, "verify");
                const MapperKind kind =
                    raced.candidates[static_cast<std::size_t>(
                                         raced.winnerIndex)]
                        .kind;
                if (oracle.verify(*machine, kind, prog,
                                  raced.best.program) > 0)
                    out.fail(name + ": verifier issues");
            }
            if (!oracle.simulate(parseQasm(qasm, name), job.bench->expected,
                                 fnv1a(qasm)))
                out.fail(name + ": wrong answer");
            digest = fnv1a(qasm, digest);

            for (const PortfolioCandidate &c : raced.candidates) {
                ++candidates;
                cancelled += c.cancelled ? 1 : 0;
                timeouts += c.status.code == CompileStatusCode::SolverTimeout
                                ? 1
                                : 0;
                cand_sum += c.seconds * 1e6;
                if (!c.winner)
                    wasted += c.seconds * 1e6;
                for (const StageTrace &t : c.stageTraces) {
                    LayerTime &l = candidate_layers[stageLayer(t.stage,
                                                               c.kind)];
                    ++l.calls;
                    l.selfUs += t.seconds * 1e6;
                    if (t.stage == "placement" &&
                        t.note.find("z3: ") != std::string::npos) {
                        ++smt_solves;
                        smt_optimal +=
                            t.note.find("z3: optimal") != std::string::npos
                                ? 1
                                : 0;
                    }
                }
            }
        }
    }
    tracer.enabled = false;

    reportLayers(tracer, "oneshot.job", out);
    // Candidates run inside the race on pool threads; their per-stage
    // times come from the stage traces each candidate returns.
    for (const auto &[layer, l] : candidate_layers)
        out.set(layer + "_us", l.perCallUs(), "us");
    const double races = static_cast<double>(out.attempted);
    out.set("core.portfolio.race_speedup",
            race_wall > 0.0 ? cand_sum / race_wall : 0.0, "ratio");
    out.set("core.portfolio.cancelled_ratio",
            candidates ? static_cast<double>(cancelled) /
                             static_cast<double>(candidates)
                       : 0.0,
            "ratio");
    out.set("core.portfolio.wasted_ratio",
            cand_sum > 0.0 ? wasted / cand_sum : 0.0, "ratio");
    out.set("core.portfolio.timeouts", static_cast<double>(timeouts),
            "count");
    out.set("solver.timeouts", static_cast<double>(smt_solves - smt_optimal),
            "count");
    out.set("solver.optimal_ratio",
            smt_solves ? static_cast<double>(smt_optimal) /
                             static_cast<double>(smt_solves)
                       : 0.0,
            "ratio");
    out.set("verify.issues", static_cast<double>(oracle.issues()), "count");
    const double spans = static_cast<double>(tracer.spans().size());
    out.set("trace.overhead_pct",
            100.0 * spans * spanCostUs() /
                (out.metrics["trace.job_us"].value * races),
            "%");
    out.notes.push_back("traced digest " + hex64(digest));
    writeTrace(args, tracer, out);
    return out;
}

} // namespace

Outcome
runOneshot(const Args &args)
{
    return args.trace ? replayTraced(args) : runProcesses(args);
}

} // namespace perfbench
