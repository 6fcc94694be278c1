/**
 * @file
 * naqc — the noise-adaptive quantum compiler CLI.
 *
 * Reads an OpenQASM 2.0 program, compiles it for a machine described
 * by any coupling topology (--topology grid:RxC | heavyhex:D |
 * ring:N | linear:N | file:PATH) with one of the Table 1 mapper
 * variants against either synthetic or user-provided calibration
 * data, and writes hardware-ready OpenQASM.
 * Optionally Monte-Carlo-simulates the compiled program.
 *
 * With --jobs (and/or --days), naqc switches to batch mode: every
 * --qasm program (the flag repeats) is compiled against each of the
 * requested calibration days on a concurrent compile service, and a
 * per-job table plus service report is printed instead of QASM.
 *
 * Examples:
 *   naqc --qasm prog.qasm --mapper 'R-SMT*' --out compiled.qasm
 *   naqc --qasm prog.qasm --calibration today.cal --report
 *   naqc --qasm prog.qasm --simulate 4096 --expected 1110
 *   naqc --qasm a.qasm --qasm b.qasm --days 30 --jobs 8 \
 *        --mapper 'GreedyE*'
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <vector>
#include <fstream>
#include <future>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "core/compiler.hpp"
#include "core/option_table.hpp"
#include "core/portfolio.hpp"
#include "machine/calibration_io.hpp"
#include "service/compile_service.hpp"
#include "service/portfolio_executor.hpp"
#include "sim/executor.hpp"
#include "support/cli.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "verify/mutate.hpp"
#include "verify/verifier.hpp"
#include "workloads/benchmarks.hpp"

namespace {

using namespace qc;

/** Exit code of a SIGINT-interrupted batch (128 + SIGINT). */
constexpr int kInterruptedExit = 130;

/** Exit code of --verify / --verify-mutate on a rejected program. */
constexpr int kVerifyFailedExit = 4;

volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void
onSigint(int)
{
    g_interrupted = 1;
}

struct CliOptions
{
    std::vector<std::string> qasmPaths;
    std::string outPath;
    std::string calibrationPath;
    std::string expected;
    std::string topology; ///< spec string; empty = rows x cols grid
    int rows = 2;
    int cols = 8;
    bool gridFlagsUsed = false; ///< deprecated --rows/--cols given
    int day = 0;
    int days = 1;
    int jobs = 0;  ///< >0 switches to batch/service mode
    std::uint64_t seed = 20190131;
    int simulateTrials = 0;
    bool report = false;
    bool trace = false;
    std::string verifyMutate;     ///< mutation kind to inject, if any
    CompilerOptions compiler;     ///< set through the option table
    bool help = false;

    bool batchMode() const { return jobs > 0 || days > 1; }
};

void
printUsage(std::ostream &os)
{
    os << "usage: naqc --qasm FILE [options]\n"
          "  --qasm FILE          input OpenQASM 2.0 program ('-' for "
          "stdin; repeatable)\n"
          "  --out FILE           write compiled OpenQASM here "
          "(default: stdout)\n"
          "  --topology SPEC      machine coupling graph: "
          "grid:RxC | heavyhex:D |\n"
          "                       ring:N | linear:N | file:PATH "
          "(default grid:2x8,\n"
          "                       the paper's IBMQ16); see "
          "--list-topologies\n"
          "  --rows R --cols C    deprecated alias for "
          "--topology grid:RxC\n"
          "  --calibration FILE   calibration snapshot (see "
          "calibration_io.hpp)\n"
          "  --seed S --day D     synthetic calibration instead "
          "(defaults 20190131, 0)\n"
          "  --days D             batch: compile against D days "
          "starting at --day\n"
          "  --jobs N             batch: run on a compile service "
          "with N workers\n"
          "  --simulate N         Monte-Carlo N trials on the noisy "
          "simulator\n"
          "  --expected BITS      correct answer for --simulate "
          "success rate\n"
          "  --list-topologies    print the topology spec grammar and "
          "exit\n"
          "  --list-benchmarks    print the Table 2 benchmark names "
          "and exit\n"
          "  --dump-benchmark N   write a Table 2 benchmark as "
          "OpenQASM and exit\n"
          "  --verify-mutate K    corrupt the compiled program with "
          "mutation K and\n"
          "                       verify it (verifier demo/oracle; "
          "exit 4 expected;\n"
          "                       kinds: off-edge-gate, "
          "shift-start-time, drop-swap,\n"
          "                       duplicate-op, drop-gate, "
          "retarget-measure,\n"
          "                       corrupt-makespan, corrupt-layout, "
          "stretch-duration)\n"
          "  --report             print mapping/reliability report to "
          "stderr\n"
          "  --trace              print the per-stage timing table "
          "(stderr in single\n"
          "                       mode, stdout after the batch "
          "report)\n"
          "  --help               this text\n"
          "compile options:\n"
       << compilerOptionUsage();
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opts;
    auto need = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc)
            throw cli::UsageError(std::string("missing value for ") +
                                  flag);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string key, value;
        if (matchCompilerOptionFlag(
                arg, [&] { return need(i, arg.c_str()); }, key, value)) {
            applyCompilerOption(opts.compiler, key, value);
        } else if (arg == "--qasm") {
            opts.qasmPaths.push_back(need(i, "--qasm"));
        } else if (arg == "--out") {
            opts.outPath = need(i, "--out");
        } else if (arg == "--topology") {
            opts.topology = need(i, "--topology");
        } else if (arg == "--rows") {
            opts.rows = cli::parseIntFlag("--rows", need(i, "--rows"));
            opts.gridFlagsUsed = true;
        } else if (arg == "--cols") {
            opts.cols = cli::parseIntFlag("--cols", need(i, "--cols"));
            opts.gridFlagsUsed = true;
        } else if (arg == "--list-topologies") {
            std::cout << topologySpecHelp() << "\n";
            std::exit(0);
        } else if (arg == "--list-benchmarks") {
            for (const Benchmark &b : paperBenchmarks())
                std::cout << b.name << "\n";
            std::exit(0);
        } else if (arg == "--dump-benchmark") {
            std::cout << emitQasm(
                benchmarkByName(need(i, "--dump-benchmark")).circuit);
            std::exit(0);
        } else if (arg == "--calibration") {
            opts.calibrationPath = need(i, "--calibration");
        } else if (arg == "--seed") {
            opts.seed = cli::parseUint64Flag("--seed",
                                             need(i, "--seed"));
        } else if (arg == "--day") {
            opts.day = cli::parseIntFlag("--day", need(i, "--day"));
        } else if (arg == "--days") {
            opts.days = cli::parseIntFlag("--days", need(i, "--days"));
        } else if (arg == "--jobs") {
            opts.jobs = cli::parseIntFlag("--jobs", need(i, "--jobs"));
            if (opts.jobs < 1)
                QC_FATAL("--jobs must be >= 1");
        } else if (arg == "--simulate") {
            opts.simulateTrials = cli::parseIntFlag(
                "--simulate", need(i, "--simulate"));
        } else if (arg == "--expected") {
            opts.expected = need(i, "--expected");
        } else if (arg == "--report") {
            opts.report = true;
        } else if (arg == "--trace") {
            opts.trace = true;
        } else if (arg == "--verify-mutate") {
            opts.verifyMutate = need(i, "--verify-mutate");
            // Validate now so a typo exits 2 before any compilation.
            try {
                mutationKindFromName(opts.verifyMutate);
            } catch (const FatalError &e) {
                throw cli::UsageError(e.what());
            }
        } else if (arg == "--help" || arg == "-h") {
            opts.help = true;
        } else {
            throw cli::UsageError("unknown argument '" + arg +
                                  "' (try --help)");
        }
    }
    return opts;
}

/**
 * The machine topology for this invocation — the one construction
 * point shared by single and batch mode. --rows/--cols stay as a
 * deprecated alias for --topology grid:RxC.
 */
Topology
topologyFromOptions(const CliOptions &opts)
{
    if (!opts.topology.empty()) {
        if (opts.gridFlagsUsed)
            QC_FATAL("--rows/--cols conflict with --topology; pass "
                     "only --topology");
        return topologyFromSpec(opts.topology);
    }
    if (opts.gridFlagsUsed)
        std::cerr << "naqc: --rows/--cols are deprecated; use "
                     "--topology grid:"
                  << opts.rows << "x" << opts.cols << "\n";
    return GridTopology(opts.rows, opts.cols);
}

std::string
readInput(const std::string &path)
{
    if (path == "-") {
        std::ostringstream oss;
        oss << std::cin.rdbuf();
        return oss.str();
    }
    std::ifstream in(path);
    if (!in)
        QC_FATAL("cannot open '", path, "'");
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

/** The per-job batch table (shared by full and interrupted runs). */
void
printBatchTable(std::ostream &os,
                const std::vector<service::CompileResult> &results)
{
    // The winner column only appears when some job raced a portfolio
    // (cache hits of raced keys show "-": the race was not re-run).
    const bool raced = std::any_of(
        results.begin(), results.end(),
        [](const service::CompileResult &r) {
            return !r.portfolio.empty();
        });
    std::vector<std::string> header = {"job",      "day",
                                       "status",   "swaps",
                                       "duration", "pred. success",
                                       "seconds"};
    if (raced)
        header.insert(header.begin() + 3, "winner");
    Table t(header);
    for (const auto &r : results) {
        std::string status = r.cacheHit ? "cached"
                             : r.ok && !r.status.ok()
                                 ? "degraded"
                                 : compileStatusCodeName(r.status.code);
        std::string stage_prefix =
            r.failedStage.empty() ? "" : "[" + r.failedStage + "] ";
        std::string detail =
            !r.ok ? stage_prefix + r.error()
            : r.status.ok()
                ? Table::fmt(r.program->predictedSuccess)
                : Table::fmt(r.program->predictedSuccess) + " (" +
                      stage_prefix + r.error() + ")";
        std::vector<std::string> row = {
            r.tag, Table::fmt(static_cast<long long>(r.day)), status,
            r.ok ? Table::fmt(
                       static_cast<long long>(r.program->swapCount))
                 : "-",
            r.ok ? Table::fmt(
                       static_cast<long long>(r.program->duration))
                 : "-",
            detail, Table::fmt(r.seconds)};
        if (raced)
            row.insert(row.begin() + 3,
                       r.winner.empty() ? "-" : r.winner);
        t.addRow(std::move(row));
    }
    t.print(os);
}

/** Batch mode: every program x every day on the compile service. */
int
runBatch(const CliOptions &opts)
{
    if (!opts.calibrationPath.empty())
        QC_FATAL("batch mode uses the synthetic calibration stream; "
                 "--calibration only works for single compiles");
    if (!opts.outPath.empty())
        QC_FATAL("batch mode prints a report; --out only works for "
                 "single compiles");
    if (opts.simulateTrials > 0 || !opts.expected.empty())
        QC_FATAL("--simulate/--expected only work for single "
                 "compiles, not batch mode");
    if (!opts.verifyMutate.empty())
        QC_FATAL("--verify-mutate only works for single compiles, "
                 "not batch mode");
    if (opts.report)
        QC_FATAL("batch mode always prints its report; --report only "
                 "applies to single compiles");
    if (opts.days < 1)
        QC_FATAL("--days must be >= 1");

    Topology topo = topologyFromOptions(opts);
    CalibrationModel model(topo, opts.seed);

    std::vector<std::pair<std::string, Circuit>> programs;
    for (const std::string &path : opts.qasmPaths) {
        std::string name =
            path == "-" ? std::string("stdin") : path;
        programs.emplace_back(name,
                              parseQasm(readInput(path), name));
    }

    service::ServiceOptions sopts;
    sopts.threads = opts.jobs > 0 ? opts.jobs : 1;
    service::CompileService svc(sopts);
    std::vector<service::CompileRequest> requests =
        service::CompileService::dailyBatch(model, programs, opts.day,
                                            opts.days,
                                            opts.compiler);
    const std::size_t total = requests.size();

    // SIGINT must not abandon a half-printed run: the handler sets a
    // flag, the collection loop below notices it, cancels the jobs
    // that have not started, and prints whatever finished.
    g_interrupted = 0;
    std::signal(SIGINT, onSigint);

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::future<service::CompileResult>> futures;
    futures.reserve(requests.size());
    for (service::CompileRequest &request : requests)
        futures.push_back(svc.submit(std::move(request)));

    std::vector<service::CompileResult> results;
    results.reserve(futures.size());
    bool interrupted = false;
    std::size_t cancelled = 0;
    for (std::future<service::CompileResult> &f : futures) {
        while (!interrupted &&
               f.wait_for(std::chrono::milliseconds(50)) !=
                   std::future_status::ready) {
            if (g_interrupted) {
                interrupted = true;
                cancelled = svc.cancelPending();
            }
        }
        // After cancelPending() the skipped jobs' futures are broken
        // promises; in-flight jobs still land normally.
        try {
            results.push_back(f.get());
        } catch (const std::future_error &) {
        }
    }
    std::signal(SIGINT, SIG_DFL);

    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    service::ServiceReport report = svc.makeReport(results, wall);

    printBatchTable(std::cout, results);
    std::cout << "\n" << report.toString();
    if (interrupted)
        std::cout << "interrupted: " << results.size() << "/" << total
                  << " jobs finished, " << cancelled
                  << " cancelled before starting\n";

    if (opts.trace && !report.stages.empty()) {
        Table st({"stage", "seconds", "runs", "failures"});
        for (const auto &s : report.stages)
            st.addRow({s.stage, Table::fmt(s.seconds),
                       Table::fmt(static_cast<long long>(s.runs)),
                       Table::fmt(static_cast<long long>(s.failures))});
        std::cout << "\n";
        st.print(std::cout);
    }
    if (interrupted)
        return kInterruptedExit;
    return report.failed == 0 ? 0 : 1;
}

/** Per-stage timing table of one compile (--trace, single mode). */
void
printStageTrace(std::ostream &os,
                const std::vector<StageTrace> &traces)
{
    Table t({"stage", "pass", "seconds", "note"});
    for (const StageTrace &trace : traces)
        t.addRow({trace.stage, trace.pass, Table::fmt(trace.seconds),
                  trace.note});
    t.print(os);
}

/** Per-candidate race outcome table (--trace/--report, single mode). */
void
printPortfolioTable(std::ostream &os, const PortfolioResult &raced)
{
    Table t({"bundle", "status", "pred. success", "swaps", "duration",
             "seconds", "outcome"});
    for (const PortfolioCandidate &c : raced.candidates) {
        std::string outcome = c.winner     ? "winner"
                              : c.eligible ? "lost"
                                           : "ineligible";
        t.addRow({c.name, compileStatusCodeName(c.status.code),
                  c.hasProgram ? Table::fmt(c.predictedSuccess) : "-",
                  c.hasProgram
                      ? Table::fmt(static_cast<long long>(c.swapCount))
                      : "-",
                  c.hasProgram
                      ? Table::fmt(static_cast<long long>(c.duration))
                      : "-",
                  Table::fmt(c.seconds), outcome});
    }
    t.print(os);
}

int
runCli(const CliOptions &opts)
{
    if (opts.qasmPaths.empty())
        QC_FATAL("--qasm is required (try --help)");

    if (opts.batchMode())
        return runBatch(opts);
    if (opts.qasmPaths.size() > 1)
        QC_FATAL("multiple --qasm inputs need batch mode "
                 "(add --jobs N or --days D)");

    Circuit prog = parseQasm(readInput(opts.qasmPaths[0]),
                             "cli-program");

    Topology topo = topologyFromOptions(opts);
    Calibration cal;
    if (!opts.calibrationPath.empty()) {
        cal = loadCalibration(readInput(opts.calibrationPath), topo,
                              opts.calibrationPath);
    } else {
        CalibrationModel model(topo, opts.seed);
        cal = model.forDay(opts.day);
    }

    const CompilerOptions &copts = opts.compiler;
    auto machine = std::make_shared<const Machine>(topo, cal);
    // A race borrows hardware-concurrency workers; a single bundle
    // runs on this thread and starts none.
    std::optional<service::ThreadPool> pool;
    std::optional<service::PoolPortfolioExecutor> exec;
    if (copts.portfolio.enabled) {
        pool.emplace();
        exec.emplace(*pool, copts.portfolio.maxWorkers);
    }
    PortfolioResult job =
        compileJob(machine, prog, copts, exec ? &*exec : nullptr);
    if (copts.portfolio.enabled && (opts.trace || opts.report))
        printPortfolioTable(std::cerr, job);
    PipelineResult &result = job.best;

    if (opts.trace)
        printStageTrace(std::cerr, result.program.stageTraces);
    if (!result.hasProgram) {
        std::cerr << "naqc: compile failed ["
                  << compileStatusCodeName(result.status.code)
                  << "] in stage '" << result.failedStage
                  << "': " << result.status.message << "\n";
        return 1;
    }
    if (result.status.code == CompileStatusCode::VerifyFailed) {
        // The lint report is the status message (one issue per line).
        std::cerr << "naqc: verification failed for '" << prog.name()
                  << "' [" << result.program.mapperName << "]\n"
                  << result.status.message << "\n";
        return kVerifyFailedExit;
    }
    if (!result.status.ok())
        std::cerr << "naqc: degraded result ["
                  << compileStatusCodeName(result.status.code)
                  << "]: " << result.status.message << "\n";
    CompiledProgram compiled = std::move(result.program);

    if (!opts.verifyMutate.empty()) {
        // Verifier demo/oracle: corrupt the (valid, already verified
        // when --verify is on) program and re-verify. Exit 4 proves
        // the exit-code contract on a corrupted program; a mutation
        // the verifier misses is a blind spot and exits 1.
        const MutationKind kind =
            mutationKindFromName(opts.verifyMutate);
        Rng rng(opts.seed, "verify-mutate");
        if (!applyMutation(compiled, *machine, kind, rng))
            QC_FATAL("mutation '", opts.verifyMutate,
                     "' does not apply to this program (nothing to "
                     "corrupt)");
        const VerifyReport report =
            ProgramVerifier(*machine).verify(prog, compiled);
        std::cerr << "naqc: injected mutation '" << opts.verifyMutate
                  << "'\n"
                  << report.toString() << "\n";
        if (!report.ok())
            return kVerifyFailedExit;
        std::cerr << "naqc: mutation escaped the verifier\n";
        return 1;
    }

    std::string qasm = emitQasm(compiled.hwCircuit(prog.numClbits()));
    if (opts.outPath.empty()) {
        std::cout << qasm;
    } else {
        std::ofstream out(opts.outPath);
        if (!out)
            QC_FATAL("cannot write '", opts.outPath, "'");
        out << qasm;
    }

    if (opts.report) {
        std::cerr << "mapper: " << compiled.mapperName << "\n"
                  << "layout:";
        for (size_t p = 0; p < compiled.layout.size(); ++p)
            std::cerr << " p" << p << "->Q" << compiled.layout[p];
        std::cerr << "\nswaps: " << compiled.swapCount
                  << "\nduration: " << compiled.duration
                  << " timeslots\npredicted success: "
                  << compiled.predictedSuccess
                  << "\ncompile time: " << compiled.compileSeconds
                  << " s\nsolver: "
                  << (compiled.solverStatus.empty()
                          ? "n/a"
                          : compiled.solverStatus)
                  << "\n";
    }

    if (opts.simulateTrials > 0) {
        std::string expected = opts.expected;
        if (expected.empty()) {
            expected = idealOutcome(prog);
            std::cerr << "expected answer (from ideal simulation): "
                      << expected << "\n";
        }
        if (static_cast<int>(expected.size()) != prog.numClbits())
            QC_FATAL("--expected must have ", prog.numClbits(),
                     " bits");
        ExecutionOptions exec;
        exec.trials = opts.simulateTrials;
        exec.seed = opts.seed;
        ExecutionResult res =
            runNoisy(*machine, compiled.schedule, prog.numClbits(),
                     expected, exec);
        std::cerr << "success rate: " << res.successRate << " +/- "
                  << res.halfWidth95 << " over " << res.trials
                  << " trials\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        CliOptions opts = parseArgs(argc, argv);
        if (opts.help) {
            printUsage(std::cout);
            return 0;
        }
        return runCli(opts);
    } catch (const qc::cli::UsageError &e) {
        std::cerr << "naqc: " << e.what() << "\n";
        return e.exitCode();
    } catch (const qc::FatalError &e) {
        std::cerr << "naqc: " << e.what() << "\n";
        return 1;
    }
}
