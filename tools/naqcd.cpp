/**
 * @file
 * naqcd — the always-on noise-adaptive compile daemon.
 *
 * Wraps daemon::CompileDaemon in a line-delimited protocol over a
 * Unix domain socket. One thread per connection; the main thread
 * polls the listening socket so SIGINT/SIGTERM can trigger a
 * graceful drain (stop admitting, finish in-flight jobs, exit).
 *
 * Protocol (one request line, one `ok`/`err` response line, optional
 * payload block terminated by a lone "."):
 *
 *   submit bench=NAME|qasm=inline [tenant=T] [priority=high|normal|low]
 *          [tag=TEXT] [wait=1] [mapper=NAME] [omega=W] [timeout=MS]
 *          [sabre_iterations=N] [sabre_lookahead=W]
 *          [portfolio=off|all|K1,K2,...] [portfolio_deadline_ms=MS]
 *          [verify=0|1]
 *          -- the compile keys are the option table's
 *             (core/option_table.hpp), parsed by the same code as
 *             naqc's flags; any other key is `err reason=unknown-key:K`
 *             and a malformed or out-of-range value an `err` naming
 *             its flag.
 *             With qasm=inline, the QASM text follows as a payload
 *             block; the response to wait=1 carries the compiled QASM
 *             back the same way.
 *   status id=N          non-blocking job state
 *   wait id=N            block until the job is done, return result
 *   -- `id`, `day` and `wait` (0|1) are strict integers: a malformed
 *      value is an `err` naming the key.
 *   stats                counters (one key=value line + tenant block)
 *   reload day=D|cal=inline [source=TEXT]   zero-downtime rollover
 *   drain                stop admitting, wait until idle
 *   shutdown             drain, then exit
 *   ping                 liveness check
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/option_table.hpp"
#include "daemon/daemon.hpp"
#include "daemon/net.hpp"
#include "daemon/protocol.hpp"
#include "ir/qasm.hpp"
#include "machine/calibration_io.hpp"
#include "machine/calibration_model.hpp"
#include "support/cli.hpp"
#include "support/logging.hpp"
#include "workloads/benchmarks.hpp"

using namespace qc;

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void
onStopSignal(int)
{
    g_stop = 1;
}

struct DaemonCli
{
    std::string socketPath = "naqcd.sock";
    std::string topology;           ///< spec; empty = 2x8 grid
    std::string calibrationPath;    ///< initial cal file; empty = model
    std::uint64_t seed = 20190131;  ///< synthetic calibration stream
    int day = 0;                    ///< initial calibration day
    daemon::DaemonOptions opts;
    bool help = false;
};

void
printUsage(std::ostream &os)
{
    os << "usage: naqcd --socket PATH [options]\n"
          "  --socket PATH        Unix socket to listen on "
          "(default: naqcd.sock)\n"
          "  --topology SPEC      machine coupling graph "
          "(default: grid:2x8)\n"
          "  --calibration FILE   initial calibration file "
          "(default: synthetic model)\n"
          "  --seed N             synthetic calibration seed "
          "(default: 20190131)\n"
          "  --day N              initial calibration day "
          "(default: 0)\n"
          "  --threads N          compile workers (default: "
          "hardware)\n"
          "  --shards N           submission queue shards "
          "(default: min(4, workers))\n"
          "  --cache-dir DIR      persistent compile cache directory "
          "(default: off)\n"
          "  --cache-capacity N   in-memory cache entries "
          "(default: 4096)\n"
          "  --cache-bytes N      in-memory cache byte cap "
          "(default: unbounded)\n"
          "  --tenant-quota N     max in-flight jobs per tenant "
          "(default: 64; 0 = off)\n"
          "  --warm-top N         hot fingerprints recompiled on "
          "reload (default: 32)\n"
          "  --help               this text\n";
}

DaemonCli
parseArgs(int argc, char **argv)
{
    DaemonCli cli;
    auto need = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc)
            throw cli::UsageError(std::string("missing value for ") +
                                  flag);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--socket") {
            cli.socketPath = need(i, "--socket");
        } else if (arg == "--topology") {
            cli.topology = need(i, "--topology");
        } else if (arg == "--calibration") {
            cli.calibrationPath = need(i, "--calibration");
        } else if (arg == "--seed") {
            cli.seed = cli::parseUint64Flag(arg, need(i, "--seed"));
        } else if (arg == "--day") {
            cli.day = cli::parseIntFlag(arg, need(i, "--day"));
        } else if (arg == "--threads") {
            cli.opts.threads = cli::parseIntFlag(arg, need(i, "--threads"));
        } else if (arg == "--shards") {
            cli.opts.shards = cli::parseIntFlag(arg, need(i, "--shards"));
        } else if (arg == "--cache-dir") {
            cli.opts.cacheDir = need(i, "--cache-dir");
        } else if (arg == "--cache-capacity") {
            cli.opts.cacheCapacity =
                cli::parseUint64Flag(arg, need(i, "--cache-capacity"));
        } else if (arg == "--cache-bytes") {
            cli.opts.cacheByteCapacity =
                cli::parseUint64Flag(arg, need(i, "--cache-bytes"));
        } else if (arg == "--tenant-quota") {
            cli.opts.tenantQuota =
                cli::parseUint64Flag(arg, need(i, "--tenant-quota"));
        } else if (arg == "--warm-top") {
            cli.opts.warmTopK =
                cli::parseIntFlag(arg, need(i, "--warm-top"));
        } else if (arg == "--help" || arg == "-h") {
            cli.help = true;
        } else {
            throw cli::UsageError("unknown flag '" + arg +
                                  "' (try --help)");
        }
    }
    return cli;
}

/** Read lines until a lone "."; false on EOF mid-payload. */
bool
readPayload(daemon::LineChannel &ch, std::string &payload)
{
    payload.clear();
    std::string line;
    while (ch.readLine(line)) {
        if (line == ".")
            return true;
        payload += line;
        payload += '\n';
    }
    return false;
}

std::string
statsPayload(const daemon::DaemonStats &s)
{
    std::ostringstream oss;
    for (const daemon::TenantStats &t : s.tenants)
        oss << "tenant " << daemon::tokenSafe(t.tenant)
            << " inflight=" << t.inFlight
            << " submitted=" << t.submitted
            << " rejected=" << t.rejected
            << " completed=" << t.completed << "\n";
    return oss.str();
}

std::string
statsLine(const daemon::DaemonStats &s)
{
    std::ostringstream oss;
    oss << "ok submitted=" << s.submitted
        << " completed=" << s.completed
        << " rejected=" << s.rejected
        << " queued=" << s.queue.depth
        << " steals=" << s.queue.steals
        << " epoch=" << s.epochId << " epoch_day=" << s.epochDay
        << " mem_hits=" << s.memCache.hits
        << " mem_lookups=" << s.memCache.lookups()
        << " mem_entries=" << s.memCache.entries
        << " mem_bytes=" << s.memCache.bytes
        << " disk_hits=" << s.diskHits
        << " disk_loads=" << s.disk.loads
        << " disk_stores=" << s.disk.stores
        << " disk_corrupt=" << s.disk.corruptRejected
        << " disk_verified=" << s.verifiedOnLoad
        << " disk_healed=" << s.healed
        << " disk_entries=" << s.diskEntries
        << " warm_recompiles=" << s.warmRecompiles;
    return oss.str();
}

/** Shared connection-serving state. */
struct Server
{
    daemon::CompileDaemon *daemon = nullptr;
    Topology topo = GridTopology::ibmq16();
    std::uint64_t seed = 0;

    std::mutex connMu;
    std::set<int> connFds; ///< open connection fds (for shutdown)
    std::atomic<bool> exitRequested{false};
};

void
handleSubmit(Server &srv, daemon::LineChannel &ch,
             const daemon::Request &req)
{
    Circuit circuit;
    try {
        if (req.has("bench")) {
            circuit = benchmarkByName(req.get("bench")).circuit;
        } else if (req.get("qasm") == "inline") {
            std::string text;
            if (!readPayload(ch, text)) {
                ch.writeLine("err reason=truncated-payload");
                return;
            }
            circuit = parseQasm(text, req.get("tag", "inline"));
        } else {
            ch.writeLine(
                "err reason=submit-needs-bench-or-inline-qasm");
            return;
        }
    } catch (const std::exception &e) {
        ch.writeLine("err reason=" + daemon::tokenSafe(e.what()));
        return;
    }

    daemon::Lane lane;
    if (!daemon::laneFromName(req.get("priority", "normal"), lane)) {
        ch.writeLine("err reason=bad-priority");
        return;
    }

    static const std::set<std::string> kRequestKeys = {
        "bench", "qasm", "tenant", "priority", "tag", "wait"};
    CompilerOptions copts;
    bool wait = false;
    try {
        wait = cli::parseIntFlag("wait", req.get("wait", "0"), 0, 1) != 0;
        for (const auto &[key, value] : req.args) {
            if (kRequestKeys.count(key) == 0)
                applyCompilerOption(copts, key, value);
        }
    } catch (const std::exception &e) {
        ch.writeLine("err reason=" + daemon::tokenSafe(e.what()));
        return;
    }

    const std::string tenant = req.get("tenant", "default");
    const int num_clbits = circuit.numClbits();
    daemon::CompileDaemon::SubmitOutcome out = srv.daemon->submit(
        tenant, lane, std::move(circuit), copts,
        req.get("tag", "job"));
    if (!out.accepted) {
        ch.writeLine("err reason=" + daemon::tokenSafe(out.reason));
        return;
    }
    if (!wait) {
        ch.writeLine("ok id=" + std::to_string(out.id));
        return;
    }

    daemon::JobSnapshot snap;
    if (!srv.daemon->wait(out.id, snap)) {
        ch.writeLine("err reason=job-record-expired");
        return;
    }
    ch.writeLine("ok " + daemon::describeResult(snap));
    if (snap.result.ok && snap.result.program) {
        ch.writeText(emitQasm(
            snap.result.program->hwCircuit(num_clbits)));
        ch.writeLine(".");
    }
}

void
handleReload(Server &srv, daemon::LineChannel &ch,
             const daemon::Request &req)
{
    Calibration cal;
    int day = 0;
    std::string source;
    try {
        if (req.has("cal") && req.get("cal") == "inline") {
            std::string text;
            if (!readPayload(ch, text)) {
                ch.writeLine("err reason=truncated-payload");
                return;
            }
            cal = loadCalibration(text, srv.topo, "reload");
            day = cli::parseIntFlag("day", req.get("day", "0"));
            source = req.get("source", "reload-inline");
        } else if (req.has("day")) {
            day = cli::parseIntFlag("day", req.get("day"));
            CalibrationModel model(srv.topo, srv.seed);
            cal = model.forDay(day);
            source = req.get(
                "source", "model-day-" + std::to_string(day));
        } else {
            ch.writeLine("err reason=reload-needs-day-or-inline-cal");
            return;
        }
    } catch (const std::exception &e) {
        ch.writeLine("err reason=" + daemon::tokenSafe(e.what()));
        return;
    }

    daemon::CompileDaemon::ReloadOutcome out =
        srv.daemon->reload(std::move(cal), day, std::move(source));
    ch.writeLine("ok epoch=" + std::to_string(out.epochId) +
                 " warmed=" + std::to_string(out.warmed));
}

void
serveConnection(Server &srv, int fd)
{
    daemon::LineChannel ch(fd);
    std::string line;
    while (ch.readLine(line)) {
        daemon::Request req = daemon::parseRequest(line);
        if (req.command.empty())
            continue;

        if (req.command == "ping") {
            ch.writeLine("ok pong");
        } else if (req.command == "submit") {
            handleSubmit(srv, ch, req);
        } else if (req.command == "status" ||
                   req.command == "wait") {
            std::uint64_t id = 0;
            try {
                id = cli::parseUint64Flag("id", req.get("id"));
            } catch (const std::exception &e) {
                ch.writeLine("err reason=" + daemon::tokenSafe(e.what()));
                continue;
            }
            daemon::JobSnapshot snap;
            const bool known = req.command == "wait"
                                   ? srv.daemon->wait(id, snap)
                                   : srv.daemon->status(id, snap);
            if (!known)
                ch.writeLine("err reason=unknown-id");
            else
                ch.writeLine("ok " + daemon::describeResult(snap));
        } else if (req.command == "stats") {
            daemon::DaemonStats s = srv.daemon->stats();
            ch.writeLine(statsLine(s));
            ch.writeText(statsPayload(s));
            ch.writeLine(".");
        } else if (req.command == "reload") {
            handleReload(srv, ch, req);
        } else if (req.command == "drain") {
            srv.daemon->beginShutdown();
            srv.daemon->awaitIdle();
            ch.writeLine("ok drained");
        } else if (req.command == "shutdown") {
            srv.daemon->beginShutdown();
            srv.daemon->awaitIdle();
            srv.exitRequested.store(true);
            ch.writeLine("ok bye");
            break;
        } else {
            ch.writeLine("err reason=unknown-command-" +
                         daemon::tokenSafe(req.command));
        }
    }
    std::lock_guard<std::mutex> lock(srv.connMu);
    srv.connFds.erase(fd);
    // ch's destructor closes fd.
}

int
runServer(const DaemonCli &cli)
{
    Topology topo = cli.topology.empty()
                        ? Topology(GridTopology::ibmq16())
                        : topologyFromSpec(cli.topology);

    Calibration cal;
    std::string source;
    if (!cli.calibrationPath.empty()) {
        std::ifstream in(cli.calibrationPath);
        if (!in)
            QC_FATAL("cannot read '", cli.calibrationPath, "'");
        std::ostringstream text;
        text << in.rdbuf();
        cal = loadCalibration(text.str(), topo, cli.calibrationPath);
        source = cli.calibrationPath;
    } else {
        CalibrationModel model(topo, cli.seed);
        cal = model.forDay(cli.day);
        source = "model-day-" + std::to_string(cli.day);
    }

    daemon::CompileDaemon engine(topo, std::move(cal), cli.opts,
                                 cli.day, source);

    std::string err;
    int listen_fd = daemon::listenUnix(cli.socketPath, err);
    if (listen_fd < 0) {
        std::cerr << "naqcd: " << err << "\n";
        return 1;
    }

    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
    std::signal(SIGPIPE, SIG_IGN);

    Server srv;
    srv.daemon = &engine;
    srv.topo = topo;
    srv.seed = cli.seed;

    std::cerr << "naqcd: listening on " << cli.socketPath << " ("
              << engine.numThreads() << " workers)\n";

    std::vector<std::thread> connections;
    while (!g_stop && !srv.exitRequested.load()) {
        pollfd pfd{};
        pfd.fd = listen_fd;
        pfd.events = POLLIN;
        int ready = ::poll(&pfd, 1, 200 /* ms */);
        if (ready <= 0)
            continue; // timeout, EINTR, or spurious wake
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0)
            continue;
        {
            std::lock_guard<std::mutex> lock(srv.connMu);
            srv.connFds.insert(fd);
        }
        connections.emplace_back(
            [&srv, fd] { serveConnection(srv, fd); });
    }

    // Graceful drain: stop admitting, let in-flight jobs finish,
    // kick blocked connection reads loose, then join everything.
    std::cerr << "naqcd: draining\n";
    engine.beginShutdown();
    engine.awaitIdle();
    ::close(listen_fd);
    {
        std::lock_guard<std::mutex> lock(srv.connMu);
        for (int fd : srv.connFds)
            ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread &t : connections)
        if (t.joinable())
            t.join();
    ::unlink(cli.socketPath.c_str());
    std::cerr << "naqcd: bye\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        DaemonCli cli = parseArgs(argc, argv);
        if (cli.help) {
            printUsage(std::cout);
            return 0;
        }
        return runServer(cli);
    } catch (const cli::UsageError &e) {
        std::cerr << "naqcd: " << e.what() << "\n";
        return e.exitCode();
    } catch (const FatalError &e) {
        std::cerr << "naqcd: " << e.what() << "\n";
        return 1;
    }
}
