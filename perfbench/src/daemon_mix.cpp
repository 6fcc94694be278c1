/**
 * @file
 * daemon-mix: naqcd (one worker thread) with a private socket and cache
 * dir, driven by one process: a closed-loop sweep of the working set
 * (the cold compiles), a closed loop of one client that measures
 * throughput, open loop over 4 connections
 * from seeded arrivals at 0.5, 0.8, 1.0 and 1.2 times that throughput,
 * a phase opened by a reload rollover, and a phase after a restart on
 * the same cache dir, served from disk with verify-on-load.
 */

#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <random>
#include <sstream>
#include <thread>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include "daemon/disk_cache.hpp"
#include "daemon/net.hpp"
#include "daemon/program_serdes.hpp"
#include "daemon/protocol.hpp"
#include "ir/qasm.hpp"
#include "machine/calibration_model.hpp"
#include "service/fingerprints.hpp"
#include "verify/verifier.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/random_circuits.hpp"

namespace perfbench {

using namespace qc;

namespace {

constexpr std::uint64_t kCalibrationSeed = 20190131; // naqcd's default
/** Connections of the open-loop phases; the closed loops use one
 *  client, so each latency is one request's, not a queue's. */
constexpr int kConnections = 4;
/** Tail limit for max_rps: an interactive compile's wait, picked. */
constexpr double kLatencyLimitUs = 500'000;
/** A phase's backlog grew if its lateness rose by this share of its
 *  span from the first third to the last. */
constexpr double kBacklogSlack = 0.05;

/**
 * The working set and the calibration days are the same for every seed;
 * the seed draws the traffic (arrival times and which items are hot).
 * Quality figures then compare like with like between runs.
 */
constexpr int kFirstDay = 7;

/** One entry of the working set: a circuit and the bundle asked for. */
struct Item
{
    std::string name;
    Circuit circuit;
    std::string expected; ///< Table 2 answer; empty for random circuits
    bool inlineQasm = false;
    std::string qasm;     ///< payload for qasm=inline
    MapperKind mapper = MapperKind::RSmtStar;
};

struct Phase
{
    std::string name;
    /** Open-loop rate as a share of the closed phase's throughput;
     *  0 = closed loop. */
    double load = 0.0;
    /** Requests per second of --seconds. A count, not a span: naqcd
     *  keeps the records of its last 65536 jobs, so its peak RSS grows
     *  with the requests sent, and those must not grow with the rate. */
    std::size_t perSecond = 0;
    bool reloadFirst = false;  ///< roll the calibration over at the start
    bool afterRestart = false; ///< restart the daemon on its cache first

    /** The fixed-rate phases that decide max_rps. */
    bool ratePhase() const
    {
        return load > 0 && !reloadFirst && !afterRestart;
    }
};

/**
 * The rates are shares of the throughput the closed phase measured: a
 * daemon with one worker cannot serve more open loop than one closed
 * client, so the top rate is past what it serves on any host or build,
 * and max_rps lands between the rates. Their request counts grow with
 * the rate, so each spans about 0.037 of --seconds at the ~2700
 * requests/s one client sees: a second at 30 s, long enough that a
 * backlog growing at 1.2 x stands out of a few tens of milliseconds of
 * scheduling noise. The closed phase, which gives the end-to-end
 * figures, takes about 0.45 of --seconds: the host's speed drifts over
 * tens of seconds, and a longer phase averages over more of it.
 * The phases below 1.0 are the ones the daemon should keep up with:
 * daemon.backlog_max covers those, loadgen.late_p99_us the rate phases
 * that kept up.
 */
const Phase kPhases[] = {
    {"sweep", 0, 0, false, false},
    {"closed", 0, 1200, false, false},
    {"load0.5", 0.5, 50, false, false},
    {"load0.8", 0.8, 80, false, false},
    {"load1.0", 1.0, 100, false, false},
    {"load1.2", 1.2, 120, false, false},
    {"rollover", 0.5, 20, true, false},
    {"restart-disk", 0.5, 20, false, true},
};

/** One request per item, closed loop: the first epoch's cold compiles
 *  all land here, and the later phases serve a warm working set. */
constexpr int kSweepPhase = 0;

/**
 * jobs_per_s, latency_p50_us and latency_tail_us come from the closed
 * phase: one client sending its next request when the previous reply
 * arrives, over a warm working set. A hit costs a few hundred
 * microseconds of socket and thread hand-offs; in the open-loop phases
 * those threads sleep between requests, and a stretch of CPU steal on a
 * shared host multiplied every wake-up for seconds at a time (a whole
 * open-loop phase's tail spread 0.3-1.5 of its median over ten runs).
 * The open-loop phases still give max_rps, the per-phase notes and the
 * per-class metrics (cold_*, memhit_*, diskhit_*).
 */
constexpr int kReferencePhase = 1;

struct Request
{
    std::size_t item = 0;
    int phase = 0;
    double due = 0.0; ///< µs after the phase start
};

/** What one request saw. */
struct Reply
{
    OpenLoopSample t;
    bool ok = false;
    std::string cache; ///< none | memory | disk
    int epoch = 0;
    int day = 0; ///< calibration day the program was compiled against
    double psuccess = 0.0;
    double duration = 0.0;
    std::uint64_t qasmHash = 0; ///< the text is kept once per (item, day)
    std::string error;
};

/**
 * The 12 Table 2 kernels, asked for with R-SMT* (the daemon default),
 * and 24 random circuits of 8-10 qubits and 300-600 gates sent inline,
 * asked for with the five heuristic bundles in turn. The inline path
 * (parse, fingerprint, emit, tens of KB over the socket) then does
 * enough work per hit that a hit's latency is not all thread hand-offs.
 */
std::vector<Item>
workingSet()
{
    std::mt19937_64 rng(65537);
    std::vector<Item> items;
    for (const Benchmark &b : paperBenchmarks())
        items.push_back({b.name, b.circuit, b.expected, false, "",
                         MapperKind::RSmtStar});
    const MapperKind heuristics[] = {
        MapperKind::Qiskit, MapperKind::GreedyV, MapperKind::GreedyE,
        MapperKind::GreedyETrack, MapperKind::Sabre};
    for (int i = 0; i < 24; ++i) {
        RandomCircuitSpec spec;
        spec.numQubits = 8 + static_cast<int>(rng() % 3);
        spec.numGates = 300 + static_cast<int>(rng() % 301);
        spec.seed = rng();
        Item it;
        it.name = "rand" + std::to_string(i);
        it.circuit = makeRandomCircuit(spec);
        it.inlineQasm = true;
        it.qasm = emitQasm(it.circuit);
        // The daemon parses the payload under the request's tag; use
        // the same circuit here so fingerprints agree.
        it.circuit = parseQasm(it.qasm, it.name);
        it.mapper = heuristics[i % std::size(heuristics)];
        items.push_back(std::move(it));
    }
    return items;
}

/**
 * Zipf(1) item popularity. The exponent was picked, not measured: the
 * paper gives no request mix. The ranks are the same for every seed.
 */
class Popularity
{
  public:
    explicit Popularity(std::size_t items) : rank_(items), cdf_(items)
    {
        std::iota(rank_.begin(), rank_.end(), std::size_t{0});
        std::shuffle(rank_.begin(), rank_.end(), std::mt19937_64(92821));
        double sum = 0.0;
        for (std::size_t i = 0; i < items; ++i)
            cdf_[i] = (sum += 1.0 / static_cast<double>(i + 1));
    }

    std::size_t draw(std::mt19937_64 &rng) const
    {
        std::uniform_real_distribution<double> u(0.0, cdf_.back());
        const auto r = static_cast<std::size_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), u(rng)) -
            cdf_.begin());
        return rank_[std::min(r, rank_.size() - 1)];
    }

  private:
    std::vector<std::size_t> rank_;
    std::vector<double> cdf_;
};

/**
 * Requests of phase p: the sweep sends each item once in seeded order,
 * the closed phase popularity draws, and an open-loop phase popularity
 * draws at seeded Poisson arrivals of `rate` per second. The same seed
 * gives the same items and, at the same rate, the same arrivals.
 */
std::vector<Request>
phaseRequests(std::uint64_t seed, int p, std::size_t items, double rate,
              double seconds)
{
    std::mt19937_64 rng(seed * 92821 + 11 + static_cast<unsigned>(p));
    const Popularity popularity(items);
    const Phase &ph = kPhases[p];
    std::vector<Request> reqs;
    if (p == kSweepPhase) {
        std::vector<std::size_t> order(items);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::shuffle(order.begin(), order.end(), rng);
        for (std::size_t item : order)
            reqs.push_back({item, p, 0.0});
    } else {
        const auto n = static_cast<std::size_t>(
            static_cast<double>(ph.perSecond) * seconds);
        std::exponential_distribution<double> gap(std::max(rate, 1.0) /
                                                  1e6);
        double t = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            t = ph.load > 0 ? t + gap(rng) : 0.0;
            reqs.push_back({popularity.draw(rng), p, t});
        }
    }
    return reqs;
}

/** Value of `key=` in a protocol response line. */
std::string
field(const std::string &line, const std::string &key)
{
    const daemon::Request parsed = daemon::parseRequest(line);
    return parsed.get(key, "");
}

/** One client connection to naqcd. */
class Connection
{
  public:
    explicit Connection(const std::string &socket)
    {
        std::string err;
        const int fd = daemon::connectUnix(socket, err);
        if (fd >= 0)
            ch_ = std::make_unique<daemon::LineChannel>(fd);
    }

    bool ok() const { return ch_ != nullptr; }

    /** Send one line (plus payload) and read the reply line. */
    std::string call(const std::string &line,
                     const std::string &payload = "")
    {
        if (!ch_ || !ch_->writeLine(line))
            return "";
        if (!payload.empty() &&
            (!ch_->writeText(payload) || !ch_->writeLine(".")))
            return "";
        std::string reply;
        return ch_->readLine(reply) ? reply : "";
    }

    /** Read a payload block up to the lone ".". */
    std::string block()
    {
        std::string text, line;
        while (ch_ && ch_->readLine(line) && line != ".") {
            text += line;
            text += '\n';
        }
        return text;
    }

  private:
    std::unique_ptr<daemon::LineChannel> ch_;
};

std::string
submitLine(const Item &item)
{
    std::string line = "submit wait=1 tenant=bench tag=" + item.name +
                       " mapper=" + mapperKindName(item.mapper);
    line += item.inlineQasm ? " qasm=inline" : " bench=" + item.name;
    return line;
}

/** A running naqcd, killed and reaped on every exit path. */
class Daemon
{
  public:
    Daemon(const Args &args, const std::string &socket,
           const std::string &cache_dir, int day)
        : socket_(socket)
    {
        ::unlink(socket.c_str());
        pid_ = spawn({args.binDir + "/naqcd", "--socket", socket,
                      "--threads", std::to_string(kWorkers),
                      "--cache-dir", cache_dir, "--day",
                      std::to_string(day)},
                     "", args.workDir + "/naqcd.log");
    }

    ~Daemon() { stop(); }

    /** Poll `ping` until the daemon answers; false after 30 s. */
    bool waitReady()
    {
        const double give_up = nowUs() + 30e6;
        while (nowUs() < give_up) {
            Connection c(socket_);
            if (c.ok() && c.call("ping") == "ok pong")
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return false;
    }

    /** Peak RSS from /proc, read while the daemon still runs. */
    double peakRssMb() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(in, line))
            if (line.rfind("VmHWM:", 0) == 0)
                return std::stod(line.substr(6)) / 1024.0;
        return 0.0;
    }

    /** Graceful shutdown over the socket, then SIGKILL if needed. */
    void stop()
    {
        if (pid_ <= 0)
            return;
        {
            Connection c(socket_);
            if (c.ok())
                c.call("shutdown");
        }
        const double give_up = nowUs() + 10e6;
        while (nowUs() < give_up) {
            if (::kill(pid_, 0) != 0)
                break;
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = 0;
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        ::kill(pid_, SIGKILL);
        waitChild(pid_);
        pid_ = 0;
    }

  private:
    std::string socket_;
    pid_t pid_ = 0;
};

/** Client-side class counts, to cross-check against `stats`. */
struct ClassCounts
{
    std::uint64_t cold = 0, memory = 0, disk = 0, refused = 0;
};

/** Served QASM text per (item, calibration day), kept once. */
using ServedTexts = std::map<std::pair<std::size_t, int>, std::string>;

/**
 * Drive one phase: one client thread (closed loop) or kConnections
 * (open loop) share the schedule, each sends its next
 * request at its due instant (closed loop: at once), or as soon as its
 * connection frees up, and waits for the reply. `dayOf` maps a reply's
 * epoch to the calibration day it was served against.
 */
void
drivePhase(const std::string &socket, const std::vector<Item> &items,
           const std::vector<Request> &reqs, std::size_t begin,
           std::size_t end, std::vector<Reply> &replies,
           ServedTexts &texts, const std::function<int(int)> &dayOf,
           Tracer &tracer, bool closed)
{
    const double t0 = nowUs();
    std::atomic<std::size_t> next{begin};
    std::mutex texts_mu;
    auto worker = [&] {
        Connection conn(socket);
        for (std::size_t i = next++; i < end; i = next++) {
            const Request &rq = reqs[i];
            Reply &rep = replies[i];
            // A closed-loop client sends as soon as its connection frees.
            rep.t.due = closed ? nowUs() : t0 + rq.due;
            const double wait = rep.t.due - nowUs();
            if (wait > 0)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(static_cast<long>(wait)));
            const Item &item = items[rq.item];
            ScopedSpan::setJob(i + 1);
            ScopedSpan span(tracer, "daemon.request");
            rep.t.sent = nowUs();
            const std::string line = conn.call(
                submitLine(item), item.inlineQasm ? item.qasm : "");
            const daemon::Request reply = daemon::parseRequest(line);
            std::string text;
            if (reply.command == "ok" && reply.get("ok") == "1") {
                text = conn.block();
                rep.ok = reply.get("status") == "ok";
            }
            rep.t.done = nowUs();
            rep.cache = reply.get("cache");
            rep.epoch = static_cast<int>(reply.getInt("epoch", 0));
            rep.day = dayOf(rep.epoch);
            rep.psuccess = std::atof(reply.get("psuccess").c_str());
            rep.duration = std::atof(reply.get("duration").c_str());
            rep.qasmHash = fnv1a(text);
            if (!rep.ok) {
                rep.error = line.empty() ? "connection lost" : line;
                continue;
            }
            std::lock_guard<std::mutex> lock(texts_mu);
            texts.emplace(std::make_pair(rq.item, rep.day), std::move(text));
        }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < (closed ? 1 : kConnections); ++c)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();
}

struct StatsLine
{
    std::uint64_t memHits = 0, diskHits = 0, healed = 0, rejected = 0,
                  warm = 0;
};

StatsLine
readStats(const std::string &socket)
{
    Connection c(socket);
    const std::string line = c.call("stats");
    c.block();
    auto num = [&](const char *k) {
        return static_cast<std::uint64_t>(
            std::atoll(field(line, k).c_str()));
    };
    return {num("mem_hits"), num("disk_hits"), num("disk_healed"),
            num("rejected"), num("warm_recompiles")};
}

/** Latency summary of one class of requests. */
void
classMetrics(const std::string &name, const std::vector<double> &lat,
             Outcome &out)
{
    const Tail tail = tailPercentile(lat);
    out.set(name + "_p50_us", median(lat), "us");
    out.set(name + "_tail_us", tail.valid ? tail.value : 0.0, "us");
    std::ostringstream oss;
    oss << name << ": n=" << lat.size() << " p50=" << median(lat) << " us";
    if (tail.valid)
        oss << ", tail=p" << tail.percentile << " " << tail.value << " us";
    else
        oss << ", tail omitted (fewer than 11 samples)";
    out.notes.push_back(oss.str());
}

/** Everything one run of the traffic produced. */
struct Traffic
{
    std::vector<Item> items;
    std::vector<Request> reqs;
    std::vector<Reply> replies;
    ServedTexts texts;
    int day0 = 0;
    int reloadEpoch = 0;
    StatsLine before, after; ///< first and restarted daemon
    double peakRssMb = 0.0;
    std::vector<double> phaseUs; ///< wall time of each phase
    std::vector<double> rates;   ///< open-loop rate of each phase (0: closed)
    std::vector<std::pair<std::size_t, std::size_t>> ranges; ///< of reqs
    std::vector<double> pingUs;
    bool started = true;
};

/** Set-up (repeated, median reported) and the phases. */
Traffic
runTraffic(const Args &args, Outcome &out, Tracer &tracer)
{
    // A hit is a chain of thread hand-offs (client, daemon I/O, worker,
    // client); spread over idle vCPUs each one waited on a wake-up across
    // CPUs, and the closed loop's p50 went from 330 to 540 us and back
    // between runs minutes apart.
    const OneCpu pin;
    Traffic tr;
    const std::string socket = args.workDir + "/naqcd.sock";
    const std::string cache_dir = args.workDir + "/cache";
    tr.day0 = kFirstDay;

    std::unique_ptr<Daemon> daemon;
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
        daemon.reset();
        const double t0 = nowUs();
        std::filesystem::remove_all(cache_dir); // a cold cache each time
        tr.items = workingSet();
        // The closed-loop phases' requests; the open-loop ones follow
        // once the closed phase has measured the rate they scale with.
        tr.reqs = phaseRequests(args.seed, kSweepPhase, tr.items.size(), 0,
                                args.seconds);
        for (const Request &r : phaseRequests(args.seed, kReferencePhase,
                                              tr.items.size(), 0,
                                              args.seconds))
            tr.reqs.push_back(r);
        daemon = std::make_unique<Daemon>(args, socket, cache_dir, tr.day0);
        if (!daemon->waitReady()) {
            out.fail("naqcd did not answer ping");
            tr.started = false;
            return tr;
        }
        // Warm-up round: one compile outside the working set.
        Connection c(socket);
        c.call("submit wait=1 tenant=warmup mapper=GreedyE* bench=BV4");
        c.block();
        setups.push_back((nowUs() - t0) / 1e6);
    }
    out.set("setup_s", median(setups), "s");

    {
        Connection c(socket);
        for (int i = 0; i < 200; ++i) {
            ScopedSpan span(tracer, "daemon.ping");
            const double t0 = nowUs();
            c.call("ping");
            tr.pingUs.push_back(nowUs() - t0);
        }
    }

    double closed_rps = 0.0;
    std::size_t begin = 0;
    for (int p = 0; p < static_cast<int>(std::size(kPhases)); ++p) {
        const double rate = kPhases[p].load * closed_rps;
        if (rate > 0)
            for (const Request &r : phaseRequests(args.seed, p,
                                                  tr.items.size(), rate,
                                                  args.seconds))
                tr.reqs.push_back(r);
        tr.replies.resize(tr.reqs.size());
        std::size_t end = begin;
        while (end < tr.reqs.size() && tr.reqs[end].phase == p)
            ++end;
        if (kPhases[p].afterRestart) {
            tr.before = readStats(socket);
            tr.peakRssMb = std::max(tr.peakRssMb, daemon->peakRssMb());
            daemon.reset();
            daemon =
                std::make_unique<Daemon>(args, socket, cache_dir, tr.day0 + 1);
            if (!daemon->waitReady()) {
                out.fail("restarted naqcd did not answer ping");
                tr.started = false;
                return tr;
            }
        }
        if (kPhases[p].reloadFirst) {
            Connection c(socket);
            const std::string line =
                c.call("reload day=" + std::to_string(tr.day0 + 1));
            tr.reloadEpoch = std::atoi(field(line, "epoch").c_str());
        }
        const bool restarted = kPhases[p].afterRestart;
        auto day_of = [&](int epoch) {
            return restarted ||
                           (tr.reloadEpoch != 0 && epoch == tr.reloadEpoch)
                       ? tr.day0 + 1
                       : tr.day0;
        };
        const double t0 = nowUs();
        drivePhase(socket, tr.items, tr.reqs, begin, end, tr.replies,
                   tr.texts, day_of, tracer, rate == 0);
        tr.phaseUs.push_back(nowUs() - t0);
        tr.rates.push_back(rate);
        tr.ranges.emplace_back(begin, end);
        if (p == kReferencePhase)
            closed_rps = static_cast<double>(end - begin) /
                         (tr.phaseUs.back() / 1e6);
        begin = end;
    }
    tr.after = readStats(socket);
    tr.peakRssMb = std::max(tr.peakRssMb, daemon->peakRssMb());
    daemon.reset();
    return tr;
}

/** The key the daemon caches an item's program under on `cal`. */
service::CacheKey
cacheKey(const Item &item, const Topology &topo, const Calibration &cal)
{
    CompilerOptions copts;
    copts.mapper = item.mapper;
    service::CacheKey key;
    key.circuit = service::fingerprintCircuit(item.circuit);
    key.calibration = service::machineKey(topo, cal);
    key.options = service::fingerprintOptions(copts);
    return key;
}

/**
 * Oracle over the served programs. Every program the daemon compiled
 * sits in its disk cache under the service's cache key: load it,
 * validate it against its source and machine, check the QASM served
 * for it byte for byte, and simulate Table 2 kernels noiselessly.
 */
void
checkReplies(const Args &args, Traffic &tr, Outcome &out,
             std::vector<double> &psuccess, std::vector<double> &duration)
{
    daemon::DiskCacheStore disk(args.workDir + "/cache");
    const Topology topo = GridTopology::ibmq16();
    CalibrationModel model(topo, kCalibrationSeed);
    std::map<int, std::shared_ptr<const Machine>> machines;
    Oracle oracle;
    std::map<std::pair<std::size_t, int>, std::uint64_t> served;
    std::uint64_t digest = kFnvBasis;
    for (std::size_t i = 0; i < tr.replies.size(); ++i) {
        const Reply &rep = tr.replies[i];
        const Item &item = tr.items[tr.reqs[i].item];
        ++out.attempted;
        if (!rep.ok) {
            out.fail(item.name + ": " + rep.error);
            continue;
        }
        const int day = rep.day;
        const auto key = std::make_pair(tr.reqs[i].item, day);
        auto [it, fresh] = served.emplace(key, rep.qasmHash);
        if (it->second != rep.qasmHash) {
            out.fail(item.name + ": two different programs served");
            continue;
        }
        if (!fresh)
            continue;
        const std::string &qasm = tr.texts.at(key);
        if (fnv1a(qasm) != rep.qasmHash) {
            out.fail(item.name + ": two different programs served");
            continue;
        }
        digest = fnv1a(qasm, digest);
        // Quality covers the first epoch, where the sweep serves
        // every item: which items the later epoch serves depends on the
        // traffic, and a few large circuits move a geomean by a lot.
        if (day == tr.day0) {
            psuccess.push_back(rep.psuccess);
            duration.push_back(rep.duration);
        }

        auto &machine = machines[day];
        if (!machine)
            machine = std::make_shared<const Machine>(topo, model.forDay(day));
        std::shared_ptr<const CompiledProgram> program =
            disk.load(cacheKey(item, topo, machine->cal()));
        if (!program) {
            out.fail(item.name + ": served program not in the disk cache");
            continue;
        }
        if (oracle.verify(*machine, item.mapper, item.circuit, *program) >
            0) {
            out.fail(item.name + ": verifier issues");
            continue;
        }
        if (emitQasm(program->hwCircuit(item.circuit.numClbits())) != qasm) {
            out.fail(item.name + ": served QASM differs from the program");
            continue;
        }
        if (!item.expected.empty() &&
            !oracle.simulate(parseQasm(qasm, item.name), item.expected,
                             rep.qasmHash)) {
            out.fail(item.name + ": wrong answer");
        }
    }
    out.notes.push_back("digest " + hex64(digest) + " over " +
                        std::to_string(served.size()) + " programs");
    const std::string diff = checkDigest(args, digest);
    if (!diff.empty())
        out.notes.push_back("NOTE " + diff +
                            " (wall-clock SMT budgets can do that)");
}

/**
 * Largest number of requests already due but not yet sent when a
 * request of the phase went out: the generator's queue.
 */
std::size_t
backlogMax(const Traffic &tr, std::size_t begin, std::size_t end)
{
    std::size_t backlog = 0;
    for (std::size_t i = begin; i < end; ++i) {
        const double sent = tr.replies[i].t.sent;
        std::size_t due = i + 1;
        while (due < end && tr.replies[due].t.due <= sent)
            ++due;
        backlog = std::max(backlog, due - i - 1);
    }
    return backlog;
}

/**
 * Throughput of the closed phase: the median over windows of 500
 * requests (one window if the phase is shorter), each sent-to-reply, so
 * a burst of CPU steal on a shared host slows a few windows, not the
 * figure.
 */
double
closedThroughput(const Traffic &tr)
{
    const auto [begin, end] = tr.ranges[kReferencePhase];
    const std::size_t window =
        std::max<std::size_t>(1, std::min<std::size_t>(500, end - begin));
    std::vector<double> rates;
    for (std::size_t w = begin; w + window <= end; w += window) {
        double first = tr.replies[w].t.sent, last = tr.replies[w].t.done;
        for (std::size_t i = w; i < w + window; ++i) {
            first = std::min(first, tr.replies[i].t.sent);
            last = std::max(last, tr.replies[i].t.done);
        }
        rates.push_back(static_cast<double>(window) / ((last - first) / 1e6));
    }
    return median(rates);
}

/** Classify replies, cross-check against `stats`, fill metrics. */
void
summarize(Traffic &tr, Outcome &out)
{
    std::vector<double> all, reference, cold, mem, disk, late;
    ClassCounts before, after;
    double max_rps = 0.0;
    std::size_t backlog = 0;
    for (int p = 0; p < static_cast<int>(std::size(kPhases)); ++p) {
        const auto [begin, end] = tr.ranges[static_cast<std::size_t>(p)];
        const double rate = tr.rates[static_cast<std::size_t>(p)];
        std::vector<OpenLoopSample> phase;
        std::vector<double> phase_lat, phase_late;
        bool failed = false;
        for (std::size_t i = begin; i < end; ++i) {
            const Reply &rep = tr.replies[i];
            ClassCounts &cc = kPhases[p].afterRestart ? after : before;
            phase.push_back(rep.t);
            if (!rep.ok) {
                // A failure misses every latency limit.
                failed = true;
                ++cc.refused;
                continue;
            }
            const double us = rep.t.latency();
            all.push_back(us);
            phase_lat.push_back(us);
            phase_late.push_back(rep.t.lateness());
            if (rep.cache == "memory") {
                mem.push_back(us);
                ++cc.memory;
            } else if (rep.cache == "disk") {
                disk.push_back(us);
                ++cc.disk;
            } else {
                cold.push_back(us);
                ++cc.cold;
            }
        }
        if (p == kReferencePhase)
            reference = phase_lat;
        const Tail tail = tailPercentile(phase_lat);
        const double span =
            phase.empty() ? 0.0 : phase.back().due - phase.front().due;
        const bool grew =
            rate > 0 && backlogGrew(phase, kBacklogSlack * span);
        const bool kept_up =
            !failed && !grew && (!tail.valid || tail.value <= kLatencyLimitUs);
        if (kPhases[p].ratePhase() && kept_up) {
            max_rps = std::max(max_rps, rate);
            late.insert(late.end(), phase_late.begin(), phase_late.end());
        }
        if (rate > 0 && kPhases[p].load < 1.0)
            backlog = std::max(backlog, backlogMax(tr, begin, end));
        std::ostringstream oss;
        oss << "phase " << kPhases[p].name << ": ";
        if (rate > 0)
            oss << rate << " rps, ";
        else
            oss << "closed loop, ";
        oss << "n=" << phase.size() << " p50=" << median(phase_lat)
            << " us tail=p" << tail.percentile << " " << tail.value << " us"
            << (grew ? " backlog grew" : "");
        out.notes.push_back(oss.str());
    }
    out.set("jobs_per_s", closedThroughput(tr), "1/s");
    out.set("latency_p50_us", median(reference), "us");
    const Tail tail = windowedTail(reference);
    out.set("latency_tail_us", tail.value, "us");
    const Tail whole = tailPercentile(all);
    out.notes.push_back("all requests: n=" + std::to_string(all.size()) +
                        " p50=" + std::to_string(median(all)) + " us tail=p" +
                        std::to_string(whole.percentile) + " " +
                        std::to_string(whole.value) + " us");
    out.notes.push_back("end-to-end latency at " +
                        kPhases[kReferencePhase].name + ": n=" +
                        std::to_string(reference.size()) + " tail=p" +
                        std::to_string(tail.percentile));
    classMetrics("cold", cold, out);
    classMetrics("memhit", mem, out);
    classMetrics("diskhit", disk, out);
    out.set("max_rps", max_rps, "1/s");
    out.set("loadgen.late_p99_us", percentile(late, 99.0), "us");
    out.set("daemon.backlog_max", static_cast<double>(backlog), "count");
    out.set("daemon.ping_us", median(tr.pingUs), "us");
    out.set("daemon.rejected",
            static_cast<double>(tr.before.rejected + tr.after.rejected),
            "count");
    out.set("daemon.warm_recompiles", static_cast<double>(tr.before.warm),
            "count");
    const double misses = static_cast<double>(disk.size() + cold.size());
    out.set("daemon.disk_hit_ratio",
            misses > 0 ? static_cast<double>(disk.size()) / misses : 0.0,
            "ratio");

    // Cross-check the client's classes against the daemons' counters.
    // The first daemon's warm recompiles may hit its memory cache too.
    auto mismatch = [&](const char *what, std::uint64_t client,
                        std::uint64_t lo, std::uint64_t hi) {
        if (client < lo || client > hi)
            out.fail(std::string("stats cross-check: ") + what +
                     " client=" + std::to_string(client) + " daemon=" +
                     std::to_string(lo) + ".." + std::to_string(hi));
    };
    // The warm-up compile of the set-up ran on the first daemon.
    mismatch("mem_hits", before.memory,
             tr.before.memHits > tr.before.warm
                 ? tr.before.memHits - tr.before.warm
                 : 0,
             tr.before.memHits);
    mismatch("disk_hits", before.disk, tr.before.diskHits, tr.before.diskHits);
    mismatch("restart mem_hits", after.memory, tr.after.memHits,
             tr.after.memHits);
    mismatch("restart disk_hits", after.disk, tr.after.diskHits,
             tr.after.diskHits);
    mismatch("rejected", before.refused + after.refused,
             tr.before.rejected + tr.after.rejected,
             tr.before.rejected + tr.after.rejected);
    if (tr.before.healed + tr.after.healed != 0)
        out.fail("disk cache healed " +
                 std::to_string(tr.before.healed + tr.after.healed) +
                 " entries (corrupt programs on disk)");
}

/** Replay jobs' ids start here, above every request's (i + 1). */
constexpr std::uint64_t kReplayJobBase = 1'000'000;

/** Served programs replayed, by (item, calibration day): the job id. */
using ReplayJobs = std::map<std::pair<std::size_t, int>, std::uint64_t>;

/**
 * The in-process half of the traced run: every distinct served
 * program goes through the layers the daemon uses around a compile —
 * QASM parse, disk load with verify-on-load, serdes both ways, disk
 * store, QASM emit — under a "daemon.replay" root, and a cold recompile
 * through the service path ("service.job", a root on the pool thread),
 * all under the program's own job id.
 */
ReplayJobs
replayLayers(const Args &args, Traffic &tr, Tracer &tracer, Outcome &out)
{
    daemon::DiskCacheStore disk(args.workDir + "/cache");
    daemon::DiskCacheStore scratch(args.workDir + "/replay-cache");
    const auto topo = std::make_shared<const Topology>(GridTopology::ibmq16());
    CalibrationModel model(*topo, kCalibrationSeed);
    ServiceReplay service(tracer, 1);
    Oracle oracle;
    double frame_bytes = 0.0, frames = 0.0;
    std::uint64_t smt = 0, smt_optimal = 0;
    ReplayJobs jobs;
    std::uint64_t job = kReplayJobBase;
    for (std::size_t i = 0; i < tr.replies.size(); ++i) {
        if (!tr.replies[i].ok)
            continue;
        const int day = tr.replies[i].day;
        if (!jobs.emplace(std::make_pair(tr.reqs[i].item, day), job + 1)
                 .second)
            continue;
        const Item &item = tr.items[tr.reqs[i].item];
        ScopedSpan::setJob(++job);
        Job j;
        j.id = job;
        j.name = item.name;
        j.circuit = std::make_shared<const Circuit>(item.circuit);
        j.topo = topo;
        j.cal = std::make_shared<const Calibration>(model.forDay(day));
        j.options.mapper = item.mapper;
        const service::CacheKey key = cacheKey(item, *topo, *j.cal);
        {
            ScopedSpan root(tracer, "daemon.replay");
            if (item.inlineQasm) {
                ScopedSpan s(tracer, "ir.qasm_parse");
                parseQasm(item.qasm, item.name);
            }
            std::shared_ptr<const CompiledProgram> program;
            {
                ScopedSpan s(tracer, "daemon.disk_load");
                program = disk.load(key);
            }
            if (!program)
                continue; // checkReplies already failed it
            {
                // What verify-on-load adds to a disk hit.
                const Machine machine(*topo, *j.cal);
                ScopedSpan s(tracer, "verify");
                oracle.verify(machine, item.mapper, item.circuit, *program);
            }
            std::string bytes;
            {
                ScopedSpan s(tracer, "daemon.serdes_encode");
                bytes = daemon::serializeCompiledProgram(*program);
            }
            frame_bytes += static_cast<double>(bytes.size());
            frames += 1.0;
            {
                ScopedSpan s(tracer, "daemon.serdes_decode");
                CompiledProgram back;
                daemon::deserializeCompiledProgram(bytes, back);
            }
            {
                ScopedSpan s(tracer, "daemon.disk_store");
                scratch.store(key, *program);
            }
            {
                ScopedSpan s(tracer, "ir.qasm_emit");
                emitQasm(program->hwCircuit(item.circuit.numClbits()));
            }
        }
        const std::vector<JobResult> cold = service.runBatch({j});
        if (item.mapper == MapperKind::RSmtStar && cold[0].program) {
            ++smt;
            smt_optimal += cold[0].program->solverOptimal ? 1 : 0;
        }
    }
    out.set("verify.issues", static_cast<double>(oracle.issues()), "count");
    out.set("daemon.frame_bytes", frames > 0 ? frame_bytes / frames : 0.0,
            "bytes");
    out.set("solver.optimal_ratio",
            smt ? static_cast<double>(smt_optimal) / static_cast<double>(smt)
                : 0.0,
            "ratio");
    out.set("solver.timeouts", static_cast<double>(smt - smt_optimal),
            "count");
    const auto cache = service.cacheStats();
    out.set("service.cache_hit_ratio", cache.hitRate(), "ratio");
    return jobs;
}

/** One replayed program's layer times, by the path a request takes. */
struct PathCost
{
    // Every request: the daemon parses an inline payload, fingerprints
    // the job, looks it up and emits the program's QASM.
    double parse = 0.0, fingerprint = 0.0, lookup = 0.0, emit = 0.0;
    // Disk hits: load (frame check and decode) and verify-on-load.
    double diskLoad = 0.0, verify = 0.0;
    // Cold requests: the compile job past its fingerprint and lookup,
    // and the disk store (encode and write).
    double compile = 0.0, diskStore = 0.0;
};

std::map<std::uint64_t, PathCost>
pathCosts(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, const char *> names;
    for (const Span &s : spans)
        names[s.id] = s.name;
    std::map<std::uint64_t, PathCost> costs;
    for (const Span &s : spans) {
        if (s.job <= kReplayJobBase)
            continue;
        PathCost &c = costs[s.job];
        const double us = s.t1 - s.t0;
        const std::string name = s.name;
        const auto parent = names.find(s.parent);
        const bool top = parent != names.end() &&
                         std::strcmp(parent->second, "daemon.replay") == 0;
        if (name == "ir.qasm_parse")
            c.parse += us;
        else if (name == "ir.qasm_emit")
            c.emit += us;
        else if (name == "service.fingerprint")
            c.fingerprint += us;
        else if (name == "service.cache_lookup")
            c.lookup += us;
        else if (name == "daemon.disk_load")
            c.diskLoad += us;
        else if (name == "verify" && top)
            c.verify += us;
        else if (name == "service.job")
            c.compile += us;
        else if (name == "daemon.disk_store")
            c.diskStore += us;
    }
    for (auto &[job, c] : costs)
        c.compile -= c.fingerprint + c.lookup;
    return costs;
}

/**
 * Split the traced requests' latency (each "daemon.request" span, sent
 * to reply) into the ping floor, the replayed layers on each request's
 * path and an unattributed remainder (queue and thread hand-offs inside
 * naqcd, and whatever the replay runs faster or slower than the
 * daemon). The rows add up to trace.job_us.
 */
void
attributeLatency(const Tracer &tracer, const Traffic &tr,
                 const ReplayJobs &jobs, Outcome &out)
{
    const std::vector<Span> spans = tracer.spans();
    const std::map<std::uint64_t, PathCost> costs = pathCosts(spans);
    std::unordered_map<std::uint64_t, double> request_us;
    for (const Span &s : spans)
        if (std::strcmp(s.name, "daemon.request") == 0)
            request_us[s.job] = s.t1 - s.t0;
    const double ping = median(tr.pingUs);

    struct ClassSum
    {
        double n = 0.0, latency = 0.0, layers = 0.0;
    };
    std::map<std::string, double> rows; // summed over requests
    std::map<std::string, ClassSum> classes;
    double n = 0.0, total = 0.0;
    for (std::size_t i = 0; i < tr.replies.size(); ++i) {
        const Reply &rep = tr.replies[i];
        const auto r = request_us.find(i + 1);
        if (!rep.ok || r == request_us.end())
            continue;
        PathCost c;
        const auto j = jobs.find(std::make_pair(tr.reqs[i].item, rep.day));
        if (j != jobs.end() && costs.count(j->second))
            c = costs.at(j->second);
        std::vector<std::pair<std::string, double>> parts = {
            {"daemon.ping (floor)", ping},
            {"ir.qasm_parse", c.parse},
            {"service.fingerprint", c.fingerprint},
            {"service.cache_lookup", c.lookup},
            {"ir.qasm_emit", c.emit}};
        std::string cls = "memhit";
        if (rep.cache == "disk") {
            cls = "diskhit";
            parts.push_back({"daemon.disk_load", c.diskLoad});
            parts.push_back({"verify (on load)", c.verify});
        } else if (rep.cache != "memory") {
            cls = "cold";
            parts.push_back({"service.job (compile)", c.compile});
            parts.push_back({"daemon.disk_store", c.diskStore});
        }
        ClassSum &sum = classes[cls];
        for (const auto &[row, us] : parts) {
            rows[row] += us;
            sum.layers += us;
        }
        sum.n += 1.0;
        sum.latency += r->second;
        n += 1.0;
        total += r->second;
    }
    if (n == 0.0)
        return;
    double attributed = 0.0;
    for (const auto &[row, us] : rows)
        attributed += us / n;
    const double job_us = total / n;
    out.set("trace.job_us", job_us, "us");
    out.set("trace.unattributed_us", job_us - attributed, "us");
    out.set("trace.overhead_pct", 100.0 * spanCostUs() / job_us, "%");

    std::ostringstream table;
    table << "traced latency per request, sent to reply (" << n
          << " requests, " << job_us << " us each; the rows add up to it):";
    for (const auto &[row, us] : rows)
        table << "\n  " << row << ": " << us / n << " us/request";
    table << "\n  unattributed: " << job_us - attributed << " us/request";
    for (const auto &[cls, sum] : classes)
        table << "\n  " << cls << ": n=" << sum.n << ", "
              << sum.latency / sum.n << " us = layers "
              << sum.layers / sum.n << " + unattributed "
              << (sum.latency - sum.layers) / sum.n;
    out.notes.push_back(table.str());
}

} // namespace

Outcome
runDaemonMix(const Args &args)
{
    Outcome out;
    Tracer tracer;
    tracer.enabled = args.trace;
    Traffic tr = runTraffic(args, out, tracer);
    if (!tr.started)
        return out;
    std::vector<double> psuccess, duration;
    checkReplies(args, tr, out, psuccess, duration);
    summarize(tr, out);
    out.set("psuccess_geomean", geomean(psuccess), "prob");
    out.set("duration_geomean", geomean(duration), "timeslots");
    out.set("peak_rss_mb", tr.peakRssMb, "MB");
    if (args.trace) {
        const ReplayJobs jobs = replayLayers(args, tr, tracer, out);
        tracer.enabled = false;
        setLayerMetrics(tracer.layerTimes(), out);
        attributeLatency(tracer, tr, jobs, out);
        writeTrace(args, tracer, out);
    }
    return out;
}

} // namespace perfbench
