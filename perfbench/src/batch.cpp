/**
 * @file
 * daily-table2, the closed-loop batch workload driven through
 * CompileService::compileBatch: many tiny jobs, the paper's daily
 * recompilation.
 */

#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>

#include "service/compile_service.hpp"
#include "workloads/benchmarks.hpp"

namespace perfbench {

using namespace qc;

namespace {

constexpr std::uint64_t kCalibrationSeed = 20190131; // naqc's default
/**
 * Every run completes these leading batches; they feed the digest and
 * the quality figures, so both cover the same jobs however many batches
 * a faster or slower build finishes.
 */
constexpr int kDigestBatches = 2;

/**
 * daily-table2: the 12 Table 2 kernels x 5 heuristic bundles x 10
 * calibration days per batch on the 2x8 grid, in seeded order, plus a
 * seeded 15% of repeats of earlier (kernel, bundle, day) jobs appended
 * so cache reads sit beside cache writes. Each batch moves on to ten
 * new days, as a daily recompilation would.
 *
 * The days are the same for every seed, which orders the jobs and draws
 * the repeats: a calibration costs O(day) to generate, so days drawn
 * from the seed made set-up time depend on the seed (0.02-0.05 s), and
 * the quality figures too (0.043 IQR/median over five seeds).
 *
 * batch(b) generates batch b; b < 0 is the warm-up batch.
 */
class DailyPlan
{
  public:
    static constexpr int kDaysPerBatch = 10;
    /** Picked, not measured: the paper gives no repeat rate. */
    static constexpr int kRepeatPermille = 150;

    explicit DailyPlan(std::uint64_t seed)
        : seed_(seed),
          topo_(std::make_shared<const Topology>(GridTopology::ibmq16())),
          model_(*topo_, kCalibrationSeed)
    {
        for (const Benchmark &b : paperBenchmarks())
            kernels_.push_back(
                {b.name, std::make_shared<const Circuit>(b.circuit),
                 b.expected});
    }

    /** Compile-cache entries the service keeps. */
    static constexpr std::size_t kCacheCapacity = 4096;

    std::vector<Job> batch(int b)
    {
        // The warm-up batch (b = -1) takes the ten days before batch 0.
        const int day0 = (b + 1) * kDaysPerBatch;
        std::mt19937_64 rng(seed_ * 7919 + static_cast<unsigned>(b + 1));
        std::vector<Job> jobs;
        for (int d = 0; d < kDaysPerBatch; ++d) {
            auto cal = std::make_shared<const Calibration>(
                model_.forDay(day0 + d));
            for (const Kernel &k : kernels_)
                for (MapperKind kind : kBundles) {
                    Job job;
                    job.name = k.name;
                    job.circuit = k.circuit;
                    job.topo = topo_;
                    job.cal = cal;
                    job.options.mapper = kind;
                    job.expected = k.expected;
                    jobs.push_back(std::move(job));
                }
        }
        std::shuffle(jobs.begin(), jobs.end(), rng);
        const std::size_t base = jobs.size();
        const std::size_t repeats = base * kRepeatPermille / 1000;
        std::uniform_int_distribution<std::size_t> pick(0, base - 1);
        for (std::size_t r = 0; r < repeats; ++r) {
            Job copy = jobs[pick(rng)];
            copy.repeat = true;
            jobs.push_back(std::move(copy));
        }
        for (std::size_t i = 0; i < jobs.size(); ++i)
            jobs[i].id = nextId_++;
        return jobs;
    }

  private:
    static constexpr MapperKind kBundles[] = {
        MapperKind::Qiskit, MapperKind::GreedyV, MapperKind::GreedyE,
        MapperKind::GreedyETrack, MapperKind::Sabre};

    struct Kernel
    {
        std::string name;
        std::shared_ptr<const Circuit> circuit;
        std::string expected;
    };

    std::uint64_t seed_;
    std::shared_ptr<const Topology> topo_;
    CalibrationModel model_;
    std::vector<Kernel> kernels_;
    std::uint64_t nextId_ = 1;
};

std::vector<service::CompileRequest>
toRequests(const std::vector<Job> &jobs)
{
    std::vector<service::CompileRequest> requests;
    requests.reserve(jobs.size());
    for (const Job &job : jobs) {
        service::CompileRequest req;
        req.tag = job.name;
        req.circuit = *job.circuit;
        req.topo = *job.topo;
        req.cal = *job.cal;
        req.options = job.options;
        requests.push_back(std::move(req));
    }
    return requests;
}

/** Oracle checks and quality figures over one batch's outputs. */
struct BatchChecker
{
    Oracle oracle;
    std::vector<double> logPsuccess; ///< predicted success, in logs
    std::vector<double> duration;
    std::uint64_t digest = kFnvBasis;
    int batch = 0; ///< index of the batch being checked

    /** Verifier calls get a "verify" span when `tracer` is on. */
    void check(const Job &job, const JobResult &r, Tracer &tracer,
               Outcome &out)
    {
        ++out.attempted;
        if (!r.ok || !r.program) {
            out.fail(job.name + ": no program");
            return;
        }
        const CompiledProgram &p = *r.program;
        std::shared_ptr<const Machine> machine = r.machine;
        if (!machine)
            machine = std::make_shared<const Machine>(*job.topo, *job.cal);
        int issues = 0;
        {
            ScopedSpan span(tracer, "verify");
            issues = oracle.verify(*machine, job.options.mapper,
                                   *job.circuit, p);
        }
        if (issues > 0) {
            out.fail(job.name + " [" + p.mapperName +
                     "]: verifier issues");
            return;
        }
        const std::uint64_t d = programDigest(p);
        if (!job.expected.empty() &&
            !oracle.simulate(p.hwCircuit(job.circuit->numClbits()),
                             job.expected, d)) {
            out.fail(job.name + " [" + p.mapperName + "]: wrong answer");
            return;
        }
        if (batch >= kDigestBatches)
            return;
        digest = fnv1a(hex64(d), digest);
        if (!job.repeat) {
            logPsuccess.push_back(p.logReliability);
            duration.push_back(static_cast<double>(p.duration));
        }
    }
};

void
finishQuality(const Args &args, BatchChecker &checker, Outcome &out)
{
    // exp(mean log): a 3000-gate program's success underflows a double.
    double mean_log = 0.0;
    for (double l : checker.logPsuccess)
        mean_log += l / static_cast<double>(checker.logPsuccess.size());
    out.set("psuccess_geomean", std::exp(mean_log), "prob");
    out.set("duration_geomean", geomean(checker.duration), "timeslots");
    out.notes.push_back("digest(first " + std::to_string(kDigestBatches) +
                        " batches) " + hex64(checker.digest));
    const std::string diff = checkDigest(args, checker.digest);
    if (!diff.empty())
        out.notes.push_back("NOTE " + diff);
}

/**
 * Compile the digest batches again on a fresh service and fail the run
 * unless their digest matches the measured run's: two runs of the same
 * inputs must give the same programs.
 */
void
checkDeterminism(DailyPlan &plan, const BatchChecker &checker, Outcome &out)
{
    service::ServiceOptions so;
    so.threads = kWorkers;
    so.cacheCapacity = DailyPlan::kCacheCapacity;
    service::CompileService again(so);
    std::uint64_t digest = kFnvBasis;
    for (int b = 0; b < kDigestBatches; ++b)
        for (const service::CompileResult &r :
             again.compileBatch(toRequests(plan.batch(b))).results)
            digest = fnv1a(hex64(r.program ? programDigest(*r.program) : 0),
                           digest);
    if (digest != checker.digest)
        out.fail("determinism: a second compile of the first " +
                 std::to_string(kDigestBatches) + " batches gave digest " +
                 hex64(digest) + ", the run " + hex64(checker.digest));
}

/** Per-job latency and throughput over the measured batches. */
void
reportLatency(const std::vector<std::vector<double>> &batches,
              const std::vector<double> &batch_wall_us, Outcome &out)
{
    std::vector<double> all;
    for (const std::vector<double> &b : batches)
        all.insert(all.end(), b.begin(), b.end());
    const Tail tail = windowedTail(all);
    // Throughput is the median over batches: a burst of CPU steal on a
    // shared host slows a few batches, not the typical one.
    std::vector<double> rates;
    double wall_us = 0.0;
    for (std::size_t i = 0; i < batches.size(); ++i) {
        rates.push_back(static_cast<double>(batches[i].size()) /
                        (batch_wall_us[i] / 1e6));
        wall_us += batch_wall_us[i];
    }
    out.set("jobs_per_s", median(rates), "1/s");
    out.set("latency_p50_us", median(all), "us");
    out.set("latency_tail_us", tail.value, "us");
    std::ostringstream oss;
    oss << "latency: n=" << all.size() << " p50=" << median(all)
        << " us, p99=" << percentile(all, 99) << " us; tail (median over "
        << "windows of 200 jobs) p" << tail.percentile << " " << tail.value
        << " us; " << all.size() / (wall_us / 1e6)
        << " jobs/s over the timed wall of " << wall_us / 1e6 << " s";
    out.notes.push_back(oss.str());
}

Outcome
runUntraced(const Args &args)
{
    Outcome out;
    std::unique_ptr<DailyPlan> plan;
    std::unique_ptr<service::CompileService> service;
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
        service.reset();
        const double t0 = nowUs();
        plan = std::make_unique<DailyPlan>(args.seed);
        service::ServiceOptions so;
        so.threads = kWorkers;
        so.cacheCapacity = DailyPlan::kCacheCapacity;
        service = std::make_unique<service::CompileService>(so);
        service->compileBatch(toRequests(plan->batch(-1)));
        setups.push_back((nowUs() - t0) / 1e6);
    }
    out.set("setup_s", median(setups), "s");

    BatchChecker checker;
    Tracer untraced;
    std::vector<std::vector<double>> latencies;
    std::size_t jobs_done = 0;
    std::uint64_t hits = 0;
    std::vector<double> batch_wall_us;
    const double start = nowUs();
    for (int b = 0; b < kDigestBatches || nowUs() - start < args.seconds * 1e6;
         ++b) {
        const std::vector<Job> jobs = plan->batch(b);
        checker.batch = b;
        latencies.emplace_back();
        std::vector<service::CompileRequest> requests = toRequests(jobs);
        const double t0 = nowUs();
        service::BatchResult br = service->compileBatch(std::move(requests));
        batch_wall_us.push_back(nowUs() - t0);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const service::CompileResult &cr = br.results[i];
            latencies.back().push_back(cr.seconds * 1e6);
            hits += cr.cacheHit ? 1 : 0;
            JobResult r;
            r.ok = cr.ok && cr.status.ok();
            r.program = cr.program;
            r.machine = cr.machine;
            checker.check(jobs[i], r, untraced, out);
        }
        jobs_done += jobs.size();
    }
    reportLatency(latencies, batch_wall_us, out);
    finishQuality(args, checker, out);
    checkDeterminism(*plan, checker, out);
    out.set("peak_rss_mb", selfPeakRssMb(), "MB");
    out.notes.push_back("cache hits " + std::to_string(hits) + " of " +
                        std::to_string(jobs_done) + " jobs");
    return out;
}

Outcome
runTraced(const Args &args)
{
    Outcome out;
    std::unique_ptr<DailyPlan> plan = std::make_unique<DailyPlan>(args.seed);
    std::vector<std::vector<Job>> batches;
    const std::vector<Job> warmup = plan->batch(-1);

    // Pass 1, tracer off: fixes how many batches fit in half the time
    // and gives the untraced replay latency.
    Tracer off;
    double off_sum = 0.0, off_n = 0.0;
    {
        ServiceReplay replay(off, kWorkers);
        replay.runBatch(warmup);
        const double start = nowUs();
        for (int b = 0;
             b < kDigestBatches || nowUs() - start < args.seconds * 0.5e6;
             ++b) {
            batches.push_back(plan->batch(b));
            for (const JobResult &r : replay.runBatch(batches.back())) {
                off_sum += r.latencyUs;
                off_n += 1.0;
            }
        }
    }

    // Pass 2, tracer on: the same batches on a fresh replay.
    Tracer tracer;
    ServiceReplay replay(tracer, kWorkers);
    replay.runBatch(warmup);
    tracer.enabled = true;
    BatchChecker checker;
    double on_sum = 0.0, on_n = 0.0;
    for (std::size_t b = 0; b < batches.size(); ++b) {
        const std::vector<Job> &jobs = batches[b];
        checker.batch = static_cast<int>(b);
        const std::vector<JobResult> results = replay.runBatch(jobs);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            on_sum += results[i].latencyUs;
            on_n += 1.0;
            ScopedSpan::setJob(jobs[i].id);
            checker.check(jobs[i], results[i], tracer, out);
        }
    }
    tracer.enabled = false;

    reportLayers(tracer, "service.job", out);
    const auto cache = replay.cacheStats();
    out.set("service.cache_hit_ratio", cache.hitRate(), "ratio");
    out.set("service.machine_pool_hit_ratio",
            replay.poolLookups() == 0
                ? 0.0
                : static_cast<double>(replay.poolHits()) /
                      static_cast<double>(replay.poolLookups()),
            "ratio");
    out.set("service.pool_queue_wait_us",
            replay.queueWaitUs() / static_cast<double>(replay.jobs()), "us");
    out.set("verify.issues", static_cast<double>(checker.oracle.issues()),
            "count");
    out.set("trace.overhead_pct",
            off_n == 0.0 || on_n == 0.0
                ? 0.0
                : 100.0 * ((on_sum / on_n) / (off_sum / off_n) - 1.0),
            "%");
    finishQuality(args, checker, out);
    writeTrace(args, tracer, out);
    return out;
}

} // namespace

Outcome
runBatchWorkload(const Args &args)
{
    return args.trace ? runTraced(args) : runUntraced(args);
}

} // namespace perfbench
