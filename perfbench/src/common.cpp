#include "common.hpp"

#include <algorithm>
#include <fstream>
#include <future>
#include <sstream>

#include <sys/resource.h>

#include "core/passes.hpp"
#include "service/fingerprints.hpp"
#include "sim/executor.hpp"
#include "support/logging.hpp"
#include "verify/verifier.hpp"

namespace perfbench {

using namespace qc;

void
Outcome::fail(const std::string &why)
{
    ++failed;
    correct = false;
    // Keep the log readable when one defect repeats thousands of times.
    if (failed <= 20)
        notes.push_back("FAIL " + why);
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
programDigest(const CompiledProgram &program)
{
    std::ostringstream oss;
    for (HwQubit q : program.layout)
        oss << q << ',';
    oss << '|' << program.duration << '|' << program.swapCount << '|';
    for (const TimedOp &op : program.schedule.ops)
        oss << static_cast<int>(op.gate.op) << ' ' << op.gate.q0 << ' '
            << op.gate.q1 << ' ' << op.gate.cbit << ' ' << op.start
            << ' ' << op.duration << ';';
    return fnv1a(oss.str());
}

std::string
hex64(std::uint64_t v)
{
    std::ostringstream oss;
    oss << std::hex << v;
    return oss.str();
}

std::string
checkDigest(const Args &args, std::uint64_t digest)
{
    const std::string path = args.workDir + "/../digest-" +
                             args.workload + "-" +
                             std::to_string(args.seed) +
                             (args.trace ? "-trace" : "") + ".txt";
    std::string previous;
    {
        std::ifstream in(path);
        in >> previous;
    }
    std::ofstream(path) << hex64(digest) << "\n";
    if (previous.empty() || previous == hex64(digest))
        return "";
    return "digest " + hex64(digest) + " differs from the previous run's " +
           previous + " (same workload and seed)";
}

bool
routesLive(MapperKind kind)
{
    return kind == MapperKind::GreedyETrack || kind == MapperKind::Sabre;
}

int
Oracle::verify(const Machine &machine, MapperKind kind,
               const Circuit &source, const CompiledProgram &program)
{
    VerifyOptions opts;
    opts.expectRestoredLayout = !routesLive(kind);
    const VerifyReport report =
        ProgramVerifier(machine, opts).verify(source, program);
    const int n = report.errorCount() + report.warningCount();
    issues_ += static_cast<std::uint64_t>(n);
    return n;
}

std::string
compactIdealOutcome(const Circuit &hw)
{
    std::vector<int> slot(static_cast<size_t>(hw.numQubits()), -1);
    int used = 0;
    for (const Gate &g : hw.gates())
        for (int q : {g.q0, g.q1})
            if (q >= 0 && slot[static_cast<size_t>(q)] < 0)
                slot[static_cast<size_t>(q)] = used++;
    Circuit compact(hw.name(), std::max(used, 1), hw.numClbits());
    for (Gate g : hw.gates()) {
        if (g.q0 >= 0)
            g.q0 = slot[static_cast<size_t>(g.q0)];
        if (g.q1 >= 0)
            g.q1 = slot[static_cast<size_t>(g.q1)];
        compact.add(g);
    }
    return idealOutcome(compact);
}

bool
Oracle::simulate(const Circuit &hw, const std::string &expected,
                 std::uint64_t digest)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = simulated_.find(digest);
        if (it != simulated_.end())
            return it->second;
    }
    bool ok = false;
    try {
        ok = compactIdealOutcome(hw) == expected;
    } catch (const std::exception &) {
        ok = false; // no deterministic outcome: a wrong answer
    }
    std::lock_guard<std::mutex> lock(mu_);
    simulated_[digest] = ok;
    return ok;
}

const char *
stageLayer(const std::string &stage, MapperKind kind)
{
    if (stage == "placement") {
        switch (kind) {
          case MapperKind::Qiskit: return "mappers.qiskit";
          case MapperKind::GreedyV: return "mappers.greedyv";
          case MapperKind::GreedyE:
          case MapperKind::GreedyETrack: return "mappers.greedye";
          case MapperKind::Sabre: return "mappers.sabre";
          case MapperKind::TSmt: return "solver.tsmt";
          case MapperKind::TSmtStar: return "solver.tsmtstar";
          case MapperKind::RSmtStar: return "solver.rsmtstar";
        }
    }
    if (stage == "routing")
        return "route.select";
    if (stage == "scheduling")
        return routesLive(kind) ? "sched.track" : "sched.list";
    if (stage == "prediction")
        return "core.prediction";
    return "verify"; // the pipeline's own verification stage
}

bool
tracedPipeline(Tracer &tracer, const Pipeline &pipeline, MapperKind kind,
               const Circuit &circuit, CompiledProgram &out,
               CompileStatus &status)
{
    CompileContext ctx;
    ctx.prog = &circuit;
    ctx.machine = pipeline.machineSnapshot();
    status = CompileStatus::success();
    for (const auto &pass : pipeline.stages()) {
        CompileStatus st;
        {
            ScopedSpan span(tracer, stageLayer(pass->stage(), kind));
            try {
                st = pass->run(ctx);
            } catch (const FatalError &e) {
                st = CompileStatus::infeasible(e.what());
                ctx.degraded = false;
            } catch (const std::exception &e) {
                st = CompileStatus::internalError(e.what());
                ctx.degraded = false;
            }
        }
        ctx.note.clear();
        if (!st.ok()) {
            if (!ctx.degraded) {
                status = st;
                return false;
            }
            if (status.ok())
                status = st;
            ctx.degraded = false;
        }
    }
    out.mapperName = pipeline.name();
    out.programName = circuit.name();
    out.layout = std::move(ctx.layout);
    out.junctions = ctx.schedOptions.fixedJunctions;
    out.schedule = std::move(ctx.schedule);
    out.duration = ctx.duration;
    out.swapCount = ctx.swapCount;
    out.logReliability = ctx.logReliability;
    out.predictedSuccess = ctx.predictedSuccess;
    out.solverOptimal = ctx.solverOptimal;
    out.solverStatus = ctx.solverStatus;
    return true;
}

ServiceReplay::ServiceReplay(Tracer &tracer, int threads)
    : tracer_(tracer), machines_(64), cache_(4096), pool_(threads)
{
}

std::vector<JobResult>
ServiceReplay::runBatch(const std::vector<Job> &jobs)
{
    std::vector<std::future<JobResult>> futures;
    futures.reserve(jobs.size());
    for (const Job &job : jobs) {
        const double submitted = nowUs();
        futures.push_back(pool_.submit(
            [this, &job, submitted] { return runOne(job, submitted); }));
    }
    std::vector<JobResult> results;
    results.reserve(jobs.size());
    for (auto &f : futures)
        results.push_back(f.get());
    return results;
}

JobResult
ServiceReplay::runOne(const Job &job, double submittedUs)
{
    const double start = nowUs();
    {
        std::lock_guard<std::mutex> lock(mu_);
        queueWaitUs_ += start - submittedUs;
        ++jobs_;
    }
    ScopedSpan::setJob(job.id);
    JobResult result;
    {
        ScopedSpan root(tracer_, "service.job");
        service::CacheKey key;
        {
            ScopedSpan s(tracer_, "service.fingerprint");
            key.circuit = service::fingerprintCircuit(*job.circuit);
            key.calibration = service::machineKey(*job.topo, *job.cal);
            key.options = service::fingerprintOptions(job.options);
        }
        {
            ScopedSpan s(tracer_, "service.cache_lookup");
            result.program = cache_.lookup(key);
        }
        if (result.program) {
            result.ok = result.cacheHit = true;
            ScopedSpan s(tracer_, "service.machine_pool");
            result.machine = machines_.tryAcquire(*job.topo, *job.cal);
        } else {
            {
                ScopedSpan s(tracer_, "service.machine_pool");
                result.machine =
                    machines_.tryAcquire(*job.topo, *job.cal);
            }
            ++poolLookups_;
            if (result.machine) {
                ++poolHits_;
            } else {
                ScopedSpan s(tracer_, "machine.build");
                result.machine = machines_.acquire(*job.topo, *job.cal);
            }
            auto program = std::make_shared<CompiledProgram>();
            CompileStatus status;
            bool produced = false;
            {
                ScopedSpan s(tracer_, "core.pipeline");
                Pipeline pipeline =
                    standardPipeline(result.machine, job.options);
                produced = tracedPipeline(tracer_, pipeline,
                                          job.options.mapper,
                                          *job.circuit, *program,
                                          status);
            }
            if (produced && status.ok()) {
                ScopedSpan s(tracer_, "service.cache_insert");
                cache_.insert(key, program);
            }
            result.ok = produced;
            result.program = std::move(program);
        }
    }
    result.latencyUs = nowUs() - start;
    return result;
}

void
setLayerMetrics(const std::map<std::string, LayerTime> &layers, Outcome &out)
{
    // Spans that only wrap other layers report their self time.
    const std::map<std::string, std::string> renamed = {
        {"verify", "verify.us"},
        {"core.pipeline", "core.pipeline_self_us"},
        {"service.job", "service.job_self_us"},
    };
    for (const auto &[name, l] : layers) {
        auto r = renamed.find(name);
        out.set(r == renamed.end() ? name + "_us" : r->second, l.perCallUs(),
                "us");
    }
}

void
reportLayers(const Tracer &tracer, const std::string &root, Outcome &out)
{
    setLayerMetrics(tracer.layerTimes(), out);

    // Split the spans into those inside a root's tree and the rest (the
    // oracle, which runs outside the timed jobs).
    const std::vector<Span> all = tracer.spans();
    std::unordered_map<std::uint64_t, const Span *> by_id;
    std::unordered_map<std::uint64_t, double> child_us;
    for (const Span &s : all) {
        by_id[s.id] = &s;
        if (s.parent != 0)
            child_us[s.parent] += s.t1 - s.t0;
    }
    auto in_job = [&](const Span &s) {
        const Span *p = &s;
        while (p && root != p->name) {
            auto it = by_id.find(p->parent);
            p = it == by_id.end() ? nullptr : it->second;
        }
        return p != nullptr;
    };
    double jobs = 0.0, job_total = 0.0, root_self = 0.0;
    std::map<std::string, LayerTime> inside, outside;
    for (const Span &s : all) {
        const double dur = s.t1 - s.t0;
        auto c = child_us.find(s.id);
        const double self = dur - (c == child_us.end() ? 0.0 : c->second);
        if (root == s.name) {
            jobs += 1.0;
            job_total += dur;
            root_self += self;
            continue;
        }
        LayerTime &l = (in_job(s) ? inside : outside)[s.name];
        ++l.calls;
        l.selfUs += self;
        l.totalUs += dur;
    }
    const double job_us = jobs == 0.0 ? 0.0 : job_total / jobs;
    const double unattributed = jobs == 0.0 ? 0.0 : root_self / jobs;
    out.set("trace.job_us", job_us, "us");
    out.set("trace.unattributed_us", unattributed, "us");

    std::ostringstream table;
    table << "traced self time per job, root '" << root << "' (" << jobs
          << " jobs, " << job_us << " us each; the rows add up to it):";
    for (const auto &[name, l] : inside)
        table << "\n  " << name << ": " << l.calls << " calls, "
              << l.perCallUs() << " us/call, "
              << (jobs > 0.0 ? l.selfUs / jobs : 0.0) << " us/job";
    table << "\n  unattributed (root self): " << unattributed << " us/job";
    for (const auto &[name, l] : outside)
        table << "\n  outside the jobs: " << name << ": " << l.calls
              << " calls, " << l.perCallUs() << " us/call";
    out.notes.push_back(table.str());
}

} // namespace perfbench
