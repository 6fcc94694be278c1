#include "portfolio.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace qc {

namespace {

/** Bundles backed by a Z3 solve (expensive, deadline-capped). */
bool
isSmtKind(MapperKind k)
{
    return k == MapperKind::TSmt || k == MapperKind::TSmtStar ||
           k == MapperKind::RSmtStar;
}

} // namespace

void
SerialPortfolioExecutor::runAll(std::vector<std::function<void()>> tasks)
{
    for (auto &task : tasks)
        task();
}

PortfolioPass::PortfolioPass(std::shared_ptr<const Machine> machine,
                             CompilerOptions options)
    : machine_(std::move(machine)), options_(options),
      bundles_(resolvedPortfolioBundles(options.portfolio))
{
    QC_ASSERT(machine_ != nullptr, "portfolio needs a machine snapshot");
    QC_ASSERT(!bundles_.empty(), "portfolio needs at least one bundle");

    const unsigned deadline = options_.portfolio.deadlineMs;
    pipelines_.reserve(bundles_.size());
    for (MapperKind kind : bundles_) {
        CompilerOptions candidate = options_;
        candidate.mapper = kind;
        // Candidates are plain single bundles; a nested portfolio
        // would recurse forever.
        candidate.portfolio = PortfolioOptions{};
        // The deadline is enforced through the solver's own budget so
        // serial and pooled races see identical SMT semantics.
        if (isSmtKind(kind) && deadline > 0)
            candidate.smtTimeoutMs =
                std::min(candidate.smtTimeoutMs, deadline);
        pipelines_.push_back(standardPipeline(machine_, candidate));
    }
}

PortfolioResult
PortfolioPass::run(const Circuit &prog, PortfolioExecutor *executor) const
{
    const size_t n = bundles_.size();
    PortfolioResult out;

    // One result slot per bundle; each closure writes only its own.
    std::vector<PipelineResult> slots(n);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (size_t idx = 0; idx < n; ++idx)
        tasks.push_back([this, &prog, &slots, idx] {
            slots[idx] = pipelines_[idx].run(prog);
        });

    SerialPortfolioExecutor serial;
    PortfolioExecutor &exec =
        executor != nullptr ? *executor
                            : static_cast<PortfolioExecutor &>(serial);
    exec.runAll(std::move(tasks));

    auto isEligible = [](const PipelineResult &r) {
        return r.hasProgram && r.status.ok() && r.program.solverOptimal;
    };

    // Selection over the full array in bundle order, after the race:
    // thread timing cannot change the outcome because every candidate
    // runs to completion and eligibility is timing-free. On equal
    // predictions the earlier incumbent (bundle order) stays.
    auto better = [](const PipelineResult &a, const PipelineResult &b) {
        return a.program.predictedSuccess > b.program.predictedSuccess;
    };

    int chosen = -1;
    auto selectEligible = [&] {
        chosen = -1;
        for (size_t i = 0; i < n; ++i) {
            if (!isEligible(slots[i]))
                continue;
            if (chosen < 0 ||
                better(slots[i], slots[chosen]))
                chosen = static_cast<int>(i);
        }
    };
    selectEligible();

    // Winner verification: selection only commits to a program the
    // translation validator accepts. When the candidate's pipeline
    // already verified inline (Debug builds, QC_VERIFY, --verify) a
    // failure made it ineligible above; otherwise verify the winner
    // here, demote it on rejection, and re-select — deterministic,
    // since verification and bundle-order selection both are.
    std::vector<char> verifyRejected(n, 0);
    while (chosen >= 0 &&
           !pipelines_[static_cast<size_t>(chosen)].verifies()) {
        PipelineResult &r = slots[static_cast<size_t>(chosen)];
        VerifyOptions vopts;
        vopts.expectRestoredLayout =
            !pipelines_[static_cast<size_t>(chosen)].routesLive();
        const VerifyReport report =
            ProgramVerifier(*machine_, vopts).verify(prog, r.program);
        if (report.ok())
            break;
        r.status = CompileStatus::verifyFailed(report.toString());
        r.failedStage = "verification";
        verifyRejected[static_cast<size_t>(chosen)] = 1;
        ++out.verifyRejectedCount;
        selectEligible();
    }

    if (chosen < 0) {
        // No eligible candidate: keep the single-bundle degraded
        // contract and return the best program produced at all.
        for (size_t i = 0; i < n; ++i) {
            if (!slots[i].hasProgram)
                continue;
            if (chosen < 0 ||
                better(slots[i], slots[chosen]))
                chosen = static_cast<int>(i);
        }
    }

    out.candidates.resize(n);
    for (size_t i = 0; i < n; ++i) {
        const PipelineResult &r = slots[i];
        PortfolioCandidate &c = out.candidates[i];
        c.kind = bundles_[i];
        c.name = mapperKindName(bundles_[i]);
        c.status = r.status;
        c.failedStage = r.failedStage;
        c.hasProgram = r.hasProgram;
        c.eligible = isEligible(r);
        c.verifyRejected = verifyRejected[i] != 0;
        if (r.hasProgram) {
            c.predictedSuccess = r.program.predictedSuccess;
            c.duration = r.program.duration;
            c.swapCount = r.program.swapCount;
        }
        c.seconds = r.program.compileSeconds;
        c.stageTraces = r.program.stageTraces;
    }

    if (chosen >= 0) {
        out.winnerIndex = chosen;
        out.candidates[chosen].winner = true;
        out.best = std::move(slots[chosen]);
    } else {
        // Nothing produced a program anywhere; surface the first
        // candidate's failure (bundle order, deterministic).
        out.best = std::move(slots[0]);
    }
    return out;
}

PortfolioResult
compileJob(const std::shared_ptr<const Machine> &machine,
           const Circuit &prog, const CompilerOptions &options,
           PortfolioExecutor *executor)
{
    if (options.portfolio.enabled)
        return PortfolioPass(machine, options).run(prog, executor);
    PortfolioResult single;
    single.best = standardPipeline(machine, options).run(prog);
    return single;
}

} // namespace qc
