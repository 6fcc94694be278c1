#include "portfolio.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <numeric>

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

double
circuitSuccessUpperBound(const Machine &machine, const Circuit &prog)
{
    const auto &topo = machine.topo();
    const auto &cal = machine.cal();

    double best_cnot = 1.0;
    if (topo.numEdges() > 0) {
        best_cnot = 0.0;
        for (int e = 0; e < topo.numEdges(); ++e)
            best_cnot = std::max(best_cnot, cal.cnotReliability(e));
    }
    double best_readout = 1.0;
    if (topo.numQubits() > 0) {
        best_readout = 0.0;
        for (HwQubit h = 0; h < topo.numQubits(); ++h)
            best_readout =
                std::max(best_readout, cal.readoutReliability(h));
    }

    // Same accumulation form and order as both prediction models —
    // exp of a program-order log sum — with every per-gate term
    // replaced by its best-case value (best edge, best readout, zero
    // SWAPs, 1q gates free like the models treat them). Term-by-term
    // domination plus the monotonicity of float addition make this a
    // bound that survives rounding, so comparing a candidate's
    // prediction against it (including for exact equality) is sound.
    double log_ub = 0.0;
    for (size_t i = 0; i < prog.size(); ++i) {
        const Gate &g = prog.gate(i);
        if (g.op == Op::CNOT)
            log_ub += std::log(best_cnot);
        else if (g.isMeasure())
            log_ub += std::log(best_readout);
    }
    return std::exp(log_ub);
}

std::vector<size_t>
PortfolioPass::launchOrder(const std::vector<MapperKind> &bundles)
{
    std::vector<size_t> order(bundles.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&bundles](size_t a, size_t b) {
                         return !isSmtKind(bundles[a]) &&
                                isSmtKind(bundles[b]);
                     });
    return order;
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
PortfolioPass::run(const Circuit &prog, PortfolioExecutor *executor,
                   const CancelToken *cancel) const
{
    const size_t n = bundles_.size();

    PortfolioResult out;
    out.upperBound = circuitSuccessUpperBound(*machine_, prog);
    const double ub = out.upperBound;

    struct Slot
    {
        PipelineResult result;
        CancelToken token;
        bool done = false; ///< guarded by mu until runAll returns
        bool ran = false;  ///< pipeline executed (not skipped)
    };
    std::vector<Slot> slots(n);
    std::mutex mu;

    // Cancelling the race cancels every candidate (the guard also
    // fires immediately when `cancel` is already tripped).
    CancelCallbackGuard fanout(cancel, [&slots] {
        for (Slot &s : slots)
            s.token.requestCancel("portfolio cancelled");
    });

    auto isEligible = [](const PipelineResult &r) {
        return r.hasProgram && r.status.ok() && r.program.solverOptimal;
    };

    // Sound early cancellation: a completed eligible candidate i with
    // prediction p provably beats every unfinished j when p > ub (no
    // mapping can predict above the bound), or when p == ub and i
    // precedes j in bundle order (j can at best tie, then loses the
    // tie-break). Cancelled candidates therefore never change the
    // selected winner — timing decides how much work the losers
    // burn, never who wins.
    auto noteCompletion = [&](size_t i) {
        std::lock_guard<std::mutex> lock(mu);
        slots[i].done = true;
        const PipelineResult &r = slots[i].result;
        if (!isEligible(r))
            return;
        const double p = r.program.predictedSuccess;
        for (size_t j = 0; j < n; ++j) {
            if (j == i || slots[j].done)
                continue;
            if (p > ub || (p == ub && i < j))
                slots[j].token.requestCancel(
                    std::string("outpaced by ") +
                    mapperKindName(bundles_[i]));
        }
    };

    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (size_t idx : launchOrder(bundles_)) {
        tasks.push_back([this, &prog, &slots, &noteCompletion, idx] {
            Slot &s = slots[idx];
            if (s.token.cancelled()) {
                // Skipped before starting — the serial-mode face of
                // early cancellation.
                s.result.status = CompileStatus::cancelled(
                    "cancelled before start: " + s.token.reason());
                s.result.failedStage = "portfolio";
                s.result.program.mapperName =
                    mapperKindName(bundles_[idx]);
                s.result.program.programName = prog.name();
                noteCompletion(idx);
                return;
            }
            s.ran = true;
            s.result = pipelines_[idx].run(prog, &s.token);
            noteCompletion(idx);
        });
    }

    SerialPortfolioExecutor serial;
    PortfolioExecutor &exec =
        executor != nullptr ? *executor
                            : static_cast<PortfolioExecutor &>(serial);
    exec.runAll(std::move(tasks));

    // Selection over the full array in bundle order, after the race:
    // thread timing cannot change the outcome because ineligible
    // candidates never win and cancellation only killed provable
    // losers.
    // On equal predictions the earlier incumbent (bundle order) stays.
    auto better = [](const PipelineResult &a, const PipelineResult &b) {
        return a.program.predictedSuccess > b.program.predictedSuccess;
    };

    int chosen = -1;
    auto selectEligible = [&] {
        chosen = -1;
        for (size_t i = 0; i < n; ++i) {
            if (!isEligible(slots[i].result))
                continue;
            if (chosen < 0 ||
                better(slots[i].result, slots[chosen].result))
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
        PipelineResult &r = slots[static_cast<size_t>(chosen)].result;
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
            if (!slots[i].result.hasProgram)
                continue;
            if (chosen < 0 ||
                better(slots[i].result, slots[chosen].result))
                chosen = static_cast<int>(i);
        }
    }

    out.candidates.resize(n);
    for (size_t i = 0; i < n; ++i) {
        const Slot &s = slots[i];
        PortfolioCandidate &c = out.candidates[i];
        c.kind = bundles_[i];
        c.name = mapperKindName(bundles_[i]);
        c.status = s.result.status;
        c.failedStage = s.result.failedStage;
        c.hasProgram = s.result.hasProgram;
        c.eligible = isEligible(s.result);
        c.cancelled =
            s.result.status.code == CompileStatusCode::Cancelled;
        c.verifyRejected = verifyRejected[i] != 0;
        if (s.result.hasProgram) {
            c.predictedSuccess = s.result.program.predictedSuccess;
            c.duration = s.result.program.duration;
            c.swapCount = s.result.program.swapCount;
        }
        c.seconds = s.result.program.compileSeconds;
        c.stageTraces = s.result.program.stageTraces;
        if (s.ran)
            ++out.launchedCount;
        if (c.cancelled)
            ++out.cancelledCount;
    }

    if (chosen >= 0) {
        out.winnerIndex = chosen;
        out.candidates[chosen].winner = true;
        out.best = std::move(slots[chosen].result);
    } else {
        // Nothing produced a program anywhere; surface the first
        // candidate's failure (bundle order, deterministic).
        out.best = std::move(slots[0].result);
    }
    return out;
}

} // namespace qc
