#include "passes.hpp"

#include <cmath>
#include <sstream>

#include "mappers/greedy_mapper.hpp"
#include "mappers/qiskit_baseline.hpp"
#include "solver/smt_model.hpp"
#include "support/logging.hpp"

namespace qc::passes {

namespace {

// ------------------------------------------------------------------ //
// Placement
// ------------------------------------------------------------------ //

/** Lexicographic layout + row-first fixed routes (Qiskit 0.5.7). */
class QiskitPlacementPass : public PlacementPass
{
  public:
    std::string name() const override { return "Qiskit"; }

    CompileStatus run(CompileContext &ctx) const override
    {
        const Circuit &prog = ctx.circuit();
        const int n_prog = prog.numQubits();
        const int n_hw = ctx.mach().numQubits();
        if (n_prog > n_hw)
            return CompileStatus::infeasible(
                "program needs " + std::to_string(n_prog) +
                " qubits but machine has " + std::to_string(n_hw));

        ctx.layout = qiskitTrivialLayout(prog);
        ctx.junctions = qiskitRowFirstJunctions(prog);
        ctx.addNote("lexicographic layout, row-first routes");
        return CompileStatus::success();
    }
};

/** GreedyV* placement (paper Sec. 5.1). */
class GreedyVertexPlacementPass : public PlacementPass
{
  public:
    std::string name() const override { return "GreedyV*"; }

    CompileStatus run(CompileContext &ctx) const override
    {
        ctx.layout = greedyVertexPlacement(ctx.mach(), ctx.circuit());
        return CompileStatus::success();
    }
};

/** GreedyE* placement (paper Sec. 5.2). */
class GreedyEdgePlacementPass : public PlacementPass
{
  public:
    std::string name() const override { return "GreedyE*"; }

    CompileStatus run(CompileContext &ctx) const override
    {
        ctx.layout = greedyEdgePlacement(ctx.mach(), ctx.circuit());
        return CompileStatus::success();
    }
};

/** SABRE-refined placement (mappers/sabre_mapper.hpp). */
class SabrePlacementPass : public PlacementPass
{
  public:
    explicit SabrePlacementPass(SabreOptions options) : options_(options)
    {
    }

    std::string name() const override { return "Sabre"; }

    CompileStatus run(CompileContext &ctx) const override
    {
        const Circuit &prog = ctx.circuit();
        const int n_prog = prog.numQubits();
        const int n_hw = ctx.mach().numQubits();
        if (n_prog > n_hw)
            return CompileStatus::infeasible(
                "program needs " + std::to_string(n_prog) +
                " qubits but machine has " + std::to_string(n_hw));

        SabrePlacementResult result =
            sabrePlacementDetailed(ctx.mach(), prog, options_);
        ctx.layout = std::move(result.layout);

        std::ostringstream oss;
        oss << result.roundTrips << " round trips, lookahead "
            << options_.lookahead << ", best pred. success "
            << result.predictedSuccess;
        ctx.addNote(oss.str());
        return CompileStatus::success();
    }

  private:
    SabreOptions options_;
};

/** SMT placement (paper Sec. 4) with the trivial-layout fallback. */
class SmtPlacementPass : public PlacementPass
{
  public:
    explicit SmtPlacementPass(SmtMapperOptions options)
        : options_(effectiveSmtOptions(options))
    {
    }

    std::string name() const override
    {
        return smtMapperDisplayName(options_);
    }

    CompileStatus run(CompileContext &ctx) const override
    {
        const Circuit &prog = ctx.circuit();
        SmtSolution sol = solveSmtMapping(
            ctx.mach(), prog, smtModelOptionsFor(options_, prog));
        ctx.solverOptimal = sol.optimal;
        ctx.solverStatus = sol.status;
        ctx.addNote("z3: " + sol.status +
                    (sol.feasible
                         ? ", objective " + std::to_string(sol.objective)
                         : std::string()));

        if (sol.feasible) {
            ctx.layout = sol.layout;
            ctx.junctions = sol.junctions;
            return CompileStatus::success();
        }

        // No model at all (hard timeout / unsat): fall back to the
        // trivial placement so callers still get a runnable program,
        // but surface the structured status.
        QC_WARN("SMT solve failed (", sol.status, ") for ",
                prog.name(), "; falling back to trivial layout");
        ctx.layout = qiskitTrivialLayout(prog);
        ctx.junctions.clear();
        ctx.degraded = true;

        std::string msg = "SMT solve failed (" + sol.status + ") for " +
                          prog.name() + "; trivial-layout fallback";
        switch (sol.failure) {
          case SmtFailure::Unsat:
            return CompileStatus::infeasible(std::move(msg));
          case SmtFailure::Error:
            return CompileStatus::internalError(std::move(msg));
          case SmtFailure::Timeout:
          case SmtFailure::None:
            return CompileStatus::solverTimeout(std::move(msg));
        }
        QC_PANIC("unknown SMT failure kind");
    }

  private:
    SmtMapperOptions options_;
};

// ------------------------------------------------------------------ //
// Routing
// ------------------------------------------------------------------ //

class RouteSelectionPass : public RoutingPass
{
  public:
    RouteSelectionPass(RoutingPolicy policy, RouteSelect select,
                       bool calibrated_durations)
        : policy_(policy), select_(select),
          calibratedDurations_(calibrated_durations)
    {
    }

    std::string name() const override
    {
        return routingPolicyName(policy_);
    }

    CompileStatus run(CompileContext &ctx) const override
    {
        SchedulerOptions opts;
        opts.policy = policy_;
        opts.calibratedDurations = calibratedDurations_;
        if (policy_ == RoutingPolicy::OneBendPath &&
            !ctx.junctions.empty()) {
            opts.select = RouteSelect::Fixed;
            opts.fixedJunctions = ctx.junctions;
            ctx.addNote("fixed junctions (from placement)");
        } else {
            opts.select = select_;
            ctx.addNote(routeSelectName(select_));
        }
        ctx.schedOptions = std::move(opts);
        return CompileStatus::success();
    }

  private:
    RoutingPolicy policy_;
    RouteSelect select_;
    bool calibratedDurations_;
};

/** No precomputed routes: the tracking scheduler routes live. */
class LiveRoutingPass : public RoutingPass
{
  public:
    std::string name() const override { return "live"; }

    bool routesLive() const override { return true; }

    CompileStatus run(CompileContext &ctx) const override
    {
        ctx.addNote("routes chosen live by the tracking scheduler");
        return CompileStatus::success();
    }
};

// ------------------------------------------------------------------ //
// Scheduling
// ------------------------------------------------------------------ //

class ListSchedulingPass : public SchedulingPass
{
  public:
    std::string name() const override { return "list"; }

    CompileStatus run(CompileContext &ctx) const override
    {
        const Circuit &prog = ctx.circuit();
        // ListScheduler::run validates the layout itself; an invalid
        // placement surfaces as an infeasible status via the runner.
        ListScheduler scheduler(ctx.mach(), ctx.schedOptions);
        ctx.schedule = scheduler.run(prog, ctx.layout);
        ctx.duration = ctx.schedule.makespan;
        ctx.swapCount = ctx.schedule.swapCount();
        ctx.addNote("makespan " + std::to_string(ctx.duration) + ", " +
                    std::to_string(ctx.swapCount) + " swaps");
        return CompileStatus::success();
    }
};

class TrackingSchedulingPass : public SchedulingPass
{
  public:
    explicit TrackingSchedulingPass(TrackingOptions options)
        : options_(options)
    {
    }

    std::string name() const override { return "track"; }

    bool routesLive() const override { return true; }

    CompileStatus run(CompileContext &ctx) const override
    {
        TrackingRouter router(ctx.mach(), options_);
        TrackingResult routed = router.run(ctx.circuit(), ctx.layout);
        ctx.schedule = std::move(routed.schedule);
        ctx.duration = ctx.schedule.makespan;
        ctx.swapCount = routed.swapCount;
        ctx.predictedSuccess = routed.predictedSuccess;
        ctx.logReliability = std::log(routed.predictedSuccess);
        ctx.hasPrediction = true;
        ctx.addNote("makespan " + std::to_string(ctx.duration) + ", " +
                    std::to_string(ctx.swapCount) + " one-way swaps");
        return CompileStatus::success();
    }

  private:
    TrackingOptions options_;
};

// ------------------------------------------------------------------ //
// Prediction
// ------------------------------------------------------------------ //

class ReliabilityPredictionPass : public PredictionPass
{
  public:
    std::string name() const override { return "route-exact"; }

    CompileStatus run(CompileContext &ctx) const override
    {
        if (ctx.hasPrediction) {
            ctx.addNote("inline (tracking scheduler)");
            return CompileStatus::success();
        }

        // A fresh ListScheduler with the same options is
        // deterministic, so chooseRoute answers match the routes the
        // scheduling stage emitted.
        const Machine &machine = ctx.mach();
        const Circuit &prog = ctx.circuit();
        ListScheduler scheduler(machine, ctx.schedOptions);
        RoutePath scratch;
        double log_rel = 0.0;
        for (size_t i = 0; i < prog.size(); ++i) {
            const Gate &g = prog.gate(i);
            if (g.op == Op::CNOT) {
                const RoutePath &r = scheduler.chooseRoute(
                    ctx.layout[g.q0], ctx.layout[g.q1],
                    static_cast<int>(i), scratch);
                log_rel += std::log(r.reliability);
            } else if (g.isMeasure()) {
                log_rel += std::log(
                    machine.cal().readoutReliability(ctx.layout[g.q0]));
            }
        }
        ctx.logReliability = log_rel;
        ctx.predictedSuccess = std::exp(log_rel);

        std::ostringstream oss;
        oss << "pred. success " << ctx.predictedSuccess;
        ctx.addNote(oss.str());
        return CompileStatus::success();
    }
};

} // namespace

std::unique_ptr<PlacementPass>
qiskitBaseline()
{
    return std::make_unique<QiskitPlacementPass>();
}

std::unique_ptr<PlacementPass>
greedyVertex()
{
    return std::make_unique<GreedyVertexPlacementPass>();
}

std::unique_ptr<PlacementPass>
greedyEdge()
{
    return std::make_unique<GreedyEdgePlacementPass>();
}

std::unique_ptr<PlacementPass>
sabrePlacement(SabreOptions options)
{
    return std::make_unique<SabrePlacementPass>(options);
}

std::unique_ptr<PlacementPass>
smt(SmtMapperOptions options)
{
    return std::make_unique<SmtPlacementPass>(options);
}

std::unique_ptr<RoutingPass>
routeSelection(RoutingPolicy policy, RouteSelect select,
               bool calibrated_durations)
{
    return std::make_unique<RouteSelectionPass>(policy, select,
                                                calibrated_durations);
}

std::unique_ptr<RoutingPass>
liveRouting()
{
    return std::make_unique<LiveRoutingPass>();
}

std::unique_ptr<SchedulingPass>
listScheduling()
{
    return std::make_unique<ListSchedulingPass>();
}

std::unique_ptr<SchedulingPass>
trackingScheduling(TrackingOptions options)
{
    return std::make_unique<TrackingSchedulingPass>(options);
}

std::unique_ptr<PredictionPass>
reliabilityPrediction()
{
    return std::make_unique<ReliabilityPredictionPass>();
}

} // namespace qc::passes
