#include "compiler.hpp"

#include <cctype>

#include "core/passes.hpp"
#include "mappers/greedy_mapper.hpp"
#include "support/logging.hpp"

namespace qc {

const char *
mapperKindName(MapperKind k)
{
    switch (k) {
      case MapperKind::Qiskit: return "Qiskit";
      case MapperKind::TSmt: return "T-SMT";
      case MapperKind::TSmtStar: return "T-SMT*";
      case MapperKind::RSmtStar: return "R-SMT*";
      case MapperKind::GreedyV: return "GreedyV*";
      case MapperKind::GreedyE: return "GreedyE*";
      case MapperKind::GreedyETrack: return "GreedyE*+track";
      case MapperKind::Sabre: return "Sabre";
    }
    QC_PANIC("unknown mapper kind");
}

namespace {

/** Lower-case and strip '-', '_', '+' and whitespace. */
std::string
normalizedMapperName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        if (c == '-' || c == '_' || c == '+' ||
            std::isspace(static_cast<unsigned char>(c)))
            continue;
        out.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    }
    return out;
}

} // namespace

MapperKind
mapperKindFromName(const std::string &name)
{
    // Canonical names (normalized) plus accepted aliases. There is no
    // unstarred R-SMT variant, so "r-smt" means R-SMT*; the bare
    // greedy names mean the starred (calibrated) heuristics.
    static const struct { const char *n; MapperKind k; } table[] = {
        {"qiskit", MapperKind::Qiskit},
        {"baseline", MapperKind::Qiskit},
        {"tsmt", MapperKind::TSmt},
        {"tsmt*", MapperKind::TSmtStar},
        {"rsmt*", MapperKind::RSmtStar},
        {"rsmt", MapperKind::RSmtStar},
        {"greedyv*", MapperKind::GreedyV},
        {"greedyv", MapperKind::GreedyV},
        {"greedye*", MapperKind::GreedyE},
        {"greedye", MapperKind::GreedyE},
        {"greedye*track", MapperKind::GreedyETrack},
        {"greedyetrack", MapperKind::GreedyETrack},
        {"track", MapperKind::GreedyETrack},
        {"sabre", MapperKind::Sabre},
        {"sabretrack", MapperKind::Sabre},
    };
    const std::string norm = normalizedMapperName(name);
    for (const auto &e : table)
        if (norm == e.n)
            return e.k;

    std::string valid;
    for (MapperKind k : kAllMapperKinds) {
        if (!valid.empty())
            valid += ", ";
        valid += mapperKindName(k);
    }
    QC_FATAL("unknown mapper '", name, "' (valid: ", valid,
             "; matching is case-insensitive and ignores '-', '_', "
             "'+' and spaces, e.g. 'rsmt*' or 'r smt*'; aliases: "
             "r-smt -> R-SMT*, greedyv/greedye -> starred "
             "heuristics, track -> GreedyE*+track, sabre+track -> "
             "Sabre)");
}

std::vector<MapperKind>
resolvedPortfolioBundles(const PortfolioOptions &options)
{
    if (!options.bundles.empty())
        return options.bundles;
    return std::vector<MapperKind>(std::begin(kAllMapperKinds),
                                   std::end(kAllMapperKinds));
}

Pipeline
standardPipeline(std::shared_ptr<const Machine> machine,
                 const CompilerOptions &options)
{
    PipelineBuilder builder = Pipeline::forMachine(std::move(machine));
    if (options.verify)
        builder.verification(PipelineVerify::On);
    switch (options.mapper) {
      case MapperKind::Qiskit:
        return builder.placement(passes::qiskitBaseline())
            .routing(passes::routeSelection(RoutingPolicy::OneBendPath,
                                            RouteSelect::BestDuration))
            .build();
      case MapperKind::GreedyV:
      case MapperKind::GreedyE: {
        // The greedy heuristics' "Best Path" routing setup.
        SchedulerOptions greedy = greedySchedulerOptions();
        return builder
            .placement(options.mapper == MapperKind::GreedyV
                           ? passes::greedyVertex()
                           : passes::greedyEdge())
            .routing(passes::routeSelection(greedy.policy,
                                            greedy.select,
                                            greedy.calibratedDurations))
            .build();
      }
      case MapperKind::GreedyETrack:
        return builder.placement(passes::greedyEdge())
            .routing(passes::liveRouting())
            .scheduling(passes::trackingScheduling())
            .named("GreedyE*+track")
            .build();
      case MapperKind::Sabre: {
        // Sabre refines its layout against the tracking router's
        // movement model, so the standard bundle schedules with it.
        SabreOptions sabre;
        sabre.iterations = options.sabreIterations;
        sabre.lookahead = options.sabreLookahead;
        return builder.placement(passes::sabrePlacement(sabre))
            .routing(passes::liveRouting())
            .scheduling(passes::trackingScheduling())
            .build();
      }
      case MapperKind::TSmt:
      case MapperKind::TSmtStar:
      case MapperKind::RSmtStar: {
        SmtMapperOptions smt;
        smt.variant = options.mapper == MapperKind::TSmt
                          ? SmtVariant::TSmt
                      : options.mapper == MapperKind::TSmtStar
                          ? SmtVariant::TSmtStar
                          : SmtVariant::RSmtStar;
        smt.policy = options.policy;
        smt.readoutWeight = options.readoutWeight;
        smt.timeoutMs = options.smtTimeoutMs;
        smt.jointScheduling = options.jointScheduling;
        smt = effectiveSmtOptions(smt);
        return builder.placement(passes::smt(smt))
            .routing(passes::routeSelection(
                smt.policy,
                smt.variant == SmtVariant::RSmtStar
                    ? RouteSelect::BestReliability
                    : RouteSelect::BestDuration))
            .named(smtMapperDisplayName(smt))
            .build();
      }
    }
    QC_PANIC("unknown mapper kind");
}

NoiseAdaptiveCompiler::NoiseAdaptiveCompiler(Topology topo,
                                             Calibration cal,
                                             CompilerOptions options)
    : NoiseAdaptiveCompiler(
          std::make_shared<const Machine>(std::move(topo),
                                          std::move(cal)),
          options)
{
}

NoiseAdaptiveCompiler::NoiseAdaptiveCompiler(
    std::shared_ptr<const Machine> machine, CompilerOptions options)
    : machine_(std::move(machine)), options_(options),
      // A null snapshot panics inside PipelineBuilder's constructor.
      pipeline_(standardPipeline(machine_, options_))
{
}

CompiledProgram
NoiseAdaptiveCompiler::compile(const Circuit &prog) const
{
    return pipeline_.compile(prog);
}

PipelineResult
NoiseAdaptiveCompiler::compileWithStatus(const Circuit &prog) const
{
    return pipeline_.run(prog);
}

std::string
NoiseAdaptiveCompiler::compileToQasm(const Circuit &prog) const
{
    CompiledProgram compiled = compile(prog);
    return emitQasm(compiled.hwCircuit(prog.numClbits()));
}

} // namespace qc
