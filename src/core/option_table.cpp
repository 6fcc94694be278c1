#include "option_table.hpp"

#include <algorithm>
#include <sstream>

#include "support/cli.hpp"

namespace qc {

namespace {

/**
 * A comma-separated bundle list ("greedye,sabre,rsmt*") with
 * mapperKindFromName's lenient matching; an unknown name, a duplicate
 * kind or an empty list is an error.
 */
std::vector<MapperKind>
parsePortfolioBundles(const std::string &text)
{
    std::vector<MapperKind> out;
    std::stringstream ss(text);
    std::string token;
    while (std::getline(ss, token, ',')) {
        const auto first = token.find_first_not_of(" \t");
        const auto last = token.find_last_not_of(" \t");
        if (first == std::string::npos)
            QC_FATAL("empty bundle name in portfolio list '", text,
                     "'");
        token = token.substr(first, last - first + 1);
        const MapperKind k = mapperKindFromName(token);
        for (MapperKind seen : out)
            if (seen == k)
                QC_FATAL("duplicate bundle '", mapperKindName(k),
                         "' in portfolio list '", text, "'");
        out.push_back(k);
    }
    if (out.empty())
        QC_FATAL("portfolio list '", text,
                 "' names no bundles (expected e.g. "
                 "'greedye,sabre,rsmt*')");
    return out;
}

} // namespace

const std::vector<CompilerOption> &
compilerOptionTable()
{
    using E = OptionEffect;
    using S = const std::string &;
    static const std::vector<CompilerOption> table = {
        {"mapper", "NAME", nullptr, "R-SMT*", E::Semantic,
         "Qiskit | T-SMT | T-SMT* | R-SMT* | GreedyV* |\n"
         "GreedyE* | GreedyE*+track | Sabre (case-insensitive;\n"
         "aliases like 'rsmt*' or 'track' work)",
         [](CompilerOptions &o, S, S v) {
             o.mapper = mapperKindFromName(v);
         }},
        {"omega", "W", nullptr, "0.5", E::Semantic,
         "Eq. 12 readout weight for R-SMT*, in [0, 1]",
         [](CompilerOptions &o, S k, S v) {
             o.readoutWeight = cli::parseDoubleFlag(k, v, 0.0, 1.0);
         }},
        {"timeout", "MS", nullptr, "60000", E::Semantic,
         "SMT budget in milliseconds",
         [](CompilerOptions &o, S k, S v) {
             o.smtTimeoutMs = cli::parseUnsignedFlag(k, v);
         }},
        {"sabre_iterations", "N", nullptr, "3", E::Semantic,
         "Sabre refinement round trips (>= 0)",
         [](CompilerOptions &o, S k, S v) {
             o.sabreIterations = cli::parseIntFlag(k, v, 0);
         }},
        {"sabre_lookahead", "W", nullptr, "20", E::Semantic,
         "Sabre lookahead window in CNOTs (>= 0)",
         [](CompilerOptions &o, S k, S v) {
             o.sabreLookahead = cli::parseIntFlag(k, v, 0);
         }},
        {"portfolio", "K1,K2", "all", "off", E::Semantic,
         "race mapper bundles concurrently and keep the best\n"
         "predicted success (bare flag or all: every bundle;\n"
         "off: no race)",
         [](CompilerOptions &o, S, S v) {
             // The protocol turns a bare `portfolio` into "1".
             const bool on = v != "off" && v != "0";
             o.portfolio.bundles = on && v != "all" && v != "1"
                                       ? parsePortfolioBundles(v)
                                       : std::vector<MapperKind>{};
             o.portfolio.enabled = on;
         }},
        {"portfolio_deadline_ms", "MS", nullptr, "10000",
         E::RaceSemantic,
         "cap each SMT bundle's solver budget in the race\n"
         "(0 = keep the SMT budget)",
         [](CompilerOptions &o, S k, S v) {
             o.portfolio.deadlineMs = cli::parseUnsignedFlag(k, v);
         }},
        {"verify", "0|1", "1", "0", E::ExecutionOnly,
         "run the translation validator on every compiled\n"
         "program (naqc exits 4 with a lint report on a\n"
         "violation)",
         [](CompilerOptions &o, S k, S v) {
             o.verify = cli::parseIntFlag(k, v, 0, 1) != 0;
         }},
    };
    return table;
}

std::string
compilerOptionFlag(const CompilerOption &option)
{
    std::string flag = std::string("--") + option.key;
    std::replace(flag.begin(), flag.end(), '_', '-');
    return flag;
}

void
applyCompilerOption(CompilerOptions &options, const std::string &key,
                    const std::string &value)
{
    for (const CompilerOption &option : compilerOptionTable()) {
        if (key != option.key)
            continue;
        try {
            return option.set(options, compilerOptionFlag(option), value);
        } catch (const FatalError &e) {
            throw cli::UsageError(e.what());
        }
    }
    throw cli::UsageError("unknown-key:" + key);
}

bool
matchCompilerOptionFlag(const std::string &arg,
                        const std::function<std::string()> &next,
                        std::string &key, std::string &value)
{
    const std::size_t eq = arg.find('=');
    for (const CompilerOption &option : compilerOptionTable()) {
        if (arg.compare(0, eq, compilerOptionFlag(option)) != 0)
            continue;
        key = option.key;
        value = eq != std::string::npos ? arg.substr(eq + 1)
                : option.bareValue      ? option.bareValue
                                        : next();
        return true;
    }
    return false;
}

std::string
compilerOptionUsage()
{
    constexpr std::size_t kHelpColumn = 23;
    std::string out;
    for (const CompilerOption &option : compilerOptionTable()) {
        std::string left = "  " + compilerOptionFlag(option) +
                           (option.bareValue
                                ? std::string("[=") + option.valueHint +
                                      "]"
                                : std::string(" ") + option.valueHint);
        if (left.size() < kHelpColumn)
            left.resize(kHelpColumn, ' ');
        else
            left += "\n" + std::string(kHelpColumn, ' ');
        std::string help = option.help;
        help += std::string(" (default ") + option.defaultValue + ")";
        for (std::size_t nl = help.find('\n'); nl != std::string::npos;
             nl = help.find('\n', nl + 1))
            help.insert(nl + 1, kHelpColumn, ' ');
        out += left + help + "\n";
    }
    return out;
}

} // namespace qc
