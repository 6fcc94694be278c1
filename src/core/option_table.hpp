/**
 * @file
 * The compiler option table: the one declaration of each
 * CompilerOptions knob settable from outside the library. naqc and
 * `naqcd submit` set options only through applyCompilerOption;
 * naqc-client forwards every table flag as `key=value` and leaves
 * validation to the daemon. `policy`, `jointScheduling` and
 * `portfolio.maxWorkers` are API-only and have no entry.
 */

#ifndef QC_CORE_OPTION_TABLE_HPP
#define QC_CORE_OPTION_TABLE_HPP

#include <functional>
#include <string>
#include <vector>

#include "core/compiler.hpp"

namespace qc {

/** How an option relates to service::fingerprintOptions. */
enum class OptionEffect {
    Semantic,      ///< steers the program: part of the cache key
    RaceSemantic,  ///< part of the key while the portfolio races
    ExecutionOnly, ///< never changes the program: not in the key
};

/** One option; its CLI flag is "--" + key with '_' turned into '-'. */
struct CompilerOption
{
    const char *key;          ///< protocol key
    const char *valueHint;    ///< usage placeholder ("W", "MS", ...)
    const char *bareValue;    ///< value of the bare flag; null = needed
    const char *defaultValue; ///< CompilerOptions' own default
    OptionEffect effect;
    const char *help;         ///< usage text; '\n' continues a line
    /** Parse `value` into `o`; throws FatalError naming `flag`. */
    void (*set)(CompilerOptions &o, const std::string &flag,
                const std::string &value);
};

/** Every settable option, in usage order. */
const std::vector<CompilerOption> &compilerOptionTable();

/** The CLI flag of `option` ("--portfolio-deadline-ms"). */
std::string compilerOptionFlag(const CompilerOption &option);

/**
 * Set option `key` from its text form. Throws cli::UsageError (exit
 * code 2): "unknown-key:KEY" for a key not in the table, or a
 * diagnostic naming the flag for a malformed or out-of-range value.
 */
void applyCompilerOption(CompilerOptions &options, const std::string &key,
                         const std::string &value);

/**
 * Match one command-line token against the table's flags. "--omega"
 * takes its value from `next`, "--omega=0.3" inline, and a bare
 * "--portfolio" or "--verify" its bareValue. False, leaving `key`
 * and `value` alone, when `arg` is no table flag.
 */
bool matchCompilerOptionFlag(const std::string &arg,
                             const std::function<std::string()> &next,
                             std::string &key, std::string &value);

/** The table's usage lines, one flag per entry. */
std::string compilerOptionUsage();

} // namespace qc

#endif // QC_CORE_OPTION_TABLE_HPP
