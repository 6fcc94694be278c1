/**
 * @file
 * Tests for the compiler option table (core/option_table.hpp): the
 * strict parse every surface shares (malformed and out-of-range
 * values are usage errors, each valid value sets the field naqc
 * sets), the declared defaults, the derived CLI flags, and one
 * table-driven fingerprint test — every semantic option keys the
 * compile cache, execution-only ones never do, and the option
 * fingerprints stay byte-for-byte what existing disk caches hold.
 */

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/option_table.hpp"
#include "service/fingerprints.hpp"
#include "support/cli.hpp"

namespace qc {
namespace {

using service::fingerprintOptions;

/** Every field of CompilerOptions, for whole-struct comparison. */
bool
sameOptions(const CompilerOptions &a, const CompilerOptions &b)
{
    return a.mapper == b.mapper && a.policy == b.policy &&
           a.readoutWeight == b.readoutWeight &&
           a.smtTimeoutMs == b.smtTimeoutMs &&
           a.jointScheduling == b.jointScheduling &&
           a.sabreIterations == b.sabreIterations &&
           a.sabreLookahead == b.sabreLookahead &&
           a.verify == b.verify &&
           a.portfolio.enabled == b.portfolio.enabled &&
           a.portfolio.bundles == b.portfolio.bundles &&
           a.portfolio.deadlineMs == b.portfolio.deadlineMs &&
           a.portfolio.maxWorkers == b.portfolio.maxWorkers;
}

CompilerOptions
applied(const std::string &key, const std::string &value,
        CompilerOptions base = {})
{
    applyCompilerOption(base, key, value);
    return base;
}

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ---------------------------------------------------------------- //
// Parsing
// ---------------------------------------------------------------- //

TEST(OptionTable, ValidValuesSetTheirField)
{
    using Check = std::function<bool(const CompilerOptions &)>;
    const std::vector<std::tuple<std::string, std::string, Check>> cases =
        {
            {"mapper", "greedye",
             [](auto &o) { return o.mapper == MapperKind::GreedyE; }},
            {"mapper", "R-SMT*",
             [](auto &o) { return o.mapper == MapperKind::RSmtStar; }},
            {"omega", "0.0",
             [](auto &o) { return o.readoutWeight == 0.0; }},
            {"omega", "1", [](auto &o) { return o.readoutWeight == 1.0; }},
            {"omega", "0.25",
             [](auto &o) { return o.readoutWeight == 0.25; }},
            {"timeout", "0", [](auto &o) { return o.smtTimeoutMs == 0; }},
            {"timeout", "4294967295",
             [](auto &o) { return o.smtTimeoutMs == 4294967295u; }},
            {"sabre_iterations", "0",
             [](auto &o) { return o.sabreIterations == 0; }},
            {"sabre_lookahead", "40",
             [](auto &o) { return o.sabreLookahead == 40; }},
            {"portfolio", "all",
             [](auto &o) {
                 return o.portfolio.enabled && o.portfolio.bundles.empty();
             }},
            {"portfolio", "1",
             [](auto &o) {
                 return o.portfolio.enabled && o.portfolio.bundles.empty();
             }},
            {"portfolio", "greedye,sabre",
             [](auto &o) {
                 return o.portfolio.enabled &&
                        o.portfolio.bundles ==
                            std::vector<MapperKind>{MapperKind::GreedyE,
                                                    MapperKind::Sabre};
             }},
            {"portfolio", "off",
             [](auto &o) { return !o.portfolio.enabled; }},
            {"portfolio_deadline_ms", "0",
             [](auto &o) { return o.portfolio.deadlineMs == 0; }},
            {"portfolio_deadline_ms", "4294967295",
             [](auto &o) {
                 return o.portfolio.deadlineMs == 4294967295u;
             }},
            {"verify", "1", [](auto &o) { return o.verify; }},
            {"verify", "0", [](auto &o) { return !o.verify; }},
        };
    for (const auto &[key, value, check] : cases)
        EXPECT_TRUE(check(applied(key, value))) << key << "=" << value;
}

TEST(OptionTable, MalformedAndOutOfRangeValuesAreUsageErrors)
{
    const std::vector<std::pair<std::string, std::string>> probes = {
        {"omega", "banana"},
        {"omega", "7"},
        {"omega", "-3"},
        {"omega", "-0.5"},
        {"omega", "1e300"},
        {"timeout", "-5"},
        {"timeout", "4294967296"},
        {"portfolio_deadline_ms", "4294967296"},
        {"portfolio_deadline_ms", "99999999999999999999"},
        {"portfolio_deadline_ms", "-1"},
        {"sabre_iterations", "-1"},
        {"sabre_iterations", "soon"},
        {"sabre_lookahead", "-1"},
        {"mapper", "nope"},
        {"portfolio", "nope"},
        {"portfolio", ""},
        {"verify", "2"},
        {"verify", "yes"},
    };
    for (const auto &[key, value] : probes) {
        CompilerOptions options;
        try {
            applyCompilerOption(options, key, value);
            ADD_FAILURE() << key << "=" << value << " was accepted";
        } catch (const cli::UsageError &e) {
            EXPECT_EQ(e.exitCode(), 2);
        }
        // A rejected value leaves the options as they were.
        EXPECT_TRUE(sameOptions(options, CompilerOptions{}))
            << key << "=" << value;
    }
    for (const char *key : {"omegaa", "--omega", "policy", "maxWorkers"}) {
        try {
            applied(key, "0");
            ADD_FAILURE() << key << " was accepted";
        } catch (const cli::UsageError &e) {
            EXPECT_EQ(std::string(e.what()), std::string("unknown-key:") + key);
        }
    }
}

TEST(OptionTable, DeclaredDefaultsAreTheStructDefaults)
{
    for (const CompilerOption &option : compilerOptionTable())
        EXPECT_TRUE(sameOptions(applied(option.key, option.defaultValue),
                                CompilerOptions{}))
            << option.key;
}

TEST(OptionTable, DeclaresTheEightSettableOptionsWithDerivedFlags)
{
    std::vector<std::pair<std::string, std::string>> declared;
    for (const CompilerOption &option : compilerOptionTable())
        declared.emplace_back(option.key, compilerOptionFlag(option));
    EXPECT_EQ(declared,
              (std::vector<std::pair<std::string, std::string>>{
                  {"mapper", "--mapper"},
                  {"omega", "--omega"},
                  {"timeout", "--timeout"},
                  {"sabre_iterations", "--sabre-iterations"},
                  {"sabre_lookahead", "--sabre-lookahead"},
                  {"portfolio", "--portfolio"},
                  {"portfolio_deadline_ms", "--portfolio-deadline-ms"},
                  {"verify", "--verify"}}));
}

TEST(OptionTable, MatchesFlagsBareInlineAndSpaced)
{
    std::vector<std::string> argv = {"0.3"};
    auto next = [&argv] {
        std::string v = argv.back();
        argv.pop_back();
        return v;
    };
    std::string key, value;
    ASSERT_TRUE(matchCompilerOptionFlag("--omega", next, key, value));
    EXPECT_EQ(key, "omega");
    EXPECT_EQ(value, "0.3");
    EXPECT_TRUE(argv.empty()); // the value token was consumed

    auto no_next = []() -> std::string {
        ADD_FAILURE() << "bare flag consumed a token";
        return "";
    };
    ASSERT_TRUE(matchCompilerOptionFlag("--portfolio", no_next, key, value));
    EXPECT_EQ(value, "all");
    ASSERT_TRUE(
        matchCompilerOptionFlag("--portfolio=greedye,sabre", no_next, key,
                                value));
    EXPECT_EQ(value, "greedye,sabre");
    ASSERT_TRUE(matchCompilerOptionFlag("--verify", no_next, key, value));
    EXPECT_EQ(key, "verify");
    EXPECT_EQ(value, "1");
    ASSERT_TRUE(matchCompilerOptionFlag("--portfolio-deadline-ms=5",
                                        no_next, key, value));
    EXPECT_EQ(key, "portfolio_deadline_ms");
    EXPECT_EQ(value, "5");

    for (const char *other : {"--verify-mutate", "--sabre_iterations",
                              "--qasm", "omega", "--omega-x"})
        EXPECT_FALSE(matchCompilerOptionFlag(other, no_next, key, value))
            << other;

    const std::string usage = compilerOptionUsage();
    for (const CompilerOption &option : compilerOptionTable())
        EXPECT_NE(usage.find(compilerOptionFlag(option)), std::string::npos)
            << option.key;
}

// ---------------------------------------------------------------- //
// Fingerprints
// ---------------------------------------------------------------- //

/** A non-default sample per table key; every key needs one. */
const std::map<std::string, std::string> kSamples = {
    {"mapper", "greedye"},
    {"omega", "0.25"},
    {"timeout", "1000"},
    {"sabre_iterations", "0"},
    {"sabre_lookahead", "5"},
    {"portfolio", "greedye,sabre"},
    {"portfolio_deadline_ms", "500"},
    {"verify", "1"},
};

TEST(OptionFingerprints, EverySemanticOptionKeysTheCache)
{
    CompilerOptions racing;
    racing.portfolio.enabled = true;
    for (const CompilerOption &option : compilerOptionTable()) {
        ASSERT_EQ(kSamples.count(option.key), 1u)
            << "no sample value for " << option.key;
        const std::string &sample = kSamples.at(option.key);
        const CompilerOptions base =
            option.effect == OptionEffect::RaceSemantic
                ? racing
                : CompilerOptions{};
        const CompilerOptions changed = applied(option.key, sample, base);
        ASSERT_FALSE(sameOptions(base, changed)) << option.key;
        if (option.effect == OptionEffect::ExecutionOnly)
            EXPECT_EQ(fingerprintOptions(base), fingerprintOptions(changed))
                << option.key;
        else
            EXPECT_NE(fingerprintOptions(base), fingerprintOptions(changed))
                << option.key;
        if (option.effect == OptionEffect::RaceSemantic) {
            // Inert knobs of a disabled portfolio must not fragment
            // the single-bundle key space.
            EXPECT_EQ(fingerprintOptions(CompilerOptions{}),
                      fingerprintOptions(applied(option.key, sample)))
                << option.key;
        }
    }

    // API-only fields, by hand.
    CompilerOptions o;
    o.policy = RoutingPolicy::RectangleReservation;
    EXPECT_NE(fingerprintOptions(o), fingerprintOptions({}));
    o = {};
    o.jointScheduling = false;
    EXPECT_NE(fingerprintOptions(o), fingerprintOptions({}));
    o = racing;
    o.portfolio.maxWorkers = 2; // execution knob, not a result knob
    EXPECT_EQ(fingerprintOptions(o), fingerprintOptions(racing));
}

TEST(OptionFingerprints, PortfolioBundleListIsResolved)
{
    // "Empty = all" and the explicit full list compile identically,
    // so they must hash identically.
    CompilerOptions all = applied("portfolio", "all");
    CompilerOptions explicit_all = all;
    explicit_all.portfolio.bundles.assign(std::begin(kAllMapperKinds),
                                          std::end(kAllMapperKinds));
    EXPECT_EQ(fingerprintOptions(all), fingerprintOptions(explicit_all));

    // Inert knobs of a disabled portfolio, including its bundle list.
    CompilerOptions inert;
    inert.portfolio.deadlineMs = 123;
    inert.portfolio.bundles = {MapperKind::Sabre};
    EXPECT_EQ(fingerprintOptions(inert), fingerprintOptions({}));
}

TEST(OptionFingerprints, MatchGoldensOfExistingCaches)
{
    // Captured before the portfolio tie-break knob was removed; the
    // disk cache names entries by these values, so any change here
    // orphans every persisted program.
    CompilerOptions racing;
    racing.portfolio.enabled = true;
    const std::vector<std::pair<CompilerOptions, std::string>> goldens = {
        {{}, "0x626c33c4cd14cf4c"},
        {applied("mapper", "greedye"), "0x248fe2f96d93023e"},
        {applied("omega", "0.25"), "0x5b4e82679d7b055c"},
        {applied("timeout", "1000"), "0x7374a602e60f3223"},
        {applied("sabre_iterations", "0"), "0xd6632f7805528e6f"},
        {applied("sabre_lookahead", "5"), "0xa14ba60e117b6b9d"},
        {applied("verify", "1"), "0x626c33c4cd14cf4c"},
        {racing, "0xccf281c6b8909ec8"},
        {applied("portfolio", "greedye,sabre"), "0x92b73dee131b72e0"},
        {applied("portfolio_deadline_ms", "500", racing),
         "0xeff89a66e9807756"},
    };
    for (const auto &[options, golden] : goldens)
        EXPECT_EQ(hex(fingerprintOptions(options)), golden);

    CompilerOptions o;
    o.policy = RoutingPolicy::RectangleReservation;
    EXPECT_EQ(hex(fingerprintOptions(o)), "0x3e55e79b49225cd9");
    o = {};
    o.jointScheduling = false;
    EXPECT_EQ(hex(fingerprintOptions(o)), "0xaa62d355a4f2638d");
}

} // namespace
} // namespace qc
