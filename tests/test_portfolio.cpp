/**
 * @file
 * Portfolio-racing tests: bundle-list parsing, deterministic winner
 * selection (serial vs 8-thread bit-identity), service/report
 * integration (the portfolio's cache-key knobs are covered by
 * tests/test_options.cpp), and the ThreadPool nested-submission
 * deadlock guard — the executor regression test wedges forever under
 * a naive submit-and-wait design. The bundle-order tie-break against
 * an SMT bundle is in tests/test_smt_mapper.cpp: this suite runs
 * under ThreadSanitizer, which flags Z3's internal timer locking.
 */

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "core/option_table.hpp"
#include "core/portfolio.hpp"
#include "service/compile_service.hpp"
#include "service/portfolio_executor.hpp"
#include "tests/test_util.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/random_circuits.hpp"

namespace {

using namespace qc;
using qc::service::CompileService;
using qc::service::PoolPortfolioExecutor;
using qc::service::ServiceOptions;
using qc::service::ThreadPool;

/** Cheap heuristic bundles (no SMT): fast enough to race in tests. */
const std::vector<MapperKind> kHeuristics = {
    MapperKind::Qiskit, MapperKind::GreedyV, MapperKind::GreedyE,
    MapperKind::GreedyETrack, MapperKind::Sabre};

CompilerOptions
portfolioOptions(std::vector<MapperKind> bundles,
                 unsigned deadline_ms = 10'000)
{
    CompilerOptions options;
    options.portfolio.enabled = true;
    options.portfolio.bundles = std::move(bundles);
    options.portfolio.deadlineMs = deadline_ms;
    return options;
}

// ---------------------------------------------------------------- //
// Bundle-list parsing (the option table's `portfolio` value)
// ---------------------------------------------------------------- //

std::vector<MapperKind>
parsePortfolioBundles(const std::string &text)
{
    CompilerOptions options;
    applyCompilerOption(options, "portfolio", text);
    return options.portfolio.bundles;
}

TEST(PortfolioParse, LenientNamesAndOrderPreserved)
{
    auto bundles = parsePortfolioBundles("greedye, sabre ,rsmt*");
    ASSERT_EQ(bundles.size(), 3u);
    EXPECT_EQ(bundles[0], MapperKind::GreedyE);
    EXPECT_EQ(bundles[1], MapperKind::Sabre);
    EXPECT_EQ(bundles[2], MapperKind::RSmtStar);
}

TEST(PortfolioParse, RejectsBadInput)
{
    EXPECT_THROW(parsePortfolioBundles("nope"), FatalError);
    EXPECT_THROW(parsePortfolioBundles("sabre,sabre"), FatalError);
    EXPECT_THROW(parsePortfolioBundles(""), FatalError);
    EXPECT_THROW(parsePortfolioBundles("sabre,,greedye"), FatalError);
}

TEST(PortfolioParse, EmptyOptionListMeansEveryBundle)
{
    PortfolioOptions defaults;
    auto all = resolvedPortfolioBundles(defaults);
    ASSERT_EQ(all.size(), std::size(kAllMapperKinds));
    for (size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i], kAllMapperKinds[i]);
}

// ---------------------------------------------------------------- //
// Racing: determinism
// ---------------------------------------------------------------- //

TEST(PortfolioRace, SerialWinnerTiesOrBeatsEverySingleBundle)
{
    auto machine = std::make_shared<const Machine>(test::day0());
    Circuit prog = makeRandomCircuit({5, 64, test::kSeed + 7, true});

    PortfolioPass pass(machine, portfolioOptions(kHeuristics));
    PortfolioResult raced = pass.run(prog);
    ASSERT_TRUE(raced.ok());
    ASSERT_GE(raced.winnerIndex, 0);

    for (MapperKind kind : kHeuristics) {
        CompilerOptions options;
        options.mapper = kind;
        PipelineResult solo =
            standardPipeline(machine, options).run(prog);
        if (!solo.ok() || !solo.program.solverOptimal)
            continue;
        EXPECT_GE(raced.best.program.predictedSuccess,
                  solo.program.predictedSuccess)
            << "portfolio lost to " << mapperKindName(kind);
    }
}

TEST(PortfolioRace, BitIdenticalSerialVsEightThreads)
{
    auto machine = std::make_shared<const Machine>(test::day0());
    ThreadPool pool(8);
    PoolPortfolioExecutor pooled(pool);

    for (int c = 0; c < 3; ++c) {
        Circuit prog =
            makeRandomCircuit({4 + c, 40 + 8 * c,
                               test::kSeed + 100 + c, true});
        PortfolioPass pass(machine, portfolioOptions(kHeuristics));

        PortfolioResult serial = pass.run(prog);          // oracle
        PortfolioResult threaded = pass.run(prog, &pooled);

        ASSERT_TRUE(serial.ok());
        ASSERT_TRUE(threaded.ok());
        EXPECT_EQ(serial.winnerIndex, threaded.winnerIndex);
        EXPECT_EQ(serial.best.program.mapperName,
                  threaded.best.program.mapperName);
        EXPECT_EQ(serial.best.program.predictedSuccess,
                  threaded.best.program.predictedSuccess);
        EXPECT_EQ(serial.best.program.duration,
                  threaded.best.program.duration);
        EXPECT_EQ(serial.best.program.swapCount,
                  threaded.best.program.swapCount);
        EXPECT_EQ(serial.best.program.layout,
                  threaded.best.program.layout);

        // Every candidate must agree bit for bit in both modes
        // (timing decides when a candidate runs, never its output).
        ASSERT_EQ(serial.candidates.size(),
                  threaded.candidates.size());
        for (size_t i = 0; i < serial.candidates.size(); ++i) {
            const PortfolioCandidate &a = serial.candidates[i];
            const PortfolioCandidate &b = threaded.candidates[i];
            EXPECT_EQ(a.predictedSuccess, b.predictedSuccess)
                << a.name;
            EXPECT_EQ(a.duration, b.duration) << a.name;
        }
    }
}

// ---------------------------------------------------------------- //
// Pool executor: nested-submission deadlock guard
// ---------------------------------------------------------------- //

TEST(PoolExecutor, SaturatedPoolCannotWedgeOnNestedWork)
{
    // Two portfolio parents occupy BOTH workers of a 2-thread pool,
    // then each fans out 3 child closures. A naive executor that
    // queues children and blocks on their futures deadlocks here:
    // every worker is a blocked parent and nobody is left to run a
    // child. Help-while-wait parents drain their own lists, so this
    // must finish.
    ThreadPool pool(2);
    std::atomic<int> children_ran{0};

    auto parent = [&pool, &children_ran] {
        PoolPortfolioExecutor exec(pool);
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 3; ++i)
            tasks.push_back([&children_ran] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                ++children_ran;
            });
        exec.runAll(std::move(tasks));
    };

    auto f1 = pool.submit(parent);
    auto f2 = pool.submit(parent);
    f1.get();
    f2.get();
    EXPECT_EQ(children_ran.load(), 6);
}

TEST(PoolExecutor, MaxWorkersBoundsBorrowingNotCorrectness)
{
    ThreadPool pool(4);
    PoolPortfolioExecutor exec(pool, 1); // caller-only budget
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 5; ++i)
        tasks.push_back([&ran] { ++ran; });
    exec.runAll(std::move(tasks));
    EXPECT_EQ(ran.load(), 5);
}

// ---------------------------------------------------------------- //
// Service integration
// ---------------------------------------------------------------- //

std::vector<service::CompileRequest>
portfolioRequests(const CompilerOptions &options)
{
    std::vector<std::pair<std::string, Circuit>> programs;
    for (int c = 0; c < 3; ++c)
        programs.emplace_back(
            "rand" + std::to_string(c),
            makeRandomCircuit(
                {4 + c, 36 + 6 * c, test::kSeed + 200 + c, true}));
    return CompileService::dailyBatch(test::env().calibrationModel(),
                                      programs, 0, 2, options);
}

TEST(PortfolioService, EightThreadBatchBitIdenticalToSerial)
{
    CompilerOptions options = portfolioOptions(kHeuristics);

    ServiceOptions serial_opts;
    serial_opts.threads = 1;
    CompileService serial(serial_opts);
    auto serial_batch =
        serial.compileBatch(portfolioRequests(options));

    ServiceOptions pooled_opts;
    pooled_opts.threads = 8;
    CompileService pooled(pooled_opts);
    auto pooled_batch =
        pooled.compileBatch(portfolioRequests(options));

    ASSERT_EQ(serial_batch.results.size(),
              pooled_batch.results.size());
    for (size_t i = 0; i < serial_batch.results.size(); ++i) {
        const auto &a = serial_batch.results[i];
        const auto &b = pooled_batch.results[i];
        ASSERT_TRUE(a.ok) << a.tag;
        ASSERT_TRUE(b.ok) << b.tag;
        EXPECT_EQ(a.winner, b.winner) << a.tag;
        EXPECT_EQ(a.program->predictedSuccess,
                  b.program->predictedSuccess)
            << a.tag;
        EXPECT_EQ(a.program->duration, b.program->duration) << a.tag;
        EXPECT_EQ(a.program->layout, b.program->layout) << a.tag;
    }

    // Report surface: every job raced, winners counted in
    // kAllMapperKinds order, candidate traces aggregated.
    const auto &report = pooled_batch.report;
    EXPECT_EQ(report.portfolioJobs,
              static_cast<int>(pooled_batch.results.size()));
    int wins = 0;
    for (const auto &[name, count] : report.portfolioWins)
        wins += count;
    EXPECT_EQ(wins, report.portfolioJobs);
    EXPECT_FALSE(report.stages.empty());
    EXPECT_NE(report.toString().find("portfolio:"),
              std::string::npos);
}

TEST(PortfolioService, RacedResultsAreCachedUnderPortfolioKey)
{
    CompilerOptions options = portfolioOptions(kHeuristics);
    ServiceOptions sopts;
    sopts.threads = 2;
    CompileService svc(sopts);

    auto first = svc.compileBatch(portfolioRequests(options));
    ASSERT_EQ(first.report.cacheHits, 0);

    auto second = svc.compileBatch(portfolioRequests(options));
    EXPECT_EQ(second.report.cacheHits,
              static_cast<int>(second.results.size()));

    // The same circuits compiled WITHOUT the portfolio miss the
    // portfolio entries (no aliasing between the key spaces).
    CompilerOptions single;
    single.mapper = MapperKind::GreedyE;
    auto solo = svc.compileBatch(portfolioRequests(single));
    EXPECT_EQ(solo.report.cacheHits, 0);
}

} // namespace
