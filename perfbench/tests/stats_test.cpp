/**
 * @file
 * Self-test of the benchmark's statistics: the tail-percentile rule,
 * geometric means and open-loop latency from the due instant. Exits
 * non-zero on the first failed check.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9 * std::max(1.0, std::fabs(b));
}

void
tailRule()
{
    // 1..100: the highest rank with 10 samples above it is 90, p90.
    std::vector<double> xs;
    for (int i = 100; i >= 1; --i)
        xs.push_back(i);
    Tail t = tailPercentile(xs);
    expect(t.valid && near(t.value, 90) && near(t.percentile, 90),
           "tail of 1..100 is p90 = 90");

    // 1..1000: p99 = 990, with exactly 10 samples beyond it.
    xs.clear();
    for (int i = 1; i <= 1000; ++i)
        xs.push_back(i);
    t = tailPercentile(xs);
    expect(near(t.value, 990) && near(t.percentile, 99),
           "tail of 1..1000 is p99 = 990");
    int beyond = 0;
    for (double x : xs)
        beyond += x > t.value ? 1 : 0;
    expect(beyond == 10, "exactly 10 samples beyond the tail");

    // 11 samples is the smallest sample with a tail; 10 has none.
    xs.assign(11, 0.0);
    for (int i = 0; i < 11; ++i)
        xs[static_cast<size_t>(i)] = i;
    t = tailPercentile(xs);
    expect(t.valid && near(t.value, 0), "11 samples: tail is the minimum");
    xs.pop_back();
    expect(!tailPercentile(xs).valid, "10 samples: no tail");
}

void
windowedTails()
{
    // 1..1000 in two windows of 500: tails 490 and 990 at p98.
    std::vector<double> xs;
    for (int i = 1; i <= 1000; ++i)
        xs.push_back(i);
    Tail t = windowedTail(xs, 500);
    expect(t.valid && near(t.value, 740) && near(t.percentile, 98),
           "two windows: median of 490 and 990");

    // A 1200-sample run keeps two windows; the remainder joins the last.
    for (int i = 1001; i <= 1200; ++i)
        xs.push_back(i);
    t = windowedTail(xs, 500);
    expect(near(t.value, (490.0 + 1190.0) / 2), "remainder joins last window");

    // One noisy window out of three does not move the median.
    std::vector<double> steady(1500, 1.0);
    for (int i = 500; i < 1000; ++i)
        steady[static_cast<size_t>(i)] = 50.0;
    expect(near(windowedTail(steady, 500).value, 1.0),
           "one burst moves one window only");

    // Fewer samples than a window: the plain tail.
    std::vector<double> few(100);
    for (int i = 0; i < 100; ++i)
        few[static_cast<size_t>(i)] = i + 1;
    expect(near(windowedTail(few, 500).value, 90), "short run: plain tail");
}

void
geometricMeans()
{
    expect(near(geomean({2, 8}), 4), "geomean(2, 8) = 4");
    expect(near(geomean({0.5, 0.5, 0.5}), 0.5), "geomean of equal values");
    expect(near(geomean({1e-6, 1e6}), 1), "geomean spans magnitudes");
    expect(geomean({}) == 0.0, "geomean of nothing is 0");
    expect(geomean({1, 0}) == 0.0, "geomean with a zero is 0");
    expect(near(median({3, 1, 2}), 2) && near(median({4, 1, 3, 2}), 2.5),
           "median odd and even");
    expect(near(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99), 10),
           "nearest-rank p99 of 10 samples is the maximum");
}

void
openLoop()
{
    // Due at 100, sent late at 250 (generator stalled), done at 300:
    // the user waited 200, of which 150 was the generator's lateness.
    OpenLoopSample s{100, 250, 300};
    expect(near(s.latency(), 200), "latency counts from the due instant");
    expect(near(s.lateness(), 150), "lateness is sent - due");
    OpenLoopSample early{100, 90, 120};
    expect(near(early.lateness(), 0), "early sends are not late");

    std::vector<OpenLoopSample> flat, growing;
    for (int i = 0; i < 30; ++i) {
        flat.push_back({i * 10.0, i * 10.0 + 5, i * 10.0 + 20});
        growing.push_back({i * 10.0, i * 10.0 + i * 1000.0,
                           i * 10.0 + i * 1000.0 + 20});
    }
    expect(!backlogGrew(flat, 100), "steady lateness is no backlog");
    expect(backlogGrew(growing, 100), "rising lateness is a backlog");
}

} // namespace

int
main()
{
    tailRule();
    windowedTails();
    geometricMeans();
    openLoop();
    std::printf("%s (%d failures)\n", failures ? "FAILED" : "ok", failures);
    return failures == 0 ? 0 : 1;
}
