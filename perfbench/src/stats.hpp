/**
 * @file
 * The benchmark's own statistics: medians, the tail percentile rule,
 * geometric means and open-loop latency accounting. Header-only so the
 * self-test (tests/stats_test.cpp) links nothing else.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/** Median (mean of the two middle values for even counts); 0 if empty. */
inline double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/** Nearest-rank percentile p (0-100]; 0 if empty. */
inline double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
    const std::size_t r = static_cast<std::size_t>(std::max(1.0, rank));
    return xs[std::min(r, xs.size()) - 1];
}

/** A tail latency and the nearest-rank percentile it sits at. */
struct Tail
{
    bool valid = false;   ///< false: fewer than 11 samples
    double value = 0.0;
    double percentile = 0.0; ///< 100 * rank / n
};

/**
 * The highest percentile with at least `beyond` samples above it: the
 * nearest-rank value at rank n - beyond (1-based), so exactly `beyond`
 * samples rank above it. Needs n > beyond samples.
 */
inline Tail
tailPercentile(std::vector<double> xs, std::size_t beyond = 10)
{
    Tail t;
    if (xs.size() <= beyond)
        return t;
    std::sort(xs.begin(), xs.end());
    const std::size_t rank = xs.size() - beyond; // 1-based
    t.valid = true;
    t.value = xs[rank - 1];
    t.percentile = 100.0 * static_cast<double>(rank) /
                   static_cast<double>(xs.size());
    return t;
}

/**
 * The samples, in the order they were taken, split into windows of
 * `window` (a remainder shorter than a window joins the last one).
 */
inline std::vector<std::vector<double>>
windows(const std::vector<double> &xs, std::size_t window)
{
    const std::size_t n = std::max<std::size_t>(1, xs.size() / window);
    std::vector<std::vector<double>> out;
    for (std::size_t w = 0; w < n; ++w) {
        const auto first = xs.begin() + static_cast<long>(w * window);
        const auto last =
            w + 1 == n ? xs.end() : first + static_cast<long>(window);
        out.emplace_back(first, last);
    }
    return out;
}

/**
 * The tail of a long run: the tailPercentile of each window, and the
 * median of their values and percentiles. A longer run gives a steadier
 * tail, not a deeper one, and a burst of CPU steal on a shared host
 * moves the windows it hits, not the median.
 */
inline Tail
windowedTail(const std::vector<double> &xs, std::size_t window = 200)
{
    std::vector<double> values, percentiles;
    for (const std::vector<double> &w : windows(xs, window)) {
        const Tail t = tailPercentile(w);
        if (!t.valid)
            return t;
        values.push_back(t.value);
        percentiles.push_back(t.percentile);
    }
    Tail t;
    t.valid = true;
    t.value = median(values);
    t.percentile = median(percentiles);
    return t;
}

/** Geometric mean of positive values; 0 if empty or any is <= 0. */
inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs) {
        if (!(x > 0.0))
            return 0.0;
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

/**
 * One open-loop request's timestamps (any common clock, in µs): when
 * the schedule said to send it, when the generator actually sent it,
 * and when the reply arrived.
 */
struct OpenLoopSample
{
    double due = 0.0;
    double sent = 0.0;
    double done = 0.0;

    /** Latency as a user sees it: from the due instant, so a stalled
     *  generator's backlog is charged to the requests it delayed. */
    double latency() const { return done - due; }

    /** How late the generator sent it (never negative). */
    double lateness() const { return std::max(0.0, sent - due); }
};

/**
 * True when the backlog grew over a phase: requests in the last third
 * were sent later than those in the first third by more than `slack`
 * µs (median lateness). A generator keeping up shows flat lateness.
 */
inline bool
backlogGrew(const std::vector<OpenLoopSample> &phase, double slack)
{
    const std::size_t n = phase.size();
    if (n < 3)
        return false;
    std::vector<double> first, last;
    for (std::size_t i = 0; i < n / 3; ++i)
        first.push_back(phase[i].lateness());
    for (std::size_t i = n - n / 3; i < n; ++i)
        last.push_back(phase[i].lateness());
    return median(last) - median(first) > slack;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
