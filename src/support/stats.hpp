/**
 * @file
 * Small statistics helpers used by the calibration model, experiment
 * harness and benches (means, geomeans, min/max ratios).
 */

#ifndef QC_SUPPORT_STATS_HPP
#define QC_SUPPORT_STATS_HPP

#include <chrono>
#include <vector>

namespace qc {

/** Wall-clock seconds since `start` on the steady clock. */
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Arithmetic mean; 0 for an empty input. */
double mean(const std::vector<double> &xs);

/** Population standard deviation; 0 for fewer than two samples. */
double stddev(const std::vector<double> &xs);

/** Geometric mean; requires strictly positive samples. */
double geomean(const std::vector<double> &xs);

/** max/min ratio, the paper's "up to N.Nx variation" metric. */
double spreadRatio(const std::vector<double> &xs);

/** Smallest element; +inf for an empty input. */
double minOf(const std::vector<double> &xs);

/** Largest element; -inf for an empty input. */
double maxOf(const std::vector<double> &xs);

/** Median (by copy-and-sort). */
double median(std::vector<double> xs);

/**
 * Wilson score interval half-width for a binomial success estimate,
 * used to report confidence on Monte-Carlo success rates.
 */
double binomialHalfWidth(double p, int trials, double z = 1.96);

} // namespace qc

#endif // QC_SUPPORT_STATS_HPP
