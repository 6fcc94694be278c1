/**
 * @file
 * The workloads and the helpers they share with main().
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <string>
#include <vector>

#include <sys/types.h>

#include "common.hpp"

namespace perfbench {

/** daily-table2 (CompileService batches). */
Outcome runBatchWorkload(const Args &args);

/** oneshot-portfolio (one naqc process per job). */
Outcome runOneshot(const Args &args);

/** daemon-mix (naqcd over its Unix socket, open loop). */
Outcome runDaemonMix(const Args &args);

/** Write the run's spans as trace-event JSON next to the work dir. */
void writeTrace(const Args &args, const Tracer &tracer, Outcome &out);

/**
 * Start `argv` with stdout/stderr sent to the given files (empty =
 * /dev/null). The child dies with this process.
 */
pid_t spawn(const std::vector<std::string> &argv, const std::string &out,
            const std::string &err);

/** Wait for `pid`; returns its exit status (-1 if killed) and its
 *  peak RSS in MB. */
int waitChild(pid_t pid, double *peak_rss_mb = nullptr);

/** Whole file as a string ("" if unreadable). */
std::string readFile(const std::string &path);

/**
 * Cost of one span where the benchmark runs, in µs: the tracing overhead
 * estimate for workloads whose untraced figure comes from another
 * process.
 */
double spanCostUs();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
