/**
 * @file
 * Span recorder for the traced run. Spans are taken in the benchmark's
 * own code around calls into naqc's public functions; each carries a
 * name, start, end, parent span and job id. They stay in memory, in one
 * buffer per thread, and go out once, at exit, as Chrome trace-event
 * JSON.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Microseconds on the steady clock. */
inline double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t job = 0;
    const char *name = ""; ///< a string literal
    double t0 = 0.0;
    double t1 = 0.0;
    int tid = 0;
};

/** Per-name totals: calls and self time (span minus its children). */
struct LayerTime
{
    std::uint64_t calls = 0;
    double selfUs = 0.0;
    double totalUs = 0.0;

    double perCallUs() const
    {
        return calls == 0 ? 0.0 : selfUs / static_cast<double>(calls);
    }
};

class Tracer
{
  public:
    Tracer();

    bool enabled = false;

    std::uint64_t nextId() { return ++lastId_; }

    /** This thread's span buffer (created on first use). */
    std::vector<Span> &buffer();

    /** Every span recorded so far. Call once recording has stopped. */
    std::vector<Span> spans() const;

    /** Self time per span name. */
    std::map<std::string, LayerTime> layerTimes() const;

    /** Write every span as trace-event JSON; false on I/O error. */
    bool writeJson(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::list<std::vector<Span>> buffers_; ///< one per thread, stable
    std::atomic<std::uint64_t> lastId_{0};
    const std::uint64_t serial_; ///< tells tracers at one address apart
};

/**
 * RAII span. Parent and job id come from the enclosing span on the
 * same thread; setJob() starts a new job's tree on this thread.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** The job id spans opened on this thread will carry. */
    static void setJob(std::uint64_t job);

  private:
    Tracer &tracer_;
    Span span_;
    std::uint64_t savedParent_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
