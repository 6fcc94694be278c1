#include "trace.hpp"

#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local std::uint64_t t_parent = 0;
thread_local std::uint64_t t_job = 0;

/** The buffer this thread last used, and the tracer it belongs to. */
thread_local std::uint64_t t_owner = 0;
thread_local std::vector<Span> *t_buffer = nullptr;
thread_local int t_tid = 0;
std::atomic<int> g_threads{0};
std::atomic<std::uint64_t> g_tracers{0};

} // namespace

Tracer::Tracer() : serial_(++g_tracers) {}

std::vector<Span> &
Tracer::buffer()
{
    if (t_owner != serial_) {
        std::lock_guard<std::mutex> lock(mu_);
        buffers_.emplace_back();
        buffers_.back().reserve(4096);
        t_buffer = &buffers_.back();
        t_owner = serial_;
        if (t_tid == 0)
            t_tid = ++g_threads;
    }
    return *t_buffer;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (const std::vector<Span> &b : buffers_)
        all.insert(all.end(), b.begin(), b.end());
    return all;
}

ScopedSpan::ScopedSpan(Tracer &tracer, const char *name) : tracer_(tracer)
{
    if (!tracer_.enabled)
        return;
    span_.id = tracer_.nextId();
    span_.parent = t_parent;
    span_.job = t_job;
    span_.name = name;
    savedParent_ = t_parent;
    t_parent = span_.id;
    span_.t0 = nowUs();
}

ScopedSpan::~ScopedSpan()
{
    if (span_.id == 0)
        return;
    span_.t1 = nowUs();
    t_parent = savedParent_;
    std::vector<Span> &buf = tracer_.buffer();
    span_.tid = t_tid;
    buf.push_back(span_);
}

void
ScopedSpan::setJob(std::uint64_t job)
{
    t_job = job;
}

std::map<std::string, LayerTime>
Tracer::layerTimes() const
{
    const std::vector<Span> all = spans();
    std::unordered_map<std::uint64_t, double> child_us;
    for (const Span &s : all)
        if (s.parent != 0)
            child_us[s.parent] += s.t1 - s.t0;
    std::map<std::string, LayerTime> out;
    for (const Span &s : all) {
        LayerTime &l = out[s.name];
        const double dur = s.t1 - s.t0;
        ++l.calls;
        l.totalUs += dur;
        auto it = child_us.find(s.id);
        l.selfUs += dur - (it == child_us.end() ? 0.0 : it->second);
    }
    return out;
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out.setf(std::ios::fixed);
    out.precision(3);
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const Span &s : spans()) {
        out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
            << ",\"ts\":" << s.t0 << ",\"dur\":" << (s.t1 - s.t0)
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":"
            << s.parent << ",\"job\":" << s.job << "}}";
        first = false;
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
