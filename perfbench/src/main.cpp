/**
 * @file
 * perfbench runner: runs one workload and prints its notes followed
 * by one line `RESULT {json}` holding every metric it measured. The
 * wrapper (run.py) turns that into the benchmark's result line.
 *
 *   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
 *                    --bin-dir DIR --work-dir DIR
 */

#include <cmath>
#include <csignal>
#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "workloads.hpp"

namespace perfbench {

pid_t
spawn(const std::vector<std::string> &argv, const std::string &out,
      const std::string &err)
{
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    // Child: die with the benchmark, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent)
        ::_exit(127);
    auto redirect = [](const std::string &path, int fd) {
        const int f = ::open(path.empty() ? "/dev/null" : path.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (f >= 0) {
            ::dup2(f, fd);
            ::close(f);
        }
    };
    redirect(out, STDOUT_FILENO);
    redirect(err, STDERR_FILENO);
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    ::execv(args[0], args.data());
    ::_exit(127);
}

int
waitChild(pid_t pid, double *peak_rss_mb)
{
    int status = 0;
    rusage ru{};
    if (::wait4(pid, &status, 0, &ru) != pid)
        return -1;
    if (peak_rss_mb)
        *peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

double
spanCostUs()
{
    Tracer tracer;
    tracer.enabled = true;
    constexpr int kSpans = 20000;
    const double t0 = nowUs();
    for (int i = 0; i < kSpans; ++i)
        ScopedSpan span(tracer, "calibrate");
    return (nowUs() - t0) / kSpans;
}

void
writeTrace(const Args &args, const Tracer &tracer, Outcome &out)
{
    const std::string path = args.workDir + "/../trace-" + args.workload +
                             "-" + std::to_string(args.seed) + ".json";
    if (tracer.writeJson(path))
        out.notes.push_back("trace: " + std::to_string(tracer.spans().size()) +
                            " spans written to " + path);
    else
        out.notes.push_back("trace: could not write " + path);
}

} // namespace perfbench

namespace {

using namespace perfbench;

/**
 * daily-table2's traced run also drives naqcd with daemon-mix's traffic,
 * so the daemon layer is measured on a workload whose end-to-end figures
 * are gated; daemon-mix's own figures drift with the host by more than
 * any bound (perfbench/README.md). Metrics both runs set keep daily-
 * table2's value, except that verifier issues add up.
 */
void
addDaemonLayers(const Args &args, Outcome &out)
{
    Args daemon_args = args;
    daemon_args.workload = "daemon-mix";
    const Outcome d = runDaemonMix(daemon_args);
    out.attempted += d.attempted;
    out.failed += d.failed;
    out.correct = out.correct && d.correct;
    for (const auto &[name, m] : d.metrics)
        if (name == "verify.issues")
            out.metrics[name].value += m.value;
        else
            out.metrics.emplace(name, m);
    out.notes.push_back("daemon-mix traffic (traced run only):");
    out.notes.insert(out.notes.end(), d.notes.begin(), d.notes.end());
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

int
usage()
{
    std::cerr << "usage: perfbench_runner --workload NAME --seed N "
                 "--seconds S --trace 0|1 --bin-dir DIR --work-dir DIR\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--bin-dir")
            args.binDir = value;
        else if (flag == "--work-dir")
            args.workDir = value;
        else
            return usage();
    }
    if (args.binDir.empty() || args.workDir.empty())
        return usage();
    std::signal(SIGPIPE, SIG_IGN);

    std::filesystem::remove_all(args.workDir);
    std::filesystem::create_directories(args.workDir);
    Outcome out;
    try {
        if (args.workload == "daily-table2") {
            out = runBatchWorkload(args);
            if (args.trace)
                addDaemonLayers(args, out);
        } else if (args.workload == "oneshot-portfolio")
            out = runOneshot(args);
        else if (args.workload == "daemon-mix")
            out = runDaemonMix(args);
        else
            return usage();
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        std::filesystem::remove_all(args.workDir);
        return 1;
    }
    std::filesystem::remove_all(args.workDir);

    for (const std::string &note : out.notes)
        std::cout << note << "\n";
    std::cout << "RESULT {\"correct\": " << (out.correct ? "true" : "false")
              << ", \"attempted\": " << out.attempted
              << ", \"failed\": " << out.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : out.metrics) {
        std::cout << (first ? "" : ", ") << "\"" << name
                  << "\": {\"value\": " << jsonNumber(m.value)
                  << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
    return 0;
}
