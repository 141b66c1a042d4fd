#include "measure.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include <pthread.h>
#include <sched.h>

#include <sys/resource.h>
#include <unistd.h>

#include "cache/serialize.hh"
#include "common/bytes.hh"

namespace pb {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
peakRssMb(bool children)
{
    rusage self{};
    ::getrusage(RUSAGE_SELF, &self);
    long kb = self.ru_maxrss;
    if (children) {
        rusage kids{};
        ::getrusage(RUSAGE_CHILDREN, &kids);
        kb = std::max(kb, kids.ru_maxrss);
    }
    return static_cast<double>(kb) / 1024.0;
}

double
timeOnCpu(std::size_t index, const std::function<void()> &fn)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> cpus;
    if (::sched_getaffinity(0, sizeof allowed, &allowed) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed))
                cpus.push_back(c);
    double elapsed = 0.0;
    std::exception_ptr error;
    std::thread worker([&] {
        // Move to the chosen CPU, then lift the restriction again so
        // threads that fn starts (a daemon's workers) may run anywhere.
        if (!cpus.empty()) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[index % cpus.size()], &one);
            ::pthread_setaffinity_np(::pthread_self(), sizeof one, &one);
            ::pthread_setaffinity_np(::pthread_self(), sizeof allowed,
                                     &allowed);
        }
        try {
            const double t = now();
            fn();
            elapsed = now() - t;
        } catch (...) {
            error = std::current_exception();
        }
    });
    worker.join();
    if (error)
        std::rethrow_exception(error);
    return elapsed;
}

double
cpuSeconds()
{
    auto secs = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    rusage self{}, kids{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &kids);
    return secs(self.ru_utime) + secs(self.ru_stime) +
           secs(kids.ru_utime) + secs(kids.ru_stime);
}

double
hostStealSeconds()
{
    // The aggregate "cpu" line: user nice system idle iowait irq
    // softirq steal ..., in clock ticks summed over all CPUs.
    std::ifstream in("/proc/stat");
    std::string cpu;
    unsigned long long v[8] = {};
    if (!(in >> cpu) || cpu != "cpu")
        return 0.0;
    for (auto &x : v)
        if (!(in >> x))
            return 0.0;
    return static_cast<double>(v[7]) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::uint64_t
resultDigest(const std::vector<const tg::sim::RunResult *> &results)
{
    std::vector<std::uint8_t> all;
    for (const auto *r : results) {
        const auto enc = tg::cache::encodeRunResult(*r);
        all.insert(all.end(), enc.begin(), enc.end());
    }
    return tg::bytes::fnv1a(all.data(), all.size());
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value)) {
        mismatch("metric " + name + " is not finite");
        value = 0.0;
    }
    metrics.push_back({name, value, unit});
}

void
Report::info(const std::string &name, double value,
             const std::string &unit, const std::string &note_text)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, "info   %-28s %14.6g %-6s %s",
                  name.c_str(), value, unit.c_str(), note_text.c_str());
    lines.emplace_back(buf);
}

void
Report::note(const std::string &line)
{
    lines.push_back(line);
}

void
Report::ops(long attempted_ops, long failed_ops)
{
    attemptedOps += attempted_ops;
    failedOps += failed_ops;
}

void
Report::mismatch(const std::string &what)
{
    ++attemptedOps;
    ++failedOps;
    lines.push_back("FAIL   " + what);
}

void
Report::print() const
{
    for (const auto &l : lines)
        std::printf("%s\n", l.c_str());
    for (const auto &m : metrics)
        std::printf("metric %-28s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const long attempted_ops = std::max(1L, attemptedOps);
    std::printf("info   %-28s %14.6g %-6s (%ld of %ld)\n", "failed_frac",
                static_cast<double>(failedOps) /
                    static_cast<double>(attempted_ops),
                "1", failedOps, attempted_ops);
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                correct() ? "true" : "false", attempted_ops, failedOps);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace pb
