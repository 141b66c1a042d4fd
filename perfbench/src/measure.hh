/**
 * @file
 * Shared measurement plumbing of the perfbench program: host clocks,
 * order statistics, process resource probes, result digests and the
 * metric report every workload fills in.
 *
 * All times here are host time. Simulated chip time only appears as
 * the ROI lengths a workload sums into sim_ms_per_s.
 */
#ifndef PB_MEASURE_HH
#define PB_MEASURE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/result.hh"

namespace pb {

/** Monotonic host time [s]. */
double now();

/** Median of `v` (0 when empty). */
double median(std::vector<double> v);

/** Linear-interpolated quantile `q` in [0, 1] of `v` (0 when empty). */
double quantile(std::vector<double> v, double q);

/** Peak resident set [MB] of this process, and with `children` also
 *  of every waited-for child process (the larger of the two). */
double peakRssMb(bool children);

/**
 * Run `fn` on a new thread started on the `index`-th CPU this process
 * may use (round robin), and return its wall time [s]. Set-up is
 * single threaded; rotating it over every CPU keeps its median from
 * depending on which CPU the scheduler happened to pick for the run.
 * Threads that `fn` starts keep the process's full CPU set.
 */
double timeOnCpu(std::size_t index, const std::function<void()> &fn);

/** User + system CPU time [s] of this process and its waited-for
 *  children. */
double cpuSeconds();

/** CPU time the hypervisor gave to other guests [s], summed over all
 *  CPUs of the machine since boot (/proc/stat "steal"); 0 when the
 *  kernel does not report it. A run slowed by other guests shows it. */
double hostStealSeconds();

/** FNV-1a over cache::encodeRunResult of `results`, in the given
 *  order (callers pass canonical b * P + p order). */
std::uint64_t resultDigest(const std::vector<const tg::sim::RunResult *> &results);

/** "%016x" of a digest. */
std::string hex(std::uint64_t v);

/** Scratch, digest-ledger and trace directory, relative to the
 *  repository root the benchmark runs from. */
inline const std::string kStateDir = ".bench_build/state";

/** Command-line options of one invocation. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    /** Smoke-test sizes (the benchmark's own tests). */
    bool tiny = false;
    /** Fail unless every batch digest equals this (hex). */
    std::string expectDigest;
    /** serve-dse: extra malformed requests the server must refuse. */
    int injectRefused = 0;
};

/** Metrics, sample counts, and correctness outcome of one invocation. */
class Report
{
  public:
    /** A metric of the final JSON line. */
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** A reported-but-ungated figure (printed, not in the JSON). */
    void info(const std::string &name, double value,
              const std::string &unit, const std::string &note = "");
    /** Free-form line printed before the JSON. */
    void note(const std::string &line);
    /** Count operations attempted and failed. */
    void ops(long attempted, long failed);
    /** A correctness-check mismatch: counts one failed operation. */
    void mismatch(const std::string &what);

    bool correct() const { return failedOps == 0; }
    long attempted() const { return attemptedOps; }
    long failed() const { return failedOps; }

    /** Print the human-readable lines, then the JSON result line. */
    void print() const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> metrics;
    std::vector<std::string> lines;
    long attemptedOps = 0;
    long failedOps = 0;
};

} // namespace pb

#endif // PB_MEASURE_HH
