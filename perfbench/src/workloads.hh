/**
 * @file
 * The benchmark's four workloads and the probes of the traced run.
 *
 * A workload is set up (timed as setup_s), then runs passes: a pass
 * is a fixed amount of work made from the seed, so every pass of a
 * run does the same work. verify() checks a pass's outputs outside
 * the timed region. An untraced run repeats set-up + pass until the
 * run's time is used; a traced run does one untraced and one
 * traced pass of every workload and collects the per-layer metrics.
 */
#ifndef PB_WORKLOADS_HH
#define PB_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "measure.hh"
#include "sim/sweep.hh"

namespace pb {

/** What one pass measured. */
struct PassStats
{
    double wall = 0.0;          //!< host seconds of the pass
    double simMs = 0.0;         //!< simulated chip ms (sum of ROIs)
    std::vector<double> opMs;   //!< latency of each completed operation
    long attempted = 0;         //!< operations issued
    long failed = 0;            //!< operations that failed
};

class Workload
{
  public:
    virtual ~Workload() = default;
    virtual const char *name() const = 0;
    /** Threads the measured phase uses (for exec.cpu_util). */
    virtual int threads() const = 0;
    /** Everything before the first measured operation. */
    virtual void setup() = 0;
    virtual PassStats pass() = 0;
    /** Check the last pass's outputs; mismatches go to `report`. */
    virtual void verify(Report &report) = 0;
    /** Release what setup() built. */
    virtual void teardown() {}
    /** Digest of the last pass's results (batch workloads). */
    virtual bool digest(std::uint64_t &out) const { (void)out; return false; }
    /** Reported-only figures (accuracy against the paper). */
    virtual void finish(Report &report) { (void)report; }
    /** Per-layer metrics read after a traced pass. */
    virtual void layerMetrics(Report &report) { (void)report; }
};

/** Workload names in report order. */
const std::vector<std::string> &workloadNames();

/** Build a workload by name; null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Options &opts);

/** Layer probes of the traced run (see probes.cc). */
void runLayerProbes(const Options &opts, Report &report);

/** Benchmarks of the grid-default workload (all 14 profiles). */
std::vector<std::string> gridBenchmarks(bool tiny);

/** Simulation config of the grid-default workload for `seed`. */
tg::sim::SimConfig gridConfig(std::uint64_t seed);

/** Simulation config of the paper-noise workload for `seed`. */
tg::sim::SimConfig paperNoiseConfig(std::uint64_t seed, bool tiny);

} // namespace pb

#endif // PB_WORKLOADS_HH
