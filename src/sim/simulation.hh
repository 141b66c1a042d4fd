/**
 * @file
 * End-to-end ThermoGater simulation (paper Section 5's toolchain,
 * rebuilt): workload demand -> microarchitectural activity -> power
 * -> (governor + regulator network + thermal RC loop with leakage
 * feedback) -> sampled PDN voltage-noise analysis.
 *
 * A Simulation owns the heavyweight per-chip state (thermal model
 * factorisations, PDNs, regulator networks, fitted thermal
 * predictor) and can run many (benchmark, policy) combinations
 * against it; the figure sweeps reuse one instance.
 */

#ifndef TG_SIM_SIMULATION_HH
#define TG_SIM_SIMULATION_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/fingerprint.hh"
#include "common/exec.hh"
#include "core/governor.hh"
#include "core/thermal_predictor.hh"
#include "floorplan/power8.hh"
#include "pdn/domain_pdn.hh"
#include "power/model.hh"
#include "power/trace.hh"
#include "sim/config.hh"
#include "sim/result.hh"
#include "thermal/model.hh"
#include "vreg/network.hh"
#include "workload/profile.hh"

namespace tg {
namespace sim {

/**
 * Reusable simulation context for one chip + configuration.
 *
 * Threading: run()/runMixed() are deterministic functions of (chip,
 * config, profiles, policy, opts) — results never depend on what ran
 * before on the same instance — but they mutate instance state (the
 * per-domain PDN active-set factorisations and the lazily-fitted
 * thermal predictor), so concurrent runs must use one Simulation per
 * thread. sim::runSweep() arranges exactly that.
 */
class Simulation
{
  public:
    Simulation(const floorplan::Chip &chip, SimConfig cfg = {});

    /** Simulate one benchmark under one policy. */
    RunResult run(const workload::BenchmarkProfile &profile,
                  core::PolicyKind policy, RecordOptions opts = {});

    /**
     * Multi-programmed run: one benchmark per core (paper Section 7
     * — per-domain governance accommodates heterogeneous and
     * multi-programmed workloads). The co-run lasts as long as the
     * shortest program's ROI.
     *
     * @param label name recorded in the result
     */
    RunResult
    runMixed(const std::vector<const workload::BenchmarkProfile *>
                 &per_core,
             const std::string &label, core::PolicyKind policy,
             RecordOptions opts = {});

    /**
     * The fitted deltaT = theta * deltaP predictor (Eqn. 2);
     * triggers the profiling pass on first use.
     */
    const core::ThermalPredictor &thermalPredictor();

    /** R^2 (Eqn. 3) of the fitted predictor over profiling data. */
    double predictorRSquared();

    /**
     * Adopt an already-fitted predictor (from a sibling context with
     * the same chip and config) instead of re-running the profiling
     * pass. The fit is copied, so the source can be discarded; the
     * parallel sweep uses this to calibrate once and share the
     * result with every worker context.
     */
    void adoptPredictor(const core::ThermalPredictor &fitted,
                        double r_squared);

    /** Whether a fitted predictor exists (profiled or adopted). */
    bool hasPredictor() const { return predictor != nullptr; }

    const floorplan::Chip &chip() const { return chipRef; }
    const SimConfig &config() const { return cfg; }
    const thermal::ThermalModel &thermalModel() const { return tm; }
    const power::PowerModel &powerModel() const { return pm; }
    const vreg::VrDesign &design() const { return vrDesign; }
    const vreg::RegulatorNetwork &network(int domain) const;
    const pdn::DomainPdn &domainPdn(int domain) const;

  private:
    const floorplan::Chip &chipRef;
    SimConfig cfg;
    vreg::VrDesign vrDesign;
    thermal::ThermalModel tm;
    power::PowerModel pm;
    std::vector<vreg::RegulatorNetwork> networks;  //!< per domain
    std::vector<std::unique_ptr<pdn::DomainPdn>> pdns;

    std::unique_ptr<core::ThermalPredictor> predictor;
    double predictorR2 = 0.0;

    /** chip VR index -> (domain, local index). */
    std::vector<std::pair<int, int>> vrLocal;

    /**
     * Content fingerprints of the immutable per-instance inputs,
     * computed once in the constructor: every cache key below is a
     * cheap combination of these with per-run inputs.
     */
    cache::Fingerprint chipFp;
    cache::Fingerprint cfgFp;

    /** cfg.cacheDir, else $TG_CACHE_DIR, else "" (disk tier off). */
    std::string cacheDirResolved;

    /** Whether whole-RunResult memoization applies (see SimConfig). */
    bool memoActive() const;

    /** Full-tuple key of one runMixed invocation. */
    cache::Fingerprint
    runKey(const std::vector<const workload::BenchmarkProfile *>
               &per_core,
           const std::string &label, core::PolicyKind policy,
           const RecordOptions &opts) const;

    void calibrateThetas();

    /**
     * Per-domain reusable buffers of the noise sampler. A noise
     * window's load is separable: baseLogic * m(c) + baseMem *
     * (1 + 0.35 (m(c) - 1)) per node and cycle, so no window is ever
     * stored as cycles x nodeCount currents. The logic/memory
     * base-current split depends only on the block-power vector, so
     * it is cached and keyed by `powerStamp`: repeated windows
     * against the same power (the emergency ground-truth loop,
     * multiple samples in one frame) skip the recompute. One scratch
     * per domain also makes the per-domain tasks race-free without
     * locks.
     *
     * `queue` holds the base-vector pair of every queued window
     * (window q's logic vector at offset 2 q nodeCount, its memory
     * vector right after), captured at the scheduled frame against
     * that frame's block power. The multipliers are synthesised only
     * when the window is solved, one lockstep chunk at a time, into
     * `laneMult` (lane j's m and memory sequences at offset
     * 2 j cycles); the RNG stream is keyed by (run_seed, epoch,
     * sample, domain), so when that happens does not change the bits.
     * The queue rides across epochs whose decision left the
     * domain's active set unchanged, so
     * rarely-gating policies fill maximally wide lanes; `solved`
     * counts the leading windows already solved by an early
     * per-domain flush (a setActive() with pending windows solves
     * them under the outgoing factorisation first). `results`
     * receives one NoiseResult per queued window and survives until
     * the global reduction.
     */
    struct NoiseScratch
    {
        std::uint64_t stamp = 0;          //!< powerStamp of the split
        std::vector<Watts> pLogic;        //!< domain logic power
        std::vector<Watts> pMem;          //!< domain memory power
        std::vector<Amperes> baseLogic;   //!< node currents, logic
        std::vector<Amperes> baseMem;     //!< node currents, memory
        std::vector<double> mult;         //!< one multiplier draw
        std::vector<Amperes> queue;       //!< queued base-vector pairs
        std::vector<double> laneMult;     //!< per-lane multipliers
        std::vector<pdn::DomainPdn::SeparableWindow> lanes; //!< chunk
        std::vector<pdn::NoiseResult> results; //!< per-window results
        std::size_t solved = 0; //!< windows already solved (flushes)
    };

    /** One queued noise sample (possibly from an earlier epoch). */
    struct QueuedNoiseSample
    {
        int sample = 0;     //!< global sample index
        long epoch = 0;     //!< scheduling epoch (RNG key)
        double timeUs = 0.0; //!< scheduled frame time [us] (traces)
        bool faulted = false; //!< scheduling epoch had active faults
    };

    /**
     * Reusable buffers of the per-epoch/per-frame kernel, so the
     * steady-state run loop performs no heap allocation: every vector
     * reaches its final size during the first epoch and is refilled
     * in place afterwards.
     */
    struct FrameScratch
    {
        std::vector<Celsius> blockT;    //!< per-block temperatures
        std::vector<Watts> leak;        //!< per-block leakage
        std::vector<Watts> blockPower;  //!< dynamic + leakage
        std::vector<Watts> meanPower;   //!< epoch provisioning power
        std::vector<Celsius> vrT;       //!< true per-VR temperatures
        std::vector<Celsius> vrSensor;  //!< sensed per-VR temperatures
        std::vector<Watts> nodalPower;  //!< thermal-grid power vector
    };

    /**
     * One domain's slice of a decision epoch, carried from the serial
     * decide phase through the (possibly pooled) truth phase into the
     * serial apply phase. The vector of these is sized once per run;
     * each epoch refills every element in place.
     */
    struct DomainEpoch
    {
        core::DomainState st;       //!< decision inputs
        std::vector<double> thetas; //!< per-local-VR theta slice
        core::Decision decision;    //!< phase-1 (then final) decision
        bool truth = false;         //!< truth-window verdict
    };

    FrameScratch fs;
    std::vector<DomainEpoch> domainEpoch;     //!< one per domain
    std::vector<NoiseScratch> noiseScratch;   //!< one per domain
    std::vector<QueuedNoiseSample> noiseQueue; //!< epoch batch queue
    std::uint64_t powerStamp = 0;  //!< bumped per power recompute

    /**
     * Pool for the per-domain noise work (window drains, truth
     * windows, re-key flushes); created lazily on first use, only on threads that are not already pool
     * workers (sweep workers stay serial instead of oversubscribing).
     */
    std::unique_ptr<exec::ThreadPool> noisePool;

    /** cfg.noiseBatchWidth clamped to [1, kMaxWindowBatch]. */
    int noiseBatchWidth() const;

    /**
     * Refresh `scratch`'s logic/memory base currents of `domain` for
     * `block_power`, unless `power_stamp` says they already match.
     */
    void noiseBaseInto(int domain, const std::vector<Watts> &block_power,
                       NoiseScratch &scratch,
                       std::uint64_t power_stamp) const;

    /**
     * Stage lane `lane` of the next lockstep chunk: synthesise the
     * cycle multipliers of noise window (epoch, sample) for `domain`
     * into scratch.laneMult and point scratch.lanes[lane] at them and
     * at the base currents (a, b). The waveform is seeded
     * independently of the policy, so all policies see the same
     * workload.
     */
    void stageNoiseLane(int domain, int lane, long epoch, int sample,
                        double didt, std::uint64_t run_seed,
                        const Amperes *a, const Amperes *b,
                        NoiseScratch &scratch) const;

    /**
     * Ground truth for the emergency-override path: would `domain`'s
     * current active set suffer a voltage emergency in any of the
     * epoch's scheduled sample windows? Windows advance through
     * transientWindowBatch() noiseBatchWidth() at a time with an
     * early exit between chunks — the OR over windows is what the
     * per-window early-exit loop computed, bit-identically.
     */
    bool epochEmergencyTruth(int domain, long epoch,
                             const std::vector<int> &samples,
                             const std::vector<Watts> &block_power,
                             double didt, std::uint64_t run_seed,
                             NoiseScratch &scratch,
                             std::uint64_t power_stamp) const;
};

} // namespace sim
} // namespace tg

#endif // TG_SIM_SIMULATION_HH
