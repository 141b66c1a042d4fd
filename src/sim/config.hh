/**
 * @file
 * Simulation configuration: timing, solver, sampling and sensor
 * parameters with defaults matching the paper's setup (Section 5).
 */

#ifndef TG_SIM_CONFIG_HH
#define TG_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "pdn/domain_pdn.hh"
#include "power/model.hh"
#include "sensors/emergency_predictor.hh"
#include "sensors/health.hh"
#include "sensors/thermal_sensor.hh"
#include "thermal/model.hh"

namespace tg {
namespace sim {

/** Which regulator design populates the 96 VR sites. */
enum class RegulatorChoice
{
    Fivr, //!< Intel-FIVR-like buck phases (main evaluation)
    Ldo,  //!< POWER8-like digital LDOs (Section 6.4)
};

/** Top-level simulation knobs. */
struct SimConfig
{
    RegulatorChoice regulator = RegulatorChoice::Fivr;

    /** Gating decision interval [s] (paper: 1 ms). */
    Seconds decisionInterval = 1e-3;

    /**
     * Voltage-noise sampling (paper: 200 windows of 2K cycles with
     * 1K warm-up; the defaults here are scaled down to keep the
     * 112-run figure sweeps fast — tests exercise the full setting).
     */
    int noiseSamples = 32;       //!< windows per run
    int noiseCyclesTotal = 600;  //!< cycles per window
    int noiseWarmupCycles = 200; //!< leading cycles excluded

    /**
     * Lockstep lanes of the batched transient kernel: a domain's
     * queued noise windows advance through the shared factorisation
     * up to this many at a time (1 = single-lane lockstep; clamped
     * to pdn::DomainPdn::kMaxWindowBatch). Windows queue across
     * epochs that keep the active set and drain at this cap, a set
     * change, an emergency-truth decision or the end of the run.
     * Purely a throughput knob — results are bit-identical at every
     * width. The default 8 is the widest kernel and the cheapest per
     * window; separable windows keep a queued window at 2 x
     * nodeCount currents, so the wider queue costs next to no memory.
     */
    int noiseBatchWidth = 8;

    /** Epochs of the theta-profiling pass (Section 6.3). */
    int profilingEpochs = 24;

    /**
     * Demand guardband of the practical policies: PracT/PracVT
     * provision n_on for max(WMA forecast, current demand) plus this
     * margin, the firmware-style guardband that keeps a lagging
     * forecast from under-supplying a rising phase (the efficiency
     * cost stays within the paper's 0.5%-of-peak envelope).
     */
    double practicalDemandMargin = 0.10;

    /**
     * Extra regulators the practical policies keep active beyond the
     * forecast-optimal count. At small n_on one regulator of
     * headroom is what keeps a forecast miss from dragging the
     * remaining actives deep past their peak-efficiency load (whose
     * conversion-loss penalty is exactly the thermal hazard the
     * paper's Section 6.1 warns about).
     */
    int practicalHeadroomVrs = 1;

    /** Master seed; all stochastic streams fork from it. */
    std::uint64_t seed = 0x7469;

    /**
     * Worker threads for sweep/grid execution (runSweep and the
     * drivers built on it). Positive values are used as-is; 0 defers
     * to the TG_JOBS environment variable and then to the hardware
     * thread count (see exec::resolveJobs). Results are bit-identical
     * at every worker count.
     */
    int jobs = 0;

    /**
     * On-disk artifact-cache directory. Empty defers to the
     * TG_CACHE_DIR environment variable; when both are empty the disk
     * tier is off and whole-run memoization (memoizeResults) stays
     * inactive too. Purely a performance knob: cached artifacts are
     * keyed by content fingerprints over every result-bit-relevant
     * input (see cache/fingerprint.hh), so a hit is bit-identical to
     * a recompute.
     */
    std::string cacheDir;

    /**
     * Memoize whole RunResults (in memory and, through cacheDir /
     * TG_CACHE_DIR, on disk) keyed by the full run tuple. Only takes
     * effect when a cache directory is configured — the explicit
     * opt-in keeps timing benches and determinism cross-checks, which
     * re-run identical tuples on purpose, measuring real work. The
     * policy-independent prebuild caches (power trace, predictor
     * fit, PDN base factors) are unaffected by this flag.
     */
    bool memoizeResults = true;

    thermal::ThermalParams thermalParams;
    power::PowerParams powerParams;
    pdn::PdnParams pdnParams;
    sensors::SensorParams sensorParams;
    sensors::PredictorParams predictorParams;
    /** Sensor quarantine heuristics, used only when a run injects a
     *  fault scenario (RecordOptions::faultScenario). */
    sensors::HealthParams healthParams;
};

/** How a SimConfig leaf field crosses the cache and process
 *  boundaries (see visitConfig). */
enum class FieldRole
{
    Result, //!< can move a result bit: hashed and on the wire
    Knob,   //!< bit-invisible knob: on the wire, not hashed
    Local,  //!< host-local: neither hashed nor on the wire
};

/** The leaf fields of PowerParams, in fingerprint order (part of the
 *  visitConfig schema). */
template <class P, class V>
void
visitPowerParams(P &p, V &&v)
{
    using enum FieldRole;
    v("powerParams.densityIfu", p.densityIfu, Result);
    v("powerParams.densityIsu", p.densityIsu, Result);
    v("powerParams.densityExu", p.densityExu, Result);
    v("powerParams.densityLsu", p.densityLsu, Result);
    v("powerParams.densityL2", p.densityL2, Result);
    v("powerParams.densityL3", p.densityL3, Result);
    v("powerParams.densityNoc", p.densityNoc, Result);
    v("powerParams.densityMc", p.densityMc, Result);
    v("powerParams.staticShareAt80C", p.staticShareAt80C, Result);
    v("powerParams.leakageCalibTemp", p.leakageCalibTemp, Result);
    v("powerParams.leakageDoubling", p.leakageDoubling, Result);
    v("powerParams.logicLeakageBoost", p.logicLeakageBoost, Result);
    v("powerParams.memoryLeakageDerate", p.memoryLeakageDerate, Result);
}

/**
 * The SimConfig schema: every leaf field of SimConfig and its nested
 * parameter structs, once, in the order the cache key absorbs them.
 * `Cfg` is SimConfig or const SimConfig. The visitor is called as
 * `v(dotted_name, field, role)` for each leaf (RegulatorChoice, int,
 * double, std::uint64_t, bool or std::string). A visitor with a
 * `powerParams(p)` member gets the PowerParams struct in one call
 * instead of its leaves: the cache keys the power parameters on
 * their own too, for the power-trace artifact.
 * cache::configFingerprint(), the shard setup blob and the schema
 * tests all run off this list, so a field listed here is hashed (if
 * Result) and carried across processes (unless Local) with no other
 * edit, and a SimConfig field missing here is neither.
 */
template <class Cfg, class V>
void
visitConfig(Cfg &c, V &&v)
{
    using enum FieldRole;
    v("regulator", c.regulator, Result);
    v("decisionInterval", c.decisionInterval, Result);
    v("noiseSamples", c.noiseSamples, Result);
    v("noiseCyclesTotal", c.noiseCyclesTotal, Result);
    v("noiseWarmupCycles", c.noiseWarmupCycles, Result);
    v("noiseBatchWidth", c.noiseBatchWidth, Knob);
    v("profilingEpochs", c.profilingEpochs, Result);
    v("practicalDemandMargin", c.practicalDemandMargin, Result);
    v("practicalHeadroomVrs", c.practicalHeadroomVrs, Result);
    v("seed", c.seed, Result);
    v("jobs", c.jobs, Local);
    v("cacheDir", c.cacheDir, Knob);
    v("memoizeResults", c.memoizeResults, Knob);

    auto &t = c.thermalParams;
    v("thermalParams.gridW", t.gridW, Result);
    v("thermalParams.gridH", t.gridH, Result);
    v("thermalParams.spreaderN", t.spreaderN, Result);
    v("thermalParams.dieThickness", t.dieThickness, Result);
    v("thermalParams.kSilicon", t.kSilicon, Result);
    v("thermalParams.cvSilicon", t.cvSilicon, Result);
    v("thermalParams.timThickness", t.timThickness, Result);
    v("thermalParams.kTim", t.kTim, Result);
    v("thermalParams.spreaderThickness", t.spreaderThickness, Result);
    v("thermalParams.kCopper", t.kCopper, Result);
    v("thermalParams.cvCopper", t.cvCopper, Result);
    v("thermalParams.spreaderSide", t.spreaderSide, Result);
    v("thermalParams.rConvection", t.rConvection, Result);
    v("thermalParams.vrCouplingResistance", t.vrCouplingResistance,
      Result);
    v("thermalParams.ambient", t.ambient, Result);
    v("thermalParams.step", t.step, Result);

    if constexpr (requires { v.powerParams(c.powerParams); })
        v.powerParams(c.powerParams);
    else
        visitPowerParams(c.powerParams, v);

    pdn::visitPdnParams(c.pdnParams, [&](const char *name, auto &f) {
        v(name, f, Result);
    });

    v("sensorParams.delay", c.sensorParams.delay, Result);
    v("sensorParams.quantization", c.sensorParams.quantization, Result);
    v("sensorParams.noiseSigma", c.sensorParams.noiseSigma, Result);

    auto &pr = c.predictorParams;
    v("predictorParams.sensitivity", pr.sensitivity, Result);
    v("predictorParams.falseAlarmRate", pr.falseAlarmRate, Result);

    auto &h = c.healthParams;
    v("healthParams.minPlausible", h.minPlausible, Result);
    v("healthParams.maxPlausible", h.maxPlausible, Result);
    v("healthParams.maxStep", h.maxStep, Result);
    v("healthParams.freezeEps", h.freezeEps, Result);
    v("healthParams.freezeReads", h.freezeReads, Result);
    v("healthParams.freezeNeighbourMove", h.freezeNeighbourMove, Result);
    v("healthParams.neighbourTolerance", h.neighbourTolerance, Result);
    v("healthParams.readmitTolerance", h.readmitTolerance, Result);
    v("healthParams.readmitReads", h.readmitReads, Result);
}

/**
 * Size caps on the SimConfig leaves that size an allocation or a
 * loop, so a config from outside the process (a served or sharded
 * sweep's setup blob) cannot make the daemon allocate without bound.
 * Each sits at 10x or more of the largest value any test, bench,
 * example or perfbench workload uses: a 32 x 32 die grid, an 8 x 8
 * spreader, the 0.9 mm PDN pitch, the 10 us thermal step, 400 frames
 * per epoch, 2000-cycle windows, 200 windows and 24 profiling epochs.
 */
constexpr long long kMaxThermalCells = 128 * 128; //!< die grid; spreader
constexpr double kMinNodePitch = 0.25e-3; //!< [m]: 13x the PDN nodes
constexpr double kMinThermalStep = 1e-6;  //!< [s]: 10x the frames
constexpr double kMaxFramesPerEpoch = 4096; //!< decisionInterval / step
constexpr int kMaxNoiseCycles = 1 << 15;
constexpr int kMaxNoiseSamples = 4096; //!< also caps noiseSamplesOverride
constexpr int kMaxProfilingEpochs = 256;

/**
 * Why `cfg` cannot build or run a Simulation, or the empty string
 * when it can: mirrors the preconditions the model constructors and
 * the noise kernel assert, rejects non-finite doubles and applies the
 * size caps above, so a config from outside the process is refused
 * instead of aborting or exhausting it. The error names the field.
 */
std::string configError(const SimConfig &cfg);

} // namespace sim
} // namespace tg

#endif // TG_SIM_CONFIG_HH
