#include "sim/simulation.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "cache/disk.hh"
#include "cache/serialize.hh"
#include "cache/store.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "core/aging.hh"
#include "fault/injector.hh"
#include "sensors/emergency_predictor.hh"
#include "sensors/health.hh"
#include "sensors/thermal_sensor.hh"
#include "uarch/core_model.hh"
#include "vreg/design.hh"
#include "workload/cycles.hh"
#include "workload/demand.hh"

namespace tg {
namespace sim {

using core::PolicyKind;

namespace {

vreg::VrDesign
designFor(RegulatorChoice choice)
{
    switch (choice) {
      case RegulatorChoice::Fivr: return vreg::fivrDesign();
      case RegulatorChoice::Ldo: return vreg::ldoDesign();
    }
    panic("unknown regulator choice");
}

/** Cached thermal-predictor fit (keyed by chip x config). */
struct PredictorArtifact
{
    core::ThermalPredictor fitted;
    double r2 = 0.0;
};

std::size_t
powerTraceBytes(const power::PowerTrace &t)
{
    return sizeof(power::PowerTrace) +
           sizeof(Watts) * t.blocks() *
               (t.frames() +
                3 * static_cast<std::size_t>(t.epochs()));
}

} // namespace

Simulation::Simulation(const floorplan::Chip &chip, SimConfig cfg_in)
    : chipRef(chip), cfg(cfg_in), vrDesign(designFor(cfg.regulator)),
      tm(chip, cfg.thermalParams), pm(chip, cfg.powerParams)
{
    const auto &domains = chip.plan.domains();
    networks.reserve(domains.size());
    for (const auto &d : domains) {
        networks.emplace_back(vrDesign,
                              static_cast<int>(d.vrs.size()));
        networks.back().setVout(chip.params.vdd);
        pdns.push_back(std::make_unique<pdn::DomainPdn>(
            chip, d.id, vrDesign, cfg.pdnParams));
    }

    vrLocal.assign(chip.plan.vrs().size(), {-1, -1});
    for (const auto &d : domains)
        for (std::size_t l = 0; l < d.vrs.size(); ++l)
            vrLocal[static_cast<std::size_t>(d.vrs[l])] = {
                d.id, static_cast<int>(l)};
    for (std::size_t v = 0; v < vrLocal.size(); ++v)
        TG_ASSERT(vrLocal[v].first >= 0, "VR ", v, " has no domain");

    chipFp = cache::chipFingerprint(chip);
    cfgFp = cache::configFingerprint(cfg);
    if (!cfg.cacheDir.empty()) {
        cacheDirResolved = cfg.cacheDir;
    } else if (const char *dir = std::getenv("TG_CACHE_DIR")) {
        cacheDirResolved = dir;
    }
}

bool
Simulation::memoActive() const
{
    return cfg.memoizeResults && !cacheDirResolved.empty() &&
           cache::store().enabled();
}

cache::Fingerprint
Simulation::runKey(
    const std::vector<const workload::BenchmarkProfile *> &per_core,
    const std::string &label, PolicyKind policy,
    const RecordOptions &opts) const
{
    cache::Hasher h;
    h.str("tg.key.run-result.v1");
    h.fp(chipFp).fp(cfgFp);
    h.u64(static_cast<std::uint64_t>(policy)).str(label);
    h.u64(per_core.size());
    for (const auto *p : per_core)
        h.fp(cache::profileFingerprint(*p));
    h.fp(cache::recordOptionsFingerprint(opts));
    return h.digest();
}

const vreg::RegulatorNetwork &
Simulation::network(int domain) const
{
    return networks.at(static_cast<std::size_t>(domain));
}

const pdn::DomainPdn &
Simulation::domainPdn(int domain) const
{
    return *pdns.at(static_cast<std::size_t>(domain));
}

const core::ThermalPredictor &
Simulation::thermalPredictor()
{
    if (!predictor)
        calibrateThetas();
    return *predictor;
}

double
Simulation::predictorRSquared()
{
    if (!predictor)
        calibrateThetas();
    return predictorR2;
}

void
Simulation::adoptPredictor(const core::ThermalPredictor &fitted,
                           double r_squared)
{
    TG_ASSERT(fitted.size() ==
                  static_cast<int>(chipRef.plan.vrs().size()),
              "adopted predictor covers ", fitted.size(),
              " VRs, chip has ", chipRef.plan.vrs().size());
    predictor = std::make_unique<core::ThermalPredictor>(fitted);
    predictorR2 = r_squared;
}

void
Simulation::calibrateThetas()
{
    // Profiling pass (Section 6.3): drive the chip through large
    // demand steps under randomised gating so every regulator sees
    // on->off and off->on transitions, then fit deltaT = theta_i *
    // deltaP_i from epoch-to-epoch observations against the full RC
    // model.
    // The pass is a pure function of (chip, config), so its fit is a
    // cacheable artifact: sibling contexts of a sweep — and any later
    // Simulation with the same inputs in this process — adopt the
    // cached fit instead of re-running the profiling epochs.
    const cache::Fingerprint fit_key = cache::Hasher{}
                                           .str("tg.key.predictor.v1")
                                           .fp(chipFp)
                                           .fp(cfgFp)
                                           .digest();
    if (auto hit = cache::store().get<PredictorArtifact>(
            cache::ArtifactKind::Predictor, fit_key)) {
        predictor =
            std::make_unique<core::ThermalPredictor>(hit->fitted);
        predictorR2 = hit->r2;
        return;
    }

    const auto &plan = chipRef.plan;
    const auto &domains = plan.domains();
    int n_vrs = static_cast<int>(plan.vrs().size());
    predictor = std::make_unique<core::ThermalPredictor>(n_vrs);

    Rng rng(mixSeed(cfg.seed, 0x7075u));
    Seconds dt = tm.step();
    int fpe = std::max(
        1, static_cast<int>(std::round(cfg.decisionInterval / dt)));

    // Mid-level uniform activity as the block-power background.
    std::vector<Watts> block_dyn(plan.blocks().size());
    auto block_power_at = [&](double u) {
        for (std::size_t b = 0; b < block_dyn.size(); ++b) {
            bool logic = floorplan::isLogicUnit(plan.blocks()[b].kind);
            block_dyn[b] = pm.peakDynamic(static_cast<int>(b)) *
                           (logic ? u : 0.5 * u);
        }
        return block_dyn;
    };

    auto temps = tm.uniformState(cfg.thermalParams.ambient + 12.0);
    std::vector<Watts> vr_loss(static_cast<std::size_t>(n_vrs), 0.0);
    std::vector<Watts> prev_loss;
    std::vector<Celsius> prev_temp;

    for (int e = 0; e < cfg.profilingEpochs; ++e) {
        // Demand square wave with jitter: big deltaP between epochs.
        double u = (e % 2 == 0 ? 0.35 : 0.8) + rng.uniform(-0.05, 0.05);
        auto block_power = block_power_at(u);

        std::fill(vr_loss.begin(), vr_loss.end(), 0.0);
        for (const auto &d : domains) {
            Amperes demand = pm.domainCurrent(block_power, d.id);
            auto &net = networks[static_cast<std::size_t>(d.id)];
            int non = net.requiredActive(demand);
            // Random subset of size non.
            std::vector<int> order(d.vrs.size());
            for (std::size_t i = 0; i < order.size(); ++i)
                order[i] = static_cast<int>(i);
            for (std::size_t i = order.size(); i-- > 1;)
                std::swap(order[i],
                          order[static_cast<std::size_t>(
                              rng.uniformInt(0, static_cast<int>(i)))]);
            auto op = net.evaluate(demand, non);
            for (int l = 0; l < non; ++l)
                vr_loss[static_cast<std::size_t>(
                    d.vrs[static_cast<std::size_t>(order[
                        static_cast<std::size_t>(l)])])] =
                    op.plossTotal / non;
        }

        auto pv = tm.powerVector(block_power, vr_loss);
        for (int f = 0; f < fpe; ++f)
            tm.advance(temps, pv);

        std::vector<Celsius> vr_temp(static_cast<std::size_t>(n_vrs));
        for (int v = 0; v < n_vrs; ++v)
            vr_temp[static_cast<std::size_t>(v)] = tm.vrTemp(temps, v);

        if (e >= 2) {
            // Skip the first epochs: the global state is still
            // settling and would contaminate the per-VR fit.
            for (int v = 0; v < n_vrs; ++v) {
                double d_p = vr_loss[static_cast<std::size_t>(v)] -
                             prev_loss[static_cast<std::size_t>(v)];
                double d_t = vr_temp[static_cast<std::size_t>(v)] -
                             prev_temp[static_cast<std::size_t>(v)];
                predictor->addSample(v, d_p, d_t);
            }
        }
        prev_loss = vr_loss;
        prev_temp = vr_temp;
    }
    predictor->fit();
    predictorR2 = predictor->rSquared();

    cache::store().put<PredictorArtifact>(
        cache::ArtifactKind::Predictor, fit_key,
        std::make_shared<const PredictorArtifact>(
            PredictorArtifact{*predictor, predictorR2}),
        sizeof(PredictorArtifact) +
            3 * sizeof(double) * static_cast<std::size_t>(n_vrs));
}

int
Simulation::noiseBatchWidth() const
{
    return std::clamp(cfg.noiseBatchWidth, 1,
                      pdn::DomainPdn::kMaxWindowBatch);
}

void
Simulation::noiseBaseInto(int domain,
                          const std::vector<Watts> &block_power,
                          NoiseScratch &scratch,
                          std::uint64_t power_stamp) const
{
    if (scratch.stamp == power_stamp && !scratch.baseLogic.empty())
        return;
    const auto &plan = chipRef.plan;
    const auto &pdn = *pdns[static_cast<std::size_t>(domain)];
    const auto &dom = plan.domains()[static_cast<std::size_t>(domain)];

    // Split the domain's power into logic and memory groups (they
    // fluctuate with different depths) and project each onto the PDN
    // nodes.
    scratch.pLogic.assign(block_power.size(), 0.0);
    scratch.pMem.assign(block_power.size(), 0.0);
    for (int b : dom.blocks) {
        std::size_t ub = static_cast<std::size_t>(b);
        if (floorplan::isLogicUnit(plan.blocks()[ub].kind))
            scratch.pLogic[ub] = block_power[ub];
        else
            scratch.pMem[ub] = block_power[ub];
    }
    pdn.nodeCurrentsInto(scratch.pLogic, scratch.baseLogic);
    pdn.nodeCurrentsInto(scratch.pMem, scratch.baseMem);
    scratch.stamp = power_stamp;
}

void
Simulation::stageNoiseLane(int domain, int lane, long epoch, int sample,
                           double didt, std::uint64_t run_seed,
                           const Amperes *a, const Amperes *b,
                           NoiseScratch &scratch) const
{
    const std::size_t cycles =
        static_cast<std::size_t>(cfg.noiseCyclesTotal);
    // Sized for a full chunk up front: lanes staged earlier in the
    // chunk keep pointing into the buffer.
    const std::size_t uw = static_cast<std::size_t>(noiseBatchWidth());
    if (scratch.laneMult.size() < uw * 2 * cycles)
        scratch.laneMult.resize(uw * 2 * cycles);
    if (scratch.lanes.size() < uw)
        scratch.lanes.resize(uw);

    Rng rng(mixSeed(mixSeed(run_seed, static_cast<std::uint64_t>(
                                          epoch * 1315423911ll)),
                    mixSeed(static_cast<std::uint64_t>(sample),
                            static_cast<std::uint64_t>(domain))));
    workload::synthesizeCycleMultipliersInto(didt, cycles, rng,
                                             scratch.mult);
    double *ma = scratch.laneMult.data() +
                 static_cast<std::size_t>(lane) * 2 * cycles;
    double *mb = ma + cycles;
    for (std::size_t c = 0; c < cycles; ++c) {
        double ml = scratch.mult[c];
        ma[c] = ml;
        mb[c] = 1.0 + 0.35 * (ml - 1.0);  // caches swing less
    }
    scratch.lanes[static_cast<std::size_t>(lane)] = {a, b, ma, mb};
}

bool
Simulation::epochEmergencyTruth(int domain, long epoch,
                                const std::vector<int> &samples,
                                const std::vector<Watts> &block_power,
                                double didt, std::uint64_t run_seed,
                                NoiseScratch &scratch,
                                std::uint64_t power_stamp) const
{
    const auto &pdn = *pdns[static_cast<std::size_t>(domain)];
    std::size_t cycles =
        static_cast<std::size_t>(cfg.noiseCyclesTotal);
    int width = noiseBatchWidth();
    int k = static_cast<int>(samples.size());
    if (scratch.results.size() < static_cast<std::size_t>(width))
        scratch.results.resize(static_cast<std::size_t>(width));
    // Every truth window of the epoch shares one power vector, so the
    // lanes share its base currents.
    noiseBaseInto(domain, block_power, scratch, power_stamp);
    for (int q0 = 0; q0 < k; q0 += width) {
        int cnt = std::min(width, k - q0);
        for (int j = 0; j < cnt; ++j)
            stageNoiseLane(domain, j, epoch,
                           samples[static_cast<std::size_t>(q0 + j)],
                           didt, run_seed, scratch.baseLogic.data(),
                           scratch.baseMem.data(), scratch);
        pdn.transientWindowBatch(scratch.lanes.data(), cnt, cycles,
                                 cfg.noiseWarmupCycles, false,
                                 scratch.results.data());
        for (int j = 0; j < cnt; ++j)
            if (scratch.results[static_cast<std::size_t>(j)]
                    .emergencyCycles > 0)
                return true;
    }
    return false;
}

RunResult
Simulation::run(const workload::BenchmarkProfile &profile,
                PolicyKind policy, RecordOptions opts)
{
    std::vector<const workload::BenchmarkProfile *> per_core(
        static_cast<std::size_t>(chipRef.params.cores), &profile);
    return runMixed(per_core, profile.name, policy, opts);
}

RunResult
Simulation::runMixed(
    const std::vector<const workload::BenchmarkProfile *> &per_core,
    const std::string &label, PolicyKind policy, RecordOptions opts)
{
    TG_ASSERT(static_cast<int>(per_core.size()) ==
                  chipRef.params.cores,
              "need one profile per core");

    // --- Whole-run memoization -------------------------------------------
    // The full tuple (chip, config, profiles, policy, record options)
    // determines every bit of the result, so with memoization opted in
    // (a cache directory + memoizeResults) a warm query returns the
    // stored RunResult: first from the in-memory store, then from the
    // disk tier (verified + promoted into memory). A corrupt or
    // truncated disk entry is rejected and the run recomputes.
    const bool memo = memoActive();
    cache::Fingerprint memo_key{};
    if (memo) {
        memo_key = runKey(per_core, label, policy, opts);
        if (auto hit = cache::store().get<RunResult>(
                cache::ArtifactKind::RunResult, memo_key))
            return *hit;
        cache::DiskTier disk(cacheDirResolved);
        std::vector<std::uint8_t> payload;
        if (disk.load(cache::ArtifactKind::RunResult, memo_key,
                      payload)) {
            auto loaded = std::make_shared<RunResult>();
            if (cache::decodeRunResult(payload.data(), payload.size(),
                                       *loaded)) {
                cache::store().put<RunResult>(
                    cache::ArtifactKind::RunResult, memo_key,
                    std::shared_ptr<const RunResult>(loaded),
                    cache::runResultBytes(*loaded));
                return *loaded;
            }
        }
    }

    const auto &plan = chipRef.plan;
    const auto &domains = plan.domains();
    const int n_domains = static_cast<int>(domains.size());
    const int n_vrs = static_cast<int>(plan.vrs().size());

    if (core::isThermallyAware(policy))
        thermalPredictor();  // ensure thetas exist

    std::uint64_t run_seed = mixSeed(cfg.seed, hashString(label));

    // Per-domain di/dt intensity: a core domain inherits its own
    // program's character; an L3 bank sees the dampened average.
    double didt_avg = 0.0;
    for (const auto *p : per_core)
        didt_avg += p->didtActivity;
    didt_avg /= static_cast<double>(per_core.size());
    auto domain_didt = [&](int d) {
        const auto &dom =
            plan.domains()[static_cast<std::size_t>(d)];
        if (dom.kind == floorplan::DomainKind::Core) {
            // Core domain ids coincide with core ids on the canned
            // chips; fall back to the average otherwise.
            if (d < static_cast<int>(per_core.size()))
                return per_core[static_cast<std::size_t>(d)]
                    ->didtActivity;
            return didt_avg;
        }
        return 0.5 * didt_avg;
    };
    const Seconds dt = tm.step();
    const int fpe = std::max(
        1, static_cast<int>(std::round(cfg.decisionInterval / dt)));

    // --- Workload -> activity -> power trace (policy-independent) -------
    // The whole demand/activity/dynamic-power pipeline depends on
    // (chip, power model, step, frames-per-epoch, profiles, run seed)
    // but NOT on the policy, so its product — the PowerTrace with its
    // per-epoch mean/peak reductions — is a shared artifact: a sweep
    // builds it once per benchmark row and every policy cell (and
    // every worker context) reads the same immutable trace. On a hit
    // the demand and activity synthesis is skipped entirely.
    const cache::Fingerprint trace_key = [&] {
        cache::Hasher h;
        h.str("tg.key.power-trace.v1");
        h.fp(chipFp)
            .fp(cache::powerParamsFingerprint(cfg.powerParams))
            .f64(dt)
            .i64(fpe)
            .u64(run_seed);
        h.u64(per_core.size());
        for (const auto *p : per_core)
            h.fp(cache::profileFingerprint(*p));
        return h.digest();
    }();
    std::shared_ptr<const power::PowerTrace> trace =
        cache::store().getOrBuild<power::PowerTrace>(
            cache::ArtifactKind::PowerTrace, trace_key,
            [&] {
                auto demand = workload::generateMixedDemandTrace(
                    per_core, run_seed, dt);
                auto activity = uarch::buildActivityTrace(
                    chipRef, per_core, demand);
                return std::make_shared<const power::PowerTrace>(
                    pm, activity, fpe);
            },
            powerTraceBytes);

    const std::size_t n_frames = trace->frames();
    const long n_epochs =
        (static_cast<long>(n_frames) + fpe - 1) / fpe;
    const std::size_t n_blocks = plan.blocks().size();

    // --- Noise sample schedule -----------------------------------------
    int n_samples = opts.noiseSamplesOverride >= 0
                        ? opts.noiseSamplesOverride
                        : cfg.noiseSamples;
    if (policy == PolicyKind::OffChip)
        n_samples = 0;
    std::vector<std::vector<int>> samples_of_epoch(
        static_cast<std::size_t>(n_epochs));
    std::vector<int> sample_frame(static_cast<std::size_t>(n_samples));
    for (int s = 0; s < n_samples; ++s) {
        int f = static_cast<int>((s + 0.5) * static_cast<double>(
                                                 n_frames) /
                                 n_samples);
        f = std::min<int>(f, static_cast<int>(n_frames) - 1);
        sample_frame[static_cast<std::size_t>(s)] = f;
        samples_of_epoch[static_cast<std::size_t>(f / fpe)].push_back(
            s);
    }

    // --- Infrastructure -------------------------------------------------
    // Noise windows are independent across domains (per-domain PDN
    // scratch, per-domain NoiseScratch, RNG streams keyed by
    // (run_seed, epoch, sample, domain)), so the batched drain and the
    // truth windows — multiplier synthesis and solves — fan out across
    // a long-lived pool.
    // Results are reduced serially in (sample, domain) order, so any
    // worker count is bit-identical to the serial path. Sweep workers
    // (already on a pool thread) stay serial instead of
    // oversubscribing the machine.
    noiseScratch.resize(static_cast<std::size_t>(n_domains));
    noiseQueue.clear();
    for (auto &sc : noiseScratch)
        sc.solved = 0;
    if (!noisePool && n_samples > 0 && n_domains > 1 &&
        exec::ThreadPool::workerIndex() < 0) {
        int noise_jobs =
            std::min(exec::resolveJobs(cfg.jobs), n_domains);
        if (noise_jobs > 1)
            noisePool =
                std::make_unique<exec::ThreadPool>(noise_jobs);
    }

    // Per-domain decision state, sized once per run. The thetas are
    // fixed for the run (the predictor is fitted before it starts).
    domainEpoch.resize(static_cast<std::size_t>(n_domains));
    for (int d = 0; d < n_domains; ++d) {
        const auto &vrs = domains[static_cast<std::size_t>(d)].vrs;
        auto &thetas = domainEpoch[static_cast<std::size_t>(d)].thetas;
        thetas.clear();
        if (predictor)
            for (int v : vrs)
                thetas.push_back(predictor->theta(v));
    }

    core::Governor governor(policy, n_domains);
    core::AgingModel aging(n_vrs);
    sensors::ThermalSensorBank sensor_bank(
        n_vrs, cfg.sensorParams, mixSeed(run_seed, 0x5eb5u));
    sensors::EmergencyPredictor em_predictor(
        cfg.predictorParams, mixSeed(run_seed, 0xe456u));
    std::vector<WmaForecaster> wma(static_cast<std::size_t>(n_domains),
                                   WmaForecaster(3));

    // --- Fault injection (optional) --------------------------------------
    // An empty (or absent) scenario takes the exact code paths of a
    // clean run: every fault hook below is gated on `injector`, so
    // results stay bit-identical to a run without the option.
    const fault::FaultScenario *scenario =
        (opts.faultScenario && !opts.faultScenario->empty())
            ? opts.faultScenario
            : nullptr;
    std::unique_ptr<fault::FaultInjector> injector;
    std::unique_ptr<sensors::SensorHealthMonitor> health;
    if (scenario) {
        std::vector<int> vr_domain(vrLocal.size());
        for (std::size_t v = 0; v < vrLocal.size(); ++v)
            vr_domain[v] = vrLocal[v].first;
        injector = std::make_unique<fault::FaultInjector>(
            *scenario, std::move(vr_domain), n_vrs, run_seed);
        std::vector<std::pair<double, double>> positions;
        positions.reserve(plan.vrs().size());
        for (const auto &site : plan.vrs())
            positions.emplace_back(site.rect.cx(), site.rect.cy());
        health = std::make_unique<sensors::SensorHealthMonitor>(
            std::move(positions), cfg.healthParams);
    }
    long faulted_epochs = 0;
    long quarantined_epochs = 0;
    int peak_quarantined = 0;
    long alerts_suppressed = 0;
    long alerts_injected = 0;
    long em_cycles_faulted = 0;
    long em_cycles_clean = 0;

    const bool oracular_inputs = core::isOracular(policy) ||
                                 policy == PolicyKind::Naive ||
                                 policy == PolicyKind::AllOn;
    const bool off_chip = policy == PolicyKind::OffChip;

    // --- Initial condition ----------------------------------------------
    std::vector<Watts> vr_loss(static_cast<std::size_t>(n_vrs), 0.0);
    std::vector<std::vector<int>> active_sets(
        static_cast<std::size_t>(n_domains));
    if (!off_chip) {
        for (int d = 0; d < n_domains; ++d) {
            auto &set = active_sets[static_cast<std::size_t>(d)];
            set.resize(domains[static_cast<std::size_t>(d)].vrs.size());
            for (std::size_t i = 0; i < set.size(); ++i)
                set[i] = static_cast<int>(i);
        }
    }

    // Settle the thermal state at frame 0 under the current active
    // sets: `iterations` rounds of the leakage -> per-domain VR loss
    // -> steady-state fixed point. Empty sets (off-chip) add no loss.
    std::vector<Celsius> temps =
        tm.uniformState(cfg.thermalParams.ambient + 12.0);
    auto settle = [&](int iterations) {
        const Watts *dyn0 = trace->frame(0);
        for (int it = 0; it < iterations; ++it) {
            tm.blockTempsInto(temps, fs.blockT);
            pm.leakageFrameInto(fs.blockT, fs.leak);
            std::vector<Watts> block_power(dyn0, dyn0 + n_blocks);
            for (std::size_t b = 0; b < block_power.size(); ++b)
                block_power[b] += fs.leak[b];
            std::fill(vr_loss.begin(), vr_loss.end(), 0.0);
            for (int d = 0; d < n_domains; ++d) {
                const auto &set = active_sets[static_cast<std::size_t>(d)];
                if (set.empty())
                    continue;
                Amperes i_d = pm.domainCurrent(block_power, d);
                auto op = networks[static_cast<std::size_t>(d)].evaluate(
                    i_d, static_cast<int>(set.size()));
                for (int l : set)
                    vr_loss[static_cast<std::size_t>(
                        domains[static_cast<std::size_t>(d)]
                            .vrs[static_cast<std::size_t>(l)])] =
                        op.plossTotal / set.size();
            }
            temps = tm.steadyState(tm.powerVector(block_power, vr_loss));
        }
    };
    settle(4);
    {
        fs.vrT.resize(static_cast<std::size_t>(n_vrs));
        for (int v = 0; v < n_vrs; ++v)
            fs.vrT[static_cast<std::size_t>(v)] = tm.vrTemp(temps, v);
        sensor_bank.record(0.0, fs.vrT);
    }

    // --- Result accumulators ---------------------------------------------
    RunResult res;
    res.benchmark = label;
    res.policy = policy;

    RunningStats ploss_stats;
    RunningStats power_stats;
    RunningStats active_stats;
    double eta_weighted = 0.0;
    double eta_weight = 0.0;
    long emergency_cycles = 0;
    long analysed_cycles = 0;
    double best_trace_noise = -1.0;

    std::vector<Watts> last_block_power(
        trace->frame(0), trace->frame(0) + n_blocks);
    {
        tm.blockTempsInto(temps, fs.blockT);
        pm.leakageFrameInto(fs.blockT, fs.leak);
        for (std::size_t b = 0; b < last_block_power.size(); ++b)
            last_block_power[b] += fs.leak[b];
    }

    // --- Noise queue flush/drain ----------------------------------------
    // The queue of captured-but-unsolved windows (one base-vector
    // buffer per domain, indexed by the shared noiseQueue) drains in
    // two stages. flush_domain(d) synthesises the multipliers of d's
    // pending windows and solves them in lockstep chunks — called
    // early when d's active set is about to change, so the solves
    // still run under the factorisation the windows were scheduled
    // against. drain_all() completes every domain's solves
    // and reduces all results serially in global (sample, domain)
    // order: the reduction executes the exact max/sum/compare
    // sequence of an epoch-by-epoch drain, so coalescing windows
    // across epochs is bit-invisible. Lanes of a lockstep batch never
    // interact, so chunk boundaries — which do shift when windows
    // coalesce or flush early — are bit-irrelevant too.
    const bool want_trace = opts.noiseTrace;
    const std::size_t win_cycles =
        static_cast<std::size_t>(cfg.noiseCyclesTotal);
    const int width = noiseBatchWidth();

    // Policy handles of one domain: its PDN, network and thetas.
    auto kit_of = [&](int d) {
        core::PolicyToolkit kit;
        kit.pdn = pdns[static_cast<std::size_t>(d)].get();
        kit.network = &networks[static_cast<std::size_t>(d)];
        kit.thetas = &domainEpoch[static_cast<std::size_t>(d)].thetas;
        return kit;
    };

    // Runs fn(d) for every domain: one task per domain on the noise
    // pool when there is one, else inline in domain order. Callers
    // touch only domain d's PDN, scratch and per-domain state.
    auto for_each_domain = [&](auto &&fn) {
        if (noisePool) {
            exec::parallelForOn(*noisePool,
                                static_cast<std::size_t>(n_domains),
                                [&](int, std::size_t d) { fn(d); });
        } else {
            for (int d = 0; d < n_domains; ++d)
                fn(static_cast<std::size_t>(d));
        }
    };

    auto flush_domain = [&](int d) {
        auto &sc = noiseScratch[static_cast<std::size_t>(d)];
        const int k = static_cast<int>(noiseQueue.size());
        if (static_cast<int>(sc.solved) >= k)
            return;
        const auto &pdn = *pdns[static_cast<std::size_t>(d)];
        std::size_t n = static_cast<std::size_t>(pdn.nodeCount());
        std::size_t uk = static_cast<std::size_t>(k);
        if (sc.results.size() < uk)
            sc.results.resize(uk);
        const double didt = domain_didt(d);
        for (int q0 = static_cast<int>(sc.solved); q0 < k;
             q0 += width) {
            int cnt = std::min(width, k - q0);
            for (int j = 0; j < cnt; ++j) {
                std::size_t q = static_cast<std::size_t>(q0 + j);
                const Amperes *base = sc.queue.data() + q * 2 * n;
                stageNoiseLane(d, j, noiseQueue[q].epoch,
                               noiseQueue[q].sample, didt, run_seed,
                               base, base + n, sc);
            }
            pdn.transientWindowBatch(sc.lanes.data(), cnt, win_cycles,
                                     cfg.noiseWarmupCycles, want_trace,
                                     sc.results.data() + q0);
        }
        sc.solved = uk;
    };

    auto drain_all = [&]() {
        if (noiseQueue.empty())
            return;
        for_each_domain(
            [&](std::size_t d) { flush_domain(static_cast<int>(d)); });
        const int k = static_cast<int>(noiseQueue.size());
        for (int q = 0; q < k; ++q) {
            int em_max = 0;
            int analysed = 0;
            for (int d = 0; d < n_domains; ++d) {
                auto &w = noiseScratch[static_cast<std::size_t>(d)]
                              .results[static_cast<std::size_t>(q)];
                double max_noise = w.maxNoiseFrac;
                if (core::hasEmergencyOverride(policy)) {
                    // Even when the *predictive* path missed
                    // (PracVT's 90% sensitivity), the runtime
                    // emergency detector fires on the first
                    // threshold crossing and snaps the domain to
                    // all-on within the droop, capping the
                    // excursion shortly past the threshold.
                    double cap = cfg.pdnParams.emergencyFrac * 1.32;
                    if (max_noise > cap)
                        max_noise = cap;
                }
                res.maxNoiseFrac =
                    std::max(res.maxNoiseFrac, max_noise);
                em_max = std::max(em_max, w.emergencyCycles);
                analysed = w.analysedCycles;
                if (want_trace && max_noise > best_trace_noise) {
                    best_trace_noise = max_noise;
                    res.noiseTrace = std::move(w.trace);
                    res.noiseTraceDomain = d;
                    res.noiseTraceTimeUs =
                        noiseQueue[static_cast<std::size_t>(q)]
                            .timeUs;
                }
            }
            emergency_cycles += em_max;
            analysed_cycles += analysed;
            if (injector) {
                // Attributed to the epoch the sample was *scheduled*
                // in (recorded at queue time), not the one draining.
                if (noiseQueue[static_cast<std::size_t>(q)].faulted)
                    em_cycles_faulted += em_max;
                else
                    em_cycles_clean += em_max;
            }
        }
        noiseQueue.clear();
        for (auto &sc : noiseScratch)
            sc.solved = 0;
    };

    // =====================================================================
    // Main loop: one gating decision per epoch, thermal steps per
    // frame, noise windows at the scheduled sample frames.
    // =====================================================================
    for (long e = 0; e < n_epochs; ++e) {
        // Cancellation point: one check per decision epoch. Aborting
        // here publishes nothing — the memo store/disk save only run
        // after the loop completes — so a cancelled run leaves no
        // partial artifact, and the next run() on this instance
        // resets every scratch buffer it could have dirtied.
        if (opts.cancel)
            opts.cancel->throwIfCancelled();
        std::size_t f0 = static_cast<std::size_t>(e) *
                         static_cast<std::size_t>(fpe);
        std::size_t f1 =
            std::min(n_frames, f0 + static_cast<std::size_t>(fpe));
        Seconds epoch_t = static_cast<double>(f0) * dt;

        // Fault state advances at decision granularity and stays
        // fixed for the whole epoch.
        bool epoch_faulted = false;
        if (injector) {
            injector->advanceTo(epoch_t);
            epoch_faulted = injector->anyActive();
            if (epoch_faulted)
                ++faulted_epochs;
        }

        // ---- Decisions ---------------------------------------------------
        if (!off_chip) {
            const std::vector<int> &epoch_samples =
                samples_of_epoch[static_cast<std::size_t>(e)];
            const bool truth_epoch = core::hasEmergencyOverride(policy) &&
                                     !epoch_samples.empty();
            // Emergency-truth epochs re-key the factorisation and
            // reuse the lane and result buffers, so coalesced windows from
            // earlier epochs must fully drain first (the flush rule's
            // "decision boundary" case). Epochs without truth windows
            // keep their queues pending.
            if (truth_epoch)
                drain_all();

            // Epoch provisioning power: the trace's blended mean/peak
            // row (oracular policies provision n_on for the epoch's
            // demand *excursions*, not just its mean) plus leakage at
            // the current temperatures.
            const Watts *mean_dyn = trace->epochDynamic(e);
            tm.blockTempsInto(temps, fs.blockT);
            pm.leakageFrameInto(fs.blockT, fs.leak);
            fs.meanPower.resize(n_blocks);
            for (std::size_t b = 0; b < n_blocks; ++b)
                fs.meanPower[b] = mean_dyn[b] + fs.leak[b];
            const std::vector<Watts> &mean_power = fs.meanPower;
            const std::uint64_t mean_stamp = ++powerStamp;

            std::vector<Celsius> &vr_true = fs.vrT;
            vr_true.resize(static_cast<std::size_t>(n_vrs));
            for (int v = 0; v < n_vrs; ++v)
                vr_true[static_cast<std::size_t>(v)] =
                    tm.vrTemp(temps, v);
            sensor_bank.readInto(epoch_t, fs.vrSensor);
            if (injector) {
                // Corrupt what the control loop observes, then let the
                // health monitor quarantine and substitute. Ground
                // truth (fs.vrT, the thermal model) is untouched.
                injector->corruptSensors(epoch_t, e, fs.vrSensor);
                health->filter(epoch_t, fs.vrSensor);
                int qn = health->quarantinedCount();
                if (qn > 0)
                    ++quarantined_epochs;
                peak_quarantined = std::max(peak_quarantined, qn);
                if (res.resilience.detectionLatency < 0.0 && qn > 0) {
                    // First quarantine: latency from the earliest
                    // still-active fault on a quarantined sensor.
                    for (int v = 0; v < n_vrs; ++v) {
                        if (!health->quarantined(v))
                            continue;
                        Seconds onset = injector->sensorFaultOnset(v);
                        if (onset >= 0.0 && epoch_t >= onset) {
                            res.resilience.detectionLatency =
                                epoch_t - onset;
                            break;
                        }
                    }
                }
            }
            const std::vector<Celsius> &vr_sensor = fs.vrSensor;

            // One decision epoch runs in three phases. (1) Decide,
            // serially in domain order: forecast, sensor and fault
            // masks, and the policy's selection. (2) Truth, in a truth
            // epoch: every domain keys its PDN to its selection and
            // solves the epoch's truth windows; domains touch only
            // their own PDN, scratch and flag, so the windows fan out
            // across the noise pool. (3) Apply, serially in domain
            // order: the alert, the override re-decision and the
            // activity update; then the domains whose selection
            // changed re-key their PDNs, again one task per domain.
            // The split is bit-invisible:
            // predictor draws are keyed by (domain, decision), alert
            // faults by (decision, event), truth windows by (run_seed,
            // epoch, sample, domain), policies are stateless and the
            // governor's counters are order-free sums.

            // ---- Phase 1: decide ----------------------------------------
            for (int d = 0; d < n_domains; ++d) {
                const auto &dom =
                    domains[static_cast<std::size_t>(d)];
                auto &net = networks[static_cast<std::size_t>(d)];
                auto &pdn = *pdns[static_cast<std::size_t>(d)];
                auto &de = domainEpoch[static_cast<std::size_t>(d)];

                Amperes demand_now =
                    pm.domainCurrent(last_block_power, d);
                Amperes true_next =
                    pm.domainCurrent(mean_power, d);
                auto &forecaster =
                    wma[static_cast<std::size_t>(d)];
                forecaster.observe(demand_now);
                Amperes wma_next = forecaster.predict();

                core::DomainState &st = de.st;
                st.domain = d;
                st.decision = e;
                st.demandNow = demand_now;
                st.demandNext =
                    oracular_inputs
                        ? true_next
                        : std::max(wma_next, demand_now) *
                              (1.0 + cfg.practicalDemandMargin);
                st.didt = domain_didt(d);
                st.headroomVrs = 0;
                if (!oracular_inputs &&
                    policy != PolicyKind::OffChip)
                    st.headroomVrs = cfg.practicalHeadroomVrs;

                st.vrTemps.resize(dom.vrs.size());
                st.vrLossNow.resize(dom.vrs.size());
                for (std::size_t l = 0; l < dom.vrs.size(); ++l) {
                    std::size_t v = static_cast<std::size_t>(
                        dom.vrs[l]);
                    st.vrTemps[l] = oracular_inputs ? vr_true[v]
                                                    : vr_sensor[v];
                    st.vrLossNow[l] = vr_loss[v];
                }
                // Regulator-fault masks (de.st is reused, so the
                // clean path must leave them empty).
                if (injector && injector->anyVrFault()) {
                    st.vrUnavailable.resize(dom.vrs.size());
                    st.vrForcedOn.resize(dom.vrs.size());
                    for (std::size_t l = 0; l < dom.vrs.size();
                         ++l) {
                        int v = dom.vrs[l];
                        st.vrUnavailable[l] =
                            injector->vrFailed(v) ? 1 : 0;
                        st.vrForcedOn[l] =
                            injector->vrStuckOn(v) ? 1 : 0;
                    }
                } else {
                    st.vrUnavailable.clear();
                    st.vrForcedOn.clear();
                }
                int non_next = net.requiredActive(st.demandNext);
                auto op_next = net.evaluate(st.demandNext, non_next);
                st.vrLossNextPerActive = op_next.plossTotal /
                                         non_next;

                pdn.nodeCurrentsInto(
                    oracular_inputs ? mean_power : last_block_power,
                    st.nodeCurrents);

                de.decision =
                    governor.decide(st, kit_of(d), false);
            }

            // ---- Phase 2: emergency truth -------------------------------
            // The queue is empty here — the decision-boundary drain
            // solved every pending window — so re-keying a PDN
            // strands nothing, and the truth windows reuse the result
            // buffers from offset 0.
            if (truth_epoch) {
                TG_ASSERT(noiseQueue.empty(),
                          "truth windows would overwrite queued "
                          "noise windows");
                for_each_domain([&](std::size_t d) {
                    auto &de = domainEpoch[d];
                    auto &pdn = *pdns[d];
                    if (de.decision.active != pdn.active())
                        pdn.setActive(de.decision.active);
                    de.truth = epochEmergencyTruth(
                        static_cast<int>(d), e, epoch_samples,
                        mean_power, de.st.didt, run_seed,
                        noiseScratch[d], mean_stamp);
                });
            }

            // ---- Phase 3: apply -----------------------------------------
            bool any_rekey = false;
            for (int d = 0; d < n_domains; ++d) {
                const auto &dom =
                    domains[static_cast<std::size_t>(d)];
                const auto &pdn = *pdns[static_cast<std::size_t>(d)];
                auto &de = domainEpoch[static_cast<std::size_t>(d)];
                core::Decision &decision = de.decision;
                if (truth_epoch) {
                    bool alert =
                        policy == PolicyKind::OracVT
                            ? de.truth
                            : em_predictor.predict(d, e, de.truth);
                    if (injector)
                        alert = injector->perturbAlert(
                            d, e, alert, &alerts_suppressed,
                            &alerts_injected);
                    if (alert)
                        decision = governor.decide(de.st, kit_of(d),
                                                   true);
                }

                active_sets[static_cast<std::size_t>(d)] =
                    decision.active;
                any_rekey = any_rekey || decision.active != pdn.active();
                governor.recordActivity(
                    d, decision.active,
                    static_cast<int>(dom.vrs.size()),
                    static_cast<double>(f1 - f0) * dt);
            }
            res.overrideCount = governor.overrideCount();
            // Re-key the domains whose selection changed. Unchanged
            // selections keep the cached factorisation AND any
            // coalesced windows pending against it; a change solves
            // the domain's pending windows under the outgoing set
            // first. Policies read only their own domain's PDN, so
            // re-keying after every domain's decision is the same as
            // re-keying after each, and the re-keys can fan out. They
            // do only when windows are queued: a bare setActive() is
            // cheaper than a pool hand-off.
            auto rekey = [&](std::size_t d) {
                auto &pdn = *pdns[d];
                const auto &active = domainEpoch[d].decision.active;
                if (active != pdn.active()) {
                    flush_domain(static_cast<int>(d));
                    pdn.setActive(active);
                }
            };
            if (any_rekey && noiseQueue.empty()) {
                for (int d = 0; d < n_domains; ++d)
                    rekey(static_cast<std::size_t>(d));
            } else if (any_rekey) {
                for_each_domain(rekey);
            }

            // Policy-consistent warm start: the ROI is entered from
            // preceding execution under the same gating policy, so
            // re-derive the initial thermal state from the first
            // decision's configuration instead of the all-on
            // bootstrap state (otherwise every policy would inherit
            // the all-on maximum).
            if (e == 0) {
                settle(3);
                const Watts *dyn0 = trace->frame(0);
                last_block_power.assign(dyn0, dyn0 + n_blocks);
                tm.blockTempsInto(temps, fs.blockT);
                pm.leakageFrameInto(fs.blockT, fs.leak);
                for (std::size_t b = 0;
                     b < last_block_power.size(); ++b)
                    last_block_power[b] += fs.leak[b];
            }
        }

        // ---- Frames ---------------------------------------------------
        for (std::size_t f = f0; f < f1; ++f) {
            Seconds now = static_cast<double>(f) * dt;
            tm.blockTempsInto(temps, fs.blockT);
            const Watts *dyn = trace->frame(f);
            pm.leakageFrameInto(fs.blockT, fs.leak);
            std::vector<Watts> &block_power = fs.blockPower;
            block_power.resize(n_blocks);
            Watts total_load = 0.0;
            for (std::size_t b = 0; b < block_power.size(); ++b) {
                block_power[b] = dyn[b] + fs.leak[b];
                total_load += block_power[b];
            }
            const std::uint64_t frame_stamp = ++powerStamp;
            last_block_power = block_power;
            power_stats.add(total_load);

            std::fill(vr_loss.begin(), vr_loss.end(), 0.0);
            int active_total = 0;
            Watts ploss_total = 0.0;
            if (!off_chip) {
                for (int d = 0; d < n_domains; ++d) {
                    const auto &dom =
                        domains[static_cast<std::size_t>(d)];
                    const auto &set =
                        active_sets[static_cast<std::size_t>(d)];
                    if (set.empty())
                        continue;  // dark domain (total VR loss)
                    Amperes i_d = pm.domainCurrent(block_power, d);
                    auto op =
                        networks[static_cast<std::size_t>(d)]
                            .evaluate(i_d,
                                      static_cast<int>(set.size()));
                    if (injector && injector->anyVrFault()) {
                        // A derated VR dissipates a multiple of its
                        // nominal share; the physics sees the extra
                        // heat even though the governor does not.
                        for (int l : set) {
                            std::size_t v = static_cast<std::size_t>(
                                dom.vrs[static_cast<std::size_t>(l)]);
                            vr_loss[v] =
                                (op.plossTotal / set.size()) *
                                injector->vrLossMultiplier(
                                    static_cast<int>(v));
                        }
                    } else {
                        for (int l : set)
                            vr_loss[static_cast<std::size_t>(
                                dom.vrs[static_cast<std::size_t>(
                                    l)])] = op.plossTotal / set.size();
                    }
                    ploss_total += op.plossTotal;
                    active_total += static_cast<int>(set.size());
                    eta_weighted += op.eta * i_d;
                    eta_weight += i_d;
                }
            }
            ploss_stats.add(ploss_total);
            active_stats.add(active_total);

            tm.powerVectorInto(block_power, vr_loss, fs.nodalPower);
            tm.advance(temps, fs.nodalPower);

            Celsius tmax = tm.maxDieTemp(temps);
            Celsius grad = tm.gradient(temps);
            if (tmax > res.maxTmax) {
                res.maxTmax = tmax;
                auto hs = tm.hottest(temps);
                if (hs.isVr) {
                    res.hottestSpot =
                        plan.vrs()[static_cast<std::size_t>(hs.vr)]
                            .name;
                } else {
                    auto [cx, cy] = tm.cellCentre(hs.row, hs.col);
                    int b = plan.blockAt(cx, cy);
                    res.hottestSpot =
                        b >= 0 ? plan.blocks()
                                     [static_cast<std::size_t>(b)]
                                         .name
                               : "?";
                }
                if (opts.heatmap) {
                    res.heatmap = tm.dieGrid(temps);
                    res.heatmapW = tm.params().gridW;
                    res.heatmapH = tm.params().gridH;
                    res.heatmapTimeUs = now * 1e6;
                }
            }
            res.maxGradient = std::max(res.maxGradient, grad);

            std::vector<Celsius> &vr_t = fs.vrT;
            vr_t.resize(static_cast<std::size_t>(n_vrs));
            for (int v = 0; v < n_vrs; ++v)
                vr_t[static_cast<std::size_t>(v)] =
                    tm.vrTemp(temps, v);
            sensor_bank.record(now + dt, vr_t);

            // Wear-out accounting (Section 7): loss while active
            // stresses the regulator at a temperature-exponential
            // rate.
            for (int v = 0; v < n_vrs; ++v)
                aging.accumulate(
                    v, vr_t[static_cast<std::size_t>(v)],
                    vr_loss[static_cast<std::size_t>(v)] > 0.0, dt);

            if (opts.timeSeries) {
                res.timeUs.push_back((now + dt) * 1e6);
                res.totalPowerW.push_back(total_load);
                res.activeVrs.push_back(active_total);
            }
            if (opts.trackVr >= 0) {
                auto [td, tl] = vrLocal[static_cast<std::size_t>(
                    opts.trackVr)];
                bool on = false;
                if (!off_chip)
                    for (int l :
                         active_sets[static_cast<std::size_t>(td)])
                        if (l == tl)
                            on = true;
                res.trackedVrTemp.push_back(
                    vr_t[static_cast<std::size_t>(opts.trackVr)]);
                res.trackedVrOn.push_back(on ? 1 : 0);
            }

            // ---- Noise windows scheduled at this frame -------------
            // A window's load is fixed HERE, against this frame's
            // block power: the frame captures each domain's two base
            // vectors, and the multipliers and the transient solve
            // follow in the batched drain below (the active set only
            // changes at epoch decisions, so the deferred solves run
            // against the same factorisation the immediate ones did).
            if (!off_chip) {
                for (int s :
                     samples_of_epoch[static_cast<std::size_t>(e)]) {
                    if (sample_frame[static_cast<std::size_t>(s)] !=
                        static_cast<int>(f))
                        continue;
                    std::size_t q = noiseQueue.size();
                    noiseQueue.push_back({s, e, now * 1e6,
                                          epoch_faulted});
                    for (int d = 0; d < n_domains; ++d) {
                        auto &sc =
                            noiseScratch[static_cast<std::size_t>(d)];
                        std::size_t n = static_cast<std::size_t>(
                            pdns[static_cast<std::size_t>(d)]
                                ->nodeCount());
                        if (sc.queue.size() < (q + 1) * 2 * n)
                            sc.queue.resize((q + 1) * 2 * n);
                        noiseBaseInto(d, block_power, sc, frame_stamp);
                        Amperes *dst = sc.queue.data() + q * 2 * n;
                        std::copy(sc.baseLogic.begin(),
                                  sc.baseLogic.end(), dst);
                        std::copy(sc.baseMem.begin(), sc.baseMem.end(),
                                  dst + n);
                    }
                    // Width cap: coalescing never queues more than
                    // one full lockstep dispatch.
                    if (static_cast<int>(noiseQueue.size()) >= width)
                        drain_all();
                }
            }
        }
    }

    // Whatever still rides the queue at the end of the run.
    if (!off_chip)
        drain_all();

    res.avgRegulatorLoss = ploss_stats.mean();
    res.meanPower = power_stats.mean();
    res.avgActiveVrs = active_stats.mean();
    res.avgEta =
        off_chip ? 1.0
                 : (eta_weight > 0.0 ? eta_weighted / eta_weight
                                     : 0.0);
    res.emergencyFrac =
        analysed_cycles > 0
            ? static_cast<double>(emergency_cycles) /
                  static_cast<double>(analysed_cycles)
            : 0.0;

    if (scenario) {
        auto &rs = res.resilience;
        rs.scheduledFaults =
            static_cast<long>(scenario->events().size());
        rs.faultedEpochs = faulted_epochs;
        rs.degradedDecisions = governor.degradedDecisionCount();
        rs.floorEngagements = governor.floorEngagementCount();
        rs.underSuppliedDecisions = governor.underSuppliedCount();
        rs.quarantineEvents = health->quarantineEvents();
        rs.quarantinedEpochs = quarantined_epochs;
        rs.peakQuarantined = peak_quarantined;
        rs.alertsSuppressed = alerts_suppressed;
        rs.alertsInjected = alerts_injected;
        rs.emergencyCyclesFaulted = em_cycles_faulted;
        rs.emergencyCyclesClean = em_cycles_clean;
    }

    res.vrAging = aging.damages();
    res.agingImbalance = aging.imbalance();
    res.vrActivity.resize(static_cast<std::size_t>(n_vrs), 0.0);
    if (!off_chip)
        for (int v = 0; v < n_vrs; ++v) {
            auto [d, l] = vrLocal[static_cast<std::size_t>(v)];
            res.vrActivity[static_cast<std::size_t>(v)] =
                governor.activityRate(d, l);
        }

    if (memo) {
        cache::store().put<RunResult>(
            cache::ArtifactKind::RunResult, memo_key,
            std::make_shared<const RunResult>(res),
            cache::runResultBytes(res));
        cache::DiskTier disk(cacheDirResolved);
        disk.save(cache::ArtifactKind::RunResult, memo_key,
                  cache::encodeRunResult(res),
                  "tg run-result v1 " + label + " policy=" +
                      core::policyName(policy) +
                      " key=" + memo_key.hex());
    }

    return res;
}

} // namespace sim
} // namespace tg
