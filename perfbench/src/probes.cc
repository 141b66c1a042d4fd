/**
 * @file
 * Layer probes of the traced run: each times one src/ module's public
 * entry point from outside, on inputs sized from the workloads' own
 * cells, frames and windows (grid-default's profiles and frames,
 * paper-noise's window length and batch width). Every probe sits in a
 * span named after its module.
 */
#include <algorithm>
#include <cmath>

#include "cache/store.hh"
#include "common/rng.hh"
#include "core/governor.hh"
#include "floorplan/power8.hh"
#include "measure.hh"
#include "power/trace.hh"
#include "sim/simulation.hh"
#include "trace.hh"
#include "uarch/core_model.hh"
#include "workload/cycles.hh"
#include "workload/demand.hh"
#include "workload/profile.hh"
#include "workloads.hh"

namespace pb {

using namespace tg;
using core::PolicyKind;

namespace {

/** Keeps probe results observable so no call is optimised away. */
volatile double sink = 0.0;

/** Set-up cost split: Simulation constructor and theta calibration. */
void
setupProbe(const Options &opts, Report &report)
{
    std::vector<double> ctor, calibrate;
    for (int i = 0; i < 3; ++i) {
        cache::store().clear();
        const floorplan::Chip chip = floorplan::buildPower8Chip();
        double t = now();
        std::unique_ptr<sim::Simulation> s;
        {
            trace::Scope span("sim.Simulation");
            s = std::make_unique<sim::Simulation>(chip, gridConfig(opts.seed));
        }
        ctor.push_back((now() - t) * 1e3);
        t = now();
        {
            trace::Scope span("sim.thermalPredictor");
            s->thermalPredictor();
        }
        calibrate.push_back((now() - t) * 1e3);
    }
    report.metric("sim.ctor_ms", median(ctor), "ms");
    report.metric("sim.calibrate_ms", median(calibrate), "ms");
}

/** One warm run per policy at paper sampling and at the grid's
 *  sampling, and the frame loop alone (noise sampling off). */
void
runProbe(const Options &opts, Report &report)
{
    const floorplan::Chip chip = floorplan::buildPower8Chip();
    const auto &profile = workload::profileByName("fft");
    sim::RecordOptions no_noise;
    no_noise.noiseSamplesOverride = 0;

    auto timed = [&](sim::Simulation &s, PolicyKind p,
                     const sim::RecordOptions &ro) {
        trace::Scope span("sim.run");
        const double t = now();
        sink = sink + s.run(profile, p, ro).maxTmax;
        return (now() - t) * 1e3;
    };

    sim::Simulation paper(chip, paperNoiseConfig(opts.seed, opts.tiny));
    sim::Simulation grid(chip, gridConfig(opts.seed));
    paper.thermalPredictor();
    grid.thermalPredictor();
    // Warm the shared power trace so every timed run reads it.
    timed(paper, PolicyKind::OffChip, no_noise);

    double paper_sum = 0.0, grid_sum = 0.0, frame_sum = 0.0;
    const auto &policies = core::allPolicyKinds();
    for (auto p : policies) {
        const double ms = timed(paper, p, {});
        report.metric(std::string("sim.run_ms.") + core::policyName(p), ms,
                      "ms");
        paper_sum += ms;
        grid_sum += timed(grid, p, {});
        frame_sum += timed(grid, p, no_noise);
    }
    report.metric("sim.frame_loop_ms",
                  frame_sum / static_cast<double>(policies.size()), "ms");
    report.metric("sim.noise_share.paper-noise", 1.0 - frame_sum / paper_sum,
                  "ratio");
    report.metric("sim.noise_share.grid-default", 1.0 - frame_sum / grid_sum,
                  "ratio");
}

/**
 * workload -> uarch -> power per grid row, then thermal, vreg, core
 * and pdn on the frames, epochs and windows of the first row.
 */
void
layerChainProbe(const Options &opts, Report &report)
{
    const floorplan::Chip chip = floorplan::buildPower8Chip();
    sim::Simulation simulation(chip, gridConfig(opts.seed));
    const auto &predictor = simulation.thermalPredictor();
    const auto &tm = simulation.thermalModel();
    const auto &pm = simulation.powerModel();
    const Seconds dt = tm.step();
    const int fpe = std::max(
        1, static_cast<int>(std::round(simulation.config().decisionInterval / dt)));

    // --- workload / uarch / power, one trace per grid row ------------
    const auto benches = gridBenchmarks(opts.tiny);
    double demand_ms = 0.0, activity_ms = 0.0, trace_ms = 0.0, frames = 0.0;
    power::PowerTrace first;
    for (std::size_t i = 0; i < benches.size(); ++i) {
        const auto &profile = workload::profileByName(benches[i]);
        const std::vector<const workload::BenchmarkProfile *> per_core(
            static_cast<std::size_t>(chip.params.cores), &profile);
        const std::uint64_t seed = mixSeed(opts.seed, hashString(profile.name));
        double t = now();
        workload::DemandTrace demand;
        {
            trace::Scope s("workload.generateMixedDemandTrace");
            demand = workload::generateMixedDemandTrace(per_core, seed, dt);
        }
        demand_ms += (now() - t) * 1e3;
        t = now();
        uarch::ActivityTrace activity;
        {
            trace::Scope s("uarch.buildActivityTrace");
            activity = uarch::buildActivityTrace(chip, per_core, demand);
        }
        activity_ms += (now() - t) * 1e3;
        t = now();
        {
            trace::Scope s("power.PowerTrace");
            power::PowerTrace pt(pm, activity, fpe);
            trace_ms += (now() - t) * 1e3;
            frames += static_cast<double>(pt.frames());
            if (i == 0)
                first = std::move(pt);
        }
    }
    const double rows = static_cast<double>(benches.size());
    report.metric("workload.demand_ms", demand_ms / rows, "ms");
    report.metric("uarch.activity_ms", activity_ms / rows, "ms");
    report.metric("power.trace_ms", trace_ms / rows, "ms");
    report.metric("power.frames", frames / rows, "count");

    // --- thermal: one advance per frame, and the steady state --------
    const auto &plan = chip.plan;
    const std::size_t n_blocks = plan.blocks().size();
    const std::size_t n_vrs = plan.vrs().size();
    const std::vector<Watts> no_vr_loss(n_vrs, 0.0);
    std::vector<std::vector<Watts>> nodal(first.frames());
    std::vector<std::vector<Watts>> block_power(first.frames());
    for (std::size_t f = 0; f < first.frames(); ++f) {
        block_power[f].assign(first.frame(f), first.frame(f) + n_blocks);
        nodal[f] = tm.powerVector(block_power[f], no_vr_loss);
    }
    std::vector<Celsius> temps = tm.steadyState(nodal[0]);
    double t = now();
    {
        trace::Scope s("thermal.advance");
        for (const auto &p : nodal)
            tm.advance(temps, p);
    }
    report.metric("thermal.advance_us",
                  (now() - t) * 1e6 / static_cast<double>(nodal.size()), "us");
    t = now();
    {
        trace::Scope s("thermal.steadyState");
        for (int i = 0; i < 5; ++i)
            sink = sink + tm.steadyState(nodal[static_cast<std::size_t>(i) *
                                              (nodal.size() - 1) / 4])[0];
    }
    report.metric("thermal.steady_ms", (now() - t) * 1e3 / 5.0, "ms");

    // --- vreg: the efficiency model over each frame's domain demand ---
    const int n_domains = static_cast<int>(plan.domains().size());
    std::vector<std::pair<int, std::pair<Amperes, int>>> evals;
    for (const auto &bp : block_power)
        for (int d = 0; d < n_domains; ++d) {
            const Amperes i_d = pm.domainCurrent(bp, d);
            evals.push_back(
                {d, {i_d, simulation.network(d).requiredActive(i_d)}});
        }
    const int reps = opts.tiny ? 1 : 20;
    t = now();
    {
        trace::Scope s("vreg.RegulatorNetwork.evaluate");
        double acc = 0.0;
        for (int r = 0; r < reps; ++r)
            for (const auto &[d, e] : evals)
                acc += simulation.network(d).evaluate(e.first, e.second)
                           .plossTotal;
        sink = sink + acc;
    }
    report.metric("vreg.evaluate_ns",
                  (now() - t) * 1e9 /
                      static_cast<double>(evals.size() * static_cast<std::size_t>(reps)),
                  "ns");

    // --- core: one decision per (epoch, domain) per gating policy -----
    struct Input
    {
        core::DomainState st;
        std::vector<double> thetas;
    };
    std::vector<Input> inputs;
    const auto &profile = workload::profileByName(benches[0]);
    for (long e = 0; e < first.epochs(); ++e) {
        std::vector<Watts> mean(first.epochMean(e), first.epochMean(e) + n_blocks);
        const long next_e = std::min(e + 1, first.epochs() - 1);
        std::vector<Watts> next(first.epochDynamic(next_e),
                                first.epochDynamic(next_e) + n_blocks);
        for (int d = 0; d < n_domains; ++d) {
            const auto &dom = plan.domains()[static_cast<std::size_t>(d)];
            const auto &net = simulation.network(d);
            Input in;
            core::DomainState &st = in.st;
            st.domain = d;
            st.decision = e;
            st.demandNow = pm.domainCurrent(mean, d);
            st.demandNext = pm.domainCurrent(next, d);
            st.didt = profile.didtActivity;
            const auto now_op =
                net.evaluate(st.demandNow, net.requiredActive(st.demandNow));
            const int non_next = net.requiredActive(st.demandNext);
            st.vrLossNextPerActive =
                net.evaluate(st.demandNext, non_next).plossTotal / non_next;
            for (int v : dom.vrs) {
                st.vrTemps.push_back(tm.vrTemp(temps, v));
                st.vrLossNow.push_back(now_op.plossTotal /
                                       static_cast<double>(dom.vrs.size()));
                in.thetas.push_back(predictor.theta(v));
            }
            st.nodeCurrents = simulation.domainPdn(d).nodeCurrents(mean);
            inputs.push_back(std::move(in));
        }
    }
    for (auto p : core::allPolicyKinds()) {
        if (p == PolicyKind::OffChip || p == PolicyKind::AllOn)
            continue;
        core::Governor governor(p, n_domains);
        t = now();
        {
            trace::Scope s(std::string("core.Governor.decide.") +
                           core::policyName(p));
            for (auto &in : inputs) {
                in.st.headroomVrs =
                    core::isOracular(p) ? 0
                                        : simulation.config().practicalHeadroomVrs;
                core::PolicyToolkit kit;
                kit.pdn = &simulation.domainPdn(in.st.domain);
                kit.network = &simulation.network(in.st.domain);
                kit.thetas = &in.thetas;
                sink = sink + static_cast<double>(
                                  governor.decide(in.st, kit, false).active.size());
            }
        }
        report.metric(std::string("core.decide_us.") + core::policyName(p),
                      (now() - t) * 1e6 / static_cast<double>(inputs.size()),
                      "us");
    }

    // --- pdn: active-set changes, transient windows, noise estimate ---
    const sim::SimConfig noise_cfg = paperNoiseConfig(opts.seed, opts.tiny);
    pdn::DomainPdn dp(chip, 0, simulation.design(), noise_cfg.pdnParams);
    const int n = dp.vrCount();
    Rng rng(mixSeed(opts.seed, 0x9d7u));
    std::vector<std::vector<int>> sets;
    for (int k = 0; k < 8; ++k) {
        std::vector<int> s;
        for (int v = 0; v < n; ++v)
            if (v != k % n && rng.uniform() < 0.7)
                s.push_back(v);
        if (s.empty())
            s.push_back((k + 1) % n);
        sets.push_back(s);
    }
    std::vector<double> hit_us, miss_us;
    {
        trace::Scope s("pdn.DomainPdn.setActive");
        for (int round = 0; round < 5; ++round)
            for (const auto &set : sets) {
                const auto misses = dp.factorCacheMisses();
                const auto hits = dp.factorCacheHits();
                const double t0 = now();
                dp.setActive(set);
                const double us = (now() - t0) * 1e6;
                if (dp.factorCacheMisses() > misses)
                    miss_us.push_back(us);
                else if (dp.factorCacheHits() > hits)
                    hit_us.push_back(us);
            }
    }
    report.metric("pdn.set_active_hit_us", median(hit_us), "us");
    report.metric("pdn.set_active_miss_us", median(miss_us), "us");

    std::vector<int> all(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v)
        all[static_cast<std::size_t>(v)] = v;
    dp.setActive(all);
    const std::vector<Amperes> base = dp.nodeCurrents(block_power[0]);
    const std::size_t nodes = static_cast<std::size_t>(dp.nodeCount());
    const auto cycles = static_cast<std::size_t>(noise_cfg.noiseCyclesTotal);
    const int warmup = noise_cfg.noiseWarmupCycles;
    const int width = std::clamp(noise_cfg.noiseBatchWidth, 1,
                                 pdn::DomainPdn::kMaxWindowBatch);
    std::vector<std::vector<Amperes>> windows(static_cast<std::size_t>(width));
    std::vector<pdn::DomainPdn::WindowSpec> specs;
    for (auto &w : windows) {
        const auto mult =
            workload::synthesizeCycleMultipliers(profile.didtActivity, cycles, rng);
        w.resize(cycles * nodes);
        for (std::size_t c = 0; c < cycles; ++c)
            for (std::size_t k = 0; k < nodes; ++k)
                w[c * nodes + k] = base[k] * mult[c];
        specs.push_back({w.data(), nodes});
    }
    std::vector<pdn::NoiseResult> single(specs.size()), batched(specs.size());
    t = now();
    {
        trace::Scope s("pdn.DomainPdn.transientWindowBatch.w1");
        for (std::size_t i = 0; i < specs.size(); ++i)
            dp.transientWindowBatch(&specs[i], 1, cycles, warmup, false,
                                    &single[i]);
    }
    report.metric("pdn.window_us.w1",
                  (now() - t) * 1e6 / static_cast<double>(specs.size()), "us");
    t = now();
    {
        trace::Scope s("pdn.DomainPdn.transientWindowBatch.wN");
        dp.transientWindowBatch(specs.data(), width, cycles, warmup, false,
                                batched.data());
    }
    report.metric("pdn.window_us.wN",
                  (now() - t) * 1e6 / static_cast<double>(specs.size()), "us");
    for (std::size_t i = 0; i < specs.size(); ++i)
        if (single[i].maxNoiseFrac != batched[i].maxNoiseFrac ||
            single[i].emergencyCycles != batched[i].emergencyCycles)
            report.mismatch("pdn: lockstep window differs from the width-1 "
                            "solve");

    const int estimates = opts.tiny ? 50 : 2000;
    t = now();
    {
        trace::Scope s("pdn.DomainPdn.estimateNoise");
        for (int i = 0; i < estimates; ++i)
            sink = sink + dp.estimateNoise(sets[static_cast<std::size_t>(i) %
                                                sets.size()],
                                           base, profile.didtActivity);
    }
    report.metric("pdn.estimate_noise_us",
                  (now() - t) * 1e6 / static_cast<double>(estimates), "us");
}

} // namespace

void
runLayerProbes(const Options &opts, Report &report)
{
    trace::Scope span("bench.probes");
    setupProbe(opts, report);
    runProbe(opts, report);
    layerChainProbe(opts, report);
}

} // namespace pb
