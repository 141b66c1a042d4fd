/**
 * @file
 * Determinism and allocation-discipline tests of the run loop.
 *
 * The noise windows of a sample frame are evaluated concurrently
 * across domains when SimConfig::jobs allows it; results must be
 * bit-identical to the serial path at every worker count, and
 * independent of whether droop traces are kept. The steady-state
 * per-frame kernel must not touch the heap: a counting global
 * operator new verifies both the individual *Into primitives and a
 * whole warmed-up run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "floorplan/power8.hh"
#include "sim/simulation.hh"
#include "workload/cycles.hh"
#include "workload/profile.hh"

namespace {

std::atomic<long> g_allocCount{0};
std::atomic<std::size_t> g_allocMax{0};  //!< largest single request

// Out of line: an inlined CAS loop keeps GCC from inlining the
// replaced operator new, and it then flags the free() in the inlined
// operator delete as a mismatched deallocation.
[[gnu::noinline]] void
noteAlloc(std::size_t size)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    std::size_t seen = g_allocMax.load(std::memory_order_relaxed);
    while (size > seen &&
           !g_allocMax.compare_exchange_weak(seen, size,
                                             std::memory_order_relaxed))
    {
    }
}

} // namespace

void *
operator new(std::size_t size)
{
    noteAlloc(size);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    noteAlloc(size);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

// The nothrow forms (std::stable_sort's temporary buffer) must come
// from the same malloc as the replaced deletes free into.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    noteAlloc(size);
    return std::malloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    noteAlloc(size);
    return std::malloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace tg {
namespace sim {
namespace {

SimConfig
miniConfig(int jobs)
{
    SimConfig cfg;
    cfg.noiseSamples = 4;
    cfg.profilingEpochs = 8;
    cfg.jobs = jobs;
    return cfg;
}

/** The scalar fields a hexfloat golden pins. */
struct Golden
{
    core::PolicyKind policy;
    double maxTmax;
    double maxGradient;
    double maxNoiseFrac;
    double emergencyFrac;
    double avgRegulatorLoss;
    double avgEta;
    double avgActiveVrs;
    double meanPower;
    double agingImbalance;
    long overrideCount;
    const char *hottestSpot;
};

void
expectGolden(const RunResult &r, const Golden &g)
{
    EXPECT_EQ(r.maxTmax, g.maxTmax);
    EXPECT_EQ(r.maxGradient, g.maxGradient);
    EXPECT_EQ(r.maxNoiseFrac, g.maxNoiseFrac);
    EXPECT_EQ(r.emergencyFrac, g.emergencyFrac);
    EXPECT_EQ(r.avgRegulatorLoss, g.avgRegulatorLoss);
    EXPECT_EQ(r.avgEta, g.avgEta);
    EXPECT_EQ(r.avgActiveVrs, g.avgActiveVrs);
    EXPECT_EQ(r.meanPower, g.meanPower);
    EXPECT_EQ(r.agingImbalance, g.agingImbalance);
    EXPECT_EQ(r.overrideCount, g.overrideCount);
    EXPECT_EQ(r.hottestSpot, g.hottestSpot);
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.maxTmax, b.maxTmax);
    EXPECT_EQ(a.hottestSpot, b.hottestSpot);
    EXPECT_EQ(a.maxGradient, b.maxGradient);
    EXPECT_EQ(a.maxNoiseFrac, b.maxNoiseFrac);
    EXPECT_EQ(a.emergencyFrac, b.emergencyFrac);
    EXPECT_EQ(a.avgRegulatorLoss, b.avgRegulatorLoss);
    EXPECT_EQ(a.avgEta, b.avgEta);
    EXPECT_EQ(a.avgActiveVrs, b.avgActiveVrs);
    EXPECT_EQ(a.meanPower, b.meanPower);
    EXPECT_EQ(a.overrideCount, b.overrideCount);
    EXPECT_EQ(a.agingImbalance, b.agingImbalance);
    EXPECT_EQ(a.vrActivity, b.vrActivity);
    EXPECT_EQ(a.vrAging, b.vrAging);
}

TEST(RunDeterminism, SerialAndPooledNoiseWindowsBitIdentical)
{
    // jobs=1 evaluates every domain's noise window inline; jobs=4
    // fans them out across a pool. The RNG streams are functions of
    // (run_seed, epoch, sample, domain) and the reduction is serial
    // in domain order, so every field must match bit for bit.
    auto chip = floorplan::buildMiniChip(2);
    Simulation serial(chip, miniConfig(1));
    Simulation pooled(chip, miniConfig(4));

    for (auto policy :
         {core::PolicyKind::AllOn, core::PolicyKind::OracVT,
          core::PolicyKind::PracVT}) {
        auto a = serial.run(workload::profileByName("fft"), policy);
        auto b = pooled.run(workload::profileByName("fft"), policy);
        expectIdentical(a, b);
    }
}

TEST(RunDeterminism, BatchWidthSweepBitIdenticalAcrossJobs)
{
    // The lockstep batching of a domain's per-epoch noise windows is
    // a pure throughput knob: widths 1 (single-lane), 2, 4 and 8
    // must produce bit-identical RunResults, at any worker count.
    auto chip = floorplan::buildMiniChip(2);
    SimConfig base = miniConfig(1);
    base.noiseSamples = 24;  // 4 windows per epoch: real batches

    for (auto policy :
         {core::PolicyKind::AllOn, core::PolicyKind::PracVT}) {
        RunResult ref;
        bool have_ref = false;
        for (int jobs : {1, 4}) {
            for (int width : {1, 2, 4, 8}) {
                SimConfig cfg = base;
                cfg.jobs = jobs;
                cfg.noiseBatchWidth = width;
                Simulation s(chip, cfg);
                auto r =
                    s.run(workload::profileByName("fft"), policy);
                if (!have_ref) {
                    ref = r;
                    have_ref = true;
                } else {
                    expectIdentical(ref, r);
                }
            }
        }
    }
}

TEST(RunDeterminism, GoldenResultsMatchPreBatchingScalarPath)
{
    // Full-precision goldens captured from the tree BEFORE the
    // batched transient kernel existed (per-window scalar solves,
    // immediate evaluation at the sample frame). The batched sampler
    // must reproduce them bit for bit; a drift here means the
    // "bit-identical at every width" contract broke, not that a
    // tolerance needs loosening.
    const Golden goldens[] = {
        {core::PolicyKind::AllOn, 0x1.f6e04cf2063d9p+5,
         0x1.cb9628139c82p+3, 0x1.91a559199e6c2p-5, 0.0,
         0x1.9eb022a2f6572p+1, 0x1.b4b8e56353779p-1, 0x1.8p+4,
         0x1.2be39b60c59cbp+4, 0x1.40d3b16183bd1p+0, 0,
         "core0.vr8"},
        {core::PolicyKind::OracVT, 0x1.ecc81346d6dap+5,
         0x1.a40c8aac6f22cp+3, 0x1.06045784fa272p-4, 0.0,
         0x1.2e3e4e8b8003p+1, 0x1.c6b05a56b5db7p-1,
         0x1.baaaaaaaaaaa7p+3, 0x1.2b0468e36b51dp+4,
         0x1.9be351c636f6ep+0, 0, "core0.vr4"},
        {core::PolicyKind::PracVT, 0x1.ec72adb46772ep+5,
         0x1.a2b3b234839b4p+3, 0x1.2966db34f5acp-4, 0.0,
         0x1.587b32b6dabd1p+1, 0x1.bfdd61564727dp-1,
         0x1.0d55555555549p+4, 0x1.2b40d60d2ea86p+4,
         0x1.608b943f395dfp+0, 0, "core0.vr7"},
    };

    auto chip = floorplan::buildMiniChip(2);
    SimConfig cfg = miniConfig(1);
    cfg.noiseSamples = 24;
    Simulation s(chip, cfg);
    for (const auto &g : goldens)
        expectGolden(s.run(workload::profileByName("fft"), g.policy),
                     g);
}

TEST(RunDeterminism, OverrideGoldensBitIdenticalAcrossJobsAndWidth)
{
    // Goldens of runs that take the emergency-override path (truth
    // windows, predictor draw, all-on re-decision), captured before
    // the decision epoch was split into decide / truth / apply
    // phases. The mini-chip fmm PracVT run overrides once on a
    // predictor false alarm; the POWER8 barnes runs override on real
    // truth-window emergencies (OracVT twice; PracVT twice, plus two
    // false alarms) and record a non-zero emergency fraction.
    const Golden mini[] = {
        {core::PolicyKind::OracVT, 0x1.f3f6ff4eb755dp+5,
         0x1.eb4c6fec6e888p+3, 0x1.192351334d624p-4, 0.0,
         0x1.35775abe63761p+1, 0x1.c7afcdf0bb4f9p-1,
         0x1.dc71c71c71c76p+3, 0x1.382aafd5936d2p+4,
         0x1.de8a238e3e50fp+0, 0, "core0.vr5"},
        {core::PolicyKind::PracVT, 0x1.ff6235b8f0d1p+5,
         0x1.0ce88693232eep+4, 0x1.e51e2f03cfe84p-5, 0.0,
         0x1.6218f2788e189p+1, 0x1.c0c68a20e258ep-1,
         0x1.38e38e38e38e5p+4, 0x1.38763b00bcfcfp+4,
         0x1.8aa3f0fc5f1c7p+0, 1, "core0.vr7"},
    };
    const Golden power8[] = {
        {core::PolicyKind::OracVT, 0x1.0ce7a26ee6a66p+6,
         0x1.0730512285fc4p+4, 0x1.a645b03ac8194p-4,
         0x1.70a3d70a3d70ap-11, 0x1.4049bc162ee5cp+3,
         0x1.c666e7d07b161p-1, 0x1.eap+5, 0x1.4ec1946672ff4p+6,
         0x1.bd24c83126d19p+0, 2, "core6.vr8"},
        {core::PolicyKind::PracVT, 0x1.0d0bfc6115c28p+6,
         0x1.079cc13e0915ep+4, 0x1.a6523530e9f9p-4,
         0x1.999999999999ap-11, 0x1.55d3722963c68p+3,
         0x1.c32e7cdefc9bbp-1, 0x1.2400000000008p+6,
         0x1.4f01a641ec2bbp+6, 0x1.8c514345059cap+0, 4,
         "core6.vr8"},
    };

    auto mini_chip = floorplan::buildMiniChip(2);
    auto p8_chip = floorplan::buildPower8Chip();
    for (int jobs : {1, 4}) {
        for (int width : {1, 4, 8}) {
            SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                         " width=" + std::to_string(width));
            SimConfig mini_cfg = miniConfig(jobs);
            mini_cfg.noiseSamples = 24;
            mini_cfg.noiseBatchWidth = width;
            Simulation ms(mini_chip, mini_cfg);
            for (const auto &g : mini)
                expectGolden(
                    ms.run(workload::profileByName("fmm"), g.policy),
                    g);

            SimConfig p8_cfg;
            p8_cfg.noiseSamples = 32;
            p8_cfg.jobs = jobs;
            p8_cfg.noiseBatchWidth = width;
            Simulation ps(p8_chip, p8_cfg);
            for (const auto &g : power8)
                expectGolden(
                    ps.run(workload::profileByName("barnes"),
                           g.policy),
                    g);
        }
    }
}

TEST(RunDeterminism, KeepingDroopTracesDoesNotChangeMetrics)
{
    auto chip = floorplan::buildMiniChip(1);
    Simulation s(chip, miniConfig(1));

    RecordOptions plain;
    RecordOptions traced;
    traced.noiseTrace = true;
    auto a =
        s.run(workload::profileByName("rayt"),
              core::PolicyKind::OracVT, plain);
    auto b =
        s.run(workload::profileByName("rayt"),
              core::PolicyKind::OracVT, traced);
    expectIdentical(a, b);
    EXPECT_TRUE(a.noiseTrace.empty());
    EXPECT_FALSE(b.noiseTrace.empty());
    EXPECT_GE(b.noiseTraceDomain, 0);
}

TEST(RunDeterminism, RepeatedRunsOnOneInstanceBitIdentical)
{
    // Scratch buffers (frame kernel, noise sampler, sensor ring) are
    // reused across runs; stale contents must never leak into a
    // later run's results.
    auto chip = floorplan::buildMiniChip(1);
    Simulation s(chip, miniConfig(1));
    auto a = s.run(workload::profileByName("fft"),
                   core::PolicyKind::PracVT);
    s.run(workload::profileByName("lu_cb"),
          core::PolicyKind::AllOn);
    auto b = s.run(workload::profileByName("fft"),
                   core::PolicyKind::PracVT);
    expectIdentical(a, b);
}

TEST(AllocationDiscipline, WarmKernelPrimitivesDoNotAllocate)
{
    auto chip = floorplan::buildMiniChip(1);
    SimConfig cfg = miniConfig(1);
    Simulation s(chip, cfg);

    const auto &tm = s.thermalModel();
    const auto &pm = s.powerModel();
    const auto &pdn = s.domainPdn(0);

    auto temps = tm.uniformState(55.0);
    std::vector<Celsius> block_t;
    std::vector<Watts> leak;
    std::vector<Watts> vr_loss(chip.plan.vrs().size(), 0.05);
    std::vector<Watts> nodal;
    std::vector<Amperes> currents;
    std::vector<double> mult;
    Rng rng(17);

    // Warm-up pass sizes every buffer (and the solver scratches).
    tm.blockTempsInto(temps, block_t);
    pm.leakageFrameInto(block_t, leak);
    tm.powerVectorInto(leak, vr_loss, nodal);
    tm.advance(temps, nodal);
    pdn.nodeCurrentsInto(leak, currents);
    workload::synthesizeCycleMultipliersInto(0.5, 256, rng, mult);
    std::vector<Amperes> window(
        256 * static_cast<std::size_t>(pdn.nodeCount()));
    for (std::size_t c = 0; c < 256; ++c)
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(pdn.nodeCount()); ++i)
            window[c * static_cast<std::size_t>(pdn.nodeCount()) + i] =
                currents[i] * mult[c];
    pdn.transientWindow(window.data(), 256,
                        static_cast<std::size_t>(pdn.nodeCount()), 64);
    // Batched kernel warm-up: 4 lanes over the same cycle buffer
    // sizes every n x W scratch.
    pdn::DomainPdn::WindowSpec specs[4] = {
        {window.data(), static_cast<std::size_t>(pdn.nodeCount())},
        {window.data(), static_cast<std::size_t>(pdn.nodeCount())},
        {window.data(), static_cast<std::size_t>(pdn.nodeCount())},
        {window.data(), static_cast<std::size_t>(pdn.nodeCount())}};
    pdn::NoiseResult batch_out[4];
    pdn.transientWindowBatch(specs, 4, 256, 64, false, batch_out);
    // Separable kernel warm-up: 8 lanes over one base pair and the
    // run loop's two multiplier sequences sizes its n x W base
    // interleave as well.
    std::vector<double> damped(256);
    auto damp = [&] {
        for (std::size_t c = 0; c < 256; ++c)
            damped[c] = 1.0 + 0.35 * (mult[c] - 1.0);
    };
    damp();
    pdn::DomainPdn::SeparableWindow sep[8];
    for (auto &w : sep)
        w = {currents.data(), currents.data(), mult.data(),
             damped.data()};
    pdn::NoiseResult sep_out[8];
    pdn.transientWindowBatch(sep, 8, 256, 64, false, sep_out);

    long before = g_allocCount.load(std::memory_order_relaxed);
    for (int it = 0; it < 3; ++it) {
        tm.blockTempsInto(temps, block_t);
        pm.leakageFrameInto(block_t, leak);
        tm.powerVectorInto(leak, vr_loss, nodal);
        tm.advance(temps, nodal);
        pdn.nodeCurrentsInto(leak, currents);
        workload::synthesizeCycleMultipliersInto(0.5, 256, rng, mult);
        pdn.transientWindow(window.data(), 256,
                            static_cast<std::size_t>(pdn.nodeCount()),
                            64);
        pdn.transientWindowBatch(specs, 4, 256, 64, false, batch_out);
        damp();
        pdn.transientWindowBatch(sep, 8, 256, 64, false, sep_out);
    }
    long after = g_allocCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0)
        << "warm per-frame primitives must not touch the heap";
}

TEST(AllocationDiscipline, WarmRunAllocationsAreBounded)
{
    // A full warmed-up run still allocates for genuinely per-run
    // products (the demand/activity traces, the power trace growth on
    // first use, per-epoch decision vectors) but must stay far below
    // the historical per-frame/per-cycle churn: the old loop paid ~6
    // vector allocations per frame plus one row vector per transient
    // cycle (hundreds per noise window). The budget holds serially on
    // one domain and with the pooled decide / truth / apply epoch on
    // two domains, whose per-domain decision buffers are sized once
    // per run.
    struct Case
    {
        int cores;
        int jobs;
    };
    for (const Case &c : {Case{1, 1}, Case{2, 4}}) {
        SCOPED_TRACE("cores=" + std::to_string(c.cores) +
                     " jobs=" + std::to_string(c.jobs));
        auto chip = floorplan::buildMiniChip(c.cores);
        Simulation s(chip, miniConfig(c.jobs));
        const auto &profile = workload::profileByName("fft");
        s.run(profile, core::PolicyKind::PracVT);  // warm-up

        RecordOptions series;
        series.timeSeries = true;
        auto probe = s.run(profile, core::PolicyKind::PracVT, series);
        long n_frames = static_cast<long>(probe.timeUs.size());
        ASSERT_GT(n_frames, 0);

        long before = g_allocCount.load(std::memory_order_relaxed);
        s.run(profile, core::PolicyKind::PracVT);
        long after = g_allocCount.load(std::memory_order_relaxed);
        long per_frame_budget = 5;  // activity/demand trace construction
        EXPECT_LT(after - before, 4096 + per_frame_budget * n_frames)
            << "warm run allocated " << (after - before)
            << " times over " << n_frames << " frames";
    }
}

TEST(AllocationDiscipline, RunLoopAllocatesNoFullWindowBuffer)
{
    // Noise windows are separable: the run loop keeps two base-current
    // vectors per queued window and one chunk's multiplier sequences,
    // never a cycles x nodeCount load buffer. A fresh Simulation's
    // first run sizes every noise buffer, so its largest single heap
    // request must stay below one full window of the smallest domain,
    // at the default batch width and with emergency-truth windows.
    auto chip = floorplan::buildPower8Chip();
    SimConfig cfg;
    cfg.jobs = 2;
    const auto &profile = workload::profileByName("barnes");
    {
        // Fills the artifact store (power trace, predictor, PDN base
        // factors), so the measured run below is the run loop alone.
        Simulation warm(chip, cfg);
        warm.run(profile, core::PolicyKind::PracVT);
    }
    Simulation s(chip, cfg);
    std::size_t min_nodes = static_cast<std::size_t>(-1);
    for (std::size_t d = 0; d < chip.plan.domains().size(); ++d)
        min_nodes = std::min(
            min_nodes, static_cast<std::size_t>(
                           s.domainPdn(static_cast<int>(d)).nodeCount()));
    const std::size_t window_bytes =
        sizeof(Amperes) * min_nodes *
        static_cast<std::size_t>(cfg.noiseCyclesTotal);

    g_allocMax.store(0, std::memory_order_relaxed);
    s.run(profile, core::PolicyKind::PracVT);
    std::size_t largest = g_allocMax.load(std::memory_order_relaxed);
    EXPECT_LT(largest, window_bytes)
        << "a run-loop allocation of " << largest
        << " bytes reaches one full noise window (" << window_bytes
        << " bytes)";
}

} // namespace
} // namespace sim
} // namespace tg
