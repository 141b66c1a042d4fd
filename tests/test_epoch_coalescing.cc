/**
 * @file
 * Bit-identity tests of cross-epoch noise-window coalescing.
 *
 * Built windows ride across epochs whose decision kept the active
 * set, draining on a set change, an emergency-truth decision
 * boundary, the noiseBatchWidth cap, or the end of the run. The
 * reference is width 1, where the cap drains every window the moment
 * it is queued (nothing ever rides into a later epoch). The contract
 * under test: a coalesced run is bit-identical (EXPECT_EQ on every
 * double — hexfloat equality) to that reference, at every worker
 * count and batch width,
 * for a policy that never flushes mid-run (AllOn: maximal lanes),
 * for the paper's full policy (PracVT: the emergency-truth boundary
 * drains almost every sampled epoch), for a set-changing policy
 * without the override (OracT: the per-domain flush-before-rekey
 * path), and under an active fault scenario (per-sample fault
 * attribution recorded at queue time).
 */

#include <gtest/gtest.h>

#include "fault/scenario.hh"
#include "floorplan/power8.hh"
#include "isa_tiers.hh"
#include "sim/simulation.hh"
#include "workload/profile.hh"

namespace tg {
namespace sim {
namespace {

SimConfig
miniConfig(int jobs, int width)
{
    SimConfig cfg;
    cfg.noiseSamples = 24;  // multiple windows per drain: real lanes
    cfg.profilingEpochs = 8;
    cfg.jobs = jobs;
    cfg.noiseBatchWidth = width;
    return cfg;
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
    EXPECT_EQ(a.resilience.emergencyCyclesFaulted,
              b.resilience.emergencyCyclesFaulted);
    EXPECT_EQ(a.resilience.emergencyCyclesClean,
              b.resilience.emergencyCyclesClean);
}

RunResult
runWith(const floorplan::Chip &chip, core::PolicyKind policy,
        int jobs, int width,
        const fault::FaultScenario *scenario = nullptr)
{
    Simulation s(chip, miniConfig(jobs, width));
    RecordOptions opts;
    if (scenario)
        opts.faultScenario = scenario;
    return s.run(workload::profileByName("fft"), policy, opts);
}

void
checkMatchesPerEpochPathAcrossJobsAndWidths()
{
    // Reference: width 1 on one worker, where every window drains
    // as it is queued. Every coalescing combination must equal it
    // bit for bit. AllOn never changes sets, so its windows only
    // drain at the width cap and the end of the run — maximal
    // coalescing; PracVT's emergency-truth boundary forces a drain
    // at the start of nearly every sampled epoch — frequent flushes.
    auto chip = floorplan::buildMiniChip(2);
    for (auto policy :
         {core::PolicyKind::AllOn, core::PolicyKind::PracVT}) {
        auto ref = runWith(chip, policy, 1, 1);
        for (int jobs : {1, 4})
            for (int width : {1, 4, 8})
                expectIdentical(ref,
                                runWith(chip, policy, jobs, width));
    }
}

void
checkSetChangingPolicyFlushesBeforeRekey()
{
    // OracT re-selects active sets each epoch without the emergency
    // override, so pending windows hit the flush-before-setActive
    // path: they must solve under the factorisation of the epoch
    // that scheduled them, not the incoming one.
    auto chip = floorplan::buildMiniChip(2);
    auto ref = runWith(chip, core::PolicyKind::OracT, 1, 1);
    for (int width : {4, 8})
        expectIdentical(
            ref, runWith(chip, core::PolicyKind::OracT, 1, width));
    expectIdentical(
        ref, runWith(chip, core::PolicyKind::OracT, 4, 4));
}

void
checkFaultScenarioMatchesPerEpochPath()
{
    // Deferred reduction must attribute emergency cycles to the
    // epoch a sample was *scheduled* in (recorded at queue time),
    // exactly as the width-1 reference attributes them at once.
    auto chip = floorplan::buildMiniChip(2);
    int n_vrs = static_cast<int>(chip.plan.vrs().size());
    ASSERT_GE(n_vrs, 4);

    fault::FaultScenario scenario(0x5ce7a1ull);
    auto ev = [&](fault::FaultKind kind, int target, Seconds start,
                  Seconds duration, double magnitude) {
        fault::FaultEvent e;
        e.kind = kind;
        e.target = target;
        e.start = start;
        e.duration = duration;
        e.magnitude = magnitude;
        scenario.add(e);
    };
    ev(fault::FaultKind::SensorStuckAt, 0, 0.5e-3, fault::kForever,
       140.0);
    ev(fault::FaultKind::VrStuckOff, 1 % n_vrs, 1e-3, 1e-3, 0.0);
    ev(fault::FaultKind::VrDerated, 3 % n_vrs, 0.0, fault::kForever,
       2.0);
    ev(fault::FaultKind::AlertMissed, 0, 0.0, fault::kForever, 0.5);

    for (auto policy :
         {core::PolicyKind::AllOn, core::PolicyKind::PracVT}) {
        auto ref = runWith(chip, policy, 1, 1, &scenario);
        for (int jobs : {1, 4})
            for (int width : {4, 8})
                expectIdentical(ref, runWith(chip, policy, jobs,
                                             width, &scenario));
    }
}

void
checkTracesAndTimeSeriesSurviveDeferral()
{
    // The deepest-droop trace and its timestamp come out of the
    // deferred reduction; they must match the width-1 reference's
    // pick (same strict-> comparison sequence in queue order).
    auto chip = floorplan::buildMiniChip(1);
    RecordOptions opts;
    opts.noiseTrace = true;
    Simulation per_window(chip, miniConfig(1, 1));
    Simulation coalesced(chip, miniConfig(1, 8));
    auto a = per_window.run(workload::profileByName("rayt"),
                           core::PolicyKind::AllOn, opts);
    auto b = coalesced.run(workload::profileByName("rayt"),
                           core::PolicyKind::AllOn, opts);
    expectIdentical(a, b);
    EXPECT_EQ(a.noiseTrace, b.noiseTrace);
    EXPECT_EQ(a.noiseTraceDomain, b.noiseTraceDomain);
    EXPECT_EQ(a.noiseTraceTimeUs, b.noiseTraceTimeUs);
}

TEST(CoalesceDeterminism, MatchesPerEpochPathAcrossJobsAndWidths)
{
    checkMatchesPerEpochPathAcrossJobsAndWidths();
}

TEST(CoalesceDeterminism, SetChangingPolicyFlushesBeforeRekey)
{
    checkSetChangingPolicyFlushesBeforeRekey();
}

TEST(CoalesceDeterminism, FaultScenarioMatchesPerEpochPath)
{
    checkFaultScenarioMatchesPerEpochPath();
}

TEST(CoalesceDeterminism, TracesAndTimeSeriesSurviveDeferral)
{
    checkTracesAndTimeSeriesSurviveDeferral();
}

// The same equivalences with the kernels forced to each ISA tier.
template <class Tag>
class CoalesceDeterminismAtTier : public test::TierFixture<Tag>
{
};
TYPED_TEST_SUITE(CoalesceDeterminismAtTier, test::AllTiers);

TYPED_TEST(CoalesceDeterminismAtTier, MatchesPerEpochPathAcrossJobsAndWidths)
{
    checkMatchesPerEpochPathAcrossJobsAndWidths();
}

TYPED_TEST(CoalesceDeterminismAtTier, SetChangingPolicyFlushesBeforeRekey)
{
    checkSetChangingPolicyFlushesBeforeRekey();
}

TYPED_TEST(CoalesceDeterminismAtTier, FaultScenarioMatchesPerEpochPath)
{
    checkFaultScenarioMatchesPerEpochPath();
}

TYPED_TEST(CoalesceDeterminismAtTier, TracesAndTimeSeriesSurviveDeferral)
{
    checkTracesAndTimeSeriesSurviveDeferral();
}

} // namespace
} // namespace sim
} // namespace tg
