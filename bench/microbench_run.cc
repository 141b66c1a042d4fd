/**
 * @file
 * google-benchmark timings of whole Simulation::run invocations, the
 * quantity the zero-allocation run-loop work optimises end to end:
 * one fixed benchmark profile through each policy tier on the full
 * POWER8 chip at default settings, plus a noise-free variant that
 * isolates the frame kernel (thermal step + regulator accounting)
 * from the sampled PDN windows.
 *
 * CI runs this as a smoke test and archives the JSON next to the
 * solver benchmarks; tools/check_bench_regression.py flags runs that
 * regress more than 25% against a checked-in baseline.
 *
 * Single-core caveat: the per-sample noise windows fan out across
 * domains on a thread pool (SimConfig::jobs / TG_JOBS), so wall-clock
 * gains beyond the allocation elimination need a multi-core host;
 * results are bit-identical at every worker count.
 */

#include <benchmark/benchmark.h>

#include "floorplan/power8.hh"
#include "sim/simulation.hh"
#include "workload/profile.hh"

using namespace tg;

namespace {

/**
 * One Simulation per benchmarked policy, built lazily and kept for
 * the whole process so the thermal factorisations, the fitted
 * predictor and the warm scratch buffers are shared across benchmark
 * iterations — the steady-state cost is what the numbers track.
 */
const floorplan::Chip &
sharedChip()
{
    static const floorplan::Chip chip = floorplan::buildPower8Chip();
    return chip;
}

sim::Simulation &
sharedSim()
{
    static sim::Simulation s(sharedChip(), sim::SimConfig{});
    return s;
}

void
runPolicy(benchmark::State &state, core::PolicyKind policy,
          int noise_samples_override)
{
    auto &s = sharedSim();
    const auto &profile = workload::profileByName("fft");
    sim::RecordOptions opts;
    opts.noiseSamplesOverride = noise_samples_override;
    for (auto _ : state) {
        auto res = s.run(profile, policy, opts);
        benchmark::DoNotOptimize(res.maxTmax);
    }
}

void
BM_RunAllOn(benchmark::State &state)
{
    runPolicy(state, core::PolicyKind::AllOn, -1);
}
BENCHMARK(BM_RunAllOn)->Unit(benchmark::kMillisecond);

void
BM_RunOracT(benchmark::State &state)
{
    runPolicy(state, core::PolicyKind::OracT, -1);
}
BENCHMARK(BM_RunOracT)->Unit(benchmark::kMillisecond);

void
BM_RunOracVT(benchmark::State &state)
{
    runPolicy(state, core::PolicyKind::OracVT, -1);
}
BENCHMARK(BM_RunOracVT)->Unit(benchmark::kMillisecond);

void
BM_RunPracVT(benchmark::State &state)
{
    runPolicy(state, core::PolicyKind::PracVT, -1);
}
BENCHMARK(BM_RunPracVT)->Unit(benchmark::kMillisecond);

/** Frame kernel only: no noise windows, so no PDN transients. */
void
BM_RunFrameLoopOnly(benchmark::State &state)
{
    runPolicy(state, core::PolicyKind::OracT, 0);
}
BENCHMARK(BM_RunFrameLoopOnly)->Unit(benchmark::kMillisecond);

constexpr std::size_t kKernelCycles = 512;
constexpr int kKernelWarmup = 128;

/**
 * Base node currents of the eight kernel-benchmark windows (domain 0,
 * distinct uniform block powers), built once per process.
 */
const std::vector<std::vector<Amperes>> &
kernelBases()
{
    static const std::vector<std::vector<Amperes>> bases = [] {
        auto &s = sharedSim();
        const auto &chip = s.chip();
        std::vector<std::vector<Amperes>> b;
        for (int i = 0; i < 8; ++i) {
            std::vector<Watts> bp(chip.plan.blocks().size(), 0.0);
            for (int blk : chip.plan.domains()[0].blocks)
                bp[static_cast<std::size_t>(blk)] = 0.6 + 0.15 * i;
            b.push_back(s.domainPdn(0).nodeCurrents(bp));
        }
        return b;
    }();
    return bases;
}

/** Load-step multiplier of cycle c: 1.0 and 1.5 every 64 cycles. */
double
kernelStep(std::size_t c)
{
    return 1.0 + 0.5 * static_cast<double>((c / 64) % 2);
}

/** Times `width` windows per iteration as window-cycles per second. */
template <class Window>
void
timeKernel(benchmark::State &state, const std::vector<Window> &windows)
{
    const auto &pdn = sharedSim().domainPdn(0);
    int width = static_cast<int>(windows.size());
    std::vector<pdn::NoiseResult> out(windows.size());
    for (auto _ : state) {
        pdn.transientWindowBatch(windows.data(), width, kKernelCycles,
                                 kKernelWarmup, false, out.data());
        benchmark::DoNotOptimize(out[0].maxNoiseFrac);
    }
    state.SetItemsProcessed(
        state.iterations() * static_cast<std::int64_t>(width) *
        static_cast<std::int64_t>(kKernelCycles));
}

/**
 * The batched lockstep transient kernel in isolation: Arg is the
 * batch width, and each iteration advances `width` independent noise
 * windows, stored as full cycles x nodeCount buffers, through domain
 * 0's current factorisation in one transientWindowBatch() call.
 * Throughput is reported as window-cycles per second (items/s), so
 * the widths are directly comparable: the results are bit-identical
 * at every width, only the rate moves.
 */
void
BM_TransientKernelBatch(benchmark::State &state)
{
    const std::size_t n =
        static_cast<std::size_t>(sharedSim().domainPdn(0).nodeCount());
    static const std::vector<std::vector<Amperes>> buffers = [n] {
        std::vector<std::vector<Amperes>> w;
        for (const auto &base : kernelBases()) {
            std::vector<Amperes> win(kKernelCycles * n);
            for (std::size_t c = 0; c < kKernelCycles; ++c)
                for (std::size_t j = 0; j < n; ++j)
                    win[c * n + j] = base[j] * kernelStep(c);
            w.push_back(std::move(win));
        }
        return w;
    }();
    std::vector<pdn::DomainPdn::WindowSpec> specs;
    for (int i = 0; i < state.range(0); ++i)
        specs.push_back({buffers[static_cast<std::size_t>(i)].data(), n});
    timeKernel(state, specs);
}
BENCHMARK(BM_TransientKernelBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/**
 * BM_TransientKernelBatch over separable windows, the run loop's
 * form: the same eight windows as a base vector times the step
 * multipliers (plus a zero second base), so the kernel builds each
 * cycle's load itself and solves exactly the loads of the buffered
 * benchmark. The gap between the two at one width is the cost of
 * building loads in the kernel instead of reading stored buffers.
 */
void
BM_TransientKernelSeparable(benchmark::State &state)
{
    const std::size_t n =
        static_cast<std::size_t>(sharedSim().domainPdn(0).nodeCount());
    static const std::vector<Amperes> zeros(n, 0.0);
    static const std::vector<double> step = [] {
        std::vector<double> m(kKernelCycles);
        for (std::size_t c = 0; c < kKernelCycles; ++c)
            m[c] = kernelStep(c);
        return m;
    }();
    static const std::vector<double> ones(kKernelCycles, 1.0);
    std::vector<pdn::DomainPdn::SeparableWindow> windows;
    for (int i = 0; i < state.range(0); ++i)
        windows.push_back({kernelBases()[static_cast<std::size_t>(i)].data(),
                           zeros.data(), step.data(), ones.data()});
    timeKernel(state, windows);
}
BENCHMARK(BM_TransientKernelSeparable)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/**
 * Repo-independent calibration workload: a fixed dense
 * matrix-multiply over plain buffers, touching nothing in tg::.
 * tools/check_bench_regression.py divides every benchmark's time by
 * this one before comparing against the checked-in baseline
 * (--normalize-by), so a baseline recorded on one machine class
 * still gates a faster or slower CI runner.
 */
void
BM_MachineCalibration(benchmark::State &state)
{
    constexpr int kN = 144;
    static std::vector<double> a, b, c;
    if (a.empty()) {
        a.resize(kN * kN);
        b.resize(kN * kN);
        c.resize(kN * kN, 0.0);
        for (int i = 0; i < kN * kN; ++i) {
            a[static_cast<std::size_t>(i)] = 1.0 + (i % 7) * 0.125;
            b[static_cast<std::size_t>(i)] = 2.0 - (i % 5) * 0.25;
        }
    }
    for (auto _ : state) {
        for (int i = 0; i < kN; ++i)
            for (int k = 0; k < kN; ++k) {
                double aik = a[static_cast<std::size_t>(i * kN + k)];
                for (int j = 0; j < kN; ++j)
                    c[static_cast<std::size_t>(i * kN + j)] +=
                        aik * b[static_cast<std::size_t>(k * kN + j)];
            }
        benchmark::DoNotOptimize(c.data());
    }
}
BENCHMARK(BM_MachineCalibration)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
