/**
 * @file
 * Bit-identity tests of the lockstep batching layer: DoubleBatch lane
 * semantics, the batched/multi-RHS sparse solves against the scalar
 * solver, DomainPdn::transientWindowBatch at every chunking against
 * single-lane windows, and separable windows against the same loads
 * passed as full buffers — all compared with EXPECT_EQ on doubles,
 * because the batched paths promise the *same bits*, not just the
 * same values.
 */

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/matrix.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/sparse.hh"
#include "floorplan/power8.hh"
#include "isa_tiers.hh"
#include "pdn/domain_pdn.hh"
#include "vreg/design.hh"
#include "workload/cycles.hh"

namespace tg {
namespace {

// ---- DoubleBatch lane semantics -----------------------------------------

TEST(DoubleBatch, LanesAreIndependentScalarOps)
{
    double a[4] = {1.5, -2.25, 3.0e-7, 8.75e12};
    double b[4] = {-0.5, 7.125, -1.0e3, 2.5e-9};
    auto ba = DoubleBatch<4>::load(a);
    auto bb = DoubleBatch<4>::load(b);
    for (int l = 0; l < 4; ++l) {
        EXPECT_EQ((ba + bb)[l], a[l] + b[l]);
        EXPECT_EQ((ba - bb)[l], a[l] - b[l]);
        EXPECT_EQ((ba * bb)[l], a[l] * b[l]);
        EXPECT_EQ((ba / bb)[l], a[l] / b[l]);
        EXPECT_EQ((ba * 3.25)[l], a[l] * 3.25);
        EXPECT_EQ((3.25 * ba)[l], a[l] * 3.25);
        EXPECT_EQ((ba / 3.25)[l], a[l] / 3.25);
        EXPECT_EQ(DoubleBatch<4>::max(ba, bb)[l],
                  std::max(a[l], b[l]));
    }
}

TEST(DoubleBatch, BroadcastLoadStoreRoundTrip)
{
    auto c = DoubleBatch<8>::broadcast(0.1);
    for (int l = 0; l < 8; ++l)
        EXPECT_EQ(c[l], 0.1);
    double src[8] = {0, 1, 2, 3, 4, 5, 6, 7};
    double dst[8] = {};
    DoubleBatch<8>::load(src).store(dst);
    for (int l = 0; l < 8; ++l)
        EXPECT_EQ(dst[l], src[l]);
}

TEST(DoubleBatch, CompoundOpsMatchBinaryOps)
{
    double a[2] = {1.0 / 3.0, -7.5};
    double b[2] = {2.0 / 7.0, 0.125};
    auto x = DoubleBatch<2>::load(a);
    x += DoubleBatch<2>::load(b);
    for (int l = 0; l < 2; ++l)
        EXPECT_EQ(x[l], a[l] + b[l]);
    x = DoubleBatch<2>::load(a);
    x *= DoubleBatch<2>::load(b);
    for (int l = 0; l < 2; ++l)
        EXPECT_EQ(x[l], a[l] * b[l]);
}

// ---- Batched sparse solves ----------------------------------------------

/** PDN-like SPD grid matrix: Laplacian plus a few diagonal boosts. */
SparseMatrix
gridSpd(int w, int h)
{
    auto node = [&](int r, int c) {
        return static_cast<std::size_t>(r * w + c);
    };
    std::vector<Triplet> t;
    for (int r = 0; r < h; ++r)
        for (int c = 0; c < w; ++c) {
            if (c + 1 < w) {
                t.push_back({node(r, c), node(r, c), 2.0});
                t.push_back({node(r, c + 1), node(r, c + 1), 2.0});
                t.push_back({node(r, c), node(r, c + 1), -2.0});
                t.push_back({node(r, c + 1), node(r, c), -2.0});
            }
            if (r + 1 < h) {
                t.push_back({node(r, c), node(r, c), 0.7});
                t.push_back({node(r + 1, c), node(r + 1, c), 0.7});
                t.push_back({node(r, c), node(r + 1, c), -0.7});
                t.push_back({node(r + 1, c), node(r, c), -0.7});
            }
        }
    std::size_t n = static_cast<std::size_t>(w * h);
    for (std::size_t i = 0; i < n; i += 5)
        t.push_back({i, i, 3.1});
    t.push_back({0, 0, 1.0});  // pin: strictly SPD
    return SparseMatrix::fromTriplets(n, n, std::move(t));
}

class BatchSolveTest : public ::testing::Test
{
  protected:
    BatchSolveTest() : a(gridSpd(13, 9)), solver(a) {}

    /** Deterministic pseudo-random right-hand side number k. */
    std::vector<double>
    rhs(int k) const
    {
        Rng rng(mixSeed(0x51u, static_cast<std::uint64_t>(k)));
        std::vector<double> b(a.rows());
        for (double &v : b)
            v = rng.uniform(-2.0, 2.0);
        return b;
    }

    SparseMatrix a;
    SparseLdltSolver solver;
};

TEST_F(BatchSolveTest, BatchLanesMatchScalarBitwise)
{
    std::size_t n = solver.size();
    for (std::size_t width : {1u, 2u, 3u, 4u, 5u, 8u}) {
        // Scalar references first, then the batched solve — and once
        // more in the opposite order, so neither path's scratch
        // warm-up can mask a mismatch.
        for (int order = 0; order < 2; ++order) {
            std::vector<std::vector<double>> ref;
            for (std::size_t l = 0; l < width; ++l) {
                ref.push_back(rhs(static_cast<int>(l)));
                solver.solveInPlace(ref.back());
            }
            std::vector<double> lanes(n * width);
            for (std::size_t l = 0; l < width; ++l) {
                auto b = rhs(static_cast<int>(l));
                for (std::size_t i = 0; i < n; ++i)
                    lanes[i * width + l] = b[i];
            }
            solver.solveBatchInPlace(lanes.data(), width);
            for (std::size_t l = 0; l < width; ++l)
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(lanes[i * width + l], ref[l][i])
                        << "width " << width << " lane " << l
                        << " row " << i;
        }
    }
}

TEST_F(BatchSolveTest, MultiRhsMatrixSolveMatchesScalarBitwise)
{
    std::size_t n = solver.size();
    for (std::size_t k : {1u, 2u, 4u, 7u}) {
        Matrix bx(n, k, 0.0);
        std::vector<std::vector<double>> ref;
        for (std::size_t j = 0; j < k; ++j) {
            auto b = rhs(static_cast<int>(j) + 100);
            for (std::size_t i = 0; i < n; ++i)
                bx(i, j) = b[i];
            ref.push_back(std::move(b));
            solver.solveInPlace(ref.back());
        }
        solver.solveInPlace(bx);
        for (std::size_t j = 0; j < k; ++j)
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(bx(i, j), ref[j][i])
                    << "cols " << k << " col " << j << " row " << i;
    }
}

TEST_F(BatchSolveTest, BatchSolvesTheSystem)
{
    // Sanity beyond self-consistency: the batched result actually
    // satisfies A x = b.
    std::size_t n = solver.size();
    std::size_t width = 4;
    std::vector<std::vector<double>> bs;
    std::vector<double> lanes(n * width);
    for (std::size_t l = 0; l < width; ++l) {
        bs.push_back(rhs(static_cast<int>(l) + 200));
        for (std::size_t i = 0; i < n; ++i)
            lanes[i * width + l] = bs[l][i];
    }
    solver.solveBatchInPlace(lanes.data(), width);
    for (std::size_t l = 0; l < width; ++l) {
        std::vector<double> x(n);
        for (std::size_t i = 0; i < n; ++i)
            x[i] = lanes[i * width + l];
        auto ax = a.multiply(x);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_NEAR(ax[i], bs[l][i], 1e-9) << "lane " << l;
    }
}

// ---- Lockstep transient windows -----------------------------------------

class WindowBatchTest : public ::testing::Test
{
  protected:
    WindowBatchTest()
        : chip(floorplan::buildPower8Chip()),
          dp(chip, 0, vreg::fivrDesign(), {})
    {
    }

    std::vector<Amperes>
    domainLoad(Watts per_block) const
    {
        std::vector<Watts> bp(chip.plan.blocks().size(), 0.0);
        for (int b : chip.plan.domains()[0].blocks)
            bp[static_cast<std::size_t>(b)] = per_block;
        return dp.nodeCurrents(bp);
    }

    /**
     * Flat window w: load stepping from `low` to `high` at midway,
     * with levels varied per window so every lane solves a different
     * problem.
     */
    std::vector<Amperes>
    makeWindow(int w, std::size_t cycles) const
    {
        double low = 0.3 + 0.1 * w;
        double high = 1.2 + 0.15 * w;
        auto l = domainLoad(low);
        auto h = domainLoad(high);
        std::size_t n = static_cast<std::size_t>(dp.nodeCount());
        std::vector<Amperes> win(cycles * n);
        for (std::size_t c = 0; c < cycles; ++c) {
            const auto &src = c < cycles / 2 ? l : h;
            std::copy(src.begin(), src.end(),
                      win.begin() + static_cast<std::ptrdiff_t>(c * n));
        }
        return win;
    }

    /** A separable window: two base vectors and their multipliers. */
    struct Separable
    {
        std::vector<Amperes> a, b;
        std::vector<double> ma, mb;

        pdn::DomainPdn::SeparableWindow
        view() const
        {
            return {a.data(), b.data(), ma.data(), mb.data()};
        }
    };

    /**
     * Separable window w, shaped like the run loop's noise windows: a
     * synthesised multiplier sequence on a "logic" base and the
     * damped 1 + 0.35 (m - 1) sequence on a "memory" base. Odd
     * windows add a load step at midway. Every third window carries
     * no load at two nodes in either base, so a lane's cycle-0 load
     * there is +0.0 and its initial-condition rhs the negated -0.0,
     * in both window forms.
     */
    Separable
    makeSeparable(int w, std::size_t cycles) const
    {
        Separable s;
        s.a = domainLoad(0.5 + 0.09 * w);
        s.b = domainLoad(0.2 + 0.04 * w);
        if (w % 3 == 0) {
            std::size_t n = s.a.size();
            for (std::size_t i : {std::size_t{0}, n / 2}) {
                s.a[i] = 0.0;
                s.b[i] = 0.0;
            }
        }
        Rng rng(mixSeed(0x5e9a7u, static_cast<std::uint64_t>(w)));
        s.ma = workload::synthesizeCycleMultipliers(0.3 + 0.04 * w,
                                                    cycles, rng);
        s.mb.resize(cycles);
        for (std::size_t c = 0; c < cycles; ++c) {
            if (w % 2 == 1 && c >= cycles / 2)
                s.ma[c] *= 2.5;
            s.mb[c] = 1.0 + 0.35 * (s.ma[c] - 1.0);
        }
        return s;
    }

    /** The full cycles x nodeCount buffer of a separable window. */
    std::vector<Amperes>
    fill(const Separable &s) const
    {
        std::size_t n = static_cast<std::size_t>(dp.nodeCount());
        std::vector<Amperes> win(s.ma.size() * n);
        for (std::size_t c = 0; c < s.ma.size(); ++c)
            for (std::size_t i = 0; i < n; ++i)
                win[c * n + i] = s.a[i] * s.ma[c] + s.b[i] * s.mb[c];
        return win;
    }

    static void
    expectSameResult(const pdn::NoiseResult &got,
                     const pdn::NoiseResult &ref, const std::string &what)
    {
        EXPECT_EQ(got.maxNoiseFrac, ref.maxNoiseFrac) << what;
        EXPECT_EQ(got.emergencyCycles, ref.emergencyCycles) << what;
        EXPECT_EQ(got.analysedCycles, ref.analysedCycles) << what;
        ASSERT_EQ(got.trace.size(), ref.trace.size()) << what;
        for (std::size_t c = 0; c < ref.trace.size(); ++c)
            ASSERT_EQ(got.trace[c], ref.trace[c])
                << what << " cycle " << c;
    }

    // Test bodies, shared by the default-tier and per-tier suites.
    void checkBatchMatchesScalarAtEveryCount();
    void checkBatchMatchesScalarOnWoodburySubsets();
    void checkSeparableMatchesFullBufferAtEveryCount();
    void checkSeparableMatchesFullBufferOnWoodburySubsets();
    void checkRepeatedBatchedWindowIsIdempotent();

    floorplan::Chip chip;
    pdn::DomainPdn dp;
};

void
WindowBatchTest::checkBatchMatchesScalarAtEveryCount()
{
    // The reference is the single-lane window (the W = 1 lockstep
    // kernel), so every 8/4/2 chunking must reproduce it.
    const std::size_t cycles = 160;
    const int warmup = 40;
    std::size_t n = static_cast<std::size_t>(dp.nodeCount());

    std::vector<std::vector<Amperes>> wins;
    for (int w = 0; w < 8; ++w)
        wins.push_back(makeWindow(w, cycles));

    for (int count : {1, 2, 3, 4, 5, 7, 8}) {
        std::vector<pdn::DomainPdn::WindowSpec> specs;
        std::vector<pdn::NoiseResult> out(
            static_cast<std::size_t>(count));
        for (int w = 0; w < count; ++w)
            specs.push_back(
                {wins[static_cast<std::size_t>(w)].data(), n});
        dp.transientWindowBatch(specs.data(), count, cycles, warmup,
                                true, out.data());
        for (int w = 0; w < count; ++w) {
            auto ref = dp.transientWindow(
                wins[static_cast<std::size_t>(w)].data(), cycles, n,
                warmup, true);
            const auto &got = out[static_cast<std::size_t>(w)];
            EXPECT_EQ(got.maxNoiseFrac, ref.maxNoiseFrac)
                << "count " << count << " window " << w;
            EXPECT_EQ(got.emergencyCycles, ref.emergencyCycles);
            EXPECT_EQ(got.analysedCycles, ref.analysedCycles);
            ASSERT_EQ(got.trace.size(), ref.trace.size());
            for (std::size_t c = 0; c < ref.trace.size(); ++c)
                ASSERT_EQ(got.trace[c], ref.trace[c])
                    << "count " << count << " window " << w
                    << " cycle " << c;
        }
    }
}

void
WindowBatchTest::checkBatchMatchesScalarOnWoodburySubsets()
{
    // An active subset exercises the rank-r correction inside every
    // batched solve; a singleton drives the deepest downdate.
    const std::size_t cycles = 120;
    const int warmup = 30;
    std::size_t n = static_cast<std::size_t>(dp.nodeCount());
    std::vector<std::vector<Amperes>> wins;
    for (int w = 0; w < 4; ++w)
        wins.push_back(makeWindow(w, cycles));

    for (const auto &set :
         std::vector<std::vector<int>>{{0, 4, 8}, {3}}) {
        dp.setActive(set);
        std::vector<pdn::DomainPdn::WindowSpec> specs;
        for (const auto &w : wins)
            specs.push_back({w.data(), n});
        std::vector<pdn::NoiseResult> out(wins.size());
        dp.transientWindowBatch(specs.data(),
                                static_cast<int>(wins.size()), cycles,
                                warmup, false, out.data());
        for (std::size_t w = 0; w < wins.size(); ++w) {
            auto ref = dp.transientWindow(wins[w].data(), cycles, n,
                                          warmup, false);
            EXPECT_EQ(out[w].maxNoiseFrac, ref.maxNoiseFrac)
                << "set size " << set.size() << " window " << w;
            EXPECT_EQ(out[w].emergencyCycles, ref.emergencyCycles);
            EXPECT_EQ(out[w].analysedCycles, ref.analysedCycles);
        }
    }
}

void
WindowBatchTest::checkSeparableMatchesFullBufferAtEveryCount()
{
    // Counts 1..17 hit every 8/4/2/1 chunking, including two full
    // width-8 chunks plus a single-lane tail. Both forms of each
    // window must give the same bits, traces included.
    const std::size_t cycles = 150;
    const int warmup = 40;
    std::size_t n = static_cast<std::size_t>(dp.nodeCount());
    std::vector<Separable> seps;
    std::vector<std::vector<Amperes>> fulls;
    for (int w = 0; w < 17; ++w) {
        seps.push_back(makeSeparable(w, cycles));
        fulls.push_back(fill(seps.back()));
    }

    int emergencies = 0;
    for (int count = 1; count <= 17; ++count) {
        std::vector<pdn::DomainPdn::SeparableWindow> sep_specs;
        std::vector<pdn::DomainPdn::WindowSpec> full_specs;
        for (int w = 0; w < count; ++w) {
            sep_specs.push_back(seps[static_cast<std::size_t>(w)].view());
            full_specs.push_back(
                {fulls[static_cast<std::size_t>(w)].data(), n});
        }
        std::vector<pdn::NoiseResult> got(static_cast<std::size_t>(count));
        std::vector<pdn::NoiseResult> ref(static_cast<std::size_t>(count));
        dp.transientWindowBatch(sep_specs.data(), count, cycles, warmup,
                                true, got.data());
        dp.transientWindowBatch(full_specs.data(), count, cycles, warmup,
                                true, ref.data());
        for (int w = 0; w < count; ++w) {
            expectSameResult(got[static_cast<std::size_t>(w)],
                             ref[static_cast<std::size_t>(w)],
                             "count " + std::to_string(count) +
                                 " window " + std::to_string(w));
            emergencies += ref[static_cast<std::size_t>(w)].emergencyCycles;
        }
    }
    // The stepped windows cross the threshold, so the emergency
    // counters are compared on non-trivial values.
    EXPECT_GT(emergencies, 0);
}

void
WindowBatchTest::checkSeparableMatchesFullBufferOnWoodburySubsets()
{
    // Lanes 0 and 1 share base vectors, as a truth epoch's lanes do.
    const std::size_t cycles = 120;
    const int warmup = 30;
    std::size_t n = static_cast<std::size_t>(dp.nodeCount());
    std::vector<Separable> seps;
    for (int w = 0; w < 7; ++w)
        seps.push_back(makeSeparable(w, cycles));
    seps[1].a = seps[0].a;
    seps[1].b = seps[0].b;
    std::vector<std::vector<Amperes>> fulls;
    for (const auto &sp : seps)
        fulls.push_back(fill(sp));

    for (const auto &set :
         std::vector<std::vector<int>>{{0, 4, 8}, {3}}) {
        dp.setActive(set);
        std::vector<pdn::DomainPdn::SeparableWindow> sep_specs;
        std::vector<pdn::DomainPdn::WindowSpec> full_specs;
        for (std::size_t w = 0; w < seps.size(); ++w) {
            sep_specs.push_back(seps[w].view());
            full_specs.push_back({fulls[w].data(), n});
        }
        sep_specs[1].a = sep_specs[0].a;
        sep_specs[1].b = sep_specs[0].b;
        int count = static_cast<int>(seps.size());
        std::vector<pdn::NoiseResult> got(seps.size());
        std::vector<pdn::NoiseResult> ref(seps.size());
        dp.transientWindowBatch(sep_specs.data(), count, cycles, warmup,
                                true, got.data());
        dp.transientWindowBatch(full_specs.data(), count, cycles, warmup,
                                true, ref.data());
        for (std::size_t w = 0; w < seps.size(); ++w)
            expectSameResult(got[w], ref[w],
                             "set size " + std::to_string(set.size()) +
                                 " window " + std::to_string(w));
    }
}

void
WindowBatchTest::checkRepeatedBatchedWindowIsIdempotent()
{
    // Scratch reuse across calls must not leak state between runs.
    const std::size_t cycles = 100;
    std::size_t n = static_cast<std::size_t>(dp.nodeCount());
    auto win = makeWindow(2, cycles);
    pdn::DomainPdn::WindowSpec specs[4] = {
        {win.data(), n}, {win.data(), n}, {win.data(), n},
        {win.data(), n}};
    pdn::NoiseResult out[4];
    dp.transientWindowBatch(specs, 4, cycles, 20, false, out);
    // All four lanes solved the same window: identical bits.
    for (int w = 1; w < 4; ++w)
        EXPECT_EQ(out[w].maxNoiseFrac, out[0].maxNoiseFrac);
    double first = out[0].maxNoiseFrac;
    dp.transientWindowBatch(specs, 4, cycles, 20, false, out);
    EXPECT_EQ(out[0].maxNoiseFrac, first);
}

TEST_F(WindowBatchTest, BatchMatchesScalarAtEveryCount)
{
    checkBatchMatchesScalarAtEveryCount();
}

TEST_F(WindowBatchTest, BatchMatchesScalarOnWoodburySubsets)
{
    checkBatchMatchesScalarOnWoodburySubsets();
}

TEST_F(WindowBatchTest, SeparableMatchesFullBufferAtEveryCount)
{
    checkSeparableMatchesFullBufferAtEveryCount();
}

TEST_F(WindowBatchTest, SeparableMatchesFullBufferOnWoodburySubsets)
{
    checkSeparableMatchesFullBufferOnWoodburySubsets();
}

TEST_F(WindowBatchTest, RepeatedBatchedWindowIsIdempotent)
{
    checkRepeatedBatchedWindowIsIdempotent();
}

// The lockstep window suite with the kernels forced to each ISA tier.
template <class Tag>
class WindowBatchAtTier : public test::TierFixture<Tag, WindowBatchTest>
{
};
TYPED_TEST_SUITE(WindowBatchAtTier, test::AllTiers);

TYPED_TEST(WindowBatchAtTier, BatchMatchesScalarAtEveryCount)
{
    this->checkBatchMatchesScalarAtEveryCount();
}

TYPED_TEST(WindowBatchAtTier, BatchMatchesScalarOnWoodburySubsets)
{
    this->checkBatchMatchesScalarOnWoodburySubsets();
}

TYPED_TEST(WindowBatchAtTier, SeparableMatchesFullBufferAtEveryCount)
{
    this->checkSeparableMatchesFullBufferAtEveryCount();
}

TYPED_TEST(WindowBatchAtTier, SeparableMatchesFullBufferOnWoodburySubsets)
{
    this->checkSeparableMatchesFullBufferOnWoodburySubsets();
}

TYPED_TEST(WindowBatchAtTier, RepeatedBatchedWindowIsIdempotent)
{
    this->checkRepeatedBatchedWindowIsIdempotent();
}

TEST_F(WindowBatchTest, DeathOnBadBatchInputs)
{
    std::size_t n = static_cast<std::size_t>(dp.nodeCount());
    auto win = makeWindow(0, 10);
    pdn::DomainPdn::WindowSpec spec = {win.data(), n};
    pdn::NoiseResult out;
    EXPECT_DEATH(
        dp.transientWindowBatch(&spec, 0, 10, 2, false, &out),
        "empty window batch");
    EXPECT_DEATH(
        dp.transientWindowBatch(&spec, 1, 10, 10, false, &out),
        "warmup");
    pdn::DomainPdn::WindowSpec bad = {win.data(), n - 1};
    EXPECT_DEATH(
        dp.transientWindowBatch(&bad, 1, 10, 2, false, &out),
        "stride");
    auto sep = makeSeparable(0, 10);
    pdn::DomainPdn::SeparableWindow no_mb = sep.view();
    no_mb.mb = nullptr;
    EXPECT_DEATH(
        dp.transientWindowBatch(&no_mb, 1, 10, 2, false, &out),
        "null source");
}

} // namespace
} // namespace tg
