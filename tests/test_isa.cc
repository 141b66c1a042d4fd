/**
 * @file
 * Tests of the ISA-tier dispatch of the lockstep kernels: tier
 * selection and refusal, and every tier the host runs reproducing
 * the portable tier's bits for the batched LDL^T solve and the
 * transient window kernels.
 */

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/isa.hh"
#include "common/rng.hh"
#include "common/sparse.hh"
#include "floorplan/power8.hh"
#include "isa_tiers.hh"
#include "pdn/domain_pdn.hh"
#include "vreg/design.hh"
#include "workload/cycles.hh"

namespace tg {
namespace {

TEST(Isa, DispatchesToTheBestUsableTier)
{
    const unsigned usable = isa::usableTiers();
    EXPECT_TRUE(usable & isa::tierBit(isa::Tier::Portable));
    unsigned higher = 0;
    for (int i = static_cast<int>(isa::activeTier()) + 1;
         i < isa::kTierCount; ++i)
        higher |= isa::tierBit(static_cast<isa::Tier>(i));
    EXPECT_TRUE(usable & isa::tierBit(isa::activeTier()));
    EXPECT_EQ(usable & higher, 0u)
        << "a usable tier above " << isa::tierName(isa::activeTier());
}

TEST(Isa, UnsupportedTierIsRefusedWithoutRunningIt)
{
    // A host that runs only the portable copy: forcing either vector
    // tier is refused before its table is taken, so the dispatch
    // slot keeps pointing at the tier that was active.
    const isa::Tier before = isa::activeTier();
    const isa::KernelTable *table = &isa::kernels();
    const unsigned portable_host = isa::tierBit(isa::Tier::Portable);
    for (isa::Tier t : {isa::Tier::V3, isa::Tier::V4}) {
        SCOPED_TRACE(isa::tierName(t));
        EXPECT_FALSE(isa::forceForTesting(t, portable_host));
        EXPECT_EQ(isa::activeTier(), before);
        EXPECT_EQ(&isa::kernels(), table);
    }
    // A tier this host or build lacks is refused the same way, and a
    // claimed host mask cannot widen what the host really runs.
    for (int i = 0; i < isa::kTierCount; ++i) {
        const isa::Tier t = static_cast<isa::Tier>(i);
        if (isa::usableTiers() & isa::tierBit(t))
            continue;
        EXPECT_FALSE(isa::forceForTesting(t, ~0u)) << isa::tierName(t);
        EXPECT_EQ(&isa::kernels(), table);
    }
}

TEST(Isa, ForcingAUsableTierSwitchesAndRestores)
{
    const isa::Tier before = isa::activeTier();
    {
        test::ScopedTier portable(isa::Tier::Portable);
        ASSERT_TRUE(portable.forced());
        EXPECT_EQ(isa::activeTier(), isa::Tier::Portable);
    }
    EXPECT_EQ(isa::activeTier(), before);
}

// ---- Every tier against the portable bits -------------------------------

/** Grid Laplacian plus diagonal boosts: a small SPD system. */
SparseMatrix
gridSpd(int w, int h)
{
    auto node = [&](int r, int c) {
        return static_cast<std::size_t>(r * w + c);
    };
    std::vector<Triplet> t;
    for (int r = 0; r < h; ++r)
        for (int c = 0; c < w; ++c) {
            const std::size_t i = node(r, c);
            t.push_back({i, i, 0.3 + 0.01 * static_cast<double>(i)});
            if (c + 1 < w) {
                t.push_back({i, i, 1.7});
                t.push_back({node(r, c + 1), node(r, c + 1), 1.7});
                t.push_back({i, node(r, c + 1), -1.7});
                t.push_back({node(r, c + 1), i, -1.7});
            }
            if (r + 1 < h) {
                t.push_back({i, i, 0.9});
                t.push_back({node(r + 1, c), node(r + 1, c), 0.9});
                t.push_back({i, node(r + 1, c), -0.9});
                t.push_back({node(r + 1, c), i, -0.9});
            }
        }
    const std::size_t n = static_cast<std::size_t>(w * h);
    return SparseMatrix::fromTriplets(n, n, std::move(t));
}

template <class Tag>
class KernelsAtTier : public ::testing::Test
{
  protected:
    KernelsAtTier()
        : chip(floorplan::buildPower8Chip()),
          dp(chip, 0, vreg::fivrDesign(), {}), solver(gridSpd(11, 7))
    {
    }

    /** Batched solves of `width` lanes at every width 1..9. */
    std::vector<std::vector<double>> solves() const
    {
        std::vector<std::vector<double>> out;
        const std::size_t n = solver.size();
        for (std::size_t width = 1; width <= 9; ++width) {
            Rng rng(mixSeed(0x15au, width));
            std::vector<double> bx(n * width);
            for (double &v : bx)
                v = rng.uniform(-3.0, 3.0);
            solver.solveBatchInPlace(bx.data(), width);
            out.push_back(std::move(bx));
        }
        return out;
    }

    /** Eleven separable windows (chunks 8 + 2 + 1), traces kept. */
    std::vector<pdn::NoiseResult> windows(const std::vector<int> &set)
    {
        const std::size_t cycles = 96;
        std::vector<Watts> bp(chip.plan.blocks().size(), 0.0);
        for (int b : chip.plan.domains()[0].blocks)
            bp[static_cast<std::size_t>(b)] = 0.8;
        const auto base = dp.nodeCurrents(bp);
        std::vector<std::vector<double>> mult;
        std::vector<pdn::DomainPdn::SeparableWindow> lanes;
        for (int w = 0; w < 11; ++w) {
            Rng rng(mixSeed(0x7e5u, static_cast<std::uint64_t>(w)));
            mult.push_back(workload::synthesizeCycleMultipliers(
                0.25 + 0.05 * w, cycles, rng));
        }
        for (int w = 0; w < 11; ++w)
            lanes.push_back({base.data(), base.data(),
                             mult[static_cast<std::size_t>(w)].data(),
                             mult[static_cast<std::size_t>(10 - w)]
                                 .data()});
        dp.setActive(set);
        std::vector<pdn::NoiseResult> out(lanes.size());
        dp.transientWindowBatch(lanes.data(),
                                static_cast<int>(lanes.size()), cycles,
                                24, true, out.data());
        return out;
    }

    /** Steady-state voltages (the single-lane reduced solve). */
    std::vector<Volts> steady(const std::vector<int> &set)
    {
        std::vector<Watts> bp(chip.plan.blocks().size(), 0.0);
        for (int b : chip.plan.domains()[0].blocks)
            bp[static_cast<std::size_t>(b)] = 1.1;
        dp.setActive(set);
        return dp.steadyVoltages(dp.nodeCurrents(bp));
    }

    floorplan::Chip chip;
    pdn::DomainPdn dp;
    SparseLdltSolver solver;
};
TYPED_TEST_SUITE(KernelsAtTier, test::AllTiers);

TYPED_TEST(KernelsAtTier, MatchPortableBits)
{
    const std::vector<int> all = {0, 1, 2, 3, 4, 5, 6, 7, 8};
    const std::vector<int> subset = {2, 6};
    std::vector<std::vector<double>> ref_solves;
    std::vector<pdn::NoiseResult> ref_all, ref_subset;
    std::vector<Volts> ref_steady;
    {
        test::ScopedTier portable(isa::Tier::Portable);
        ASSERT_TRUE(portable.forced());
        ref_solves = this->solves();
        ref_steady = this->steady(subset);
        ref_all = this->windows(all);
        ref_subset = this->windows(subset);
    }

    test::ScopedTier tier(TypeParam::kTier);
    if (!tier.forced())
        GTEST_SKIP() << "host lacks ISA tier "
                     << isa::tierName(TypeParam::kTier);
    EXPECT_EQ(this->solves(), ref_solves);
    EXPECT_EQ(this->steady(subset), ref_steady);
    for (const auto &[set, ref] :
         {std::pair{all, ref_all}, std::pair{subset, ref_subset}}) {
        const auto got = this->windows(set);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t w = 0; w < got.size(); ++w) {
            SCOPED_TRACE("set size " + std::to_string(set.size()) +
                         " window " + std::to_string(w));
            EXPECT_EQ(got[w].maxNoiseFrac, ref[w].maxNoiseFrac);
            EXPECT_EQ(got[w].emergencyCycles, ref[w].emergencyCycles);
            EXPECT_EQ(got[w].analysedCycles, ref[w].analysedCycles);
            EXPECT_EQ(got[w].trace, ref[w].trace);
        }
    }
}

} // namespace
} // namespace tg
