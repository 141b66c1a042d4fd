/**
 * @file
 * Typed-test support for running a suite under every ISA tier.
 *
 * A suite derives its fixture from TierFixture<Tag> and is
 * instantiated over AllTiers: each test forces its tier for its own
 * duration through isa::forceForTesting() and is skipped, naming the
 * tier, when the host cannot run it (or the build did not compile
 * it). The tag types are named after the tiers, so ctest lists
 * Suite.Test<tg::test::X86_64_V4>.
 */

#ifndef TG_TESTS_ISA_TIERS_HH
#define TG_TESTS_ISA_TIERS_HH

#include <gtest/gtest.h>

#include "common/isa.hh"

namespace tg {
namespace test {

/** Typed-test tags, one per tier. */
struct Portable
{
    static constexpr isa::Tier kTier = isa::Tier::Portable;
};
struct X86_64_V3
{
    static constexpr isa::Tier kTier = isa::Tier::V3;
};
struct X86_64_V4
{
    static constexpr isa::Tier kTier = isa::Tier::V4;
};

using AllTiers = ::testing::Types<Portable, X86_64_V3, X86_64_V4>;

/** Dispatch to `t` while alive (if the host runs it), then restore. */
class ScopedTier
{
  public:
    explicit ScopedTier(isa::Tier t)
        : prev(isa::activeTier()), ok(isa::forceForTesting(t))
    {
    }
    ~ScopedTier()
    {
        if (ok)
            isa::forceForTesting(prev);
    }
    ScopedTier(const ScopedTier &) = delete;
    ScopedTier &operator=(const ScopedTier &) = delete;

    bool forced() const { return ok; }

  private:
    isa::Tier prev;
    bool ok;
};

/**
 * Fixture running each test of `Base` at tier Tag::kTier. Base is
 * constructed first, at the process's own tier; every tier gives the
 * same bits, so that only moves where its setup runs.
 */
template <class Tag, class Base = ::testing::Test>
class TierFixture : public Base
{
  protected:
    void SetUp() override
    {
        Base::SetUp();
        if (!tier.forced())
            GTEST_SKIP() << "host lacks ISA tier "
                         << isa::tierName(Tag::kTier);
    }

    ScopedTier tier{Tag::kTier};
};

} // namespace test
} // namespace tg

#endif // TG_TESTS_ISA_TIERS_HH
