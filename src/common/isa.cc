#include "common/isa.hh"

#include <atomic>

namespace tg {

// One accessor per compiled copy of common/noise_kernel.cc.
namespace isa_portable {
const isa::KernelTable &kernelTable();
}
#if TG_ISA_X86_TIERS
namespace isa_v3 {
const isa::KernelTable &kernelTable();
}
namespace isa_v4 {
const isa::KernelTable &kernelTable();
}
#endif

namespace isa {
namespace {

const KernelTable *
tableOf(Tier t)
{
    switch (t) {
      case Tier::Portable: return &isa_portable::kernelTable();
#if TG_ISA_X86_TIERS
      case Tier::V3: return &isa_v3::kernelTable();
      case Tier::V4: return &isa_v4::kernelTable();
#endif
      default: return nullptr;
    }
}

/**
 * Whether the CPU, and the OS's saved register state, run tier `t`.
 * Feature names, not ISA-level names, so GCC and Clang agree; every
 * CPU with these also has the rest of its level (LZCNT, MOVBE, F16C).
 */
bool
hostRuns(Tier t)
{
    switch (t) {
      case Tier::Portable: return true;
#if TG_ISA_X86_TIERS
      case Tier::V3:
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma") &&
               __builtin_cpu_supports("bmi") &&
               __builtin_cpu_supports("bmi2");
      case Tier::V4:
        return hostRuns(Tier::V3) &&
               __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512bw") &&
               __builtin_cpu_supports("avx512cd") &&
               __builtin_cpu_supports("avx512dq") &&
               __builtin_cpu_supports("avx512vl");
#endif
      default: return false;
    }
}

unsigned
probeUsable()
{
#if TG_ISA_X86_TIERS
    __builtin_cpu_init();
#endif
    unsigned mask = 0;
    for (int i = 0; i < kTierCount; ++i) {
        const Tier t = static_cast<Tier>(i);
        if (tableOf(t) && hostRuns(t))
            mask |= tierBit(t);
    }
    return mask;
}

/** The dispatch slot, set once to the best usable tier. */
struct Active
{
    std::atomic<Tier> tier;
    std::atomic<const KernelTable *> table;

    Active()
    {
        Tier best = Tier::Portable;
        for (int i = 0; i < kTierCount; ++i)
            if (usableTiers() & tierBit(static_cast<Tier>(i)))
                best = static_cast<Tier>(i);
        tier.store(best);
        table.store(tableOf(best));
    }
};

Active &
active()
{
    static Active slot;
    return slot;
}

} // namespace

const char *
tierName(Tier t)
{
    switch (t) {
      case Tier::Portable: return "portable";
      case Tier::V3: return "x86-64-v3";
      case Tier::V4: return "x86-64-v4";
    }
    return "?";
}

unsigned
usableTiers()
{
    static const unsigned mask = probeUsable();
    return mask;
}

Tier
activeTier()
{
    return active().tier.load(std::memory_order_relaxed);
}

bool
forceForTesting(Tier t, unsigned host_tiers)
{
    if (!(host_tiers & usableTiers() & tierBit(t)))
        return false;
    active().tier.store(t, std::memory_order_relaxed);
    active().table.store(tableOf(t), std::memory_order_relaxed);
    return true;
}

const KernelTable &
kernels()
{
    return *active().table.load(std::memory_order_relaxed);
}

} // namespace isa
} // namespace tg
