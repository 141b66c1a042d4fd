/**
 * @file
 * Runtime ISA tiers of the lockstep kernels.
 *
 * The batched envelope LDL^T solve, the Woodbury-reduced solve and
 * the PDN transient window (common/noise_kernel.cc) are compiled once
 * per tier: portable (the build's baseline), x86-64-v3 (AVX2) and
 * x86-64-v4 (AVX-512); non-x86 builds compile the portable copy only.
 * Each copy lives in its own namespace, tg::isa_portable / isa_v3 /
 * isa_v4, together with its DoubleBatch lane types, so no symbol of
 * one copy can stand in for another's at link time. The best tier
 * the host runs is picked once per process; every tier gives the
 * same bits (lane-wise ops only, no FMA contraction, no
 * reassociation), so the choice is invisible except in speed.
 *
 * The kernels work on plain-pointer views of the factors and on
 * scratch the caller has already sized: no std::vector, no
 * allocation and no library template is instantiated inside a tier
 * copy (see DESIGN.md "ISA tiers" for the symbol rule a ctest
 * enforces).
 */

#ifndef TG_COMMON_ISA_HH
#define TG_COMMON_ISA_HH

#include <cstddef>

namespace tg {
namespace isa {

/** Compiled instruction-set tiers, lowest first. */
enum class Tier
{
    Portable, //!< the build's baseline (-march as configured)
    V3,       //!< x86-64-v3: AVX2, FMA (never contracted), BMI2
    V4,       //!< x86-64-v4: AVX-512 F/BW/CD/DQ/VL
};

inline constexpr int kTierCount = 3;

/** "portable", "x86-64-v3" or "x86-64-v4". */
const char *tierName(Tier t);

/** Bit of `t` in a tier mask. */
constexpr unsigned
tierBit(Tier t)
{
    return 1u << static_cast<unsigned>(t);
}

/** Tiers compiled into this binary that this host can execute. */
unsigned usableTiers();

/** The tier every kernel call currently dispatches to. */
Tier activeTier();

/**
 * Test-only: dispatch every later kernel call to tier `t`. Refused
 * (returns false, the active tier unchanged, none of `t`'s code run)
 * unless `t` is in both `host_tiers` and usableTiers(); tests pass a
 * narrower `host_tiers` to stand in for an older host. Not
 * thread-safe against concurrent kernel calls.
 */
bool forceForTesting(Tier t, unsigned host_tiers = usableTiers());

/** Envelope LDL^T factor arrays (see SparseLdltSolver). */
struct LdltView
{
    std::size_t n = 0;
    const std::size_t *perm = nullptr;     //!< perm[new] = old
    const std::size_t *first = nullptr;    //!< envelope start per row
    const std::size_t *rowStart = nullptr; //!< packed offsets, n + 1
    const double *low = nullptr;           //!< strictly-lower L
    const double *diag = nullptr;          //!< D
};

/**
 * Woodbury downdate M_S = M0 - E D E^T of a base factor:
 *   M_S^{-1} x = t + W capInverse (E^T t),  t = M0^{-1} x.
 */
struct DowndateView
{
    std::size_t r = 0;                  //!< removed branches
    const int *nodes = nullptr;         //!< attach node per branch
    const double *w = nullptr;          //!< n x r row-major M0^{-1} E
    const double *capInverse = nullptr; //!< r x r row-major
};

/** A base factor and the downdate to the active set. */
struct ReducedView
{
    LdltView base;
    DowndateView dd;
};

/** Scratch of a W-lane reduced solve, sized by the caller. */
struct ReducedScratch
{
    double *ldlt = nullptr;  //!< n * W
    double *small = nullptr; //!< 2 * r * W
};

/** One domain's transient problem under its current active set. */
struct TransientView
{
    std::size_t n = 0;     //!< mesh nodes
    ReducedView steady;    //!< reduced steady-state system
    ReducedView transient; //!< reduced implicit-Euler system
    std::size_t m = 0;     //!< active branches
    const std::size_t *branchNode = nullptr; //!< attach node, m
    const double *branchLdt = nullptr;       //!< L_k / dt, m
    const double *branchR = nullptr;         //!< L_k / dt + R_out, m
    const double *decap = nullptr;           //!< per-node C [F], n
    const int *loadIdx = nullptr;            //!< load nodes, ascending
    std::size_t loads = 0;
    double vdd = 0.0;
    double dt = 0.0;
    double rOut = 0.0;
    double emergencyFrac = 0.0;
};

/** A window's loads as a flat strided cycle buffer. */
struct WindowSpec
{
    const double *currents = nullptr; //!< cycle-major load rows
    std::size_t stride = 0;           //!< row stride >= node count
};

/**
 * A window in separable form: the load of node i at cycle c is
 * a[i] * ma[c] + b[i] * mb[c], evaluated in that order.
 */
struct SeparableWindow
{
    const double *a = nullptr;  //!< first base-current vector
    const double *b = nullptr;  //!< second base-current vector
    const double *ma = nullptr; //!< per-cycle multipliers of a
    const double *mb = nullptr; //!< per-cycle multipliers of b
};

/** Scratch of a W-lane transient window, sized by the caller. */
struct WindowScratch
{
    ReducedScratch solve;       //!< r = the larger downdate rank
    double *volt = nullptr;     //!< n * W
    double *rhs = nullptr;      //!< n * W
    double *branch = nullptr;   //!< m * W
    double *branchRhs = nullptr; //!< m * W
    double *baseA = nullptr;    //!< n * W (separable windows only)
    double *baseB = nullptr;    //!< n * W (separable windows only)
};

/** Statistics of one lane; `trace` (cycles doubles) may be null. */
struct LaneResult
{
    double maxNoiseFrac = 0.0;
    int emergencyCycles = 0;
    int analysedCycles = 0;
    double *trace = nullptr;
};

/** Kernel widths W = 1, 2, 4, 8, indexed by log2(W). */
inline constexpr int kWidthCount = 4;

/** One tier's kernels: entry [k] runs 2^k lanes in lockstep. */
struct KernelTable
{
    /** Interleaved n x W solve in place; `work` holds n * W. */
    void (*solveLdlt[kWidthCount])(const LdltView &f, double *bx,
                                   double *work);
    /** Woodbury-corrected solve of one right-hand side (W = 1). */
    void (*solveReduced)(const ReducedView &s, double *x,
                         const ReducedScratch &work);
    /** W transient windows of `cycles` cycles, first `warmup` unscored. */
    void (*windowStrided[kWidthCount])(const TransientView &p,
                                       const WindowSpec *windows,
                                       std::size_t cycles, int warmup,
                                       const WindowScratch &work,
                                       LaneResult *out);
    void (*windowSeparable[kWidthCount])(const TransientView &p,
                                         const SeparableWindow *windows,
                                         std::size_t cycles, int warmup,
                                         const WindowScratch &work,
                                         LaneResult *out);
};

/** The active tier's kernels. */
const KernelTable &kernels();

/** log2 of a kernel width (1, 2, 4 or 8). */
constexpr int
widthIndex(std::size_t w)
{
    return w >= 8 ? 3 : w >= 4 ? 2 : w >= 2 ? 1 : 0;
}

} // namespace isa
} // namespace tg

#endif // TG_COMMON_ISA_HH
