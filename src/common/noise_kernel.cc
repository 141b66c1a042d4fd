/**
 * @file
 * The lockstep kernels of one ISA tier: the batched envelope LDL^T
 * solve, the Woodbury-reduced solve and the PDN transient window, at
 * widths 8/4/2/1.
 *
 * src/CMakeLists.txt compiles this file once per tier with
 * TG_ISA_NS=isa_<tier> and that tier's -march, always under
 * -ffp-contract=off; common/isa.cc picks one copy per process. The
 * namespace wraps the DoubleBatch lane types too (common/simd.hh
 * reads TG_ISA_NS), so the copies share no symbol. Keep it that way:
 * the file may include only isa.hh, simd.hh and <type_traits>, and must not
 * instantiate a library template (std::vector, std::max, ...): a
 * linker keeps one copy of every weak symbol, and a v4 one handed to
 * a portable caller is SIGILL on an older host. The IsaSymbols
 * ctests check each tier's object.
 *
 * Every kernel applies lane-wise operations only, in the scalar
 * order, so lane l of any width at any tier is the bits of a scalar
 * solve of problem l.
 */

#ifndef TG_ISA_NS
#error "noise_kernel.cc is compiled per ISA tier with -DTG_ISA_NS=isa_<tier>"
#endif

#include <type_traits>

#include "common/isa.hh"
#include "common/simd.hh"

namespace tg {
namespace TG_ISA_NS {
namespace {

/**
 * Fixed-width lockstep envelope solve: the scalar substitution loops
 * with every row operation applied to all W lanes before moving on.
 * `bx` is n x W interleaved (lane l of row i at bx[i * W + l]); `y`
 * is n * W scratch.
 */
template <int W>
void
solveLdlt(const isa::LdltView &f, double *bx, double *y)
{
    using B = DoubleBatch<W>;
    const std::size_t n = f.n;
    for (std::size_t i = 0; i < n; ++i)
        B::load(bx + f.perm[i] * W).store(y + i * W);

    // Forward substitution with unit-diagonal L.
    for (std::size_t i = 0; i < n; ++i) {
        const double *li = f.low + f.rowStart[i];
        const std::size_t fi = f.first[i];
        B acc = B::load(y + i * W);
        for (std::size_t j = fi; j < i; ++j)
            acc -= B::load(y + j * W) * li[j - fi];
        acc.store(y + i * W);
    }

    // Diagonal scaling, then back substitution with L^T: the stored
    // rows of L are the columns of L^T, so sweep rows from the bottom
    // and scatter each solved component into the rows above it.
    for (std::size_t i = 0; i < n; ++i)
        (B::load(y + i * W) / f.diag[i]).store(y + i * W);
    for (std::size_t i = n; i-- > 0;) {
        const double *li = f.low + f.rowStart[i];
        const std::size_t fi = f.first[i];
        const B yi = B::load(y + i * W);
        for (std::size_t j = fi; j < i; ++j)
            (B::load(y + j * W) - yi * li[j - fi]).store(y + j * W);
    }

    for (std::size_t i = 0; i < n; ++i)
        B::load(y + i * W).store(bx + f.perm[i] * W);
}

/**
 * W = 1: the same loops on plain doubles. Same bits; it keeps the
 * single-lane solves (thermal steps, steady states) free of lane
 * temporaries, which sanitizer builds cannot keep in registers.
 */
template <>
void
solveLdlt<1>(const isa::LdltView &f, double *bx, double *y)
{
    const std::size_t n = f.n;
    for (std::size_t i = 0; i < n; ++i)
        y[i] = bx[f.perm[i]];
    for (std::size_t i = 0; i < n; ++i) {
        const double *li = f.low + f.rowStart[i];
        const std::size_t fi = f.first[i];
        double acc = y[i];
        for (std::size_t j = fi; j < i; ++j)
            acc -= li[j - fi] * y[j];
        y[i] = acc;
    }
    for (std::size_t i = 0; i < n; ++i)
        y[i] /= f.diag[i];
    for (std::size_t i = n; i-- > 0;) {
        const double *li = f.low + f.rowStart[i];
        const std::size_t fi = f.first[i];
        for (std::size_t j = fi; j < i; ++j)
            y[j] -= li[j - fi] * y[i];
    }
    for (std::size_t i = 0; i < n; ++i)
        bx[f.perm[i]] = y[i];
}

/**
 * Woodbury-corrected solve for W interleaved lanes: one batched base
 * solve, then the rank-r correction x += W capInverse (E^T x).
 */
template <int W>
void
solveReduced(const isa::ReducedView &s, double *x,
             const isa::ReducedScratch &work)
{
    solveLdlt<W>(s.base, x, work.ldlt);
    const isa::DowndateView &dd = s.dd;
    const std::size_t r = dd.r;
    if (r == 0)
        return;
    using B = DoubleBatch<W>;
    double *sm = work.small;
    double *u = sm + r * W;
    for (std::size_t a = 0; a < r; ++a)
        B::load(x + static_cast<std::size_t>(dd.nodes[a]) * W)
            .store(sm + a * W);
    for (std::size_t a = 0; a < r; ++a) {
        const double *ca = dd.capInverse + a * r;
        B acc = B::broadcast(0.0);
        for (std::size_t b = 0; b < r; ++b)
            acc += B::load(sm + b * W) * ca[b];
        acc.store(u + a * W);
    }
    for (std::size_t i = 0; i < s.base.n; ++i) {
        const double *wi = dd.w + i * r;
        B acc = B::broadcast(0.0);
        for (std::size_t a = 0; a < r; ++a)
            acc += B::load(u + a * W) * wi[a];
        (B::load(x + i * W) + acc).store(x + i * W);
    }
}

/** Lane loads of one cycle of strided windows: node -> batch. */
template <int W>
struct StridedLoad
{
    const double *rows[W];

    DoubleBatch<W> operator()(std::size_t i) const
    {
        double cur[W];
        for (int l = 0; l < W; ++l)
            cur[l] = rows[l][i];
        return DoubleBatch<W>::load(cur);
    }
};

/** Lane loads of one cycle of separable windows: a*ma + b*mb. */
template <int W>
struct SeparableLoad
{
    const double *pa;
    const double *pb;
    DoubleBatch<W> ma;
    DoubleBatch<W> mb;

    DoubleBatch<W> operator()(std::size_t i) const
    {
        return DoubleBatch<W>::load(pa + i * W) * ma +
               DoubleBatch<W>::load(pb + i * W) * mb;
    }
};

template <int W>
StridedLoad<W>
cycleLoad(const isa::WindowSpec *windows, const isa::WindowScratch &,
          std::size_t cyc)
{
    StridedLoad<W> f;
    for (int l = 0; l < W; ++l)
        f.rows[l] = windows[l].currents + cyc * windows[l].stride;
    return f;
}

template <int W>
SeparableLoad<W>
cycleLoad(const isa::SeparableWindow *windows,
          const isa::WindowScratch &work, std::size_t cyc)
{
    double ma[W];
    double mb[W];
    for (int l = 0; l < W; ++l) {
        ma[l] = windows[l].ma[cyc];
        mb[l] = windows[l].mb[cyc];
    }
    return {work.baseA, work.baseB, DoubleBatch<W>::load(ma),
            DoubleBatch<W>::load(mb)};
}

/**
 * Fixed-width lockstep transient kernel, the only transient solver:
 * W independent windows advance through the shared factorisation,
 * one lane each, with the lane dimension innermost. Lane l's
 * floating-point op sequence — load build, rhs assembly, solve,
 * branch update, droop max — depends only on window l, so every
 * width (1 included) and every chunking gives the same bits.
 *
 * The load of cycle c comes from one of two sources. A WindowSpec
 * lane gathers row c of its strided buffer. A SeparableWindow lane
 * evaluates a[i] * ma[c] + b[i] * mb[c] here, with a and b
 * interleaved once per call: the expression and order a
 * buffer-filling caller would use, so both sources give the same
 * bits for the same loads.
 */
template <int W, class Window>
void
transientWindow(const isa::TransientView &p, const Window *windows,
                std::size_t cycles, int warmup,
                const isa::WindowScratch &work, isa::LaneResult *out)
{
    using B = DoubleBatch<W>;
    const std::size_t n = p.n;
    const std::size_t m = p.m;
    const double vdd = p.vdd;
    const double dt = p.dt;
    const double r_out = p.rOut;

    if constexpr (std::is_same_v<Window, isa::SeparableWindow>) {
        for (std::size_t i = 0; i < n; ++i)
            for (int l = 0; l < W; ++l) {
                work.baseA[i * W + l] = windows[l].a[i];
                work.baseB[i * W + l] = windows[l].b[i];
            }
    }

    // Initial condition per lane: steady state at the lane's first
    // cycle, branch currents from Vdd = V_node + R_out I. The rhs is
    // the negated load (not 0 - load), which keeps the sign of zero.
    double *volt = work.volt;
    double *rhs = work.rhs;
    {
        const auto load0 = cycleLoad<W>(windows, work, 0);
        for (std::size_t i = 0; i < n; ++i) {
            load0(i).store(volt + i * W);
            for (int l = 0; l < W; ++l)
                volt[i * W + l] = -volt[i * W + l];
        }
    }
    for (std::size_t k = 0; k < m; ++k)
        for (int l = 0; l < W; ++l)
            volt[p.branchNode[k] * W + l] += vdd / r_out;
    solveReduced<W>(p.steady, volt, work.solve);
    for (std::size_t k = 0; k < m; ++k)
        for (int l = 0; l < W; ++l)
            work.branch[k * W + l] =
                (vdd - volt[p.branchNode[k] * W + l]) / r_out;

    for (int l = 0; l < W; ++l) {
        out[l].maxNoiseFrac = 0.0;
        out[l].emergencyCycles = 0;
        out[l].analysedCycles = 0;
    }

    // Implicit Euler in reduced form:
    //   (C/dt + G + sum 1/R_k) V' = C/dt V - I_load + sum g_k/R_k e_k
    //   I'_k = (g_k - V'_{node_k}) / R_k,  g_k = L_k/dt I_k + Vdd.
    for (std::size_t cyc = 0; cyc < cycles; ++cyc) {
        const auto load = cycleLoad<W>(windows, work, cyc);
        for (std::size_t i = 0; i < n; ++i) {
            const double g = p.decap[i] / dt;
            // Lane l: g * volt - current (batch * scalar multiplies
            // lane-first, bit-commutative).
            (B::load(volt + i * W) * g - load(i)).store(rhs + i * W);
        }
        for (std::size_t k = 0; k < m; ++k) {
            const std::size_t node = p.branchNode[k];
            B g_k = B::load(work.branch + k * W) * p.branchLdt[k] +
                    B::broadcast(vdd);
            g_k.store(work.branchRhs + k * W);
            (B::load(rhs + node * W) + g_k / p.branchR[k])
                .store(rhs + node * W);
        }
        solveReduced<W>(p.transient, rhs, work.solve);
        double *solved = rhs;
        rhs = volt;
        volt = solved;
        for (std::size_t k = 0; k < m; ++k)
            ((B::load(work.branchRhs + k * W) -
              B::load(volt + p.branchNode[k] * W)) /
             p.branchR[k])
                .store(work.branch + k * W);

        B droop = B::broadcast(0.0);
        for (std::size_t j = 0; j < p.loads; ++j) {
            B v = B::load(volt + static_cast<std::size_t>(p.loadIdx[j]) * W);
            droop = B::max(droop, (B::broadcast(vdd) - v) / vdd);
        }
        for (int l = 0; l < W; ++l) {
            const double d = droop[l];
            if (out[l].trace)
                out[l].trace[cyc] = d;
            if (static_cast<int>(cyc) >= warmup) {
                ++out[l].analysedCycles;
                // std::max's exact (a < b ? b : a).
                if (out[l].maxNoiseFrac < d)
                    out[l].maxNoiseFrac = d;
                if (d > p.emergencyFrac)
                    ++out[l].emergencyCycles;
            }
        }
    }
}

const isa::KernelTable kTable = {
    {solveLdlt<1>, solveLdlt<2>, solveLdlt<4>, solveLdlt<8>},
    solveReduced<1>,
    {transientWindow<1, isa::WindowSpec>,
     transientWindow<2, isa::WindowSpec>,
     transientWindow<4, isa::WindowSpec>,
     transientWindow<8, isa::WindowSpec>},
    {transientWindow<1, isa::SeparableWindow>,
     transientWindow<2, isa::SeparableWindow>,
     transientWindow<4, isa::SeparableWindow>,
     transientWindow<8, isa::SeparableWindow>},
};

} // namespace

/** This tier's kernels (the copy's one external symbol). */
const isa::KernelTable &
kernelTable()
{
    return kTable;
}

} // namespace TG_ISA_NS
} // namespace tg
