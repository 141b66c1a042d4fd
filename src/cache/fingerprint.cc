#include "cache/fingerprint.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <type_traits>

#include "fault/scenario.hh"
#include "floorplan/power8.hh"
#include "sim/config.hh"
#include "sim/result.hh"
#include "workload/profile.hh"

namespace tg {
namespace cache {

namespace {

/** splitmix64 finalizer: the full-avalanche mixing step. */
std::uint64_t mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Domain-separation tags fed before each typed payload. */
constexpr std::uint64_t kTagU64 = 0x01;
constexpr std::uint64_t kTagF64 = 0x02;
constexpr std::uint64_t kTagStr = 0x03;
constexpr std::uint64_t kTagFp = 0x04;

} // namespace

std::string Fingerprint::hex() const
{
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return std::string(buf);
}

void Hasher::absorb(std::uint64_t word)
{
    ++n;
    a = mix(a ^ word);
    b = mix(b + (word ^ (n * 0x9e3779b97f4a7c15ull)));
}

Hasher &Hasher::u64(std::uint64_t v)
{
    absorb(kTagU64);
    absorb(v);
    return *this;
}

Hasher &Hasher::f64(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v, "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof bits);
    absorb(kTagF64);
    absorb(bits);
    return *this;
}

Hasher &Hasher::str(const std::string &s)
{
    absorb(kTagStr);
    absorb(s.size());
    // Pack 8 bytes per word, zero-padded tail; the length word above
    // keeps "ab"+"\0..." distinct from "ab\0...".
    for (std::size_t i = 0; i < s.size(); i += 8) {
        std::uint64_t word = 0;
        const std::size_t chunk = std::min<std::size_t>(8, s.size() - i);
        std::memcpy(&word, s.data() + i, chunk);
        absorb(word);
    }
    return *this;
}

Hasher &Hasher::fp(const Fingerprint &f)
{
    absorb(kTagFp);
    absorb(f.hi);
    absorb(f.lo);
    return *this;
}

Fingerprint Hasher::digest() const
{
    // Finalize a copy so the Hasher may keep absorbing; fold the
    // length in so prefixes of a stream never alias its digests.
    Fingerprint out;
    out.hi = mix(a ^ mix(n));
    out.lo = mix(b + mix(n ^ 0x5851f42d4c957f2dull));
    if (out.hi == 0 && out.lo == 0)
        out.lo = 1; // reserve {0,0} as "no fingerprint"
    return out;
}

Fingerprint chipFingerprint(const floorplan::Chip &chip)
{
    Hasher h;
    h.str("tg.chip.v1");

    const floorplan::Floorplan &p = chip.plan;
    h.f64(p.width()).f64(p.height());

    h.u64(p.blocks().size());
    for (const floorplan::Block &blk : p.blocks()) {
        h.str(blk.name)
            .u64(static_cast<std::uint64_t>(blk.kind))
            .f64(blk.rect.x)
            .f64(blk.rect.y)
            .f64(blk.rect.w)
            .f64(blk.rect.h)
            .i64(blk.domain)
            .i64(blk.coreId);
    }

    h.u64(p.vrs().size());
    for (const floorplan::VrSite &vr : p.vrs()) {
        h.str(vr.name)
            .f64(vr.rect.x)
            .f64(vr.rect.y)
            .f64(vr.rect.w)
            .f64(vr.rect.h)
            .i64(vr.domain)
            .i64(vr.hostBlock)
            .boolean(vr.memorySide);
    }

    h.u64(p.domains().size());
    for (const floorplan::VddDomain &d : p.domains()) {
        h.i64(d.id).u64(static_cast<std::uint64_t>(d.kind)).str(d.name);
        h.u64(d.blocks.size());
        for (int b : d.blocks)
            h.i64(b);
        h.u64(d.vrs.size());
        for (int v : d.vrs)
            h.i64(v);
    }

    const floorplan::ChipParams &cp = chip.params;
    h.f64(cp.technologyNm)
        .f64(cp.frequencyHz)
        .f64(cp.tdp)
        .f64(cp.vdd)
        .f64(cp.areaMm2)
        .i64(cp.cores)
        .i64(cp.issueWidth);

    return h.digest();
}

namespace {

/**
 * Absorbs the Result-role fields of the SimConfig schema in visit
 * order. PowerParams folds in as its own fingerprint, the key
 * component the power-trace artifact also uses alone.
 */
struct KeyFields
{
    Hasher &h;

    void powerParams(const power::PowerParams &p)
    {
        h.fp(powerParamsFingerprint(p));
    }

    template <class T>
    void operator()(const char *, const T &v, sim::FieldRole role)
    {
        if (role != sim::FieldRole::Result)
            return;
        if constexpr (std::is_same_v<T, double>)
            h.f64(v);
        else if constexpr (std::is_same_v<T, std::string>)
            h.str(v);
        else // enums, bools, integers (ints sign-extend like i64())
            h.u64(static_cast<std::uint64_t>(v));
    }
};

} // namespace

Fingerprint configFingerprint(const sim::SimConfig &cfg)
{
    Hasher h;
    h.str("tg.config.v1");
    sim::visitConfig(cfg, KeyFields{h});
    return h.digest();
}

Fingerprint powerParamsFingerprint(const power::PowerParams &pw)
{
    Hasher h;
    h.str("tg.power-params.v1");
    sim::visitPowerParams(pw, KeyFields{h});
    return h.digest();
}

Fingerprint profileFingerprint(const workload::BenchmarkProfile &p)
{
    Hasher h;
    h.str("tg.profile.v1");
    h.str(p.name)
        .str(p.fullName)
        .f64(p.meanUtilization)
        .f64(p.phaseAmplitude)
        .f64(p.phasePeriodUs)
        .f64(p.jitterSigma)
        .f64(p.imbalance)
        .f64(p.memoryIntensity)
        .f64(p.didtActivity)
        .f64(p.roiDurationUs)
        .f64(p.mix.fracInt)
        .f64(p.mix.fracFp)
        .f64(p.mix.fracLoad)
        .f64(p.mix.fracStore)
        .f64(p.mix.fracBranch)
        .f64(p.misses.l1)
        .f64(p.misses.l2)
        .f64(p.misses.l3);
    return h.digest();
}

Fingerprint scenarioFingerprint(const fault::FaultScenario &scenario)
{
    Hasher h;
    h.str("tg.scenario.v1");
    h.u64(scenario.seed());
    h.u64(scenario.events().size());
    for (const fault::FaultEvent &e : scenario.events()) {
        h.u64(static_cast<std::uint64_t>(e.kind))
            .i64(e.target)
            .f64(e.start)
            .f64(e.duration)
            .f64(e.magnitude);
    }
    return h.digest();
}

Fingerprint recordOptionsFingerprint(const sim::RecordOptions &opts)
{
    Hasher h;
    h.str("tg.record.v1");
    h.boolean(opts.timeSeries)
        .i64(opts.trackVr)
        .boolean(opts.heatmap)
        .boolean(opts.noiseTrace)
        .i64(opts.noiseSamplesOverride);
    // A null scenario and an empty one take the identical clean run
    // path in Simulation::runMixed, so they must hash alike.
    const bool faulted =
        opts.faultScenario != nullptr && !opts.faultScenario->empty();
    h.boolean(faulted);
    if (faulted)
        h.fp(scenarioFingerprint(*opts.faultScenario));
    return h.digest();
}

} // namespace cache
} // namespace tg
