/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--tiny] [--expect-digest HEX] [--inject-refused K]
 *
 * --trace 0 runs the named workload for about S seconds and reports the
 * end-to-end metrics. --trace 1 runs every workload once untraced and
 * once traced (the named one first), then the layer probes, and
 * reports the per-layer metrics and the tracing overhead per workload.
 * Human-readable lines come first; the last stdout line is the JSON
 * result. Exits 1 when a correctness check fails, 2 on bad usage.
 *
 * --tiny, --expect-digest and --inject-refused exist for the
 * benchmark's own tests (see test_perfbench.py).
 */
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <unistd.h>

#include "cache/store.hh"
#include "common/bytes.hh"
#include "measure.hh"
#include "shard/worker.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace pb;

namespace {

/** Fix every TG_* variable that selects program behaviour, so an
 *  ambient setting cannot change what is measured. Worker processes
 *  inherit the pinned values. */
void
pinEnvironment()
{
    ::setenv("TG_CACHE", "1", 1);
    ::setenv("TG_JOBS", "4", 1);
    for (const char *v : {"TG_CACHE_DIR", "TG_CACHE_MEM_MB", "TG_IO_FAULTS",
                          "TG_SHARD_TEST_DIE", "TG_SERVE_SOCKET"})
        ::unsetenv(v);
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{grid-default|paper-noise|serve-dse|shard-grid} --seed N "
                 "--seconds S --trace 0|1 [--tiny] [--expect-digest HEX] "
                 "[--inject-refused K]\n",
                 why.c_str());
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload") {
                o.workload = value();
                have_workload = true;
            } else if (a == "--seed") {
                o.seed = std::stoull(value());
            } else if (a == "--seconds") {
                o.seconds = std::stod(value());
            } else if (a == "--trace") {
                o.trace = std::stoi(value()) != 0;
            } else if (a == "--tiny") {
                o.tiny = true;
            } else if (a == "--expect-digest") {
                o.expectDigest = value();
            } else if (a == "--inject-refused") {
                o.injectRefused = std::stoi(value());
            } else {
                usage("unknown argument " + a);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    const auto &names = workloadNames();
    if (!have_workload ||
        std::find(names.begin(), names.end(), o.workload) == names.end())
        usage("--workload must name one of the four workloads");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    return "unknown";
}

/** A repository-independent machine probe: the 144^3 dense multiply of
 *  the microbench's BM_MachineCalibration, median of 15 repeats [ms]. */
double
calibrationMs()
{
    constexpr int kN = 144;
    std::vector<double> a(kN * kN), b(kN * kN), c(kN * kN, 0.0);
    for (int i = 0; i < kN * kN; ++i) {
        a[static_cast<std::size_t>(i)] = 1.0 + (i % 7) * 0.125;
        b[static_cast<std::size_t>(i)] = 2.0 - (i % 5) * 0.25;
    }
    std::vector<double> ms;
    for (int rep = 0; rep < 15; ++rep) {
        const double t = now();
        for (int i = 0; i < kN; ++i)
            for (int k = 0; k < kN; ++k) {
                const double aik = a[static_cast<std::size_t>(i * kN + k)];
                for (int j = 0; j < kN; ++j)
                    c[static_cast<std::size_t>(i * kN + j)] +=
                        aik * b[static_cast<std::size_t>(k * kN + j)];
            }
        ms.push_back((now() - t) * 1e3);
    }
    volatile double keep = c[kN + 1];
    (void)keep;
    return median(ms);
}

void
printProvenance(const Options &o)
{
    std::printf("provenance {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"seconds\": %g, \"trace\": %d, \"nproc\": %u, "
                "\"cpu\": \"%s\", \"tg_arch\": \"%s\", \"compiler\": "
                "\"%s\", \"build_type\": \"%s\", \"calibration_ms\": %.4f}\n",
                o.workload.c_str(), o.seed, o.seconds, o.trace ? 1 : 0,
                std::thread::hardware_concurrency(), cpuModel().c_str(),
                PB_TG_ARCH, __VERSION__, PB_BUILD_TYPE, calibrationMs());
}

/** What, besides the seed, makes batch results bit-identical: the
 *  compiler, the ISA tier and the build type. The simulator's own
 *  sources are deliberately not part of it, so a change to src/ is
 *  checked against digests recorded before it. */
std::string
ledgerKey()
{
    const std::string config = std::string(__VERSION__) + "|" + PB_TG_ARCH +
                               "|" + PB_BUILD_TYPE;
    return hex(tg::bytes::fnv1a(
        reinterpret_cast<const std::uint8_t *>(config.data()), config.size()));
}

/**
 * Batch results must not depend on anything but the seed: every pass
 * of a run, an expected digest given on the command line, and every
 * earlier run with the same workload, seed and size under the same
 * ledgerKey() (a ledger file under the state directory) must agree,
 * whatever the simulator's sources were then. A change that means to
 * alter results must delete .bench_build/state/digests and say why.
 */
class DigestCheck
{
  public:
    explicit DigestCheck(const Options &o) : opts(o) {}

    void
    add(std::uint64_t d, Report &report)
    {
        if (!have) {
            first = d;
            have = true;
        } else if (d != first) {
            report.mismatch("digest differs between passes of one run");
        }
        if (!opts.expectDigest.empty() && hex(d) != opts.expectDigest)
            report.mismatch("digest " + hex(d) + " != expected " +
                            opts.expectDigest);
    }

    void
    finish(Report &report)
    {
        if (!have)
            return;
        report.note("digest " + hex(first));
        const std::filesystem::path dir =
            std::filesystem::path(kStateDir) / "digests" / ledgerKey();
        const std::filesystem::path file =
            dir / (opts.workload + "-" + std::to_string(opts.seed) +
                   (opts.tiny ? "-tiny" : ""));
        std::ifstream in(file);
        std::string recorded;
        if (in >> recorded) {
            if (recorded != hex(first))
                report.mismatch("digest " + hex(first) +
                                " differs from an earlier run with this seed (" +
                                recorded + ", ledger " + file.string() + ")");
            return;
        }
        std::filesystem::create_directories(dir);
        const std::filesystem::path tmp =
            file.string() + ".tmp" + std::to_string(::getpid());
        std::ofstream(tmp) << hex(first) << "\n";
        std::filesystem::rename(tmp, file);
    }

  private:
    const Options &opts;
    bool have = false;
    std::uint64_t first = 0;
};

/** Every run measures at least this many passes, so each run checks
 *  that its passes agree and no median rests on one sample. */
constexpr std::size_t kMinPasses = 2;

/** --trace 0: set up and run passes of one workload for the run's time. */
void
untracedRun(const Options &o, Report &report)
{
    auto w = makeWorkload(o.workload, o);
    DigestCheck digests(o);
    const double steal0 = hostStealSeconds();
    // Set-up is also timed on its own, in rounds spread over the run (one
    // before the first pass and one after every pass, each of at least 2
    // and up to 200 samples or about a quarter second), so its median does
    // not rest on the host's state at a single instant.
    std::vector<double> setups;
    auto setupRound = [&] {
        const double start = now();
        for (int i = 0; i < (o.tiny ? 1 : 2) ||
                        (i < 200 && now() - start < 0.25);
             ++i) {
            setups.push_back(timeOnCpu(setups.size(), [&] { w->setup(); }));
            w->teardown();
        }
    };
    setupRound();

    std::vector<PassStats> passes;
    std::vector<double> iteration;
    double rss_first = 0.0;
    const double phase = now();
    do {
        const double it = now();
        setups.push_back(timeOnCpu(setups.size(), [&] { w->setup(); }));
        passes.push_back(w->pass());
        // Before verify(), whose local reference runs are not the
        // workload's.
        if (passes.size() == 1)
            rss_first = peakRssMb(true);
        w->verify(report);
        std::uint64_t d = 0;
        if (w->digest(d))
            digests.add(d, report);
        w->teardown();
        setupRound();
        iteration.push_back(now() - it);
    } while (passes.size() < kMinPasses ||
             now() - phase + median(iteration) <= o.seconds);
    digests.finish(report);
    w->finish(report);

    double wall = 0.0, sim_ms = 0.0;
    std::vector<double> walls, op_ms;
    for (const auto &p : passes) {
        wall += p.wall;
        sim_ms += p.simMs;
        walls.push_back(p.wall);
        op_ms.insert(op_ms.end(), p.opMs.begin(), p.opMs.end());
        report.ops(p.attempted, p.failed);
    }
    report.metric("setup_s", median(setups), "s");
    report.metric("wall_s", median(walls), "s");
    report.metric("sim_ms_per_s", sim_ms / wall, "ms/s");
    report.metric("req_ms_p50", quantile(op_ms, 0.5), "ms");
    report.metric("req_ms_p90", quantile(op_ms, 0.9), "ms");
    report.metric("req_per_s", static_cast<double>(op_ms.size()) / wall, "1/s");
    // Peak memory through set-up and the first pass: later passes
    // repeat the same work, so the peak must not depend on how many
    // passes the run's time allowed.
    report.metric("peak_rss_mb", rss_first, "MB");
    report.info("peak_rss_mb_all_passes", peakRssMb(true), "MB",
                "(" + std::to_string(passes.size()) + " passes)");
    report.info("host_steal_s", hostStealSeconds() - steal0, "s",
                "(CPU time taken by other guests during the run, all CPUs)");
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "samples setups=%zu passes=%zu operations=%zu "
                  "setup_s_p10/p90=%.6f/%.6f pass_wall_s=",
                  setups.size(), passes.size(), op_ms.size(),
                  quantile(setups, 0.1), quantile(setups, 0.9));
    std::string line = buf;
    for (double v : walls) {
        std::snprintf(buf, sizeof buf, " %.4f", v);
        line += buf;
    }
    report.note(line);
}

/**
 * --trace 1: for every workload one untraced and one traced pass (the
 * difference is the tracing overhead), then the layer probes with
 * tracing on. Spans are written to the state directory at the end.
 */
void
tracedRun(const Options &o, Report &report)
{
    std::vector<std::string> order = {o.workload};
    for (const auto &n : workloadNames())
        if (n != o.workload)
            order.push_back(n);
    const auto evictions0 = tg::cache::store().stats().evictions;

    for (const auto &name : order) {
        Options wo = o;
        wo.workload = name;
        auto w = makeWorkload(name, wo);
        std::uint64_t d_untraced = 0, d_traced = 0;

        w->setup();
        const PassStats untraced = w->pass();
        w->verify(report);
        const bool batch = w->digest(d_untraced);
        w->teardown();

        trace::setEnabled(true);
        PassStats traced;
        double cpu = 0.0;
        {
            trace::Scope root("bench." + name);
            w->setup();
            const double c0 = cpuSeconds();
            traced = w->pass();
            cpu = cpuSeconds() - c0;
            w->layerMetrics(report);
        }
        trace::setEnabled(false);
        w->verify(report);
        w->digest(d_traced);
        w->teardown();
        if (batch && d_traced != d_untraced)
            report.mismatch(name + ": traced pass changed the results");

        report.ops(untraced.attempted + traced.attempted,
                   untraced.failed + traced.failed);
        report.metric("trace.overhead_frac." + name,
                      traced.wall / untraced.wall - 1.0, "ratio");
        report.metric("exec.cpu_util." + name,
                      cpu / (traced.wall * w->threads()), "ratio");
    }

    trace::setEnabled(true);
    runLayerProbes(o, report);
    trace::setEnabled(false);
    report.metric("cache.evictions",
                  static_cast<double>(tg::cache::store().stats().evictions -
                                      evictions0),
                  "count");

    const auto spans = trace::spans();
    const auto self = trace::layerSelfSeconds(spans);
    for (const char *layer :
         {"bench", "floorplan", "sim", "workload", "uarch", "power", "thermal",
          "vreg", "core", "pdn", "cache", "serve", "shard"}) {
        const auto it = self.find(layer);
        report.metric(std::string("self_ms.") + layer,
                      it == self.end() ? 0.0 : it->second * 1e3, "ms");
    }
    report.metric("trace.spans", static_cast<double>(spans.size()), "count");
    const std::filesystem::path dir =
        std::filesystem::path(kStateDir) / "traces";
    std::filesystem::create_directories(dir);
    const std::string file = (dir / ("trace-" + o.workload + "-" +
                                     std::to_string(o.seed) + ".jsonl"))
                                 .string();
    if (trace::writeJsonLines(file, spans))
        report.note("spans written to " + file);
    else
        report.mismatch("could not write " + file);
}

} // namespace

int
main(int argc, char **argv)
{
    pinEnvironment();
    if (tg::shard::isWorkerInvocation(argc, argv))
        return tg::shard::workerMain(tg::shard::basicSetupFactory());

    const Options o = parse(argc, argv);
    printProvenance(o);
    Report report;
    try {
        if (o.trace)
            tracedRun(o, report);
        else
            untracedRun(o, report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    report.print();
    return report.correct() ? 0 : 1;
}
