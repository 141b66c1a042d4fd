#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include <unistd.h>

#include "cache/disk.hh"
#include "cache/serialize.hh"
#include "cache/store.hh"
#include "common/exec.hh"
#include "common/rng.hh"
#include "floorplan/power8.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "shard/coordinator.hh"
#include "shard/worker.hh"
#include "trace.hh"
#include "workload/profile.hh"

namespace pb {

using namespace tg;
using core::PolicyKind;

namespace {

/** Paper figures the accuracy lines compare against. */
constexpr double kPaperPlossSavingPct = 26.5; // Fig. 7 average
constexpr double kPaperAllOnTmaxRiseC = 5.4;  // Fig. 9 AllOn - OffChip
constexpr double kPaperPracVtNoisePct = 13.22; // Fig. 11 PracVT max

double
roiMs(const std::string &benchmark)
{
    return workload::profileByName(benchmark).roiDurationUs * 1e-3;
}

std::vector<std::size_t>
allCells(std::size_t n)
{
    std::vector<std::size_t> cells(n);
    for (std::size_t i = 0; i < n; ++i)
        cells[i] = i;
    return cells;
}

double
hitRatio(const cache::StoreStats &before, const cache::StoreStats &after,
         cache::ArtifactKind kind)
{
    const auto k = static_cast<std::size_t>(kind);
    const double hits =
        static_cast<double>(after.kind[k].hits - before.kind[k].hits);
    const double misses = static_cast<double>(after.kind[k].misses -
                                              before.kind[k].misses);
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

/** A cell's result must carry the benchmark and policy it was asked. */
void
checkLabels(const sim::RunResult &r, const std::string &benchmark,
            PolicyKind policy, const char *where, Report &report)
{
    if (r.benchmark != benchmark || r.policy != policy ||
        !std::isfinite(r.maxTmax) || r.maxTmax <= 0.0)
        report.mismatch(std::string(where) + ": cell " + benchmark + "/" +
                        core::policyName(policy) +
                        " missing or malformed");
}

/** Chip + Simulation + theta calibration: the batch workloads' set-up. */
struct SimContext
{
    std::unique_ptr<floorplan::Chip> chip;
    std::unique_ptr<sim::Simulation> simulation;

    void
    build(const sim::SimConfig &cfg)
    {
        trace::Scope span("bench.setup");
        // Start every set-up as a fresh process would: nothing warm.
        cache::store().clear();
        {
            trace::Scope s("floorplan.buildPower8Chip");
            chip = std::make_unique<floorplan::Chip>(
                floorplan::buildPower8Chip());
        }
        {
            trace::Scope s("sim.Simulation");
            simulation = std::make_unique<sim::Simulation>(*chip, cfg);
        }
        trace::Scope s("sim.thermalPredictor");
        simulation->thermalPredictor();
    }

    void
    reset()
    {
        simulation.reset();
        chip.reset();
    }
};

// --- grid-default ------------------------------------------------------

/**
 * All 14 profiles x 8 policies on POWER8 at the default noise
 * sampling, one runSweepCells at 4 jobs, memoization off. An
 * operation is one cell; its latency is the time its worker spent on
 * it, seen from the emit callback.
 */
class GridDefault : public Workload
{
  public:
    explicit GridDefault(const Options &opts)
        : o(opts), benches(gridBenchmarks(opts.tiny)),
          policies(core::allPolicyKinds())
    {
    }

    const char *name() const override { return "grid-default"; }
    int threads() const override { return kJobs; }

    void
    setup() override
    {
        before = cache::store().stats();
        ctx.build(gridConfig(o.seed));
    }

    PassStats
    pass() override
    {
        const std::size_t n = benches.size() * policies.size();
        PassStats ps;
        ps.opMs.assign(n, 0.0);
        results.assign(n, sim::RunResult{});
        std::vector<double> last(64, 0.0);
        trace::Scope span("sim.runSweepCells");
        const int parent = span.id();
        const double t0 = now();
        std::fill(last.begin(), last.end(), t0);
        sim::runSweepCells(
            *ctx.simulation, benches, policies, allCells(n), kJobs, {},
            [&](std::size_t cell, sim::RunResult &&r) {
                const int w =
                    std::max(0, exec::ThreadPool::workerIndex()) % 64;
                const double t = now();
                const double start = last[static_cast<std::size_t>(w)];
                last[static_cast<std::size_t>(w)] = t;
                ps.opMs[cell] = (t - start) * 1e3;
                trace::record("sim.cell", start, t, parent, cell + 1);
                results[cell] = std::move(r);
            });
        ps.wall = now() - t0;
        for (const auto &b : benches)
            ps.simMs += roiMs(b) * static_cast<double>(policies.size());
        ps.attempted = static_cast<long>(n);
        return ps;
    }

    void
    verify(Report &report) override
    {
        for (std::size_t c = 0; c < results.size(); ++c)
            checkLabels(results[c], benches[c / policies.size()],
                        policies[c % policies.size()], name(), report);
    }

    void teardown() override { ctx.reset(); }

    bool
    digest(std::uint64_t &out) const override
    {
        std::vector<const sim::RunResult *> ptrs;
        for (const auto &r : results)
            ptrs.push_back(&r);
        out = resultDigest(ptrs);
        return true;
    }

    void
    finish(Report &report) override
    {
        auto at = [&](std::size_t b, PolicyKind p) -> const sim::RunResult & {
            const auto col = static_cast<std::size_t>(
                std::find(policies.begin(), policies.end(), p) -
                policies.begin());
            return results[b * policies.size() + col];
        };
        double saving = 0.0, rise = 0.0;
        for (std::size_t b = 0; b < benches.size(); ++b) {
            saving += 100.0 * (1.0 - at(b, PolicyKind::OracT).avgRegulatorLoss /
                                         at(b, PolicyKind::AllOn).avgRegulatorLoss);
            rise += at(b, PolicyKind::AllOn).maxTmax -
                    at(b, PolicyKind::OffChip).maxTmax;
        }
        const double nb = static_cast<double>(benches.size());
        report.info("ploss_saving_err_pp",
                    std::fabs(saving / nb - kPaperPlossSavingPct), "pp",
                    "|OracT-vs-AllOn P_loss saving - 26.5%| (Fig. 7)");
        report.info("tmax_err_c", std::fabs(rise / nb - kPaperAllOnTmaxRiseC),
                    "C", "|AllOn - OffChip maxTmax - 5.4 C| (Fig. 9)");
    }

    void
    layerMetrics(Report &report) override
    {
        const cache::StoreStats after = cache::store().stats();
        report.metric("cache.power-trace.hit_ratio",
                      hitRatio(before, after, cache::ArtifactKind::PowerTrace),
                      "ratio");
        report.metric("cache.predictor.hit_ratio",
                      hitRatio(before, after, cache::ArtifactKind::Predictor),
                      "ratio");
        report.metric("cache.pdn-base.hit_ratio",
                      hitRatio(before, after, cache::ArtifactKind::PdnBase),
                      "ratio");
        report.metric("cache.resident_mb",
                      static_cast<double>(after.bytesTotal()) / (1 << 20),
                      "MB");
        codecAndDiskProbes(report);
    }

  private:
    static constexpr int kJobs = 4;

    /** RunResult codec and DiskTier, over this pass's own cells. */
    void
    codecAndDiskProbes(Report &report)
    {
        std::vector<std::vector<std::uint8_t>> enc(results.size());
        double t0 = now();
        {
            trace::Scope s("cache.encodeRunResult");
            for (std::size_t i = 0; i < results.size(); ++i)
                enc[i] = cache::encodeRunResult(results[i]);
        }
        const double n = static_cast<double>(results.size());
        report.metric("cache.encode_us", (now() - t0) * 1e6 / n, "us");
        t0 = now();
        {
            trace::Scope s("cache.decodeRunResult");
            for (const auto &e : enc) {
                sim::RunResult r;
                if (!cache::decodeRunResult(e.data(), e.size(), r))
                    report.mismatch("codec: decode of an encoded cell failed");
            }
        }
        report.metric("cache.decode_us", (now() - t0) * 1e6 / n, "us");

        const std::string dir = kStateDir + "/disk-probe-" +
                                std::to_string(::getpid());
        cache::ArtifactStore counters;
        cache::DiskTier disk(dir, &counters);
        auto key = [](std::size_t i) {
            return cache::Fingerprint{0x7065726662656e63ull, i + 1};
        };
        t0 = now();
        {
            trace::Scope s("cache.DiskTier.save");
            for (std::size_t i = 0; i < enc.size(); ++i)
                if (!disk.save(cache::ArtifactKind::RunResult, key(i), enc[i],
                               "perfbench"))
                    report.mismatch("disk: save failed");
        }
        report.metric("cache.disk_save_us", (now() - t0) * 1e6 / n, "us");
        t0 = now();
        {
            trace::Scope s("cache.DiskTier.load");
            std::vector<std::uint8_t> payload;
            for (std::size_t i = 0; i < enc.size(); ++i)
                if (!disk.load(cache::ArtifactKind::RunResult, key(i),
                               payload) ||
                    payload != enc[i])
                    report.mismatch("disk: load did not return the save");
        }
        report.metric("cache.disk_load_us", (now() - t0) * 1e6 / n, "us");
        std::filesystem::remove_all(dir);
    }

    Options o;
    std::vector<std::string> benches;
    std::vector<PolicyKind> policies;
    SimContext ctx;
    std::vector<sim::RunResult> results;
    cache::StoreStats before;
};

// --- paper-noise -------------------------------------------------------

/**
 * The paper's 200 x 2000/1000 noise sampling on one di/dt-heavy and
 * one quiet benchmark x {AllOn, OracT, PracVT}: one Simulation::run at
 * a time, its noise windows fanned across 4 domain workers. An
 * operation is one run.
 */
class PaperNoise : public Workload
{
  public:
    explicit PaperNoise(const Options &opts) : o(opts)
    {
        benches = {"fft", "lu_ncb"};
        policies = {PolicyKind::AllOn, PolicyKind::OracT, PolicyKind::PracVT};
        if (o.tiny) {
            benches = {"fft"};
            policies = {PolicyKind::AllOn, PolicyKind::PracVT};
        }
    }

    const char *name() const override { return "paper-noise"; }
    int threads() const override { return 4; }

    void setup() override { ctx.build(paperNoiseConfig(o.seed, o.tiny)); }

    PassStats
    pass() override
    {
        PassStats ps;
        results.clear();
        const double t0 = now();
        for (const auto &b : benches)
            for (auto p : policies) {
                trace::Scope s("sim.run");
                const double t = now();
                results.push_back(ctx.simulation->run(
                    workload::profileByName(b), p));
                ps.opMs.push_back((now() - t) * 1e3);
                ps.simMs += roiMs(b);
            }
        ps.wall = now() - t0;
        ps.attempted = static_cast<long>(results.size());
        return ps;
    }

    void
    verify(Report &report) override
    {
        for (std::size_t c = 0; c < results.size(); ++c) {
            checkLabels(results[c], benches[c / policies.size()],
                        policies[c % policies.size()], name(), report);
            if (!(results[c].maxNoiseFrac > 0.0 &&
                  results[c].maxNoiseFrac < 1.0))
                report.mismatch("paper-noise: noise fraction out of (0, 1)");
        }
    }

    void teardown() override { ctx.reset(); }

    bool
    digest(std::uint64_t &out) const override
    {
        std::vector<const sim::RunResult *> ptrs;
        for (const auto &r : results)
            ptrs.push_back(&r);
        out = resultDigest(ptrs);
        return true;
    }

    void
    finish(Report &report) override
    {
        double worst = 0.0;
        for (const auto &r : results)
            if (r.policy == PolicyKind::PracVT)
                worst = std::max(worst, r.maxNoiseFrac * 100.0);
        report.info("noise_err_pp", std::fabs(worst - kPaperPracVtNoisePct),
                    "pp", "|max PracVT noise - 13.22% of Vdd| (Fig. 11)");
    }

    void
    layerMetrics(Report &report) override
    {
        double hits = 0.0, misses = 0.0;
        const int domains =
            static_cast<int>(ctx.chip->plan.domains().size());
        for (int d = 0; d < domains; ++d) {
            hits += static_cast<double>(
                ctx.simulation->domainPdn(d).factorCacheHits());
            misses += static_cast<double>(
                ctx.simulation->domainPdn(d).factorCacheMisses());
        }
        report.metric("pdn.factor_hit_ratio",
                      hits + misses > 0 ? hits / (hits + misses) : 0.0,
                      "ratio");
    }

  private:
    Options o;
    std::vector<std::string> benches;
    std::vector<PolicyKind> policies;
    SimContext ctx;
    std::vector<sim::RunResult> results;
};

// --- serve-dse ---------------------------------------------------------

/**
 * A closed loop of 2 client connections against an in-process sweep
 * daemon with 2 pool workers, mini chip, memoization and a disk tier.
 * The seeded request stream draws small sweeps from a finite tuple
 * space (setup seed x benchmark x policy pair); half of the requests
 * repeat a tuple the same client sent before (store reads), the rest
 * are new (compute + store and disk writes, plus a context build the
 * first time a setup seed appears). An operation is one sweep
 * request.
 */
class ServeDse : public Workload
{
  public:
    explicit ServeDse(const Options &opts)
        : o(opts), runDir(kStateDir + "/serve-" + std::to_string(::getpid()))
    {
        for (const auto &p : workload::splashProfiles())
            benches.push_back(p.name);
        for (int k = 0; k < kSetups; ++k)
            setupSeeds.push_back(mixSeed(o.seed, 0x5e7u + k));
        buildStreams();
        chip = floorplan::buildMiniChip(1);
        std::filesystem::create_directories(runDir);
    }

    ~ServeDse() override
    {
        teardown();
        std::error_code ec;
        std::filesystem::remove_all(runDir, ec);
    }

    const char *name() const override { return "serve-dse"; }
    int threads() const override { return kPoolWorkers; }

    void
    setup() override
    {
        trace::Scope span("bench.setup");
        // A fresh daemon over an empty store and disk tier per pass.
        const std::string tag = std::to_string(passCount++);
        cacheDir = runDir + "/cache" + tag;
        cache::store().clear();
        before = cache::store().stats();
        serve::ServerOptions so;
        so.socketPath = runDir + "/s" + tag + ".sock";
        so.jobs = kPoolWorkers;
        server = std::make_unique<serve::Server>(so);
        std::string err;
        {
            trace::Scope s("serve.Server.start");
            if (!server->start(&err))
                throw std::runtime_error("serve-dse: " + err);
        }
        for (auto &c : clients) {
            trace::Scope s("serve.Client.connect");
            if (!c.connect(so.socketPath, &err) || !c.ping(&err))
                throw std::runtime_error("serve-dse: " + err);
        }
        blobs.clear();
        for (int k = 0; k < kSetups; ++k)
            blobs.push_back(shard::encodeBasicSetup(
                shard::ChipKind::Mini, 1, serveConfig(k, cacheDir)));
    }

    PassStats
    pass() override
    {
        trace::Scope span("bench.serve-pass");
        const int parent = span.id();
        const serve::StatsReplyMsg s0 = server->statsSnapshot();
        PassStats ps;
        passFresh.clear();
        hitMs.clear();
        missMs.clear();
        mismatches.clear();
        std::mutex mu;
        const double t0 = now();
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; ++c)
            threads.emplace_back([&, c] {
                clientLoop(c, parent, ps, mu);
            });
        for (auto &t : threads)
            t.join();
        ps.wall = now() - t0;
        execMs = static_cast<double>(server->statsSnapshot().sweepMicros -
                                     s0.sweepMicros) *
                 1e-3;
        return ps;
    }

    void
    verify(Report &report) override
    {
        for (const auto &m : mismatches)
            report.mismatch(m);
        // A sample of the computed replies must equal a local run.
        std::sort(passFresh.begin(), passFresh.end(),
                  [](const Tuple &a, const Tuple &b) { return a.id() < b.id(); });
        const std::size_t k =
            std::min<std::size_t>(kLocalChecksPerPass, passFresh.size());
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t pick =
                (passCount * kLocalChecksPerPass + i) % passFresh.size();
            const Tuple &t = passFresh[pick];
            sim::Simulation &local = localSim(t.setup);
            const auto &served = firstReply.at(t.id());
            for (std::size_t p = 0; p < 2; ++p) {
                const sim::RunResult r = local.run(
                    workload::profileByName(benches[t.bench]),
                    kPairs[t.pair][p]);
                if (cache::encodeRunResult(r) != served[p])
                    report.mismatch("serve-dse: served cell differs from a "
                                    "local Simulation::run");
            }
        }
    }

    void
    teardown() override
    {
        for (auto &c : clients)
            c.close();
        if (server) {
            server->requestStop();
            server->wait();
            server.reset();
        }
        if (!cacheDir.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(cacheDir, ec);
        }
    }

    void
    layerMetrics(Report &report) override
    {
        std::vector<double> pings;
        std::string err;
        for (int i = 0; i < 200; ++i) {
            trace::Scope s("serve.Client.ping");
            const double t = now();
            if (!clients[0].ping(&err)) {
                report.mismatch("serve-dse: ping failed: " + err);
                break;
            }
            pings.push_back((now() - t) * 1e6);
        }
        report.metric("serve.ping_us", median(pings), "us");
        serve::StatsReplyMsg wire;
        if (!clients[0].stats(wire, &err))
            report.mismatch("serve-dse: stats failed: " + err);
        const double served =
            static_cast<double>(hitMs.size() + missMs.size());
        double latency = 0.0;
        for (double v : hitMs)
            latency += v;
        for (double v : missMs)
            latency += v;
        const double exec_ms = served > 0 ? execMs / served : 0.0;
        report.metric("serve.exec_ms", exec_ms, "ms");
        report.metric("serve.wait_ms",
                      served > 0 ? latency / served - exec_ms : 0.0, "ms");
        report.metric("serve.hit_req_ms", median(hitMs), "ms");
        report.metric("serve.miss_req_ms", median(missMs), "ms");
        report.metric("serve.contexts_built",
                      static_cast<double>(wire.contextsBuilt), "count");
        report.metric("serve.contexts_reused",
                      static_cast<double>(wire.contextsReused), "count");
        report.metric("serve.busy", static_cast<double>(wire.requestsBusy),
                      "count");
        report.metric("serve.rejected",
                      static_cast<double>(wire.requestsRejected), "count");
        report.metric("cache.run-result.hit_ratio",
                      hitRatio(before, cache::store().stats(),
                               cache::ArtifactKind::RunResult),
                      "ratio");
    }

  private:
    static constexpr int kClients = 2;
    static constexpr int kPoolWorkers = 2;
    static constexpr int kSetups = 3;
    static constexpr std::size_t kLocalChecksPerPass = 2;
    static constexpr int kPairCount = 4;
    /** Disjoint policy pairs, so distinct tuples share no cell. */
    static constexpr PolicyKind kPairs[kPairCount][2] = {
        {PolicyKind::AllOn, PolicyKind::OracT},
        {PolicyKind::Naive, PolicyKind::PracT},
        {PolicyKind::OracV, PolicyKind::PracVT},
        {PolicyKind::OffChip, PolicyKind::OracVT},
    };

    struct Tuple
    {
        int setup = 0;
        int bench = 0;
        int pair = 0;
        bool repeat = false; //!< this client sent the tuple before
        int id() const { return (setup * 64 + bench) * kPairCount + pair; }
    };

    sim::SimConfig
    serveConfig(int k, const std::string &cacheDir) const
    {
        sim::SimConfig cfg;
        cfg.noiseSamples = 4;
        cfg.profilingEpochs = 8;
        cfg.seed = setupSeeds[static_cast<std::size_t>(k)];
        cfg.jobs = kPoolWorkers;
        cfg.memoizeResults = true;
        cfg.cacheDir = cacheDir;
        return cfg;
    }

    /**
     * Seeded per-client streams of fixed make-up, so every seed does
     * the same work: each (benchmark, policy pair) is requested new
     * exactly once per pass, under a seeded setup seed and in seeded
     * order, dealt alternately to the clients; each client follows
     * every new tuple with a repeat of a tuple it sent before.
     */
    void
    buildStreams()
    {
        Rng rng(mixSeed(o.seed, 0x57a7u));
        std::vector<Tuple> fresh;
        for (int b = 0; b < static_cast<int>(benches.size()); ++b)
            for (int p = 0; p < kPairCount; ++p)
                fresh.push_back(
                    {static_cast<int>(rng.uniform() * kSetups), b, p, false});
        for (std::size_t i = fresh.size(); i > 1; --i)
            std::swap(fresh[i - 1],
                      fresh[static_cast<std::size_t>(rng.uniform() *
                                                     static_cast<double>(i))]);
        if (o.tiny)
            fresh.resize(2 * kClients);
        for (std::size_t i = 0; i < fresh.size(); ++i) {
            const int c = static_cast<int>(i % kClients);
            auto &stream = streams[c];
            stream.push_back(fresh[i]);
            std::vector<Tuple> sent;
            for (const auto &t : stream)
                if (!t.repeat)
                    sent.push_back(t);
            Tuple again = sent[static_cast<std::size_t>(
                rng.uniform() * static_cast<double>(sent.size()))];
            again.repeat = true;
            stream.push_back(again);
        }
    }

    serve::SweepMsg
    request(const Tuple &t) const
    {
        serve::SweepMsg m;
        m.setup = blobs[static_cast<std::size_t>(t.setup)];
        m.benchmarks = {benches[static_cast<std::size_t>(t.bench)]};
        for (auto pk : kPairs[t.pair])
            m.policies.push_back(static_cast<std::uint32_t>(pk));
        m.jobs = kPoolWorkers;
        return m;
    }

    void
    clientLoop(int c, int parent, PassStats &ps, std::mutex &mu)
    {
        serve::Client &client = clients[c];
        std::vector<serve::SweepMsg> msgs;
        std::vector<const Tuple *> tuples;
        // Injected refusals go into the first pass only.
        if (c == 0 && !injected)
            for (int i = 0; i < o.injectRefused; ++i) {
                serve::SweepMsg bad = request(streams[c].front());
                bad.setup = {0xde, 0xad, 0xbe, 0xef};
                msgs.push_back(bad);
                tuples.push_back(nullptr);
            }
        if (c == 0)
            injected = true;
        for (const auto &t : streams[c]) {
            msgs.push_back(request(t));
            tuples.push_back(&t);
        }
        long attempted = 0, failed = 0;
        double simMs = 0.0;
        std::vector<double> lat, hit, miss;
        bool dead = false;
        for (std::size_t i = 0; i < msgs.size(); ++i) {
            ++attempted;
            if (dead) {
                ++failed;
                continue;
            }
            trace::Scope span("serve.Client.sweep", parent,
                              static_cast<std::uint64_t>(c) << 32 | (i + 1));
            sim::SweepResult out;
            serve::DoneMsg done;
            done.cells = ~0ull; // stays when no completion frame arrives
            std::string err;
            const double t = now();
            const bool ok = client.sweep(msgs[i], out, &err, &done);
            const double ms = (now() - t) * 1e3;
            if (!ok) {
                ++failed;
                dead = done.cells == ~0ull;
                continue;
            }
            lat.push_back(ms);
            const Tuple &tu = *tuples[i];
            simMs += 2.0 * roiMs(benches[static_cast<std::size_t>(tu.bench)]);
            (tu.repeat ? hit : miss).push_back(ms);
            std::vector<std::vector<std::uint8_t>> bytes;
            for (const auto &r : out.results.at(0))
                bytes.push_back(cache::encodeRunResult(r));
            std::lock_guard<std::mutex> lock(mu);
            auto [it, inserted] = firstReply.emplace(tu.id(), bytes);
            if (!inserted && it->second != bytes)
                mismatches.push_back("serve-dse: reply for a repeated tuple "
                                     "differs from its first reply");
            if (!tu.repeat)
                passFresh.push_back(tu);
        }
        std::lock_guard<std::mutex> lock(mu);
        ps.attempted += attempted;
        ps.failed += failed;
        ps.opMs.insert(ps.opMs.end(), lat.begin(), lat.end());
        hitMs.insert(hitMs.end(), hit.begin(), hit.end());
        missMs.insert(missMs.end(), miss.begin(), miss.end());
        ps.simMs += simMs;
    }

    sim::Simulation &
    localSim(int k)
    {
        auto &slot = local[k];
        if (!slot) {
            sim::SimConfig cfg = serveConfig(k, "");
            cfg.memoizeResults = false;
            slot = std::make_unique<sim::Simulation>(chip, cfg);
        }
        return *slot;
    }

    Options o;
    std::string runDir;
    std::string cacheDir;
    std::size_t passCount = 0;
    bool injected = false;
    std::vector<std::string> benches;
    std::vector<std::uint64_t> setupSeeds;
    std::vector<Tuple> streams[kClients];
    std::vector<std::vector<std::uint8_t>> blobs;
    std::unique_ptr<serve::Server> server;
    serve::Client clients[kClients];
    floorplan::Chip chip;
    std::map<int, std::unique_ptr<sim::Simulation>> local;

    std::map<int, std::vector<std::vector<std::uint8_t>>> firstReply;
    std::vector<Tuple> passFresh;
    std::vector<std::string> mismatches;
    std::vector<double> hitMs, missMs;
    double execMs = 0.0;
    cache::StoreStats before;
};

// --- shard-grid --------------------------------------------------------

/**
 * A 4 x 3 POWER8 sub-grid through shard::runShardedSweep with 2
 * worker processes x 2 jobs: the only workload that crosses a process
 * boundary. An operation is one sharded sweep.
 */
class ShardGrid : public Workload
{
  public:
    explicit ShardGrid(const Options &opts) : o(opts)
    {
        benches = {"barnes", "fft", "lu_ncb", "water_s"};
        policies = {PolicyKind::AllOn, PolicyKind::OracT, PolicyKind::PracVT};
        if (o.tiny) {
            benches = {"fft", "lu_ncb"};
            policies = {PolicyKind::AllOn, PolicyKind::OracT};
        }
    }

    const char *name() const override { return "shard-grid"; }
    int threads() const override { return kProcesses * kJobsPerWorker; }

    /**
     * The coordinator needs only the setup blob. What the sharded path
     * sets up before its first cell is each worker's context, so the
     * set-up does here, in process, what a worker does with the blob:
     * the shard layer's basicSetupFactory, the Simulation constructor
     * and the theta calibration. That context is also the reference
     * the merged cells are checked on.
     */
    void
    setup() override
    {
        trace::Scope span("bench.setup");
        cache::store().clear();
        blob = shard::encodeBasicSetup(shard::ChipKind::Power8, 0,
                                       gridConfig(o.seed));
        {
            trace::Scope s("shard.basicSetupFactory");
            worker = std::make_unique<shard::WorkerSetup>(
                shard::basicSetupFactory()(blob));
        }
        {
            trace::Scope s("sim.Simulation");
            simulation =
                std::make_unique<sim::Simulation>(worker->chip, worker->cfg);
        }
        trace::Scope s("sim.thermalPredictor");
        simulation->thermalPredictor();
    }

    PassStats
    pass() override
    {
        shard::ShardedSweepOptions so;
        so.benchmarks = benches;
        so.policies = policies;
        so.setup = blob;
        so.processes = kProcesses;
        so.jobsPerWorker = kJobsPerWorker;
        PassStats ps;
        trace::Scope span("shard.runShardedSweep");
        const double t0 = now();
        grid = shard::runShardedSweep(so, &stats);
        ps.wall = now() - t0;
        lastWall = ps.wall;
        ps.opMs.push_back(ps.wall * 1e3);
        for (const auto &b : benches)
            ps.simMs += roiMs(b) * static_cast<double>(policies.size());
        ps.attempted = 1;
        return ps;
    }

    void
    verify(Report &report) override
    {
        for (std::size_t b = 0; b < benches.size(); ++b)
            for (std::size_t p = 0; p < policies.size(); ++p)
                checkLabels(grid.results.at(b).at(p), benches[b], policies[p],
                            name(), report);
        // One rotating cell per pass against a local run.
        const std::size_t n = benches.size() * policies.size();
        const std::size_t c = checks++ % n;
        const std::size_t b = c / policies.size(), p = c % policies.size();
        const sim::RunResult r = simulation->run(
            workload::profileByName(benches[b]), policies[p]);
        if (cache::encodeRunResult(r) !=
            cache::encodeRunResult(grid.results[b][p]))
            report.mismatch("shard-grid: merged cell differs from a local "
                            "Simulation::run");
    }

    void
    teardown() override
    {
        simulation.reset();
        worker.reset();
    }

    bool
    digest(std::uint64_t &out) const override
    {
        out = gridDigest(grid);
        return true;
    }

    void
    layerMetrics(Report &report) override
    {
        report.metric("shard.workers_spawned", stats.workersSpawned, "count");
        report.metric("shard.shards_dispatched", stats.shardsDispatched,
                      "count");
        report.metric("shard.shards_reassigned", stats.shardsReassigned,
                      "count");
        report.metric("shard.duplicate_cells",
                      static_cast<double>(stats.duplicateCells), "count");
        report.metric("shard.worker_deaths", stats.workerDeaths, "count");
        // The same cells in process at the same total thread count.
        const std::size_t n = benches.size() * policies.size();
        std::vector<sim::RunResult> flat(n);
        double wall = 0.0;
        {
            trace::Scope s("sim.runSweepCells");
            const double t0 = now();
            sim::runSweepCells(*simulation, benches, policies, allCells(n),
                               threads(), {},
                               [&](std::size_t cell, sim::RunResult &&r) {
                                   flat[cell] = std::move(r);
                               });
            wall = now() - t0;
        }
        std::vector<const sim::RunResult *> ptrs;
        for (const auto &r : flat)
            ptrs.push_back(&r);
        if (resultDigest(ptrs) != gridDigest(grid))
            report.mismatch("shard-grid: merged grid is not bit-identical to "
                            "the in-process grid");
        report.metric("shard.overhead_frac", lastWall / wall - 1.0, "ratio");
    }

  private:
    static constexpr int kProcesses = 2;
    static constexpr int kJobsPerWorker = 2;

    static std::uint64_t
    gridDigest(const sim::SweepResult &g)
    {
        std::vector<const sim::RunResult *> ptrs;
        for (const auto &row : g.results)
            for (const auto &r : row)
                ptrs.push_back(&r);
        return resultDigest(ptrs);
    }

    Options o;
    std::vector<std::string> benches;
    std::vector<PolicyKind> policies;
    std::vector<std::uint8_t> blob;
    std::unique_ptr<shard::WorkerSetup> worker;
    std::unique_ptr<sim::Simulation> simulation;
    sim::SweepResult grid;
    shard::ShardedSweepStats stats;
    double lastWall = 0.0;
    std::size_t checks = 0;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "grid-default", "paper-noise", "serve-dse", "shard-grid"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Options &opts)
{
    if (name == "grid-default")
        return std::make_unique<GridDefault>(opts);
    if (name == "paper-noise")
        return std::make_unique<PaperNoise>(opts);
    if (name == "serve-dse")
        return std::make_unique<ServeDse>(opts);
    if (name == "shard-grid")
        return std::make_unique<ShardGrid>(opts);
    return nullptr;
}

std::vector<std::string>
gridBenchmarks(bool tiny)
{
    if (tiny)
        return {"fft", "lu_ncb"};
    std::vector<std::string> names;
    for (const auto &p : workload::splashProfiles())
        names.push_back(p.name);
    return names;
}

sim::SimConfig
gridConfig(std::uint64_t seed)
{
    sim::SimConfig cfg;
    cfg.seed = seed;
    cfg.jobs = 4;
    cfg.memoizeResults = false;
    cfg.cacheDir.clear();
    return cfg;
}

sim::SimConfig
paperNoiseConfig(std::uint64_t seed, bool tiny)
{
    sim::SimConfig cfg = gridConfig(seed);
    cfg.noiseSamples = tiny ? 8 : 200;
    cfg.noiseCyclesTotal = tiny ? 400 : 2000;
    cfg.noiseWarmupCycles = tiny ? 200 : 1000;
    return cfg;
}

} // namespace pb
