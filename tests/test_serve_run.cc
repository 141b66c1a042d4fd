/**
 * @file
 * End-to-end tests of the persistent sweep server: results served
 * over a real Unix-domain socket must be bit-identical to a direct
 * in-process runSweep()/run() at every jobs count (a single run is a
 * one-cell sweep), from concurrent
 * clients, and across warm repeats; invalid requests must produce
 * error replies without killing the daemon; Shutdown must drain.
 *
 * The suite runs under TSan in CI (the Serve group is part of the
 * TSan job's regex), so the server's three-way thread structure —
 * poll thread, executor, sweep pool — is raced here deliberately.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

#include "cache/serialize.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "shard/worker.hh"
#include "sim/sweep.hh"
#include "workload/profile.hh"

namespace tg {
namespace serve {
namespace {

/** The fast mini-chip config every serve test sweeps. */
sim::SimConfig testConfig()
{
    sim::SimConfig cfg;
    cfg.noiseSamples = 4;
    cfg.profilingEpochs = 8;
    return cfg;
}

const std::vector<std::string> kBenchmarks = {"rayt", "fft",
                                              "lu_ncb", "water_s"};
const std::vector<core::PolicyKind> kPolicies = {
    core::PolicyKind::AllOn, core::PolicyKind::OracT};

std::vector<std::uint8_t> testSetup(const sim::SimConfig &cfg =
                                        testConfig())
{
    return shard::encodeBasicSetup(shard::ChipKind::Mini, 1, cfg);
}

/** testConfig() plus nested parameters a served run must honour. */
sim::SimConfig nestedConfig()
{
    sim::SimConfig cfg = testConfig();
    cfg.thermalParams.ambient = 60.0;
    cfg.pdnParams.emergencyFrac = 0.05;
    return cfg;
}

SweepMsg testSweepRequest(int jobs)
{
    SweepMsg m;
    m.setup = testSetup();
    m.benchmarks = kBenchmarks;
    for (auto pk : kPolicies)
        m.policies.push_back(static_cast<std::uint32_t>(pk));
    m.jobs = static_cast<std::uint32_t>(jobs);
    return m;
}

/** A single run: the one-cell sweep {benchmark} x {policy}. */
SweepMsg runRequest(std::vector<std::uint8_t> setup,
                    const std::string &benchmark, core::PolicyKind policy)
{
    SweepMsg m;
    m.setup = std::move(setup);
    m.benchmarks = {benchmark};
    m.policies = {static_cast<std::uint32_t>(policy)};
    return m;
}

/** Serve a one-cell request into `out`; false (with *err) on failure. */
bool serveRun(Client &client, const SweepMsg &request,
              sim::RunResult &out, std::string *err,
              DoneMsg *done = nullptr)
{
    sim::SweepResult grid;
    if (!client.sweep(request, grid, err, done))
        return false;
    out = std::move(grid.results[0][0]);
    return true;
}

/** Byte-level equality via the bit-exact RunResult codec. */
void expectBitIdentical(const sim::SweepResult &a,
                        const sim::SweepResult &b)
{
    ASSERT_EQ(a.benchmarks, b.benchmarks);
    ASSERT_EQ(a.policies, b.policies);
    for (std::size_t i = 0; i < a.benchmarks.size(); ++i)
        for (std::size_t j = 0; j < a.policies.size(); ++j)
            EXPECT_EQ(cache::encodeRunResult(a.results[i][j]),
                      cache::encodeRunResult(b.results[i][j]))
                << a.benchmarks[i] << " / "
                << core::policyName(a.policies[j]);
}

class ServeDeterminism : public ::testing::Test
{
  protected:
    void SetUp() override
    {
#ifndef __unix__
        GTEST_SKIP() << "the sweep server requires a POSIX host";
#endif
        ServerOptions options;
        options.socketPath = "/tmp/tg_serve_test." +
                             std::to_string(::getpid()) + ".sock";
        options.jobs = 4;
        server = std::make_unique<Server>(options);
        std::string err;
        ASSERT_TRUE(server->start(&err)) << err;
    }

    void TearDown() override
    {
        if (server) {
            server->requestStop();
            server->wait();
        }
    }

    /** The single-process reference grid, computed once per suite. */
    static const sim::SweepResult &reference()
    {
        static sim::SweepResult ref = [] {
            floorplan::Chip chip = floorplan::buildMiniChip(1);
            sim::Simulation simulation(chip, testConfig());
            return sim::runSweep(simulation, kBenchmarks, kPolicies,
                                 false, 1);
        }();
        return ref;
    }

    sim::SweepResult served(int jobs)
    {
        Client client;
        std::string err;
        EXPECT_TRUE(client.connect(server->socketPath(), &err))
            << err;
        sim::SweepResult out;
        EXPECT_TRUE(client.sweep(testSweepRequest(jobs), out, &err))
            << err;
        return out;
    }

    std::unique_ptr<Server> server;
};

TEST_F(ServeDeterminism, ServedSweepMatchesDirectAtEveryJobsCount)
{
    for (int jobs : {1, 4}) {
        sim::SweepResult grid = served(jobs);
        expectBitIdentical(reference(), grid);
    }
}

TEST_F(ServeDeterminism, WarmRepeatIsBitIdenticalAndReusesContext)
{
    const sim::SweepResult cold = served(4);
    const sim::SweepResult warm = served(4);
    expectBitIdentical(cold, warm);
    expectBitIdentical(reference(), warm);

    const StatsReplyMsg stats = server->statsSnapshot();
    EXPECT_EQ(stats.requestsSweep, 2u);
    EXPECT_EQ(stats.cellsServed,
              2 * kBenchmarks.size() * kPolicies.size());
    EXPECT_EQ(stats.contextsBuilt, 1u);  // one setup blob
    EXPECT_EQ(stats.contextsReused, 1u); // the warm repeat
}

TEST_F(ServeDeterminism, ConcurrentClientsBothGetIdenticalGrids)
{
    sim::SweepResult a, b;
    std::thread ta([&] { a = served(4); });
    std::thread tb([&] { b = served(1); });
    ta.join();
    tb.join();
    expectBitIdentical(reference(), a);
    expectBitIdentical(reference(), b);
}

TEST_F(ServeDeterminism, ServedSingleRunMatchesDirect)
{
    const SweepMsg req =
        runRequest(testSetup(), "fft", core::PolicyKind::OracT);

    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(server->socketPath(), &err)) << err;
    sim::RunResult servedRun;
    DoneMsg done;
    ASSERT_TRUE(serveRun(client, req, servedRun, &err, &done)) << err;
    EXPECT_EQ(done.cells, 1u);

    floorplan::Chip chip = floorplan::buildMiniChip(1);
    sim::Simulation simulation(chip, testConfig());
    sim::RunResult direct =
        simulation.run(workload::profileByName("fft"),
                       core::PolicyKind::OracT, {});
    EXPECT_EQ(cache::encodeRunResult(servedRun),
              cache::encodeRunResult(direct));
}

TEST_F(ServeDeterminism, NestedParamsMatchTheLocalRun)
{
    // The setup blob carries the nested parameter structs, so a
    // served sweep and run see the same hotter ambient and tighter
    // emergency threshold as a local Simulation.
    const sim::SimConfig cfg = nestedConfig();
    floorplan::Chip chip = floorplan::buildMiniChip(1);
    sim::Simulation simulation(chip, cfg);
    const sim::SweepResult local =
        sim::runSweep(simulation, {"fft"}, kPolicies, false, 1);

    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(server->socketPath(), &err)) << err;
    SweepMsg sweep = testSweepRequest(1);
    sweep.setup = testSetup(cfg);
    sweep.benchmarks = {"fft"};
    sim::SweepResult grid;
    ASSERT_TRUE(client.sweep(sweep, grid, &err)) << err;
    expectBitIdentical(local, grid);

    sim::RunResult servedRun;
    ASSERT_TRUE(serveRun(client,
                         runRequest(sweep.setup, "fft",
                                    core::PolicyKind::OracT),
                         servedRun, &err))
        << err;
    EXPECT_EQ(cache::encodeRunResult(servedRun),
              cache::encodeRunResult(
                  local.at("fft", core::PolicyKind::OracT)));
}

TEST_F(ServeDeterminism, InvalidRequestsGetErrorsNotACrash)
{
    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(server->socketPath(), &err)) << err;

    // Unknown benchmark.
    sim::RunResult out;
    DoneMsg done;
    EXPECT_FALSE(serveRun(client,
                          runRequest(testSetup(), "no_such_benchmark",
                                     core::PolicyKind::AllOn),
                          out, &err, &done));
    EXPECT_EQ(static_cast<DoneStatus>(done.status), DoneStatus::Error);
    EXPECT_NE(err.find("no_such_benchmark"), std::string::npos);

    // Garbage setup blob.
    EXPECT_FALSE(serveRun(client,
                          runRequest({1, 2, 3}, "fft",
                                     core::PolicyKind::AllOn),
                          out, &err, &done));
    EXPECT_EQ(static_cast<DoneStatus>(done.status), DoneStatus::Error);

    // Cell index past the grid.
    SweepMsg badCells = testSweepRequest(1);
    badCells.cells = {999};
    sim::SweepResult sweepOut;
    EXPECT_FALSE(client.sweep(badCells, sweepOut, &err));

    // Well-formed blobs whose configs the noise kernel and the
    // thermal model would assert on: refused with an Error reply.
    sim::SimConfig warmup = testConfig();
    warmup.noiseWarmupCycles = warmup.noiseCyclesTotal;
    EXPECT_FALSE(serveRun(client,
                          runRequest(testSetup(warmup), "fft",
                                     core::PolicyKind::AllOn),
                          out, &err, &done));
    EXPECT_EQ(static_cast<DoneStatus>(done.status), DoneStatus::Error);
    EXPECT_NE(err.find("noiseWarmupCycles"), std::string::npos) << err;

    sim::SimConfig narrow = testConfig();
    narrow.thermalParams.gridW = 1;
    SweepMsg badGrid = testSweepRequest(1);
    badGrid.setup = testSetup(narrow);
    EXPECT_FALSE(client.sweep(badGrid, sweepOut, &err, &done));
    EXPECT_EQ(static_cast<DoneStatus>(done.status), DoneStatus::Error);

    // Well-formed configs too large to allocate: refused by the size
    // caps before the daemon sizes a buffer or a loop for them.
    sim::SimConfig samples = testConfig();
    samples.noiseSamples = std::numeric_limits<int>::max();
    EXPECT_FALSE(serveRun(client,
                          runRequest(testSetup(samples), "fft",
                                     core::PolicyKind::AllOn),
                          out, &err, &done));
    EXPECT_EQ(static_cast<DoneStatus>(done.status), DoneStatus::Error);
    EXPECT_NE(err.find("noiseSamples"), std::string::npos) << err;
    EXPECT_TRUE(client.ping(&err)) << err;

    sim::SimConfig wide = testConfig();
    wide.thermalParams.gridW = 1 << 20;
    SweepMsg wideGrid = testSweepRequest(1);
    wideGrid.setup = testSetup(wide);
    EXPECT_FALSE(client.sweep(wideGrid, sweepOut, &err, &done));
    EXPECT_EQ(static_cast<DoneStatus>(done.status), DoneStatus::Error);
    EXPECT_NE(err.find("thermalParams.gridW"), std::string::npos)
        << err;

    // The RecordOptions scalars are sized and indexed by too.
    SweepMsg overSampled = testSweepRequest(1);
    overSampled.noiseSamplesOverride = std::numeric_limits<int>::max();
    EXPECT_FALSE(client.sweep(overSampled, sweepOut, &err, &done));
    EXPECT_EQ(static_cast<DoneStatus>(done.status), DoneStatus::Error);
    EXPECT_NE(err.find("noiseSamplesOverride"), std::string::npos)
        << err;
    SweepMsg badTrack = testSweepRequest(1);
    badTrack.trackVr = 1 << 20;
    EXPECT_FALSE(client.sweep(badTrack, sweepOut, &err, &done));
    EXPECT_EQ(static_cast<DoneStatus>(done.status), DoneStatus::Error);
    EXPECT_NE(err.find("trackVr"), std::string::npos) << err;

    // The daemon survived all of it and still serves correctly.
    EXPECT_TRUE(client.ping(&err)) << err;
    expectBitIdentical(reference(), served(1));

    EXPECT_EQ(server->statsSnapshot().requestsRejected, 9u);
}

TEST_F(ServeDeterminism, SweepCellSubsetFillsOnlyThoseSlots)
{
    SweepMsg req = testSweepRequest(1);
    req.cells = {0, 3}; // (rayt, all-on) and (fft, oracT)

    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(server->socketPath(), &err)) << err;
    sim::SweepResult out;
    ASSERT_TRUE(client.sweep(req, out, &err)) << err;

    const sim::SweepResult &ref = reference();
    EXPECT_EQ(cache::encodeRunResult(out.results[0][0]),
              cache::encodeRunResult(ref.results[0][0]));
    EXPECT_EQ(cache::encodeRunResult(out.results[1][1]),
              cache::encodeRunResult(ref.results[1][1]));
    // Unswept slot stays default-constructed.
    EXPECT_TRUE(out.results[2][0].benchmark.empty());
}

TEST_F(ServeDeterminism, ShutdownFrameDrainsTheServer)
{
    // Queue a sweep, then a shutdown from a second client: the
    // request must complete (drain semantics), then the server must
    // exit and release the socket. Both clients connect before the
    // drain starts (a draining server stops accepting).
    Client stopper;
    std::string err;
    ASSERT_TRUE(stopper.connect(server->socketPath(), &err)) << err;

    sim::SweepResult grid;
    std::string sweepErr;
    std::thread sweeper([&] {
        Client client;
        std::string cerr;
        if (!client.connect(server->socketPath(), &cerr)) {
            sweepErr = cerr;
            return;
        }
        if (!client.sweep(testSweepRequest(4), grid, &cerr))
            sweepErr = cerr;
    });

    // Give the sweep time to reach the server's queue so the drain
    // actually has something pending (either outcome of the race is
    // correct; this just makes the interesting path the common one).
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ASSERT_TRUE(stopper.shutdownServer(&err)) << err;

    sweeper.join();
    server->wait();
    EXPECT_TRUE(sweepErr.empty()) << sweepErr;
    expectBitIdentical(reference(), grid);

    // The socket is gone: a fresh connect must fail.
    Client late;
    EXPECT_FALSE(late.connect(server->socketPath(), &err));
    server.reset();
}

} // namespace
} // namespace serve
} // namespace tg
