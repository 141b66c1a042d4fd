/**
 * @file
 * End-to-end tests of the sharded multi-process sweep: the merged
 * grid must be bit-identical to a single-process runSweep() at every
 * worker count and shard sizing, including when a worker is killed
 * mid-shard and its cells are reassigned.
 *
 * This suite has a custom main(): the coordinator re-execs *this*
 * binary as its workers, so main() must route --tg-worker invocations
 * into workerMain() before gtest sees argv.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <thread>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/policy.hh"
#include "serve/protocol.hh"
#include "shard/coordinator.hh"
#include "shard/protocol.hh"
#include "shard/worker.hh"
#include "sim/sweep.hh"
#include "workload/profile.hh"

namespace tg {
namespace shard {
namespace {

/** The fast mini-chip config shared by coordinator and workers. */
sim::SimConfig
testConfig()
{
    sim::SimConfig cfg;
    cfg.noiseSamples = 4;
    cfg.profilingEpochs = 8;
    return cfg;
}

/** Exact equality of every metric two sweeps share. */
void
expectIdentical(const sim::SweepResult &a, const sim::SweepResult &b)
{
    ASSERT_EQ(a.benchmarks, b.benchmarks);
    ASSERT_EQ(a.policies, b.policies);
    for (const auto &bench : a.benchmarks) {
        for (auto kind : a.policies) {
            const auto &ra = a.at(bench, kind);
            const auto &rb = b.at(bench, kind);
            EXPECT_EQ(ra.benchmark, rb.benchmark);
            EXPECT_EQ(ra.policy, rb.policy);
            EXPECT_EQ(ra.maxTmax, rb.maxTmax) << bench;
            EXPECT_EQ(ra.maxGradient, rb.maxGradient) << bench;
            EXPECT_EQ(ra.maxNoiseFrac, rb.maxNoiseFrac) << bench;
            EXPECT_EQ(ra.emergencyFrac, rb.emergencyFrac) << bench;
            EXPECT_EQ(ra.avgRegulatorLoss, rb.avgRegulatorLoss);
            EXPECT_EQ(ra.avgEta, rb.avgEta) << bench;
            EXPECT_EQ(ra.avgActiveVrs, rb.avgActiveVrs) << bench;
            EXPECT_EQ(ra.meanPower, rb.meanPower) << bench;
            EXPECT_EQ(ra.overrideCount, rb.overrideCount) << bench;
            EXPECT_EQ(ra.hottestSpot, rb.hottestSpot) << bench;
            EXPECT_EQ(ra.vrActivity, rb.vrActivity) << bench;
            EXPECT_EQ(ra.vrAging, rb.vrAging) << bench;
            EXPECT_EQ(ra.agingImbalance, rb.agingImbalance) << bench;
        }
    }
}

class ShardDeterminism : public ::testing::Test
{
  protected:
    ShardDeterminism()
        : benchmarks({"rayt", "fft", "lu_ncb", "water_s"}),
          policies({core::PolicyKind::AllOn, core::PolicyKind::OracT})
    {
    }

    /** The single-process reference grid, computed once per suite. */
    const sim::SweepResult &
    reference()
    {
        static sim::SweepResult ref = [this] {
            floorplan::Chip chip = floorplan::buildMiniChip(1);
            sim::Simulation simulation(chip, testConfig());
            return sim::runSweep(simulation, benchmarks, policies,
                                 false, 1);
        }();
        return ref;
    }

    ShardedSweepOptions
    options(int processes)
    {
        ShardedSweepOptions sopt;
        sopt.benchmarks = benchmarks;
        sopt.policies = policies;
        sopt.processes = processes;
        sopt.jobsPerWorker = 1;
        sopt.setup = encodeBasicSetup(ChipKind::Mini, 1, testConfig());
        return sopt;
    }

    std::vector<std::string> benchmarks;
    std::vector<core::PolicyKind> policies;
};

TEST_F(ShardDeterminism, MatchesSingleProcessAcrossWorkerCounts)
{
    for (int processes : {1, 2, 4}) {
        ShardedSweepStats stats;
        sim::SweepResult merged =
            runShardedSweep(options(processes), &stats);
        expectIdentical(reference(), merged);
        EXPECT_EQ(stats.workersSpawned, processes);
        EXPECT_EQ(stats.cellsTotal,
                  benchmarks.size() * policies.size());
        EXPECT_EQ(stats.workerDeaths, 0) << processes << " workers";
        EXPECT_EQ(stats.duplicateCells, 0u);
        EXPECT_GT(stats.shardsDispatched, 0);
    }
}

TEST_F(ShardDeterminism, MatchesAcrossShardSizings)
{
    // Coarse shards (the whole grid in one dispatch) and the guided
    // default must merge to the same bits.
    for (std::size_t min_cells : {std::size_t(3), std::size_t(100)}) {
        ShardedSweepOptions sopt = options(2);
        sopt.minShardCells = min_cells;
        ShardedSweepStats stats;
        sim::SweepResult merged = runShardedSweep(sopt, &stats);
        expectIdentical(reference(), merged);
    }
}

TEST_F(ShardDeterminism, RecordOptionsTravelToWorkers)
{
    sim::RecordOptions opts;
    opts.noiseSamplesOverride = 2;

    floorplan::Chip chip = floorplan::buildMiniChip(1);
    sim::Simulation simulation(chip, testConfig());
    sim::SweepResult ref = sim::runSweep(
        simulation, benchmarks, policies, false, 1, opts);

    ShardedSweepOptions sopt = options(2);
    sopt.opts = opts;
    sim::SweepResult merged = runShardedSweep(sopt);
    expectIdentical(ref, merged);
}

TEST_F(ShardDeterminism, NestedParamsTravelToWorkers)
{
    // Nested parameter structs ride the setup blob: workers run the
    // hotter ambient and tighter emergency threshold too.
    sim::SimConfig cfg = testConfig();
    cfg.thermalParams.ambient = 60.0;
    cfg.pdnParams.emergencyFrac = 0.05;

    floorplan::Chip chip = floorplan::buildMiniChip(1);
    sim::Simulation simulation(chip, cfg);
    sim::SweepResult ref =
        sim::runSweep(simulation, benchmarks, policies, false, 1);

    ShardedSweepOptions sopt = options(2);
    sopt.setup = encodeBasicSetup(ChipKind::Mini, 1, cfg);
    sim::SweepResult merged = runShardedSweep(sopt);
    expectIdentical(ref, merged);
}

TEST_F(ShardDeterminism, IntraWorkerThreadsKeepIdentity)
{
    ShardedSweepOptions sopt = options(2);
    sopt.jobsPerWorker = 2; // processes x threads
    sim::SweepResult merged = runShardedSweep(sopt);
    expectIdentical(reference(), merged);
}

TEST_F(ShardDeterminism, KilledWorkerCellsAreReassignedBitIdentically)
{
    // Worker 1 _exit()s right before sending its second cell result;
    // the coordinator must detect the death, re-queue the
    // unacknowledged remainder of its shard, and still merge a grid
    // bit-identical to the single-process reference.
    ::setenv("TG_SHARD_TEST_DIE", "1:1", 1);
    ShardedSweepStats stats;
    sim::SweepResult merged = runShardedSweep(options(2), &stats);
    ::unsetenv("TG_SHARD_TEST_DIE");

    expectIdentical(reference(), merged);
    EXPECT_GE(stats.workerDeaths, 1);
    EXPECT_GE(stats.shardsReassigned, 1);
}

TEST_F(ShardDeterminism, ImmediateWorkerDeathStillCompletes)
{
    // Worker 1 dies before emitting anything: its whole shard moves
    // to the survivor.
    ::setenv("TG_SHARD_TEST_DIE", "1:0", 1);
    ShardedSweepStats stats;
    sim::SweepResult merged = runShardedSweep(options(2), &stats);
    ::unsetenv("TG_SHARD_TEST_DIE");

    expectIdentical(reference(), merged);
    EXPECT_GE(stats.workerDeaths, 1);
}

TEST_F(ShardDeterminism, WorkerExitsWhenCoordinatorHangsUp)
{
    // A worker serves its coordinator's socket and nothing else: a
    // hang-up mid-sweep cancels the sweep and the process exits
    // rather than finishing the shard. The full POWER8 grid at one
    // job runs for tens of seconds, far past the 5 s bound.
    int fd = -1;
    const int pid = spawnWorker(&fd);
    ASSERT_GT(pid, 0);
    struct Reaper
    {
        int pid;
        ~Reaper()
        {
            if (pid > 0) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, nullptr, 0);
            }
        }
    } reaper{pid};

    serve::SweepMsg req;
    req.setup = encodeBasicSetup(ChipKind::Power8, 0, sim::SimConfig{});
    for (const auto &p : workload::splashProfiles())
        req.benchmarks.push_back(p.name);
    for (auto pk : core::allPolicyKinds())
        req.policies.push_back(static_cast<std::uint32_t>(pk));
    req.jobs = 1;
    ASSERT_TRUE(writeFrameToFd(fd, FrameType::ServeSweep,
                               serve::encodeSweep(req)));

    using Clock = std::chrono::steady_clock;
    FrameParser parser;
    bool gotCell = false;
    const auto firstCellDeadline = Clock::now() + std::chrono::minutes(2);
    while (!gotCell && Clock::now() < firstCellDeadline) {
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, 100) <= 0)
            continue;
        ASSERT_EQ(pumpFrames(fd, parser,
                             [&](const Frame &f) {
                                 gotCell = gotCell ||
                                           f.type == FrameType::ServeCell;
                                 return f.type == FrameType::ServeCell;
                             }),
                  PumpStatus::Ok);
    }
    ASSERT_TRUE(gotCell) << "no cell within two minutes";
    ::close(fd);

    bool exited = false;
    int status = 0;
    const auto exitDeadline = Clock::now() + std::chrono::seconds(5);
    while (!exited && Clock::now() < exitDeadline) {
        if (::waitpid(pid, &status, WNOHANG) == pid)
            exited = true;
        else
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(exited) << "worker outlived its coordinator by 5 s";
    if (exited) {
        reaper.pid = -1;
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }
}

} // namespace
} // namespace shard
} // namespace tg

int
main(int argc, char **argv)
{
    // Spawned by a coordinator under test: act as the worker binary.
    if (tg::shard::isWorkerInvocation(argc, argv))
        return tg::shard::workerMain(tg::shard::basicSetupFactory());
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
