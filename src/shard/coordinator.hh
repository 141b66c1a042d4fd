/**
 * @file
 * Coordinator of the sharded multi-process sweep.
 *
 * runShardedSweep() partitions the (benchmark x policy) grid into
 * guided-size shards (shard/partition.hh), spawns N worker processes
 * by re-execing the current binary in `--tg-worker` mode, each on
 * one end of a socketpair, and dispatches shards dynamically to idle
 * workers. A worker is the sweep daemon adopting that socket
 * (shard/worker.hh), so the coordinator is a serve client of N
 * daemons at once: a shard goes out as a ServeSweep whose cell list
 * is the shard, its cells stream back as ServeCell frames closed by
 * a ServeDone (serve/protocol.hh), and the merge keys each result by
 * its canonical grid cell.
 *
 * Determinism contract (the process-level extension of the thread
 * pool's contract): every cell's RunResult is a deterministic
 * function of (chip, config, benchmark, policy, opts) alone and the
 * codec is bit-exact, so the merged SweepResult is bit-identical to
 * a single-process runSweep() — regardless of worker count, shard
 * sizing, arrival order, or which worker ran which shard.
 *
 * Fault handling: the coordinator Pings every worker every 200 ms
 * and the daemon's poll thread answers, so a busy worker that stays
 * silent for 30 s is hung, not slow. A worker that exits, closes its
 * socket, corrupts its stream, or goes silent is killed and its
 * *unacknowledged* cells (assigned minus already received) are
 * re-queued for the survivors. Per-cell idempotency is free — a cell
 * computed twice yields the same bits, and the merge keys by cell,
 * so reassignment can never skew the result. When the last worker
 * dies with work outstanding the sweep fatals rather than returning
 * a partial grid; so does a shard the daemon refuses (a non-Ok
 * ServeDone), since the coordinator built the request itself.
 *
 * Test hook: TG_SHARD_TEST_DIE="<worker>:<afterCells>" makes the
 * coordinator SIGKILL worker `worker` right after merging its
 * `afterCells`-th cell, or at its first dispatch when `afterCells`
 * is 0 — the crash-reassignment tests kill a worker mid-shard with
 * it.
 */

#ifndef TG_SHARD_COORDINATOR_HH
#define TG_SHARD_COORDINATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace tg {
namespace shard {

/** Knobs of one sharded sweep. */
struct ShardedSweepOptions
{
    /** Grid; empty defaults match runSweep (all 14 SPLASH-2x
     *  profiles x the paper's full policy set). */
    std::vector<std::string> benchmarks;
    std::vector<core::PolicyKind> policies;

    /** Opaque context blob for the worker's SetupFactory (see
     *  worker.hh; encodeBasicSetup covers the canned chips). */
    std::vector<std::uint8_t> setup;

    /** Worker process count (clamped to >= 1). */
    int processes = 2;

    /** Threads inside each worker (every shard's `jobs`); 0 defers
     *  to the worker-side TG_JOBS / hardware ladder. */
    int jobsPerWorker = 1;

    /** RecordOptions forwarded to every cell. Scalar fields travel
     *  on the wire; a fault scenario must be encoded in `setup`
     *  instead (faultScenario here must stay null). */
    sim::RecordOptions opts;

    /** Partitioner shard-size floor (see partitionCells). */
    std::size_t minShardCells = 1;
};

/** Observable outcomes of a sharded sweep (tests, logs). */
struct ShardedSweepStats
{
    int workersSpawned = 0;
    int workerDeaths = 0;    //!< exits, EOFs, corruption, silences
    int shardsPlanned = 0;   //!< initial partition size
    int shardsDispatched = 0;
    int shardsReassigned = 0; //!< re-queued remnants of dead workers
    std::size_t cellsTotal = 0;
    std::size_t duplicateCells = 0; //!< re-received after reassignment
};

/**
 * Run the grid across worker processes and merge. Blocks until every
 * cell has been received (or fatals when no worker survives).
 */
sim::SweepResult runShardedSweep(const ShardedSweepOptions &options,
                                 ShardedSweepStats *stats = nullptr);

/**
 * Start one worker: fork and re-exec this binary (/proc/self/exe) in
 * `--tg-worker` mode on one end of a fresh socketpair, which the
 * child sees as fd 3. Stores the coordinator's end in *fd and returns
 * the child's pid, or -1 with errno set.
 */
int spawnWorker(int *fd);

} // namespace shard
} // namespace tg

#endif // TG_SHARD_COORDINATOR_HH
