/**
 * @file
 * Worker side of the sharded multi-process sweep.
 *
 * The coordinator re-execs the *current binary* with a hidden
 * `--tg-worker` argument and one end of a socketpair on fd 3 (see
 * spawnWorker in coordinator.hh). A participating binary's main()
 * therefore starts with:
 *
 *     if (shard::isWorkerInvocation(argc, argv))
 *         return shard::workerMain(shard::basicSetupFactory());
 *
 * A worker is the sweep daemon (serve/server.hh) adopting that
 * socket: each shard arrives as a ServeSweep whose cell list is the
 * shard, runs on the daemon's executor (on exactly the shard's jobs
 * threads), and streams back as ServeCell frames closed by a
 * ServeDone; the daemon's poll thread answers the coordinator's
 * liveness Pings. The daemon rebuilds its Simulation from the
 * request's opaque setup blob via the caller-supplied SetupFactory —
 * the engine never interprets the blob, so drivers with exotic chips
 * or fault scenarios encode whatever they need. basicSetupFactory()
 * covers the canned chips (POWER8 evaluation chip, mini test chip)
 * plus the whole SimConfig schema, which is all the in-tree drivers
 * and the daemon use.
 */

#ifndef TG_SHARD_WORKER_HH
#define TG_SHARD_WORKER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "floorplan/power8.hh"
#include "sim/config.hh"
#include "sim/result.hh"

namespace tg {
namespace shard {

/** The worker's end of its coordinator socketpair (set up before
 *  exec; deliberately past stdin/out/err). */
constexpr int kWorkerFd = 3;

/** The worker-mode argv marker. */
constexpr const char *kWorkerFlag = "--tg-worker";

/**
 * Everything a worker needs to rebuild its simulation context from a
 * setup blob. `keepAlive` owns any state `opts` points into (e.g. a
 * decoded fault scenario referenced by opts.faultScenario).
 */
struct WorkerSetup
{
    floorplan::Chip chip;
    sim::SimConfig cfg;
    sim::RecordOptions opts; //!< base; wire scalars overwrite fields
    std::shared_ptr<const void> keepAlive;
};

/** Decode an opaque setup blob into a WorkerSetup. Throws
 *  std::invalid_argument on a blob the factory does not understand;
 *  the daemon answers that request with a DoneStatus::Error (which a
 *  coordinator then reports as fatal — it built the blob itself). */
using SetupFactory =
    std::function<WorkerSetup(const std::vector<std::uint8_t> &blob)>;

/** True when argv carries the hidden worker-mode flag. */
bool isWorkerInvocation(int argc, char **argv);

/**
 * Serve the coordinator on fd 3 until it hangs up (or sends
 * Shutdown), building contexts with `factory`. Returns the process
 * exit code.
 */
int workerMain(const SetupFactory &factory);

// --- canned setup codec ----------------------------------------------

/** Chip selector of the basic setup blob. */
enum class ChipKind : std::uint32_t
{
    Power8 = 0, //!< floorplan::buildPower8Chip()
    Mini = 1,   //!< floorplan::buildMiniChip(arg)
};

/**
 * Encode (chip, config) for basicSetupFactory() as a `TGB2` blob:
 * every leaf of the SimConfig schema (sim::visitConfig) except the
 * host-local worker count, nested parameter structs included.
 */
std::vector<std::uint8_t> encodeBasicSetup(ChipKind kind, int chip_arg,
                                           const sim::SimConfig &cfg);

/**
 * Decoder of encodeBasicSetup() blobs. Returns false on a malformed
 * blob (an old `TGB1` one included) or unknown chip kind. A decoded
 * config still needs sim::configError() before it builds a
 * Simulation.
 */
bool decodeBasicSetup(const std::vector<std::uint8_t> &blob,
                      ChipKind &kind, int &chip_arg,
                      sim::SimConfig &cfg);

/** The factory decoding encodeBasicSetup() blobs. Throws
 *  std::invalid_argument on a malformed blob, a mini chip core count
 *  outside 1..64, or a config sim::configError() refuses. */
SetupFactory basicSetupFactory();

} // namespace shard
} // namespace tg

#endif // TG_SHARD_WORKER_HH
