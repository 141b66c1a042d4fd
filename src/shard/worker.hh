/**
 * @file
 * Worker side of the sharded multi-process sweep.
 *
 * The coordinator re-execs the *current binary* with a hidden
 * `--tg-worker` argument and two inherited pipe fds (requests on fd
 * 3, results on fd 4). A participating binary's main() therefore
 * starts with:
 *
 *     if (shard::isWorkerInvocation(argc, argv))
 *         return shard::workerMain(shard::basicSetupFactory());
 *
 * The worker reconstructs its Simulation from the SweepRequest's
 * opaque setup blob via a caller-supplied SetupFactory — the engine
 * never interprets the blob, so drivers with exotic chips or fault
 * scenarios encode whatever they need. basicSetupFactory() covers
 * the canned chips (POWER8 evaluation chip, mini test chip) plus the
 * whole SimConfig schema, which is all the in-tree drivers use.
 *
 * Cells execute on the shared runSweepCells() core (one Simulation,
 * or an intra-worker thread pool at jobs > 1) and every finished
 * cell streams back immediately as a CellResult frame; a side thread
 * emits Heartbeat frames so the coordinator can tell a long-running
 * cell from a hung process.
 *
 * Test hook: TG_SHARD_TEST_DIE="<workerId>:<afterCells>" makes
 * worker `workerId` _exit() right before sending its
 * (afterCells+1)-th cell result — the crash-reassignment tests kill
 * a worker mid-shard with it.
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

/** Request/result pipe fds of a worker process (set up by the
 *  coordinator before exec; deliberately past stdin/out/err). */
constexpr int kWorkerInFd = 3;
constexpr int kWorkerOutFd = 4;

/** The worker-mode argv marker. */
constexpr const char *kWorkerFlag = "--tg-worker";

/**
 * Everything a worker needs to rebuild its simulation context from a
 * SweepRequest. `keepAlive` owns any state `opts` points into (e.g.
 * a decoded fault scenario referenced by opts.faultScenario).
 */
struct WorkerSetup
{
    floorplan::Chip chip;
    sim::SimConfig cfg;
    sim::RecordOptions opts; //!< base; wire scalars overwrite fields
    std::shared_ptr<const void> keepAlive;
};

/** Decode an opaque setup blob into a WorkerSetup. Fatal on a blob
 *  the factory does not understand (the coordinator and worker are
 *  the same binary, so a mismatch is a bug, not an input error). */
using SetupFactory =
    std::function<WorkerSetup(const std::vector<std::uint8_t> &blob)>;

/** True when argv carries the hidden worker-mode flag. */
bool isWorkerInvocation(int argc, char **argv);

/**
 * Run the worker protocol loop on fds 3/4 until a Shutdown frame or
 * coordinator EOF. Returns the process exit code.
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
 * Non-fatal decoder of encodeBasicSetup() blobs. Returns false on a
 * malformed blob (an old `TGB1` one included) or unknown chip kind
 * instead of dying — the sweep server uses this to turn a bad client
 * request into an error reply rather than a daemon abort. A decoded
 * config still needs sim::configError() before it builds a
 * Simulation.
 */
bool decodeBasicSetup(const std::vector<std::uint8_t> &blob,
                      ChipKind &kind, int &chip_arg,
                      sim::SimConfig &cfg);

/** The factory decoding encodeBasicSetup() blobs (fatal on a blob it
 *  does not understand or a config sim::configError() refuses —
 *  coordinator and worker are one binary, so a mismatch is a bug,
 *  not an input error). */
SetupFactory basicSetupFactory();

} // namespace shard
} // namespace tg

#endif // TG_SHARD_WORKER_HH
