#include "shard/worker.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <type_traits>

#ifdef __unix__
#include <unistd.h>
#endif

#include "cache/serialize.hh"
#include "common/logging.hh"
#include "shard/protocol.hh"
#include "sim/sweep.hh"

namespace tg {
namespace shard {

namespace {

/** Exit code of the TG_SHARD_TEST_DIE hook (distinguishable from
 *  protocol-error exits in coordinator logs). */
constexpr int kTestDieExit = 42;

constexpr std::uint32_t kBasicSetupMagic = 0x32424754; // "TGB2"

#ifdef __unix__

/**
 * Mutex-guarded frame writer: CellResults from concurrent sweep
 * workers and Heartbeats from the side thread interleave only at
 * frame granularity. write() loops over partial writes; a failed
 * write means the coordinator is gone, so the worker exits.
 */
class WriteChannel
{
  public:
    explicit WriteChannel(int fd) : fd(fd) {}

    void send(FrameType type, const std::vector<std::uint8_t> &payload)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!writeFrameToFd(fd, type, payload))
            ::_exit(1); // coordinator died; nothing useful left to do
    }

  private:
    int fd;
    std::mutex mu;
};

/** Periodic Heartbeat frames until stopped. */
class HeartbeatThread
{
  public:
    HeartbeatThread(WriteChannel &out, int period_ms)
        : out(out), periodMs(period_ms > 0 ? period_ms : 500),
          th([this] { loop(); })
    {
    }

    ~HeartbeatThread()
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            stopping = true;
        }
        cv.notify_all();
        th.join();
    }

  private:
    void loop()
    {
        std::unique_lock<std::mutex> lock(mu);
        while (!stopping) {
            cv.wait_for(lock, std::chrono::milliseconds(periodMs));
            if (stopping)
                return;
            lock.unlock();
            out.send(FrameType::Heartbeat, {});
            lock.lock();
        }
    }

    WriteChannel &out;
    int periodMs;
    std::mutex mu;
    std::condition_variable cv;
    bool stopping = false;
    std::thread th;
};

/** Parsed TG_SHARD_TEST_DIE hook (see worker.hh). */
struct DieHook
{
    bool armed = false;
    std::uint32_t worker = 0;
    long afterCells = 0;
};

DieHook parseDieHook()
{
    DieHook hook;
    const char *env = std::getenv("TG_SHARD_TEST_DIE");
    if (!env || !*env)
        return hook;
    unsigned worker = 0;
    long after = 0;
    if (std::sscanf(env, "%u:%ld", &worker, &after) == 2) {
        hook.armed = true;
        hook.worker = worker;
        hook.afterCells = after;
    } else {
        warn("TG_SHARD_TEST_DIE value '", env,
             "' is not '<worker>:<afterCells>'; ignoring");
    }
    return hook;
}

#endif // __unix__

} // namespace

bool isWorkerInvocation(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], kWorkerFlag))
            return true;
    return false;
}

#ifdef __unix__

int workerMain(const SetupFactory &factory)
{
    // The coordinator may die while we write a result; surface that
    // as a failed write (handled in WriteChannel) rather than a
    // process-killing SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    WriteChannel out(kWorkerOutFd);
    {
        HelloMsg hello;
        hello.pid = static_cast<std::uint64_t>(::getpid());
        out.send(FrameType::Hello, encodeHello(hello));
    }

    FrameParser parser;
    SweepRequestMsg req;
    bool haveRequest = false;
    WorkerSetup setup;
    std::unique_ptr<sim::Simulation> simulation;
    sim::SweepContexts contexts;
    std::unique_ptr<HeartbeatThread> heartbeat;
    std::vector<core::PolicyKind> policies;
    sim::RecordOptions opts;
    DieHook die;
    std::atomic<long> cellsSent{0};

    // Exit code chosen by the frame handler when it stops the pump
    // (0 on a clean Shutdown, 2 on a protocol violation).
    int rc = 2;
    auto handleFrame = [&](const Frame &frame) -> bool {
        switch (frame.type) {
        case FrameType::SweepRequest: {
            if (!decodeSweepRequest(frame.payload, req)) {
                rc = 2;
                return false;
            }
            setup = factory(req.setup);
            policies.clear();
            policies.reserve(req.policies.size());
            for (auto pk : req.policies)
                policies.push_back(
                    static_cast<core::PolicyKind>(pk));
            opts = setup.opts;
            opts.timeSeries = req.timeSeries != 0;
            opts.heatmap = req.heatmap != 0;
            opts.noiseTrace = req.noiseTrace != 0;
            opts.trackVr = static_cast<int>(req.trackVr);
            opts.noiseSamplesOverride =
                static_cast<int>(req.noiseSamplesOverride);
            simulation = std::make_unique<sim::Simulation>(
                setup.chip, setup.cfg);
            die = parseDieHook();
            heartbeat = std::make_unique<HeartbeatThread>(
                out, static_cast<int>(req.heartbeatMs));
            haveRequest = true;
            return true;
        }
        case FrameType::ShardAssignment: {
            if (!haveRequest) {
                rc = 2;
                return false;
            }
            ShardAssignmentMsg assign;
            if (!decodeShardAssignment(frame.payload, assign)) {
                rc = 2;
                return false;
            }
            std::vector<std::size_t> cells(assign.cells.begin(),
                                           assign.cells.end());
            sim::runSweepCells(
                *simulation, req.benchmarks, policies, cells,
                static_cast<int>(req.jobs), opts,
                [&](std::size_t cell, sim::RunResult &&r) {
                    const long sent = cellsSent.fetch_add(1);
                    if (die.armed &&
                        die.worker == req.workerId &&
                        sent >= die.afterCells)
                        ::_exit(kTestDieExit);
                    CellResultMsg m;
                    m.shard = assign.shard;
                    m.cell = cell;
                    m.result = cache::encodeRunResult(r);
                    out.send(FrameType::CellResult,
                             encodeCellResult(m));
                },
                &contexts);
            ShardDoneMsg done;
            done.shard = assign.shard;
            out.send(FrameType::ShardDone, encodeShardDone(done));
            return true;
        }
        case FrameType::Shutdown:
            rc = 0;
            return false;
        default:
            // Unexpected direction (e.g. a Hello echoed back):
            // protocol violation.
            rc = 2;
            return false;
        }
    };

    for (;;) {
        switch (pumpFrames(kWorkerInFd, parser, handleFrame)) {
        case PumpStatus::Ok:
            break;
        case PumpStatus::Eof:
        case PumpStatus::Error:
            return 1; // coordinator gone without Shutdown
        case PumpStatus::Corrupt:
            return 2;
        case PumpStatus::Rejected:
            return rc;
        }
    }
}

#else // !__unix__

int workerMain(const SetupFactory &)
{
    fatal("sharded sweep workers require a POSIX host");
}

#endif // __unix__

std::vector<std::uint8_t> encodeBasicSetup(ChipKind kind, int chip_arg,
                                           const sim::SimConfig &cfg)
{
    bytes::ByteWriter w;
    w.u32(kBasicSetupMagic);
    w.u32(static_cast<std::uint32_t>(kind));
    w.i64(chip_arg);
    // Every non-Local schema field in visit order: doubles by bit
    // pattern, strings length-prefixed, the rest as 64-bit words.
    sim::visitConfig(cfg, [&](const char *, const auto &v,
                              sim::FieldRole role) {
        using T = std::decay_t<decltype(v)>;
        if (role == sim::FieldRole::Local)
            return;
        if constexpr (std::is_same_v<T, double>)
            w.f64(v);
        else if constexpr (std::is_same_v<T, std::string>)
            w.str(v);
        else
            w.u64(static_cast<std::uint64_t>(v));
    });
    return w.take();
}

bool decodeBasicSetup(const std::vector<std::uint8_t> &blob,
                      ChipKind &kind, int &chip_arg,
                      sim::SimConfig &cfg)
{
    bytes::ByteReader r(blob.data(), blob.size());
    if (r.u32() != kBasicSetupMagic)
        return false;
    kind = static_cast<ChipKind>(r.u32());
    chip_arg = static_cast<int>(r.i64());
    cfg = sim::SimConfig{};
    sim::visitConfig(cfg, [&](const char *, auto &v, sim::FieldRole role) {
        using T = std::decay_t<decltype(v)>;
        if (role == sim::FieldRole::Local)
            return;
        if constexpr (std::is_same_v<T, double>)
            v = r.f64();
        else if constexpr (std::is_same_v<T, std::string>)
            v = r.str();
        else
            v = static_cast<T>(r.u64());
    });
    if (!r.exhausted())
        return false;
    return kind == ChipKind::Power8 || kind == ChipKind::Mini;
}

SetupFactory basicSetupFactory()
{
    return [](const std::vector<std::uint8_t> &blob) -> WorkerSetup {
        ChipKind kind{};
        int chip_arg = 0;
        WorkerSetup setup;
        TG_ASSERT(decodeBasicSetup(blob, kind, chip_arg, setup.cfg),
                  "shard setup blob is not a well-formed basic setup");
        const std::string why = sim::configError(setup.cfg);
        TG_ASSERT(why.empty(), "shard setup config: ", why);
        switch (kind) {
        case ChipKind::Power8:
            setup.chip = floorplan::buildPower8Chip();
            break;
        case ChipKind::Mini:
            setup.chip = floorplan::buildMiniChip(chip_arg);
            break;
        }
        return setup;
    };
}

} // namespace shard
} // namespace tg
