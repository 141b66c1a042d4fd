#include "shard/coordinator.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <set>

#ifdef __unix__
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "cache/serialize.hh"
#include "common/logging.hh"
#include "core/policy.hh"
#include "serve/protocol.hh"
#include "shard/partition.hh"
#include "shard/worker.hh"
#include "workload/profile.hh"

namespace tg {
namespace shard {

#ifdef __unix__

namespace {

using Clock = std::chrono::steady_clock;

/** The binary a worker re-execs: this one. */
constexpr const char *kSelfExe = "/proc/self/exe";

/** Liveness Ping period; a worker's poll thread answers each. */
constexpr auto kPingPeriod = std::chrono::milliseconds(200);

/** A busy worker silent this long is hung: killed, cells requeued. */
constexpr auto kSilenceTimeout = std::chrono::seconds(30);

/** Coordinator-side view of one worker process. */
struct Worker
{
    pid_t pid = -1;
    int fd = -1; //!< our end of the worker's socketpair
    FrameParser parser;
    Clock::time_point lastActivity;
    bool alive = false;
    bool busy = false; //!< a shard is in flight (until its ServeDone)
    /** Cells of the in-flight shard not yet received. */
    std::set<std::uint64_t> outstanding;
    long cellsMerged = 0; //!< for the TG_SHARD_TEST_DIE hook
};

/** Parsed TG_SHARD_TEST_DIE hook (see coordinator.hh). */
struct DieHook
{
    long worker = -1; //!< -1 = disarmed
    long afterCells = 0;

    bool fires(std::size_t w, long merged) const
    {
        return static_cast<long>(w) == worker && merged == afterCells;
    }
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
        hook.worker = worker;
        hook.afterCells = after;
    } else {
        warn("TG_SHARD_TEST_DIE value '", env,
             "' is not '<worker>:<afterCells>'; ignoring");
    }
    return hook;
}

} // namespace

int spawnWorker(int *fd)
{
    // Close-on-exec: no worker inherits a sibling's socket, so each
    // sees EOF as soon as the coordinator's end closes.
    int sv[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
        return -1;

    char *argv[] = {const_cast<char *>(kSelfExe),
                    const_cast<char *>(kWorkerFlag), nullptr};
    const pid_t pid = ::fork();
    if (pid == 0) {
        // dup2 clears close-on-exec on the worker's end; fcntl does
        // when the end already sits on kWorkerFd.
        const int rc = sv[1] == kWorkerFd
                           ? ::fcntl(kWorkerFd, F_SETFD, 0)
                           : ::dup2(sv[1], kWorkerFd);
        if (rc >= 0)
            ::execv(kSelfExe, argv);
        static const char msg[] = "shard worker: exec failed\n";
        (void)!::write(STDERR_FILENO, msg, sizeof msg - 1);
        ::_exit(127);
    }
    const int saved = errno;
    ::close(sv[1]);
    if (pid < 0) {
        ::close(sv[0]);
        errno = saved;
        return -1;
    }
    *fd = sv[0];
    return pid;
}

sim::SweepResult runShardedSweep(const ShardedSweepOptions &options,
                                 ShardedSweepStats *stats_out)
{
    TG_ASSERT(options.opts.faultScenario == nullptr,
              "fault scenarios cannot travel as a pointer; encode "
              "the scenario in the worker setup blob instead");

    // Writing to a worker that just died must surface as a failed
    // write, not a process-killing SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    std::vector<std::string> benchmarks = options.benchmarks;
    std::vector<core::PolicyKind> policies = options.policies;
    if (benchmarks.empty())
        for (const auto &p : workload::splashProfiles())
            benchmarks.push_back(p.name);
    if (policies.empty())
        policies = core::allPolicyKinds();
    // Fail on unknown names before any process is spawned.
    for (const auto &name : benchmarks)
        workload::profileByName(name);

    sim::SweepResult sweep;
    sweep.benchmarks = benchmarks;
    sweep.policies = policies;
    sweep.results.assign(benchmarks.size(),
                         std::vector<sim::RunResult>(policies.size()));

    const std::size_t n_cells = benchmarks.size() * policies.size();
    const int processes = std::max(1, options.processes);

    ShardedSweepStats stats;
    stats.cellsTotal = n_cells;

    std::deque<std::vector<std::uint64_t>> queue;
    for (auto &shard :
         partitionCells(n_cells, processes, options.minShardCells))
        queue.push_back(std::move(shard));
    stats.shardsPlanned = static_cast<int>(queue.size());

    // Every shard is this request with its own cell list.
    serve::SweepMsg req;
    req.setup = options.setup;
    req.benchmarks = benchmarks;
    for (auto pk : policies)
        req.policies.push_back(static_cast<std::uint32_t>(pk));
    req.jobs = static_cast<std::uint32_t>(
        std::max(0, options.jobsPerWorker));
    serve::setRecordOptions(req, options.opts);

    const DieHook die = parseDieHook();

    std::vector<Worker> workers(static_cast<std::size_t>(processes));
    for (Worker &w : workers) {
        w.pid = spawnWorker(&w.fd);
        TG_ASSERT(w.pid > 0, "cannot spawn a shard worker: ",
                  std::strerror(errno));
        w.alive = true;
        w.lastActivity = Clock::now();
        ++stats.workersSpawned;
    }

    std::vector<bool> received(n_cells, false);
    std::size_t receivedCount = 0;

    auto reap = [](Worker &w) {
        if (w.fd >= 0)
            ::close(w.fd);
        w.fd = -1;
        if (w.pid > 0) {
            ::kill(w.pid, SIGKILL);
            ::waitpid(w.pid, nullptr, 0);
            w.pid = -1;
        }
    };

    // Death handling: reap the process and re-queue every cell it
    // was assigned but never delivered. The remnant goes to the front
    // of the queue — it is the oldest work and likely blocks sweep
    // completion.
    auto onDeath = [&](Worker &w) {
        if (!w.alive)
            return;
        w.alive = false;
        w.busy = false;
        ++stats.workerDeaths;
        reap(w);
        if (!w.outstanding.empty()) {
            queue.emplace_front(w.outstanding.begin(),
                                w.outstanding.end());
            ++stats.shardsReassigned;
        }
        w.outstanding.clear();
    };

    auto dispatch = [&](std::size_t i) {
        Worker &w = workers[i];
        if (!w.alive || w.busy || queue.empty())
            return;
        req.cells = std::move(queue.front());
        queue.pop_front();
        w.outstanding.insert(req.cells.begin(), req.cells.end());
        w.busy = true;
        if (!writeFrameToFd(w.fd, FrameType::ServeSweep,
                            serve::encodeSweep(req))) {
            onDeath(w);
            return;
        }
        ++stats.shardsDispatched;
        if (die.fires(i, w.cellsMerged))
            onDeath(w);
    };

    auto handleFrame = [&](std::size_t i, const Frame &frame) -> bool {
        Worker &w = workers[i];
        w.lastActivity = Clock::now();
        switch (frame.type) {
        case FrameType::Pong:
            return true;
        case FrameType::ServeCell: {
            serve::CellMsg m;
            sim::RunResult r;
            if (!serve::decodeCell(frame.payload, m) ||
                !w.outstanding.count(m.cell) ||
                !cache::decodeRunResult(m.result.data(),
                                        m.result.size(), r))
                return false;
            const std::size_t b = m.cell / policies.size();
            const std::size_t p = m.cell % policies.size();
            // The payload must describe the cell it claims to be —
            // a worker answering the wrong cell would silently skew
            // the merge otherwise.
            if (r.benchmark != benchmarks[b] || r.policy != policies[p])
                return false;
            w.outstanding.erase(m.cell);
            if (received[m.cell]) {
                // A reassigned shard overlapped with results the
                // dead worker managed to flush first: determinism
                // makes both copies bit-identical, keep either.
                ++stats.duplicateCells;
            } else {
                received[m.cell] = true;
                ++receivedCount;
            }
            sweep.results[b][p] = std::move(r);
            // A firing test hook stops the drain; the worker is
            // killed below.
            return !die.fires(i, ++w.cellsMerged);
        }
        case FrameType::ServeDone: {
            serve::DoneMsg done;
            if (!serve::decodeDone(frame.payload, done) || !w.busy)
                return false;
            if (!done.ok)
                fatal("sharded sweep: worker ", i, " refused a shard (",
                      serve::doneStatusName(
                          static_cast<serve::DoneStatus>(done.status)),
                      "): ", done.error);
            if (!w.outstanding.empty())
                return false; // done without delivering every cell
            w.busy = false;
            return true;
        }
        default:
            return false; // coordinator-bound streams carry nothing else
        }
    };

    Clock::time_point lastPing = Clock::now();
    while (receivedCount < n_cells) {
        bool anyAlive = false;
        for (std::size_t i = 0; i < workers.size(); ++i) {
            dispatch(i);
            anyAlive = anyAlive || workers[i].alive;
        }
        if (!anyAlive)
            fatal("sharded sweep: every worker died with ",
                  n_cells - receivedCount, " of ", n_cells,
                  " cells outstanding");

        std::vector<pollfd> fds;
        std::vector<std::size_t> fdWorker;
        for (std::size_t i = 0; i < workers.size(); ++i) {
            if (!workers[i].alive)
                continue;
            fds.push_back({workers[i].fd, POLLIN, 0});
            fdWorker.push_back(i);
        }
        const int rv = ::poll(fds.data(),
                              static_cast<nfds_t>(fds.size()), 100);
        if (rv < 0 && errno != EINTR)
            fatal("sharded sweep: poll() failed: ",
                  std::strerror(errno));

        for (std::size_t k = 0; k < fds.size(); ++k) {
            const std::size_t i = fdWorker[k];
            Worker &w = workers[i];
            if (!w.alive ||
                !(fds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const PumpStatus st =
                pumpFrames(w.fd, w.parser, [&](const Frame &frame) {
                    return handleFrame(i, frame);
                });
            if (die.fires(i, w.cellsMerged) || st == PumpStatus::Eof ||
                st == PumpStatus::Error) {
                onDeath(w);
            } else if (st != PumpStatus::Ok) {
                warn("sharded sweep: worker ", i,
                     " sent a malformed stream; reassigning its "
                     "shards");
                onDeath(w);
            }
        }

        const auto now = Clock::now();
        const bool ping = now - lastPing >= kPingPeriod;
        if (ping)
            lastPing = now;
        for (std::size_t i = 0; i < workers.size(); ++i) {
            Worker &w = workers[i];
            if (!w.alive)
                continue;
            if (w.busy && now - w.lastActivity > kSilenceTimeout) {
                warn("sharded sweep: worker ", i, " silent for ",
                     std::chrono::duration_cast<
                         std::chrono::milliseconds>(
                         now - w.lastActivity)
                         .count(),
                     " ms; killing and reassigning");
                onDeath(w);
            } else if (ping &&
                       !writeFrameToFd(w.fd, FrameType::Ping, {})) {
                onDeath(w);
            }
        }
    }

    // Hang up: a worker's daemon drains and exits once its socket
    // closes. Close every socket first so the workers wind down in
    // parallel, give each a moment to exit on its own (so the common
    // path reaps a clean exit status), then reap() SIGKILLs any
    // straggler.
    for (Worker &w : workers)
        if (w.alive) {
            ::close(w.fd);
            w.fd = -1;
        }
    for (Worker &w : workers) {
        if (!w.alive)
            continue;
        for (int spin = 0; spin < 200 && w.pid > 0; ++spin) {
            if (::waitpid(w.pid, nullptr, WNOHANG) == w.pid) {
                w.pid = -1;
                break;
            }
            struct timespec ts = {0, 5 * 1000 * 1000};
            ::nanosleep(&ts, nullptr);
        }
        reap(w);
        w.alive = false;
    }

    if (stats_out)
        *stats_out = stats;
    return sweep;
}

#else // !__unix__

int spawnWorker(int *)
{
    return -1;
}

sim::SweepResult runShardedSweep(const ShardedSweepOptions &,
                                 ShardedSweepStats *)
{
    fatal("the sharded sweep coordinator requires a POSIX host");
}

#endif // __unix__

} // namespace shard
} // namespace tg
