/**
 * @file
 * Blocking client of the persistent sweep server.
 *
 * One Client wraps one connected Unix-domain socket. Calls are
 * synchronous request/response: sweep() streams ServeCell frames
 * into a SweepResult until the terminating ServeDone. The decoded
 * results are bit-identical to a local runSweep() against the same
 * setup — the transport is cache::encodeRunResult's bit-exact codec
 * end to end.
 *
 * Every method returns false on failure with a human-readable reason
 * in *err (when non-null); the connection should then be considered
 * dead (frame streams cannot be resynced).
 *
 * Resilience: connectWithRetry() rides out a server that is still
 * booting (or briefly restarting) with bounded exponential backoff —
 * each attempt must also answer a Ping before the connection counts,
 * so a half-up listener never passes for ready. sweep() can surface
 * the final DoneMsg so callers distinguish Busy (retry later) from
 * request errors and cancellation.
 */

#ifndef TG_SERVE_CLIENT_HH
#define TG_SERVE_CLIENT_HH

#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "sim/sweep.hh"

namespace tg {
namespace serve {

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect to a server socket. */
    bool connect(const std::string &socketPath, std::string *err);

    /**
     * Connect with bounded exponential backoff (10 ms doubling to a
     * 500 ms ceiling, pid-keyed jitter so a fleet of clients spreads
     * out), pinging after each connect so only a *serving* daemon
     * counts as ready. Gives up once `waitMs` elapses.
     */
    bool connectWithRetry(const std::string &socketPath,
                          std::uint64_t waitMs, std::string *err);

    bool connected() const { return fd >= 0; }
    void close();

    /** Ping -> Pong round trip. */
    bool ping(std::string *err);

    /** Fetch the server's counters snapshot. */
    bool stats(StatsReplyMsg &out, std::string *err);

    /** Ask the server to drain and exit; returns once acknowledged. */
    bool shutdownServer(std::string *err);

    /**
     * Ask the server to cancel this connection's queued or in-flight
     * request. Fire-and-forget at the frame level: the outcome
     * arrives as the original request's DoneMsg (Cancelled), which
     * the in-progress sweep() call observes.
     */
    bool cancel(std::string *err);

    /**
     * Execute a sweep on the server. `out` gets the request's
     * benchmark/policy grid with every streamed cell decoded into
     * its canonical slot; with a cell subset the untouched slots stay
     * default-constructed, exactly like a local partial sweep; a
     * single run is the one-cell sweep {benchmark} x {policy}. A
     * non-null `doneOut` receives the final DoneMsg even on failure,
     * so callers can tell Busy (retry after doneOut->retryAfterMs)
     * from a request error or a cancellation/deadline abort.
     */
    bool sweep(const SweepMsg &request, sim::SweepResult &out,
               std::string *err, DoneMsg *doneOut = nullptr);

  private:
    /** Send one frame; false when the server is gone. */
    bool send(shard::FrameType type,
              const std::vector<std::uint8_t> &payload,
              std::string *err);

    /** Block until the next frame arrives. */
    bool recv(shard::Frame &out, std::string *err);

    int fd = -1;
    shard::FrameParser parser;
    std::vector<shard::Frame> pending; //!< decoded, not yet consumed
};

} // namespace serve
} // namespace tg

#endif // TG_SERVE_CLIENT_HH
