/**
 * @file
 * Payload codecs of the persistent sweep server.
 *
 * The server speaks the TGS1 frame protocol (shard/protocol.hh owns
 * the frame layer and the FrameType registry; this header owns the
 * payloads) over a Unix-domain socket, or over the inherited
 * socketpair of a shard worker. A session is request/response:
 *
 *     client -> server : ServeSweep | ServeStats | Ping
 *                        | ServeCancel | Shutdown
 *     server -> client : ServeCell*  (streamed as cells finish)
 *     server -> client : ServeDone   (status + optional error string)
 *     server -> client : ServeStatsReply / Pong
 *
 * One request kind: a single run is a one-cell ServeSweep, answered
 * by one ServeCell (cell 0) and a ServeDone with cells = 1.
 *
 * Robustness semantics (v3): a sweep carries an optional deadlineMs
 * the server enforces mid-execution; ServeCancel (empty payload)
 * aborts the connection's queued or in-flight request; ServeDone
 * reports a DoneStatus so a client can tell apart success, request
 * errors, admission-control rejection (Busy, with a retry hint) and
 * cancellation/deadline abort.
 *
 * Every decoder is bounds-checked and rejects trailing garbage.
 * Results travel as cache::encodeRunResult bytes, so a served cell
 * is byte-comparable against a locally computed one — the
 * bit-identity contract the serve and shard tests assert.
 */

#ifndef TG_SERVE_PROTOCOL_HH
#define TG_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/store.hh"
#include "shard/protocol.hh"
#include "sim/result.hh"

namespace tg {
namespace serve {

/**
 * Client -> server: a benchmark x policy sweep (the full grid, or an
 * arbitrary cell subset in the canonical `b * policies.size() + p`
 * indexing), the daemon's one request kind. A single run is the
 * one-cell sweep {benchmark} x {policy}; a shard of a sharded sweep
 * is one SweepMsg whose `cells` is the shard. `setup` is a
 * shard::encodeBasicSetup blob (chip kind + the whole SimConfig
 * schema; a config sim::configError() refuses gets an Error reply);
 * the RecordOptions scalars ride explicitly (visitRecordOptions).
 * `jobs` > 1 asks for intra-request parallelism: a listening daemon
 * then fans out on its whole pool (its own --jobs), an adopted one
 * (a shard worker) on exactly `jobs` threads. Results are
 * bit-identical at any width, so the choice cannot change a byte.
 */
struct SweepMsg
{
    std::vector<std::uint8_t> setup;
    std::vector<std::string> benchmarks;
    std::vector<std::uint32_t> policies;
    std::vector<std::uint64_t> cells; //!< empty = every grid cell
    std::uint32_t jobs = 1;
    // RecordOptions scalars (see visitRecordOptions).
    std::uint8_t timeSeries = 0;
    std::uint8_t heatmap = 0;
    std::uint8_t noiseTrace = 0;
    std::int64_t trackVr = -1;
    std::int64_t noiseSamplesOverride = -1;
    /** Wall-clock budget in ms; 0 = none. The server arms it when the
     *  request is accepted (queue wait counts against it) and aborts
     *  the execution mid-sweep once it passes. */
    std::uint64_t deadlineMs = 0;
};

/**
 * The RecordOptions scalars of a SweepMsg (`M` is SweepMsg or const
 * SweepMsg), each paired with its sim::RecordOptions field:
 * `v(wire_field, &RecordOptions::f)` once per scalar, in wire order.
 * The payload codec and both conversions below run off this list, so
 * a new scalar is one line here. (A fault scenario is a pointer and
 * never travels; encode it in the setup blob instead.)
 */
template <class M, class V>
    requires std::is_same_v<std::remove_const_t<M>, SweepMsg>
void
visitRecordOptions(M &m, V &&v)
{
    using O = sim::RecordOptions;
    v(m.timeSeries, &O::timeSeries);
    v(m.heatmap, &O::heatmap);
    v(m.noiseTrace, &O::noiseTrace);
    v(m.trackVr, &O::trackVr);
    v(m.noiseSamplesOverride, &O::noiseSamplesOverride);
}

/** `base` with the message's RecordOptions scalars applied. */
sim::RecordOptions recordOptions(const SweepMsg &m,
                                 sim::RecordOptions base = {});

/** Copy the RecordOptions scalars of `opts` onto a message. */
void setRecordOptions(SweepMsg &m, const sim::RecordOptions &opts);

/** Server -> client: one finished cell (cache::encodeRunResult). */
struct CellMsg
{
    std::uint64_t cell = 0;
    std::vector<std::uint8_t> result;
};

/** How a request ended (DoneMsg::status). */
enum class DoneStatus : std::uint8_t
{
    Ok = 0,        //!< executed; every requested cell streamed
    Error,         //!< invalid request or execution failure
    Busy,          //!< rejected at admission (queue full); retry later
    Cancelled,     //!< aborted by ServeCancel or client disconnect
    DeadlineExpired, //!< aborted because deadlineMs elapsed
};

/** True when `s` names a DoneStatus enumerator. */
bool doneStatusValid(std::uint8_t s);

/** Human-readable status tag ("ok", "busy", ...). */
const char *doneStatusName(DoneStatus s);

/** Server -> client: request complete (after the last CellMsg). */
struct DoneMsg
{
    std::uint8_t ok = 0; //!< 1 iff status == Ok (kept for callers
                         //!< that only care about success)
    std::uint8_t status =
        static_cast<std::uint8_t>(DoneStatus::Error);
    std::uint64_t cells = 0; //!< cells streamed for this request
    std::string error;       //!< empty when ok
    /** With status == Busy: the server's suggested retry delay. */
    std::uint64_t retryAfterMs = 0;
};

/**
 * Server -> client: counters snapshot. Request-side counters come
 * from the scheduler; the embedded cache::StoreStats is the shared
 * warm ArtifactStore the daemon exists to keep alive.
 */
struct StatsReplyMsg
{
    std::uint64_t uptimeMicros = 0;
    std::uint64_t requestsSweep = 0;
    std::uint64_t requestsPing = 0;
    std::uint64_t requestsStats = 0;
    std::uint64_t requestsRejected = 0; //!< malformed/invalid requests
    std::uint64_t cellsServed = 0;
    std::uint64_t contextsBuilt = 0;  //!< warm-context cache misses
    std::uint64_t contextsReused = 0; //!< warm-context cache hits
    std::uint64_t queueDepth = 0;     //!< requests waiting at snapshot
    std::uint64_t sweepMicros = 0; //!< cumulative Sweep execution time
    std::uint64_t requestsBusy = 0;      //!< admission rejections
    std::uint64_t requestsCancelled = 0; //!< cancel/disconnect aborts
    std::uint64_t requestsDeadline = 0;  //!< deadline-expiry aborts
    std::uint64_t activeRequests = 0;    //!< executing at snapshot
    cache::StoreStats store;
};

std::vector<std::uint8_t> encodeSweep(const SweepMsg &m);
std::vector<std::uint8_t> encodeCell(const CellMsg &m);
std::vector<std::uint8_t> encodeDone(const DoneMsg &m);
std::vector<std::uint8_t> encodeStatsReply(const StatsReplyMsg &m);

/** Decoders reject truncated, malformed and trailing-garbage input. */
bool decodeSweep(const std::vector<std::uint8_t> &p, SweepMsg &out);
bool decodeCell(const std::vector<std::uint8_t> &p, CellMsg &out);
bool decodeDone(const std::vector<std::uint8_t> &p, DoneMsg &out);
bool decodeStatsReply(const std::vector<std::uint8_t> &p,
                      StatsReplyMsg &out);

/**
 * Socket-path ladder shared by tg_serve and tg_client: a non-empty
 * `cliValue` wins, else $TG_SERVE_SOCKET, else a per-user default
 * (/tmp/tg_serve.<uid>.sock).
 */
std::string resolveSocketPath(const std::string &cliValue);

} // namespace serve
} // namespace tg

#endif // TG_SERVE_PROTOCOL_HH
