/**
 * @file
 * Pure tests of the sweep-server payload codecs and the shared
 * connection plumbing: round trips, truncation/garbage rejection,
 * and the socket-path resolution ladder. End-to-end server behaviour
 * lives in test_serve_run.cc.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>

#include "serve/protocol.hh"

namespace tg {
namespace serve {
namespace {

SweepMsg sampleSweep()
{
    SweepMsg m;
    m.setup = {9, 8, 7};
    m.benchmarks = {"rayt", "fft", "lu_ncb"};
    m.policies = {0, 2, 5};
    m.cells = {0, 4, 8};
    m.jobs = 4;
    m.heatmap = 1;
    m.trackVr = -1;
    m.noiseSamplesOverride = -1;
    m.deadlineMs = 60000;
    return m;
}

TEST(ServeProtocol, SweepRoundTrip)
{
    const SweepMsg in = sampleSweep();
    SweepMsg out;
    ASSERT_TRUE(decodeSweep(encodeSweep(in), out));
    EXPECT_EQ(out.setup, in.setup);
    EXPECT_EQ(out.benchmarks, in.benchmarks);
    EXPECT_EQ(out.policies, in.policies);
    EXPECT_EQ(out.cells, in.cells);
    EXPECT_EQ(out.jobs, in.jobs);
    EXPECT_EQ(out.heatmap, in.heatmap);
    EXPECT_EQ(out.trackVr, in.trackVr);
    EXPECT_EQ(out.deadlineMs, in.deadlineMs);
}

TEST(ServeProtocol, CellAndDoneRoundTrip)
{
    CellMsg cell;
    cell.cell = 42;
    cell.result = {0xDE, 0xAD, 0xBE, 0xEF};
    CellMsg cellOut;
    ASSERT_TRUE(decodeCell(encodeCell(cell), cellOut));
    EXPECT_EQ(cellOut.cell, cell.cell);
    EXPECT_EQ(cellOut.result, cell.result);

    DoneMsg done;
    done.ok = 0;
    done.status = static_cast<std::uint8_t>(DoneStatus::Busy);
    done.cells = 7;
    done.error = "unknown benchmark 'nope'";
    done.retryAfterMs = 125;
    DoneMsg doneOut;
    ASSERT_TRUE(decodeDone(encodeDone(done), doneOut));
    EXPECT_EQ(doneOut.ok, done.ok);
    EXPECT_EQ(doneOut.status, done.status);
    EXPECT_EQ(doneOut.cells, done.cells);
    EXPECT_EQ(doneOut.error, done.error);
    EXPECT_EQ(doneOut.retryAfterMs, done.retryAfterMs);
}

TEST(ServeProtocol, DoneStatusConsistencyIsEnforced)
{
    // ok=1 must mean status==Ok: any disagreement (or an unknown
    // status id) is a malformed reply, not something to half-trust.
    DoneMsg lying;
    lying.ok = 1;
    lying.status = static_cast<std::uint8_t>(DoneStatus::Busy);
    DoneMsg out;
    EXPECT_FALSE(decodeDone(encodeDone(lying), out));

    DoneMsg unknown;
    unknown.ok = 0;
    unknown.status = 250;
    EXPECT_FALSE(decodeDone(encodeDone(unknown), out));

    DoneMsg honest;
    honest.ok = 1;
    honest.status = static_cast<std::uint8_t>(DoneStatus::Ok);
    EXPECT_TRUE(decodeDone(encodeDone(honest), out));
}

TEST(ServeProtocol, StatsReplyRoundTripIncludesStoreSnapshot)
{
    StatsReplyMsg in;
    in.uptimeMicros = 1234567;
    in.requestsSweep = 2;
    in.requestsPing = 3;
    in.requestsStats = 4;
    in.requestsRejected = 5;
    in.cellsServed = 6;
    in.contextsBuilt = 7;
    in.contextsReused = 8;
    in.queueDepth = 9;
    in.sweepMicros = 11;
    for (std::size_t k = 0; k < in.store.kind.size(); ++k) {
        in.store.kind[k].hits = 100 + k;
        in.store.kind[k].misses = 200 + k;
        in.store.kind[k].inserts = 300 + k;
        in.store.kind[k].bytes = 400 + k;
        in.store.kind[k].evictions = 500 + k;
    }
    in.requestsBusy = 12;
    in.requestsCancelled = 13;
    in.requestsDeadline = 14;
    in.activeRequests = 1;
    in.store.evictions = 2020;
    in.store.diskHits = 1;
    in.store.diskMisses = 2;
    in.store.diskWrites = 3;
    in.store.diskRejects = 4;
    in.store.diskTmpSwept = 5;

    StatsReplyMsg out;
    ASSERT_TRUE(decodeStatsReply(encodeStatsReply(in), out));
    EXPECT_EQ(out.uptimeMicros, in.uptimeMicros);
    EXPECT_EQ(out.requestsRejected, in.requestsRejected);
    EXPECT_EQ(out.contextsBuilt, in.contextsBuilt);
    EXPECT_EQ(out.contextsReused, in.contextsReused);
    EXPECT_EQ(out.queueDepth, in.queueDepth);
    EXPECT_EQ(out.sweepMicros, in.sweepMicros);
    for (std::size_t k = 0; k < in.store.kind.size(); ++k) {
        EXPECT_EQ(out.store.kind[k].hits, in.store.kind[k].hits);
        EXPECT_EQ(out.store.kind[k].bytes, in.store.kind[k].bytes);
        EXPECT_EQ(out.store.kind[k].evictions,
                  in.store.kind[k].evictions);
    }
    EXPECT_EQ(out.requestsBusy, in.requestsBusy);
    EXPECT_EQ(out.requestsCancelled, in.requestsCancelled);
    EXPECT_EQ(out.requestsDeadline, in.requestsDeadline);
    EXPECT_EQ(out.activeRequests, in.activeRequests);
    EXPECT_EQ(out.store.evictions, in.store.evictions);
    EXPECT_EQ(out.store.diskRejects, in.store.diskRejects);
    EXPECT_EQ(out.store.diskTmpSwept, in.store.diskTmpSwept);
}

TEST(ServeProtocol, TruncationIsRejectedAtEveryPrefix)
{
    const std::vector<std::uint8_t> sweepBytes =
        encodeSweep(sampleSweep());
    for (std::size_t cut = 0; cut < sweepBytes.size(); ++cut) {
        SweepMsg out;
        const std::vector<std::uint8_t> prefix(
            sweepBytes.begin(),
            sweepBytes.begin() + static_cast<std::ptrdiff_t>(cut));
        EXPECT_FALSE(decodeSweep(prefix, out)) << "cut=" << cut;
    }
}

TEST(ServeProtocol, TrailingGarbageIsRejected)
{
    std::vector<std::uint8_t> bytes = encodeSweep(sampleSweep());
    bytes.push_back(0x00);
    SweepMsg out;
    EXPECT_FALSE(decodeSweep(bytes, out));

    std::vector<std::uint8_t> statsBytes =
        encodeStatsReply(StatsReplyMsg{});
    statsBytes.push_back(0xFF);
    StatsReplyMsg statsOut;
    EXPECT_FALSE(decodeStatsReply(statsBytes, statsOut));
}

TEST(ServeProtocol, AbsurdListLengthIsRejected)
{
    // Hand-craft a sweep whose benchmark count claims 2^32 entries.
    bytes::ByteWriter w;
    w.blob({1, 2, 3});
    w.u64(1ull << 32);
    const std::vector<std::uint8_t> p = w.take();
    SweepMsg out;
    EXPECT_FALSE(decodeSweep(p, out));
}

TEST(ServeProtocol, SocketPathLadder)
{
    // CLI value wins outright.
    EXPECT_EQ(resolveSocketPath("/tmp/explicit.sock"),
              "/tmp/explicit.sock");

    // Then the environment.
    ::setenv("TG_SERVE_SOCKET", "/tmp/from_env.sock", 1);
    EXPECT_EQ(resolveSocketPath(""), "/tmp/from_env.sock");
    ::unsetenv("TG_SERVE_SOCKET");

    // Then the per-user default.
    const std::string fallback = resolveSocketPath("");
    EXPECT_EQ(fallback.rfind("/tmp/tg_serve.", 0), 0u);
    EXPECT_NE(fallback.find(".sock"), std::string::npos);
}

TEST(ServeProtocol, ServeFrameTypesAreValidFrameTypes)
{
    // Every frame type with its wire value, pinned: a client built
    // against an older registry must keep talking to the daemon, so
    // no remaining type may be renumbered.
    using shard::FrameType;
    const std::pair<FrameType, std::uint32_t> wire[] = {
        {FrameType::Shutdown, 7},
        {FrameType::ServeSweep, 9},   {FrameType::ServeCell, 10},
        {FrameType::ServeDone, 11},   {FrameType::ServeStats, 12},
        {FrameType::ServeStatsReply, 13}, {FrameType::Ping, 14},
        {FrameType::Pong, 15},        {FrameType::ServeCancel, 16},
    };
    for (const auto &[type, value] : wire) {
        EXPECT_EQ(static_cast<std::uint32_t>(type), value);
        EXPECT_TRUE(shard::frameTypeValid(value)) << value;
    }
    // ...and the parser rejects everything else: the retired values
    // (1-6 the old shard-only messages, 8 the single-run request, now
    // a one-cell sweep) and everything past the registry.
    for (std::uint32_t retired : {0u, 1u, 6u, 8u, 17u})
        EXPECT_FALSE(shard::frameTypeValid(retired)) << retired;
}

} // namespace
} // namespace serve
} // namespace tg
