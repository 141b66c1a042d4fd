/**
 * @file
 * Pure unit tests of the sharded sweep's building blocks: the
 * deterministic partitioner, the length-prefixed frame layer and the
 * setup blob codec.
 * No processes are spawned here — the end-to-end coordinator/worker
 * determinism and crash-reassignment tests live in
 * test_shard_run.cc (which needs a custom main for worker mode).
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/bytes.hh"
#include "shard/partition.hh"
#include "shard/protocol.hh"
#include "shard/worker.hh"

using namespace tg;
using shard::Frame;
using shard::FrameParser;
using shard::FrameType;

// --- partitioner -----------------------------------------------------

TEST(ShardPartition, EveryCellExactlyOnce)
{
    for (std::size_t n : {std::size_t(0), std::size_t(1),
                          std::size_t(2), std::size_t(3),
                          std::size_t(7), std::size_t(12),
                          std::size_t(16), std::size_t(100),
                          std::size_t(112), std::size_t(1000)}) {
        for (int workers : {1, 2, 3, 4, 8, 16}) {
            auto shards = shard::partitionCells(n, workers);
            std::vector<int> seen(n, 0);
            for (const auto &s : shards) {
                EXPECT_FALSE(s.empty());
                for (auto c : s) {
                    ASSERT_LT(c, n);
                    ++seen[c];
                }
            }
            for (std::size_t c = 0; c < n; ++c)
                EXPECT_EQ(seen[c], 1)
                    << "cell " << c << " at n=" << n
                    << " workers=" << workers;
        }
    }
}

TEST(ShardPartition, ContiguousAndOrdered)
{
    auto shards = shard::partitionCells(100, 4);
    std::uint64_t next = 0;
    for (const auto &s : shards)
        for (auto c : s)
            EXPECT_EQ(c, next++);
    EXPECT_EQ(next, 100u);
}

TEST(ShardPartition, GuidedSizesNonIncreasing)
{
    auto shards = shard::partitionCells(112, 4);
    ASSERT_FALSE(shards.empty());
    // First shard: ceil(112 / (2*4)) = 14 cells.
    EXPECT_EQ(shards.front().size(), 14u);
    for (std::size_t i = 1; i < shards.size(); ++i)
        EXPECT_LE(shards[i].size(), shards[i - 1].size());
    // Tail decays: the guided schedule ends in single-cell shards.
    EXPECT_EQ(shards.back().size(), 1u);
}

TEST(ShardPartition, MinCellsFloor)
{
    auto shards = shard::partitionCells(100, 8, 5);
    for (std::size_t i = 0; i + 1 < shards.size(); ++i)
        EXPECT_GE(shards[i].size(), 5u);
    // Only the final remnant may dip below the floor.
    EXPECT_GE(shards.back().size(), 1u);
}

TEST(ShardPartition, Deterministic)
{
    EXPECT_EQ(shard::partitionCells(250, 3),
              shard::partitionCells(250, 3));
    EXPECT_EQ(shard::partitionCells(250, 3, 4),
              shard::partitionCells(250, 3, 4));
}

TEST(ShardPartition, DegenerateInputsClamp)
{
    EXPECT_TRUE(shard::partitionCells(0, 4).empty());
    // workers and min_cells clamp to >= 1.
    auto shards = shard::partitionCells(5, 0, 0);
    std::size_t total = 0;
    for (const auto &s : shards)
        total += s.size();
    EXPECT_EQ(total, 5u);
    // One worker, one cell: exactly one singleton shard.
    auto one = shard::partitionCells(1, 1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], std::vector<std::uint64_t>{0});
}

// --- frame layer -----------------------------------------------------

namespace {

/** Feed a byte buffer into a parser in one go. */
FrameParser::Status
feedAll(FrameParser &p, const std::vector<std::uint8_t> &bytes,
        Frame &out)
{
    p.feed(bytes.data(), bytes.size());
    return p.next(out);
}

} // namespace

TEST(ShardProtocol, FrameRoundTrip)
{
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
    auto bytes = shard::encodeFrame(FrameType::ServeCell, payload);

    FrameParser parser;
    Frame frame;
    ASSERT_EQ(feedAll(parser, bytes, frame),
              FrameParser::Status::Frame);
    EXPECT_EQ(frame.type, FrameType::ServeCell);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(parser.next(frame), FrameParser::Status::NeedMore);
}

TEST(ShardProtocol, EmptyPayloadFrame)
{
    auto bytes = shard::encodeFrame(FrameType::Ping, {});
    FrameParser parser;
    Frame frame;
    ASSERT_EQ(feedAll(parser, bytes, frame),
              FrameParser::Status::Frame);
    EXPECT_EQ(frame.type, FrameType::Ping);
    EXPECT_TRUE(frame.payload.empty());
}

TEST(ShardProtocol, ByteAtATimeReassembly)
{
    const std::vector<std::uint8_t> payload(300, 0xAB);
    auto bytes = shard::encodeFrame(FrameType::ServeDone, payload);

    FrameParser parser;
    Frame frame;
    for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
        parser.feed(&bytes[i], 1);
        ASSERT_EQ(parser.next(frame), FrameParser::Status::NeedMore)
            << "frame completed early at byte " << i;
    }
    parser.feed(&bytes.back(), 1);
    ASSERT_EQ(parser.next(frame), FrameParser::Status::Frame);
    EXPECT_EQ(frame.payload, payload);
}

TEST(ShardProtocol, BackToBackFrames)
{
    auto a = shard::encodeFrame(FrameType::Ping, {});
    auto b = shard::encodeFrame(FrameType::ServeDone, {9, 9});
    std::vector<std::uint8_t> stream = a;
    stream.insert(stream.end(), b.begin(), b.end());

    FrameParser parser;
    Frame frame;
    ASSERT_EQ(feedAll(parser, stream, frame),
              FrameParser::Status::Frame);
    EXPECT_EQ(frame.type, FrameType::Ping);
    ASSERT_EQ(parser.next(frame), FrameParser::Status::Frame);
    EXPECT_EQ(frame.type, FrameType::ServeDone);
    EXPECT_EQ(parser.next(frame), FrameParser::Status::NeedMore);
}

TEST(ShardProtocol, BadMagicIsStickyCorrupt)
{
    auto bytes = shard::encodeFrame(FrameType::Ping, {});
    bytes[0] ^= 0xFF;

    FrameParser parser;
    Frame frame;
    EXPECT_EQ(feedAll(parser, bytes, frame),
              FrameParser::Status::Corrupt);
    EXPECT_TRUE(parser.corrupt());

    // A later good frame cannot resurrect the stream.
    auto good = shard::encodeFrame(FrameType::Ping, {});
    EXPECT_EQ(feedAll(parser, good, frame),
              FrameParser::Status::Corrupt);
}

TEST(ShardProtocol, ChecksumMismatchIsCorrupt)
{
    auto bytes = shard::encodeFrame(FrameType::ServeCell,
                                    {10, 20, 30, 40});
    bytes[bytes.size() - 9] ^= 0x01; // last payload byte

    FrameParser parser;
    Frame frame;
    EXPECT_EQ(feedAll(parser, bytes, frame),
              FrameParser::Status::Corrupt);
}

TEST(ShardProtocol, UnknownFrameTypeIsCorrupt)
{
    bytes::ByteWriter w;
    w.u32(shard::kFrameMagic);
    w.u32(0xDEAD); // not a FrameType
    w.u64(0);
    auto header = w.take();

    FrameParser parser;
    Frame frame;
    EXPECT_EQ(feedAll(parser, header, frame),
              FrameParser::Status::Corrupt);
    EXPECT_FALSE(shard::frameTypeValid(0));
    EXPECT_FALSE(shard::frameTypeValid(0xDEAD));
    // 1-6 carried the retired shard-only messages; nothing speaks
    // them any more.
    for (std::uint32_t t = 1; t <= 6; ++t)
        EXPECT_FALSE(shard::frameTypeValid(t)) << t;
    EXPECT_TRUE(shard::frameTypeValid(
        static_cast<std::uint32_t>(FrameType::Shutdown)));
}

TEST(ShardProtocol, AbsurdPayloadLengthIsCorrupt)
{
    bytes::ByteWriter w;
    w.u32(shard::kFrameMagic);
    w.u32(static_cast<std::uint32_t>(FrameType::ServeCell));
    w.u64(shard::kMaxFramePayload + 1);
    auto header = w.take();

    FrameParser parser;
    Frame frame;
    EXPECT_EQ(feedAll(parser, header, frame),
              FrameParser::Status::Corrupt);
}

// --- setup blob ------------------------------------------------------

TEST(ShardProtocol, DecodersRejectTruncation)
{
    // Every proper prefix of a setup blob fails to decode, so a
    // short read can never build a context from half a config.
    const auto blob = shard::encodeBasicSetup(shard::ChipKind::Mini, 2,
                                              sim::SimConfig{});
    for (std::size_t keep = 0; keep < blob.size(); ++keep) {
        std::vector<std::uint8_t> cut(blob.begin(),
                                      blob.begin() +
                                          static_cast<long>(keep));
        shard::ChipKind kind{};
        int chip_arg = 0;
        sim::SimConfig cfg;
        EXPECT_FALSE(shard::decodeBasicSetup(cut, kind, chip_arg, cfg))
            << "truncated blob of " << keep
            << " bytes decoded successfully";
    }
}

TEST(ShardProtocol, DecodersRejectTrailingGarbage)
{
    auto blob = shard::encodeBasicSetup(shard::ChipKind::Power8, 0,
                                        sim::SimConfig{});
    blob.push_back(0x00);
    shard::ChipKind kind{};
    int chip_arg = 0;
    sim::SimConfig cfg;
    EXPECT_FALSE(shard::decodeBasicSetup(blob, kind, chip_arg, cfg));
}

TEST(ShardSetup, OldMagicIsRejected)
{
    // A pre-schema "TGB1" blob (top-level scalars only) must fail to
    // decode instead of running with defaulted nested parameters.
    auto blob = shard::encodeBasicSetup(shard::ChipKind::Mini, 2,
                                        sim::SimConfig{});
    shard::ChipKind kind{};
    int chip_arg = 0;
    sim::SimConfig cfg;
    ASSERT_TRUE(shard::decodeBasicSetup(blob, kind, chip_arg, cfg));
    ASSERT_EQ(blob[3], '2');
    blob[3] = '1';
    EXPECT_FALSE(shard::decodeBasicSetup(blob, kind, chip_arg, cfg));
}

TEST(ShardSetup, MutatedBlobsNeverCrashDecodeOrCheck)
{
    // Seeded byte-level mutants of a valid setup blob (bit flips,
    // byte overwrites, truncations, insertions, deletions) through
    // the decoder and sim::configError, the gates a served request
    // passes before it builds a Simulation. Neither may crash; a
    // mutant that passes both re-encodes to a stable blob.
    const auto valid = shard::encodeBasicSetup(shard::ChipKind::Mini,
                                               2, sim::SimConfig{});
    std::mt19937_64 rng(0x7e5e7b10bull);
    int decoded = 0;
    int refused = 0;
    for (int m = 0; m < 10000; ++m) {
        std::vector<std::uint8_t> blob = valid;
        const int edits = 1 + static_cast<int>(rng() % 4);
        for (int e = 0; e < edits; ++e) {
            const std::size_t at =
                blob.empty() ? 0 : rng() % blob.size();
            const auto byte = static_cast<std::uint8_t>(rng());
            switch (rng() % 5) {
            case 0:
                if (!blob.empty())
                    blob[at] ^= static_cast<std::uint8_t>(1u << (byte % 8));
                break;
            case 1:
                if (!blob.empty())
                    blob[at] = byte;
                break;
            case 2:
                blob.resize(at);
                break;
            case 3:
                blob.insert(blob.begin() + static_cast<long>(at), byte);
                break;
            default:
                if (!blob.empty())
                    blob.erase(blob.begin() + static_cast<long>(at));
                break;
            }
        }
        shard::ChipKind kind{};
        int chip_arg = 0;
        sim::SimConfig cfg;
        if (!shard::decodeBasicSetup(blob, kind, chip_arg, cfg))
            continue;
        ++decoded;
        if (!sim::configError(cfg).empty()) {
            ++refused;
            continue;
        }
        const auto again = shard::encodeBasicSetup(kind, chip_arg, cfg);
        shard::ChipKind kind2{};
        int chip_arg2 = 0;
        sim::SimConfig cfg2;
        ASSERT_TRUE(shard::decodeBasicSetup(again, kind2, chip_arg2, cfg2))
            << "mutant " << m;
        EXPECT_EQ(shard::encodeBasicSetup(kind2, chip_arg2, cfg2), again)
            << "mutant " << m;
    }
    // Both gates saw real work, so the loop is not vacuous.
    EXPECT_GT(decoded, 0);
    EXPECT_GT(refused, 0);
    EXPECT_LT(refused, decoded);
}
