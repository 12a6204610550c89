// Wire-format tests: frame round trips, codec shapes, and — the point —
// decoding under hostile input.  A frame decoder sits on the network
// boundary of the store service, so every malformed byte stream must end
// in a clean decode error (and a dropped connection), never a crash, an
// over-read, or an absurd allocation.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "net/codec.h"
#include "net/frame.h"
#include "util/xorwow.h"

using namespace gf;
using net::decode_status;
using net::frame;
using net::frame_decoder;
using net::opcode;
using net::wire_status;

namespace {

std::vector<uint64_t> some_keys(size_t n, uint64_t seed = 7) {
  return util::hashed_xorwow_items(n, seed);
}

/// Decode exactly one frame from a complete buffer.
frame decode_one(const std::vector<uint8_t>& bytes) {
  frame_decoder dec;
  dec.feed(bytes.data(), bytes.size());
  frame f;
  EXPECT_EQ(dec.next(f), decode_status::ok);
  return f;
}

}  // namespace

TEST(NetFrame, Crc32KnownVector) {
  // The classic check value: CRC-32("123456789") — guards the slice-by-8
  // tables against any regression to a non-standard polynomial.
  const char* s = "123456789";
  EXPECT_EQ(net::crc32(reinterpret_cast<const uint8_t*>(s), 9), 0xCBF43926u);
}

TEST(NetFrame, Crc32SlicedMatchesBytewise) {
  // Sliced fold and the byte tail must agree on every length mod 8.
  auto bytes = util::hashed_xorwow_items(40, 3);
  const uint8_t* p = reinterpret_cast<const uint8_t*>(bytes.data());
  for (size_t n = 0; n <= 64; ++n) {
    uint32_t ref = 0xFFFF'FFFFu;
    for (size_t i = 0; i < n; ++i)
      ref = net::detail::kCrcTables[0][(ref ^ p[i]) & 0xFFu] ^ (ref >> 8);
    EXPECT_EQ(net::crc32(p, n), ref ^ 0xFFFF'FFFFu) << "length " << n;
  }
}

TEST(NetFrame, RequestRoundTrip) {
  auto keys = some_keys(100);
  auto bytes = net::encode_keys_request(opcode::insert, 42, keys, 3);
  frame f = decode_one(bytes);
  EXPECT_EQ(f.op, opcode::insert);
  EXPECT_EQ(f.status, wire_status::ok);
  EXPECT_EQ(f.sequence, 42u);
  EXPECT_EQ(f.shard_hint, 3u);
  EXPECT_EQ(f.key_count, 100u);
  EXPECT_EQ(net::validate_request(f), nullptr);
  EXPECT_EQ(net::decode_keys(f), keys);
}

TEST(NetFrame, CountedRequestRoundTrip) {
  auto keys = some_keys(33);
  std::vector<uint64_t> counts(33);
  for (size_t i = 0; i < counts.size(); ++i) counts[i] = i + 1;
  frame f = decode_one(net::encode_insert_counted_request(9, keys, counts));
  EXPECT_EQ(net::validate_request(f), nullptr);
  std::vector<uint64_t> k2, c2;
  net::decode_pairs(f, k2, c2);
  EXPECT_EQ(k2, keys);
  EXPECT_EQ(c2, counts);
}

TEST(NetFrame, ResponseRoundTrips) {
  frame f = decode_one(
      net::encode_pair_response(opcode::insert, 7, 50, 48, 2));
  EXPECT_EQ(net::validate_response(f), nullptr);
  auto pr = net::decode_pair_response(f);
  EXPECT_EQ(pr.ok, 48u);
  EXPECT_EQ(pr.failed, 2u);

  std::vector<uint64_t> bitmap = {0x5, 0x8000000000000000ull};
  f = decode_one(net::encode_query_response(8, 128, bitmap));
  EXPECT_EQ(net::validate_response(f), nullptr);
  EXPECT_EQ(net::decode_bitmap(f), bitmap);
  EXPECT_TRUE(net::bitmap_test(bitmap, 0));
  EXPECT_FALSE(net::bitmap_test(bitmap, 1));
  EXPECT_TRUE(net::bitmap_test(bitmap, 127));

  f = decode_one(net::encode_maintain_response(9, 2, 3, 10));
  EXPECT_EQ(net::validate_response(f), nullptr);
  auto m = net::decode_maintain_response(f);
  EXPECT_EQ(m.shards_grown, 2u);
  EXPECT_EQ(m.max_depth, 3u);
  EXPECT_EQ(m.total_levels, 10u);

  f = decode_one(net::encode_stats_response(10, "{\"a\":1}"));
  EXPECT_EQ(net::validate_response(f), nullptr);
  EXPECT_EQ(net::decode_text(f), "{\"a\":1}");

  f = decode_one(net::encode_error_response(opcode::snapshot, 11,
                                            wire_status::unsupported,
                                            "no snapshot path"));
  EXPECT_EQ(f.status, wire_status::unsupported);
  EXPECT_EQ(net::decode_text(f), "no snapshot path");
}

TEST(NetFrame, IncrementalByteAtATimeDecode) {
  auto keys = some_keys(17);
  auto bytes = net::encode_keys_request(opcode::query, 5, keys);
  frame_decoder dec;
  frame f;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    dec.feed(&bytes[i], 1);
    ASSERT_EQ(dec.next(f), decode_status::need_more) << "byte " << i;
  }
  dec.feed(&bytes.back(), 1);
  ASSERT_EQ(dec.next(f), decode_status::ok);
  EXPECT_EQ(net::decode_keys(f), keys);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(NetFrame, PipelinedFramesInOneBuffer) {
  std::vector<uint8_t> stream;
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    auto keys = some_keys(10, seq);
    auto bytes = net::encode_keys_request(opcode::insert, seq, keys);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  frame_decoder dec;
  dec.feed(stream.data(), stream.size());
  frame f;
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_EQ(dec.next(f), decode_status::ok);
    EXPECT_EQ(f.sequence, seq);
  }
  EXPECT_EQ(dec.next(f), decode_status::need_more);
}

TEST(NetFrame, TruncatedFrameNeverCompletes) {
  auto bytes = net::encode_keys_request(opcode::insert, 1, some_keys(100));
  frame_decoder dec;
  dec.feed(bytes.data(), bytes.size() / 2);
  frame f;
  // Truncation is not a decode error — only EOF proves the rest will never
  // arrive (the server counts buffered-bytes-at-EOF as a protocol error).
  EXPECT_EQ(dec.next(f), decode_status::need_more);
  EXPECT_GT(dec.buffered(), 0u);
}

TEST(NetFrame, OversizedDeclaredLengthRejectedBeforeBuffering) {
  // 4 length bytes claiming a ~4 GiB frame: the decoder must error out
  // immediately — before waiting for (or allocating) the declared body.
  std::vector<uint8_t> bytes;
  net::put_u32(bytes, 0xFFFF'FF00u);
  frame_decoder dec;
  dec.feed(bytes.data(), bytes.size());
  frame f;
  EXPECT_EQ(dec.next(f), decode_status::error);
  EXPECT_TRUE(dec.poisoned());
  EXPECT_NE(dec.error().find("frame cap"), std::string::npos);
}

TEST(NetFrame, UndersizedDeclaredLengthRejected) {
  std::vector<uint8_t> bytes;
  net::put_u32(bytes, net::kMinFrameLength - 1);
  frame_decoder dec;
  dec.feed(bytes.data(), bytes.size());
  frame f;
  EXPECT_EQ(dec.next(f), decode_status::error);
}

TEST(NetFrame, CorruptMagicVersionOpcodeReservedRejected) {
  auto make = [] {
    return net::encode_keys_request(opcode::insert, 1, some_keys(4));
  };
  struct case_t {
    size_t offset;
    uint8_t value;
    const char* what;
  };
  // Offsets into the encoded frame: magic at 4, version 8, opcode 9,
  // status 10, reserved 11.
  const case_t cases[] = {
      {4, 0xAA, "magic"},      {8, 99, "version"},
      {9, 200, "opcode"},      {10, 77, "status"},
      {11, 1, "reserved"},
  };
  for (const auto& c : cases) {
    auto bytes = make();
    bytes[c.offset] = c.value;
    // Re-seal the CRC so the structural check, not the checksum, fires.
    uint32_t crc = net::crc32(bytes.data() + 4, bytes.size() - 8);
    std::vector<uint8_t> tail;
    net::put_u32(tail, crc);
    std::memcpy(bytes.data() + bytes.size() - 4, tail.data(), 4);
    frame_decoder dec;
    dec.feed(bytes.data(), bytes.size());
    frame f;
    EXPECT_EQ(dec.next(f), decode_status::error) << c.what;
  }
}

TEST(NetFrame, PayloadCorruptionCaughtByCrc) {
  auto bytes = net::encode_keys_request(opcode::insert, 1, some_keys(32));
  bytes[40] ^= 0x01;  // one payload bit
  frame_decoder dec;
  dec.feed(bytes.data(), bytes.size());
  frame f;
  EXPECT_EQ(dec.next(f), decode_status::error);
  EXPECT_NE(dec.error().find("CRC"), std::string::npos);
}

TEST(NetFrame, EveryByteFlipIsRejectedOrStarves) {
  // Flip each byte of a valid frame in turn: the decoder must never hand
  // back a successfully decoded frame (CRC or structure catches it), only
  // error or need_more (when the flip inflates the declared length).
  auto bytes = net::encode_keys_request(opcode::erase, 3, some_keys(16));
  for (size_t i = 0; i < bytes.size(); ++i) {
    auto mutated = bytes;
    mutated[i] ^= 0x40;
    frame_decoder dec;
    dec.feed(mutated.data(), mutated.size());
    frame f;
    EXPECT_NE(dec.next(f), decode_status::ok) << "flipped byte " << i;
  }
}

TEST(NetFrame, PoisonStaysPoisoned) {
  auto good = net::encode_keys_request(opcode::insert, 1, some_keys(4));
  std::vector<uint8_t> bad;
  net::put_u32(bad, net::kMinFrameLength - 7);
  frame_decoder dec;
  dec.feed(bad.data(), bad.size());
  frame f;
  EXPECT_EQ(dec.next(f), decode_status::error);
  // A poisoned decoder rejects forever, even when valid bytes follow.
  dec.feed(good.data(), good.size());
  EXPECT_EQ(dec.next(f), decode_status::error);
}

TEST(NetFrame, RandomGarbageFuzzNeverDecodes) {
  // Random byte streams (which almost never start with a valid length +
  // magic + CRC) must all end in error or starvation — and never crash.
  util::xorwow rng(99);
  for (int round = 0; round < 200; ++round) {
    size_t len = 1 + static_cast<size_t>(rng.next_below(2048));
    std::vector<uint8_t> junk(len);
    for (auto& b : junk) b = static_cast<uint8_t>(rng.next32());
    frame_decoder dec;
    dec.feed(junk.data(), junk.size());
    frame f;
    decode_status st;
    do {
      st = dec.next(f);
    } while (st == decode_status::ok);
    SUCCEED();
  }
}

TEST(NetFrame, MutationFuzzOnValidStream) {
  // Splice random mutations into a valid pipelined stream; whatever the
  // decoder yields, it must be frames it fully validated — never a crash,
  // and never a frame whose payload shape disagrees with its opcode
  // (the two-layer contract the server relies on).
  std::vector<uint8_t> stream;
  for (uint64_t seq = 1; seq <= 8; ++seq) {
    auto bytes = net::encode_keys_request(opcode::query, seq,
                                          some_keys(64, seq));
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  util::xorwow rng(123);
  for (int round = 0; round < 200; ++round) {
    auto mutated = stream;
    int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int i = 0; i < flips; ++i)
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<uint8_t>(1 + rng.next_below(255));
    frame_decoder dec;
    dec.feed(mutated.data(), mutated.size());
    frame f;
    for (;;) {
      decode_status st = dec.next(f);
      if (st != decode_status::ok) break;
      // Any frame that does decode passed CRC — treat it like the server
      // would and shape-check it without crashing.
      (void)net::validate_request(f);
    }
  }
  SUCCEED();
}

TEST(NetFrame, RequestShapeValidation) {
  auto keys = some_keys(8);
  auto bytes = net::encode_keys_request(opcode::insert, 1, keys);
  frame f = decode_one(bytes);

  frame bad = f;
  bad.payload.resize(bad.payload.size() - 8);  // count disagrees with bytes
  EXPECT_NE(net::validate_request(bad), nullptr);

  bad = f;
  bad.key_count = 7;
  EXPECT_NE(net::validate_request(bad), nullptr);

  bad = f;
  bad.status = wire_status::error;  // requests must carry status ok
  EXPECT_NE(net::validate_request(bad), nullptr);

  frame ctrl;
  ctrl.op = opcode::stats;
  EXPECT_EQ(net::validate_request(ctrl), nullptr);
  ctrl.payload.push_back(1);  // control ops are payload-free
  EXPECT_NE(net::validate_request(ctrl), nullptr);
}

TEST(NetFrame, ResponseShapeValidation) {
  const std::vector<uint64_t> two_words = {1, 2};
  frame f = decode_one(net::encode_query_response(1, 100, two_words));
  EXPECT_EQ(net::validate_response(f), nullptr);
  f.key_count = 200;  // 100→200 keys needs 4 words, payload has 2
  EXPECT_NE(net::validate_response(f), nullptr);

  frame pair = decode_one(net::encode_pair_response(opcode::erase, 2, 4, 4, 0));
  EXPECT_EQ(net::validate_response(pair), nullptr);
  pair.payload.pop_back();
  EXPECT_NE(net::validate_response(pair), nullptr);
}

TEST(NetFrame, EmptyBatchIsLegal) {
  // Zero-key batches are well-formed no-ops, not protocol errors: a
  // pipelined client may legitimately flush an empty tail batch.
  std::vector<uint64_t> none;
  frame f = decode_one(net::encode_keys_request(opcode::insert, 1, none));
  EXPECT_EQ(net::validate_request(f), nullptr);
  EXPECT_EQ(f.key_count, 0u);
}

TEST(NetFrame, BatchSizeCapEnforcedByEncoders) {
  std::vector<uint64_t> huge(net::kMaxKeysPerFrame + 1, 1);
  EXPECT_THROW(net::encode_keys_request(opcode::insert, 1, huge),
               std::length_error);
}

TEST(NetFrame, BatchSizeBoundaryIsTyped) {
  // Exactly the cap encodes; one past it throws the *typed* error — the
  // u32 key_count field can never be handed a silently-truncated count.
  std::vector<uint64_t> at_cap(net::kMaxKeysPerFrame, 1);
  frame f = decode_one(net::encode_keys_request(opcode::query, 9, at_cap));
  EXPECT_EQ(net::validate_request(f), nullptr);
  EXPECT_EQ(f.key_count, net::kMaxKeysPerFrame);

  std::vector<uint64_t> over(net::kMaxKeysPerFrame + 1, 1);
  EXPECT_THROW(net::encode_keys_request(opcode::erase, 1, over),
               net::batch_too_large);
  EXPECT_THROW(net::encode_insert_counted_request(1, over, over),
               net::batch_too_large);
  // Response encoders carry the same cast and the same guard.
  EXPECT_THROW(net::encode_count_response(1, over), net::batch_too_large);
}

TEST(NetFrame, TruncatedCountShapedFrameIsRejected) {
  // The aftermath of an unchecked size_t → u32 narrowing is a key_count
  // far below the payload length: shape validation must reject exactly
  // that disagreement instead of misreading the batch.
  auto keys = some_keys(64);
  frame f;
  f.op = opcode::insert;
  f.sequence = 3;
  f.key_count = 5;  // lies: payload carries 64 keys
  net::put_u64s(f.payload, keys);
  frame decoded = decode_one(net::encode_frame(f));
  EXPECT_NE(net::validate_request(decoded), nullptr);
}

TEST(NetFrame, SyncChunkRoundTrip) {
  std::vector<uint8_t> blob(5000);
  for (size_t i = 0; i < blob.size(); ++i)
    blob[i] = static_cast<uint8_t>(i * 31);
  auto half = std::span<const uint8_t>(blob).subspan(0, 2500);
  auto rest = std::span<const uint8_t>(blob).subspan(2500);

  frame c0 = decode_one(
      net::encode_sync_chunk(7, 0, 2, /*repl_seq=*/99, blob.size(), half));
  EXPECT_EQ(net::validate_response(c0), nullptr);
  EXPECT_EQ(c0.op, opcode::sync);
  EXPECT_EQ(c0.shard_hint, 0u);
  EXPECT_EQ(c0.key_count, 2u);
  auto h = net::decode_sync_chunk_header(c0);
  EXPECT_EQ(h.repl_seq, 99u);
  EXPECT_EQ(h.total_bytes, blob.size());
  ASSERT_EQ(c0.payload.size(), net::kSyncChunk0Header + half.size());
  EXPECT_EQ(0, std::memcmp(c0.payload.data() + net::kSyncChunk0Header,
                           half.data(), half.size()));

  frame c1 = decode_one(net::encode_sync_chunk(7, 1, 2, 0, 0, rest));
  EXPECT_EQ(net::validate_response(c1), nullptr);
  EXPECT_EQ(c1.shard_hint, 1u);
  ASSERT_EQ(c1.payload.size(), rest.size());
  EXPECT_EQ(0, std::memcmp(c1.payload.data(), rest.data(), rest.size()));
}

TEST(NetFrame, SyncShapes) {
  // Plain sync request: empty control frame.
  frame req = decode_one(net::encode_control_request(opcode::sync, 1));
  EXPECT_EQ(net::validate_request(req), nullptr);
  req.payload.push_back(0);
  EXPECT_NE(net::validate_request(req), nullptr);

  // Invite: exactly 8 payload bytes under the invite hint.
  frame inv = decode_one(net::encode_sync_invite(1, 7717));
  EXPECT_EQ(net::validate_request(inv), nullptr);
  EXPECT_EQ(inv.shard_hint, net::kSyncInviteHint);
  EXPECT_EQ(net::decode_sync_invite(inv), 7717);
  inv.payload.pop_back();
  EXPECT_NE(net::validate_request(inv), nullptr);

  // Chunk responses: zero totals, out-of-range indices, and a chunk 0
  // shorter than its header are all malformed.
  frame bad = decode_one(net::encode_sync_chunk(1, 0, 1, 0, 0, {}));
  EXPECT_EQ(net::validate_response(bad), nullptr);
  bad.key_count = 0;
  EXPECT_NE(net::validate_response(bad), nullptr);
  bad.key_count = 1;
  bad.shard_hint = 1;  // index == total
  EXPECT_NE(net::validate_response(bad), nullptr);
  bad.shard_hint = 0;
  bad.payload.resize(net::kSyncChunk0Header - 1);
  EXPECT_NE(net::validate_response(bad), nullptr);
}

TEST(NetFrame, OneLaneResumeAndDeltaKeepThePreLaneLayout) {
  // A one-lane resume request is the pre-lane scalar request: the resume
  // hint, no key count, and one 8-byte last-applied sequence.
  const uint64_t last = 0x0123456789ABCDEFull;
  const std::vector<uint8_t> req =
      net::encode_sync_resume_request(5, std::span<const uint64_t>(&last, 1));
  ASSERT_EQ(req.size(), net::kFrameOverhead + 8);
  EXPECT_EQ(net::get_u32(req.data() + 12), net::kSyncResumeHint);
  EXPECT_EQ(net::get_u32(req.data() + 16), 0u);
  EXPECT_EQ(net::get_u64(req.data() + 20), 5u);
  EXPECT_EQ(net::get_u64(req.data() + 28), last);
  frame rf = decode_one(req);
  EXPECT_EQ(rf.op, opcode::sync);
  EXPECT_EQ(net::validate_request(rf), nullptr);
  EXPECT_EQ(net::decode_sync_resume_lanes(rf), std::vector<uint64_t>{last});

  // A one-lane delta accept is the pre-lane scalar (resume_from, upto)
  // pair: 16 payload bytes under the delta hint.
  const net::sync_delta_header span{41, 97};
  const std::vector<uint8_t> acc = net::encode_sync_delta_response(
      6, std::span<const net::sync_delta_header>(&span, 1));
  ASSERT_EQ(acc.size(), net::kFrameOverhead + 16);
  EXPECT_EQ(net::get_u32(acc.data() + 12), net::kSyncDeltaHint);
  EXPECT_EQ(net::get_u32(acc.data() + 16), 0u);
  EXPECT_EQ(net::get_u64(acc.data() + 20), 6u);
  EXPECT_EQ(net::get_u64(acc.data() + 28), 41u);
  EXPECT_EQ(net::get_u64(acc.data() + 36), 97u);
  frame af = decode_one(acc);
  EXPECT_EQ(net::validate_response(af), nullptr);
  const auto lanes = net::decode_sync_delta_lanes(af);
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0].resume_from, 41u);
  EXPECT_EQ(lanes[0].upto, 97u);

  // A payload that is not a whole number of lanes is malformed.
  af.payload.resize(12);
  EXPECT_NE(net::validate_response(af), nullptr);
}
