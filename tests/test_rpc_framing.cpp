// Wire-framing tests: encode/decode round-trips under every split of the
// byte stream, plus defensive decoding — truncation at every byte offset,
// corrupted length fields, bad magic/version — must yield nullopt or a
// FramingError, never a crash, an over-read, or a bogus envelope.
#include "rpc/frame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.h"

namespace spcache::rpc {
namespace {

Envelope make_envelope(Rng& rng, std::size_t payload_len) {
  Envelope e;
  e.from = static_cast<NodeId>(rng.uniform_index(2000));
  e.to = static_cast<NodeId>(rng.uniform_index(2000));
  e.request_id = rng.next_u64();
  e.is_reply = rng.uniform_index(2) == 1;
  if (e.is_reply) e.status = static_cast<Status>(rng.uniform_index(6));
  e.method = static_cast<MethodId>(rng.uniform_index(0x10000));
  e.deadline_ms = static_cast<std::uint32_t>(rng.uniform_index(120000));
  e.payload.resize(payload_len);
  for (auto& b : e.payload) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  return e;
}

void expect_same(const Envelope& a, const Envelope& b) {
  EXPECT_EQ(a.from, b.from);
  EXPECT_EQ(a.to, b.to);
  EXPECT_EQ(a.request_id, b.request_id);
  EXPECT_EQ(a.is_reply, b.is_reply);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.deadline_ms, b.deadline_ms);
  EXPECT_EQ(a.payload, b.payload);
}

TEST(Framing, RoundtripSingle) {
  Rng rng(1);
  for (const std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{1000}}) {
    const Envelope e = make_envelope(rng, len);
    const auto bytes = encode_frame(e);
    ASSERT_EQ(bytes.size(), kFrameHeaderSize + len);
    FrameDecoder d;
    d.feed(bytes);
    const auto out = d.next();
    ASSERT_TRUE(out.has_value());
    expect_same(e, *out);
    EXPECT_FALSE(d.next().has_value());
    EXPECT_EQ(d.buffered(), 0u);
    EXPECT_EQ(d.stream_offset(), bytes.size());
  }
}

// TCP hands the receiver arbitrary chunkings of the stream. Feed a batch
// of frames one byte at a time and verify each envelope materializes
// exactly when its last byte arrives.
TEST(Framing, RoundtripByteAtATime) {
  Rng rng(2);
  std::vector<Envelope> sent;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 8; ++i) {
    sent.push_back(make_envelope(rng, rng.uniform_index(300)));
    encode_frame(sent.back(), stream);
  }
  FrameDecoder d;
  std::vector<Envelope> got;
  for (const std::uint8_t byte : stream) {
    d.feed(std::span(&byte, 1));
    while (auto e = d.next()) got.push_back(std::move(*e));
  }
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) expect_same(sent[i], got[i]);
}

// Random chunk sizes (the realistic case) across many frames.
TEST(Framing, RoundtripRandomChunks) {
  Rng rng(3);
  std::vector<Envelope> sent;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 50; ++i) {
    sent.push_back(make_envelope(rng, rng.uniform_index(2000)));
    encode_frame(sent.back(), stream);
  }
  FrameDecoder d;
  std::vector<Envelope> got;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t n = std::min(stream.size() - pos, 1 + rng.uniform_index(997));
    d.feed(std::span(stream.data() + pos, n));
    pos += n;
    while (auto e = d.next()) got.push_back(std::move(*e));
  }
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) expect_same(sent[i], got[i]);
}

// Every strict prefix of a valid frame decodes to "not yet" — nullopt, no
// throw, no envelope. This covers every truncation point of header and
// payload alike.
TEST(Framing, EveryTruncationPointIsIncomplete) {
  Rng rng(4);
  const Envelope e = make_envelope(rng, 37);
  const auto bytes = encode_frame(e);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameDecoder d;
    d.feed(std::span(bytes.data(), cut));
    EXPECT_FALSE(d.next().has_value()) << "prefix of " << cut << " bytes produced an envelope";
    EXPECT_EQ(d.buffered(), cut);
  }
}

// The header carries the relative deadline at offset 24 (little endian),
// ahead of the payload length at 28 — pin the exact wire bytes so an
// accidental layout change cannot pass as a refactor.
TEST(Framing, DeadlineRidesAtOffset24) {
  Rng rng(11);
  Envelope e = make_envelope(rng, 5);
  e.deadline_ms = 0x0A0B0C0Du;
  const auto bytes = encode_frame(e);
  ASSERT_GE(bytes.size(), kFrameHeaderSize);
  EXPECT_EQ(bytes[24], 0x0D);
  EXPECT_EQ(bytes[25], 0x0C);
  EXPECT_EQ(bytes[26], 0x0B);
  EXPECT_EQ(bytes[27], 0x0A);
  FrameDecoder d;
  d.feed(bytes);
  const auto out = d.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->deadline_ms, 0x0A0B0C0Du);
}

TEST(Framing, BadMagicRejected) {
  Rng rng(5);
  auto bytes = encode_frame(make_envelope(rng, 16));
  for (std::size_t i = 0; i < 4; ++i) {
    auto corrupt = bytes;
    corrupt[i] ^= 0xFF;
    FrameDecoder d;
    d.feed(corrupt);
    EXPECT_THROW(d.next(), FramingError) << "magic byte " << i;
  }
}

TEST(Framing, BadVersionRejected) {
  Rng rng(6);
  auto bytes = encode_frame(make_envelope(rng, 16));
  bytes[4] = kFrameVersion + 1;
  FrameDecoder d;
  d.feed(bytes);
  EXPECT_THROW(d.next(), FramingError);
}

// Every Status value survives the v3 header (flags bits 1-3) under every
// chunking of the stream, and the reply payload arrives exactly as sent —
// no status byte in front of it.
TEST(Framing, EveryStatusRoundtripsThroughV3Header) {
  Rng rng(21);
  std::vector<Envelope> sent;
  std::vector<std::uint8_t> stream;
  for (std::uint8_t st = 0; st <= static_cast<std::uint8_t>(Status::kDeadlineExpired); ++st) {
    Envelope e = make_envelope(rng, 3 + st);
    e.is_reply = true;
    e.status = static_cast<Status>(st);
    encode_frame(e, stream);
    EXPECT_EQ(stream[stream.size() - e.payload.size() - kFrameHeaderSize + 4], 3)
        << "frame version";
    sent.push_back(std::move(e));
  }
  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    FrameDecoder d;
    std::vector<Envelope> got;
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      d.feed(std::span(stream.data() + at, std::min(chunk, stream.size() - at)));
      while (auto e = d.next()) got.push_back(std::move(*e));
    }
    ASSERT_EQ(got.size(), sent.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < sent.size(); ++i) expect_same(sent[i], got[i]);
  }
}

// Flags bits that mean nothing — bits 4-7, a status past kDeadlineExpired,
// a status on a request — and frames of the previous version are
// FramingErrors, never silently reinterpreted.
TEST(Framing, UndefinedFlagBitsAndV2FramesRejected) {
  Rng rng(22);
  Envelope reply = make_envelope(rng, 8);
  reply.is_reply = true;
  reply.status = Status::kOk;
  const auto clean = encode_frame(reply);
  std::vector<std::uint8_t> bad_flags = {0x10, 0x20, 0x40, 0x80,  // bits 4-7
                                         0x0D, 0x0F,              // status 6 and 7
                                         0x02, 0x0A};             // status on a request
  for (const std::uint8_t flags : bad_flags) {
    auto bytes = clean;
    bytes[5] = flags;
    FrameDecoder d;
    d.feed(bytes);
    EXPECT_THROW(d.next(), FramingError) << "flags 0x" << std::hex << int{flags};
  }
  auto v2 = clean;
  v2[4] = 2;
  FrameDecoder d;
  d.feed(v2);
  EXPECT_THROW(d.next(), FramingError);
}

// A corrupted length field must be rejected *before* the decoder waits
// for (or allocates) the bytes it demands.
TEST(Framing, OversizedLengthRejectedEagerly) {
  Rng rng(7);
  auto bytes = encode_frame(make_envelope(rng, 16));
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxFramePayload) + 1;
  std::memcpy(bytes.data() + 28, &huge, sizeof(huge));
  FrameDecoder d;
  // Feed only the header: the length is invalid, so the decoder must not
  // sit waiting for a gigabyte that will never come.
  d.feed(std::span(bytes.data(), kFrameHeaderSize));
  EXPECT_THROW(d.next(), FramingError);
}

// After a framing error the decoder is poisoned: the stream position is
// unrecoverable, so every further call must keep throwing (the transport
// reacts by dropping the connection).
TEST(Framing, PoisonedAfterError) {
  Rng rng(8);
  auto bytes = encode_frame(make_envelope(rng, 8));
  bytes[0] ^= 0xFF;
  FrameDecoder d;
  d.feed(bytes);
  EXPECT_THROW(d.next(), FramingError);
  d.feed(encode_frame(make_envelope(rng, 8)));  // a pristine frame can't revive it
  EXPECT_THROW(d.next(), FramingError);
}

// Fuzz the header: flip random bytes of random frames and interleave with
// clean frames. Every next() either yields an envelope, says "incomplete",
// or throws FramingError — and a fresh decoder on the clean tail still
// works. No crash, no over-read (ASan/TSan presets watch for that).
TEST(Framing, HeaderFuzzNeverCrashes) {
  Rng rng(9);
  for (int round = 0; round < 200; ++round) {
    auto bytes = encode_frame(make_envelope(rng, rng.uniform_index(64)));
    const std::size_t flips = 1 + rng.uniform_index(4);
    for (std::size_t i = 0; i < flips; ++i) {
      bytes[rng.uniform_index(bytes.size())] ^= static_cast<std::uint8_t>(
          1 + rng.uniform_index(255));
    }
    FrameDecoder d;
    d.feed(bytes);
    try {
      while (d.next()) {
      }
    } catch (const FramingError&) {
      // acceptable outcome; decoder is poisoned from here on
    }
  }
}

// The error message carries the stream offset of the offending frame —
// satellite requirement for wire debugging.
TEST(Framing, ErrorsCarryStreamOffset) {
  Rng rng(10);
  std::vector<std::uint8_t> stream = encode_frame(make_envelope(rng, 10));
  const std::size_t bad_at = stream.size();
  auto bad = encode_frame(make_envelope(rng, 10));
  bad[1] ^= 0x55;
  stream.insert(stream.end(), bad.begin(), bad.end());
  FrameDecoder d;
  d.feed(stream);
  ASSERT_TRUE(d.next().has_value());
  try {
    d.next();
    FAIL() << "corrupted second frame decoded";
  } catch (const FramingError& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(bad_at)), std::string::npos)
        << "error text missing offset " << bad_at << ": " << e.what();
  }
}

// The header-only encode is what the scatter-gather write path uses: the
// header rides one iovec, the payload another. Byte-for-byte equal to the
// contiguous encoding or the two paths would disagree on the wire.
TEST(Framing, HeaderOnlyEncodeMatchesFullEncode) {
  Rng rng(11);
  for (const std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{4096}}) {
    const Envelope e = make_envelope(rng, len);
    const auto full = encode_frame(e);
    const auto header = encode_frame_header(e, e.payload.size());
    ASSERT_EQ(full.size(), kFrameHeaderSize + len);
    EXPECT_EQ(0, std::memcmp(header.data(), full.data(), kFrameHeaderSize));
  }
}

// Direct (zero-copy) receive must produce the identical envelope no matter
// where the stream is split between buffered feed() bytes and bytes read
// straight into the direct window — including splits inside the header,
// exactly at the header/payload boundary, and mid-payload.
TEST(Framing, DirectModeBitExactAtEverySplitPoint) {
  Rng rng(12);
  const Envelope e = make_envelope(rng, FrameDecoder::kDirectPayloadThreshold + 137);
  const auto stream = encode_frame(e);
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameDecoder d;
    d.feed(std::span(stream.data(), split));
    std::optional<Envelope> out = d.next();
    if (!out.has_value() && d.try_begin_direct()) {
      // Push the rest through the writable window in ragged chunks so the
      // commit accounting is exercised at every boundary too.
      std::size_t off = split;
      std::size_t chunk = 1;
      while (!out.has_value()) {
        auto window = d.direct_window();
        ASSERT_FALSE(window.empty()) << "split=" << split;
        const std::size_t n = std::min({chunk, window.size(), stream.size() - off});
        std::memcpy(window.data(), stream.data() + off, n);
        off += n;
        out = d.commit_direct(n);
        chunk = chunk * 3 + 1;  // 1, 4, 13, 40, ... ragged on purpose
      }
      EXPECT_EQ(off, stream.size()) << "split=" << split;
      EXPECT_FALSE(d.in_direct()) << "split=" << split;
    } else if (!out.has_value()) {
      // Too little buffered to engage (mid-header) — finish buffered.
      d.feed(std::span(stream.data() + split, stream.size() - split));
      out = d.next();
    }
    ASSERT_TRUE(out.has_value()) << "split=" << split;
    expect_same(e, *out);
    EXPECT_EQ(d.buffered(), 0u) << "split=" << split;
    EXPECT_EQ(d.stream_offset(), stream.size()) << "split=" << split;
  }
}

// Small payloads stay on the buffered path — tracking a direct window for
// them would cost more than the copy it saves.
TEST(Framing, DirectModeRefusesSmallPayloads) {
  Rng rng(13);
  const Envelope e = make_envelope(rng, FrameDecoder::kDirectPayloadThreshold - 1);
  const auto stream = encode_frame(e);
  FrameDecoder d;
  d.feed(std::span(stream.data(), kFrameHeaderSize + 10));
  EXPECT_FALSE(d.try_begin_direct());
  EXPECT_FALSE(d.in_direct());
  d.feed(std::span(stream.data() + kFrameHeaderSize + 10, stream.size() - kFrameHeaderSize - 10));
  const auto out = d.next();
  ASSERT_TRUE(out.has_value());
  expect_same(e, *out);
}

// A direct-mode frame in the middle of a stream: buffered frames before
// and after it must decode unchanged, with the stream offset continuous
// across the zero-copy handoff.
TEST(Framing, DirectModeInterleavesWithBufferedFrames) {
  Rng rng(14);
  const Envelope before = make_envelope(rng, 64);
  const Envelope big = make_envelope(rng, FrameDecoder::kDirectPayloadThreshold * 2);
  const Envelope after = make_envelope(rng, 64);
  const auto big_bytes = encode_frame(big);

  FrameDecoder d;
  d.feed(encode_frame(before));
  // Partial big frame: header + a sliver of payload.
  const std::size_t sliver = kFrameHeaderSize + 100;
  d.feed(std::span(big_bytes.data(), sliver));

  auto out = d.next();
  ASSERT_TRUE(out.has_value());
  expect_same(before, *out);
  ASSERT_FALSE(d.next().has_value());

  ASSERT_TRUE(d.try_begin_direct());
  std::size_t off = sliver;
  std::optional<Envelope> got;
  while (!got.has_value()) {
    auto window = d.direct_window();
    const std::size_t n = std::min(window.size(), big_bytes.size() - off);
    std::memcpy(window.data(), big_bytes.data() + off, n);
    off += n;
    got = d.commit_direct(n);
  }
  expect_same(big, *got);

  d.feed(encode_frame(after));
  out = d.next();
  ASSERT_TRUE(out.has_value());
  expect_same(after, *out);
  EXPECT_EQ(d.stream_offset(),
            encode_frame(before).size() + big_bytes.size() + encode_frame(after).size());
}

// try_begin_direct validates the header exactly like next(): a corrupt
// header throws (and poisons) instead of sizing a bogus payload.
TEST(Framing, DirectModeRejectsCorruptHeader) {
  Rng rng(15);
  auto stream = encode_frame(make_envelope(rng, FrameDecoder::kDirectPayloadThreshold + 1));
  stream[0] ^= 0xFF;  // bad magic
  FrameDecoder d;
  d.feed(std::span(stream.data(), kFrameHeaderSize + 5));
  EXPECT_THROW(d.try_begin_direct(), FramingError);
  EXPECT_THROW(d.next(), FramingError);  // poisoned
}

}  // namespace
}  // namespace spcache::rpc
