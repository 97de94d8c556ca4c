// Wire framing for the TCP transport: one envelope per frame.
//
// A frame is a fixed 32-byte little-endian header followed by the payload:
//
//   offset  size  field
//        0     4  magic      0x53504357 ("SPCW")
//        4     1  version    kFrameVersion (3)
//        5     1  flags      bit 0 = is_reply, bits 1-3 = reply Status
//                            (0 on requests), bits 4-7 = 0
//        6     2  method id
//        8     4  from node id
//       12     4  to node id
//       16     8  request id
//       24     4  deadline, milliseconds of remaining budget (0 = none)
//       28     4  payload length (bytes that follow)
//
// Version 2 added the deadline field (v1 was 28 bytes without it). The
// deadline is relative, not a wall-clock timestamp, so it survives clock
// skew between processes; the receiving RpcNode measures it against its
// own arrival stamp to shed requests whose caller has already given up.
// Version 3 moved a reply's Status from the payload's first byte into the
// flags, so the payload is the handler's body as written and the receiver
// moves it into the Reply without a copy.
//
// The payload is the envelope body unchanged — the same length-delimited
// bytes the in-process transport hands to handlers, so the two backends
// are interchangeable above this layer.
//
// Decoding is incremental and defensive: `FrameDecoder` accepts arbitrary
// byte chunks (TCP has no message boundaries) and validates magic,
// version, flags and payload length *before* trusting the length field, so a
// corrupted or hostile stream yields a `FramingError` — never a crash, an
// over-read, or an unbounded allocation. A decoder that has thrown is
// poisoned (the stream position is unrecoverable); the connection must be
// dropped, which is exactly what TcpTransport does.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "rpc/transport.h"

namespace spcache::rpc {

inline constexpr std::uint32_t kFrameMagic = 0x53504357u;  // "SPCW" little-endian
inline constexpr std::uint8_t kFrameVersion = 3;
inline constexpr std::size_t kFrameHeaderSize = 32;
// Upper bound on a single payload: large enough for any piece this repo
// moves, small enough that a corrupted length field cannot demand an
// absurd allocation or stall the stream forever.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 30;  // 1 GiB

// A malformed frame header (bad magic, unknown version, undefined flag
// bits or status, oversized length). Carries the byte offset of the offending frame within the
// decoder's stream for wire debugging.
class FramingError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Append the framed encoding of `envelope` to `out` (header + payload).
void encode_frame(const Envelope& envelope, std::vector<std::uint8_t>& out);
std::vector<std::uint8_t> encode_frame(const Envelope& envelope);

// Header-only encode for scatter-gather senders: fills a 32-byte scratch
// with the frame header of an envelope whose payload is `payload_len`
// bytes, so the payload itself can ride a second iovec instead of being
// copied behind the header.
std::array<std::uint8_t, kFrameHeaderSize> encode_frame_header(const Envelope& envelope,
                                                               std::size_t payload_len);

// Incremental frame parser for one byte stream (one TCP connection).
class FrameDecoder {
 public:
  // Buffer raw stream bytes. Never throws; validation happens in next().
  void feed(std::span<const std::uint8_t> data);

  // Extract the next complete envelope, or nullopt while the buffered
  // bytes end mid-frame. Throws FramingError on a header that can never
  // be valid (bad magic / version / flags / oversized length); after a
  // throw the decoder is poisoned and every further call throws.
  std::optional<Envelope> next();

  // Bytes buffered but not yet consumed by next().
  std::size_t buffered() const { return buf_.size() - pos_; }
  // Total stream bytes consumed as complete frames (error offsets are
  // relative to the stream start, same coordinate system).
  std::uint64_t stream_offset() const { return stream_offset_; }

  // --- Direct (zero-copy) receive of large payloads --------------------
  // When the buffered bytes start a frame whose payload is at least
  // `min_payload` and the rest of that payload has not arrived yet, the
  // decoder can switch to direct mode: it sizes the envelope's payload
  // vector up front, moves the already-buffered body prefix into it, and
  // exposes the unfilled tail as a writable window. The transport then
  // reads (readv) straight into the window — the payload bytes never pass
  // through the decoder's internal buffer, so a multi-megabyte frame costs
  // one copy (kernel -> payload) instead of two.
  //
  // Call after next() has drained every complete frame. Returns true if
  // direct mode engaged (or was already engaged). Validates the header
  // exactly like next() — throws FramingError on a header that can never
  // be valid.
  bool try_begin_direct(std::size_t min_payload = kDirectPayloadThreshold);
  bool in_direct() const { return direct_; }
  // Writable unfilled tail of the pending payload. Only valid in direct
  // mode; invalidated by commit_direct.
  std::span<std::uint8_t> direct_window();
  // Account `n` bytes just read into the window. Returns the completed
  // envelope once the payload is full, nullopt while bytes remain.
  std::optional<Envelope> commit_direct(std::size_t n);

  // Payloads at least this large take the direct path (smaller ones are
  // cheaper to pass through the buffer than to track per-frame).
  static constexpr std::size_t kDirectPayloadThreshold = 4096;

 private:
  // Shared header validation: throws FramingError (and poisons) on a
  // header that can never be valid; returns the payload length.
  std::uint32_t validate_header(const std::uint8_t* h);
  // Envelope fields of a validated header (payload left empty).
  static Envelope parse_header(const std::uint8_t* h);

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;             // consumed prefix of buf_
  std::uint64_t stream_offset_ = 0; // stream position of buf_[pos_]
  bool poisoned_ = false;
  // Direct-mode state: the pending envelope (payload sized to the full
  // frame length) and how much of the payload has landed.
  bool direct_ = false;
  Envelope direct_env_;
  std::size_t direct_filled_ = 0;
};

}  // namespace spcache::rpc
