#include "rpc/frame.h"

#include <cstring>
#include <string>

namespace spcache::rpc {

namespace {

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

constexpr std::uint8_t kFlagIsReply = 0x01;
constexpr unsigned kStatusShift = 1;
constexpr std::uint8_t kStatusMask = 0x0E;
constexpr std::uint8_t kMaxStatus = static_cast<std::uint8_t>(Status::kDeadlineExpired);

}  // namespace

void encode_frame(const Envelope& envelope, std::vector<std::uint8_t>& out) {
  const auto header = encode_frame_header(envelope, envelope.payload.size());
  out.reserve(out.size() + kFrameHeaderSize + envelope.payload.size());
  out.insert(out.end(), header.begin(), header.end());
  out.insert(out.end(), envelope.payload.begin(), envelope.payload.end());
}

std::array<std::uint8_t, kFrameHeaderSize> encode_frame_header(const Envelope& envelope,
                                                               std::size_t payload_len) {
  std::array<std::uint8_t, kFrameHeaderSize> h;
  auto put32 = [&](std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) h[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  put32(0, kFrameMagic);
  h[4] = kFrameVersion;
  h[5] = envelope.is_reply ? static_cast<std::uint8_t>(
                                 kFlagIsReply | (static_cast<std::uint8_t>(envelope.status)
                                                 << kStatusShift))
                           : 0;
  h[6] = static_cast<std::uint8_t>(envelope.method);
  h[7] = static_cast<std::uint8_t>(envelope.method >> 8);
  put32(8, envelope.from);
  put32(12, envelope.to);
  for (int i = 0; i < 8; ++i) {
    h[16 + i] = static_cast<std::uint8_t>(envelope.request_id >> (8 * i));
  }
  put32(24, envelope.deadline_ms);
  put32(28, static_cast<std::uint32_t>(payload_len));
  return h;
}

std::vector<std::uint8_t> encode_frame(const Envelope& envelope) {
  std::vector<std::uint8_t> out;
  encode_frame(envelope, out);
  return out;
}

void FrameDecoder::feed(std::span<const std::uint8_t> data) {
  // Compact before growing: once the consumed prefix dominates the buffer,
  // shifting the live tail down keeps the buffer near one frame's size
  // instead of growing with the whole connection's history.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::uint32_t FrameDecoder::validate_header(const std::uint8_t* h) {
  const std::uint32_t magic = get_u32(h);
  if (magic != kFrameMagic) {
    poisoned_ = true;
    throw FramingError("bad frame magic 0x" + std::to_string(magic) + " at stream offset " +
                       std::to_string(stream_offset_));
  }
  const std::uint8_t version = h[4];
  if (version != kFrameVersion) {
    poisoned_ = true;
    throw FramingError("unsupported frame version " + std::to_string(version) +
                       " at stream offset " + std::to_string(stream_offset_));
  }
  const std::uint8_t flags = h[5];
  const std::uint8_t status = (flags & kStatusMask) >> kStatusShift;
  if ((flags & ~(kFlagIsReply | kStatusMask)) != 0 || status > kMaxStatus ||
      (status != 0 && (flags & kFlagIsReply) == 0)) {
    poisoned_ = true;
    throw FramingError("undefined frame flags 0x" + std::to_string(flags) +
                       " at stream offset " + std::to_string(stream_offset_));
  }
  const std::uint32_t payload_len = get_u32(h + 28);
  if (payload_len > kMaxFramePayload) {
    poisoned_ = true;
    throw FramingError("frame payload length " + std::to_string(payload_len) +
                       " exceeds the " + std::to_string(kMaxFramePayload) +
                       "-byte cap at stream offset " + std::to_string(stream_offset_));
  }
  return payload_len;
}

Envelope FrameDecoder::parse_header(const std::uint8_t* h) {
  Envelope envelope;
  envelope.is_reply = (h[5] & kFlagIsReply) != 0;
  envelope.status = static_cast<Status>((h[5] & kStatusMask) >> kStatusShift);
  envelope.method = get_u16(h + 6);
  envelope.from = get_u32(h + 8);
  envelope.to = get_u32(h + 12);
  envelope.request_id = get_u64(h + 16);
  envelope.deadline_ms = get_u32(h + 24);
  return envelope;
}

std::optional<Envelope> FrameDecoder::next() {
  if (poisoned_) throw FramingError("FrameDecoder: poisoned by an earlier framing error");
  if (direct_) return std::nullopt;  // mid-frame: bytes go through commit_direct
  if (buffered() < kFrameHeaderSize) return std::nullopt;
  const std::uint8_t* h = buf_.data() + pos_;
  const std::uint32_t payload_len = validate_header(h);
  if (buffered() < kFrameHeaderSize + payload_len) return std::nullopt;

  Envelope envelope = parse_header(h);
  const std::uint8_t* body = h + kFrameHeaderSize;
  envelope.payload.assign(body, body + payload_len);

  pos_ += kFrameHeaderSize + payload_len;
  stream_offset_ += kFrameHeaderSize + payload_len;
  return envelope;
}

bool FrameDecoder::try_begin_direct(std::size_t min_payload) {
  if (direct_) return true;
  if (poisoned_) throw FramingError("FrameDecoder: poisoned by an earlier framing error");
  if (buffered() < kFrameHeaderSize) return false;
  const std::uint8_t* h = buf_.data() + pos_;
  const std::uint32_t payload_len = validate_header(h);
  // Small frames are cheaper through the buffer; complete frames belong to
  // next() (the caller drains those first).
  if (payload_len < min_payload) return false;
  if (buffered() >= kFrameHeaderSize + payload_len) return false;

  direct_env_ = parse_header(h);
  direct_env_.payload.resize(payload_len);
  // Move the body prefix that already arrived, then hand the tail to the
  // transport as the receive target.
  const std::size_t prefix = buffered() - kFrameHeaderSize;
  std::memcpy(direct_env_.payload.data(), h + kFrameHeaderSize, prefix);
  direct_filled_ = prefix;
  buf_.clear();
  pos_ = 0;
  direct_ = true;
  return true;
}

std::span<std::uint8_t> FrameDecoder::direct_window() {
  if (!direct_) return {};
  return {direct_env_.payload.data() + direct_filled_,
          direct_env_.payload.size() - direct_filled_};
}

std::optional<Envelope> FrameDecoder::commit_direct(std::size_t n) {
  direct_filled_ += n;
  if (direct_filled_ < direct_env_.payload.size()) return std::nullopt;
  direct_ = false;
  stream_offset_ += kFrameHeaderSize + direct_env_.payload.size();
  direct_filled_ = 0;
  return std::move(direct_env_);
}

}  // namespace spcache::rpc
