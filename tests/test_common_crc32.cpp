// CRC-32 correctness: standard check value, incrementality, sensitivity,
// and crc32_combine against the CRC of the concatenated bytes.
#include "common/crc32.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "erasure/rs_code.h"

namespace spcache {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
  return v;
}

std::uint32_t crc_of(const std::vector<std::uint8_t>& v, std::size_t from, std::size_t len) {
  return crc32(std::span<const std::uint8_t>(v.data() + from, len));
}

std::vector<std::uint8_t> bytes_of(const char* s) {
  std::vector<std::uint8_t> v(std::strlen(s));
  std::memcpy(v.data(), s, v.size());
  return v;
}

TEST(Crc32, StandardCheckValue) {
  // The canonical CRC-32/IEEE test vector.
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(crc32({}), 0x00000000u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const auto data = bytes_of("the quick brown fox jumps over the lazy dog");
  const auto whole = crc32(data);
  for (std::size_t cut = 0; cut <= data.size(); cut += 7) {
    auto state = crc32_init();
    state = crc32_update(state, std::span(data).subspan(0, cut));
    state = crc32_update(state, std::span(data).subspan(cut));
    EXPECT_EQ(crc32_final(state), whole) << "cut at " << cut;
  }
}

TEST(Crc32, SingleBitFlipDetected) {
  auto data = bytes_of("partition payload");
  const auto original = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x01;
    EXPECT_NE(crc32(data), original) << "flip at byte " << i;
    data[i] ^= 0x01;
  }
  EXPECT_EQ(crc32(data), original);
}

TEST(Crc32, DifferentLengthsDiffer) {
  const auto a = bytes_of("aaaa");
  const auto b = bytes_of("aaaaa");
  EXPECT_NE(crc32(a), crc32(b));
}

TEST(Crc32Combine, MatchesConcatenationAtBoundaryLengths) {
  // |B| straddles every power-of-two and SIMD-block edge the fused copies
  // produce, up to three 64 KiB pieces plus one byte.
  Rng rng(20);
  const std::size_t len_a = 1000;
  const std::size_t lengths[] = {0,    1,    15,    16,    17,    63,    64,       65,
                                 4095, 4096, 4097, 65535, 65536, 65537, 3 * 65536 + 1};
  for (const std::size_t len_b : lengths) {
    const auto data = random_bytes(len_a + len_b, rng);
    const std::uint32_t a = crc_of(data, 0, len_a);
    const std::uint32_t b = crc_of(data, len_a, len_b);
    EXPECT_EQ(crc32_combine(a, b, len_b), crc32(data)) << "len_b=" << len_b;
  }
}

TEST(Crc32Combine, MatchesConcatenationAtRandomSplits) {
  Rng rng(21);
  for (int trial = 0; trial < 200; ++trial) {
    const auto data = random_bytes(rng.uniform_index(300 * 1000 + 1), rng);
    const std::size_t cut = rng.uniform_index(data.size() + 1);
    const std::uint32_t a = crc_of(data, 0, cut);
    const std::uint32_t b = crc_of(data, cut, data.size() - cut);
    EXPECT_EQ(crc32_combine(a, b, data.size() - cut), crc32(data))
        << "size=" << data.size() << " cut=" << cut;
  }
}

TEST(Crc32Combine, StitchesEveryKWaySplitPlain) {
  // The client's reassembly: per-piece CRCs of a k-way split_plain layout,
  // stitched left to right. Sizes with a nonzero remainder give the pieces
  // two distinct lengths.
  Rng rng(22);
  for (std::size_t k = 2; k <= 8; ++k) {
    for (const std::size_t size : {k, 5 * k + 1, 4096 * k + k - 1, 65536 * k + k / 2}) {
      const auto data = random_bytes(size, rng);
      const auto pieces = split_plain(data, k);
      std::uint32_t whole = crc32(pieces[0]);
      for (std::size_t i = 1; i < k; ++i) {
        whole = crc32_combine(whole, crc32(pieces[i]), pieces[i].size());
      }
      EXPECT_EQ(whole, crc32(data)) << "k=" << k << " size=" << size;
    }
  }
}

TEST(Crc32Combine, AssociatesAcrossLengthsBeyond32Bits) {
  // crc(A‖B‖C) stitched as (A‖B)‖C or as A‖(B‖C) must agree, which needs
  // x^(8(m+n)) = x^(8m)·x^(8n) mod P for m+n past 2^32 — where the
  // power-of-two table's index wraps.
  Rng rng(23);
  const std::uint64_t two32 = std::uint64_t{1} << 32;
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  const std::pair<std::uint64_t, std::uint64_t> lengths[] = {
      {two32 - 1, 1},          {two32 - 7, two32 + 12345}, {1, two32},
      {two32 * 3 + 5, 65536},  {std::uint64_t{1} << 63, max >> 1},
      {max - 65536, 65536}};
  for (const auto& [m, n] : lengths) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto a = static_cast<std::uint32_t>(rng.next_u64());
      const auto b = static_cast<std::uint32_t>(rng.next_u64());
      const auto c = static_cast<std::uint32_t>(rng.next_u64());
      EXPECT_EQ(crc32_combine(crc32_combine(a, b, m), c, n),
                crc32_combine(a, crc32_combine(b, c, n), m + n))
          << "m=" << m << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace spcache
