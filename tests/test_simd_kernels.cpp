// Cross-ISA equivalence suite for the src/simd kernel layer.
//
// Every kernel (GF(256) mul / mul-add, CRC-32 update, fused copy+CRC) is
// fuzz-compared against the scalar tier — and against an independent
// bit-by-bit reference — across odd lengths, unaligned offsets, and
// head/tail remainders, at every level the host CPU supports. The sanitizer
// presets force SPCACHE_SIMD=scalar through tools/check.sh, so the scalar
// tier is additionally exercised under TSan/ASan.
#include "simd/simd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/crc32.h"

namespace spcache {
namespace {

// Deterministic data, independent of any library RNG.
std::vector<std::uint8_t> fuzz_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v[i] = static_cast<std::uint8_t>(x);
  }
  return v;
}

// Independent GF(256) reference: Russian-peasant multiply over 0x11B,
// sharing no tables with src/simd.
std::uint8_t gf_ref_mul(std::uint8_t a, std::uint8_t b) {
  std::uint16_t acc = 0;
  std::uint16_t aa = a;
  for (std::uint8_t bb = b; bb != 0; bb >>= 1) {
    if (bb & 1) acc ^= aa;
    aa <<= 1;
    if (aa & 0x100) aa ^= 0x11B;
  }
  return static_cast<std::uint8_t>(acc);
}

// Independent bitwise CRC-32 (reflected IEEE), raw-state convention.
std::uint32_t crc_ref_update(std::uint32_t state, const std::uint8_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    state ^= p[i];
    for (int b = 0; b < 8; ++b) {
      state = (state >> 1) ^ (0xEDB88320u & (0u - (state & 1u)));
    }
  }
  return state;
}

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> out;
  for (const auto level : {simd::Level::kScalar, simd::Level::kSsse3, simd::Level::kAvx2}) {
    if (simd::level_supported(level)) out.push_back(level);
  }
  return out;
}

// Lengths chosen to hit every remainder path: empty, sub-vector, one
// vector, vector±1, the AVX2 64-byte unroll boundary, the PCLMUL 64-byte
// minimum, and multi-KB bodies with ragged tails.
constexpr std::size_t kLengths[] = {0,  1,  2,   3,   15,  16,  17,   31,   32,  33,
                                    48, 63, 64,  65,  127, 128, 129,  255,  256, 511,
                                    1024, 4095, 4096, 4097, 65521};
constexpr std::size_t kOffsets[] = {0, 1, 3, 7};

TEST(SimdKernels, LevelPlumbing) {
  EXPECT_TRUE(simd::level_supported(simd::Level::kScalar));
  const auto detected = simd::detected_level();
  EXPECT_GE(static_cast<int>(detected), static_cast<int>(simd::Level::kScalar));
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");

  // force_level clamps to the detected ceiling and is reversible.
  simd::force_level(simd::Level::kAvx2);
  EXPECT_LE(static_cast<int>(simd::active_level()), static_cast<int>(detected));
  simd::force_level(simd::Level::kScalar);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  EXPECT_EQ(simd::kernels().level, simd::Level::kScalar);
  simd::force_level(detected);
  EXPECT_EQ(simd::active_level(), detected);
}

TEST(SimdKernels, Gf256MulMatchesReferenceAcrossLevels) {
  const auto levels = supported_levels();
  const auto src_all = fuzz_bytes(70000, 11);
  // Coefficients covering the special cases (0, 1) and both table paths.
  const std::uint8_t coeffs[] = {0, 1, 2, 3, 91, 142, 253, 255};
  for (const auto level : levels) {
    const auto& k = simd::kernels_for(level);
    ASSERT_EQ(k.level, level);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        for (const std::uint8_t c : coeffs) {
          const std::uint8_t* src = src_all.data() + off;
          std::vector<std::uint8_t> dst(n, 0xA5);
          k.gf256_mul(dst.data(), src, n, c);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(dst[i], gf_ref_mul(src[i], c))
                << simd::level_name(level) << " mul n=" << n << " off=" << off
                << " c=" << int(c) << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, Gf256MulAddMatchesReferenceAcrossLevels) {
  const auto levels = supported_levels();
  const auto src_all = fuzz_bytes(70000, 23);
  const auto base_all = fuzz_bytes(70000, 29);
  const std::uint8_t coeffs[] = {0, 1, 2, 91, 255};
  for (const auto level : levels) {
    const auto& k = simd::kernels_for(level);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        for (const std::uint8_t c : coeffs) {
          const std::uint8_t* src = src_all.data() + off;
          std::vector<std::uint8_t> dst(base_all.begin(),
                                        base_all.begin() + static_cast<std::ptrdiff_t>(n));
          k.gf256_mul_add(dst.data(), src, n, c);
          for (std::size_t i = 0; i < n; ++i) {
            const std::uint8_t want =
                static_cast<std::uint8_t>(base_all[i] ^ gf_ref_mul(src[i], c));
            ASSERT_EQ(dst[i], want)
                << simd::level_name(level) << " mul_add n=" << n << " off=" << off
                << " c=" << int(c) << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, Gf256MulAdd2MatchesReferenceAcrossLevels) {
  const auto src0_all = fuzz_bytes(70000, 67);
  const auto src1_all = fuzz_bytes(70000, 71);
  const auto base_all = fuzz_bytes(70000, 73);
  // Pairs hitting the degenerate coefficients on either side.
  const std::pair<std::uint8_t, std::uint8_t> coeff_pairs[] = {
      {0, 0}, {0, 91}, {91, 0}, {1, 255}, {255, 1}, {2, 3}, {91, 142}, {253, 254}};
  for (const auto level : supported_levels()) {
    const auto& k = simd::kernels_for(level);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        for (const auto& [c0, c1] : coeff_pairs) {
          const std::uint8_t* s0 = src0_all.data() + off;
          const std::uint8_t* s1 = src1_all.data() + off;
          std::vector<std::uint8_t> dst(base_all.begin(),
                                        base_all.begin() + static_cast<std::ptrdiff_t>(n));
          k.gf256_mul_add2(dst.data(), s0, c0, s1, c1, n);
          for (std::size_t i = 0; i < n; ++i) {
            const std::uint8_t want = static_cast<std::uint8_t>(
                base_all[i] ^ gf_ref_mul(s0[i], c0) ^ gf_ref_mul(s1[i], c1));
            ASSERT_EQ(dst[i], want)
                << simd::level_name(level) << " mul_add2 n=" << n << " off=" << off
                << " c0=" << int(c0) << " c1=" << int(c1) << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, Gf256MulExactAliasingIsSupported) {
  for (const auto level : supported_levels()) {
    const auto& k = simd::kernels_for(level);
    for (const std::size_t n : {std::size_t{33}, std::size_t{4097}}) {
      auto buf = fuzz_bytes(n, 37);
      auto expect = buf;
      k.gf256_mul(expect.data(), expect.data(), n, 177);  // dst == src
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(expect[i], gf_ref_mul(buf[i], 177)) << simd::level_name(level);
      }
    }
  }
}

TEST(SimdKernels, Crc32UpdateMatchesReferenceAcrossLevels) {
  const auto data_all = fuzz_bytes(70000, 41);
  for (const auto level : supported_levels()) {
    const auto& k = simd::kernels_for(level);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        const std::uint8_t* p = data_all.data() + off;
        const std::uint32_t got = k.crc32_update(0xFFFFFFFFu, p, n);
        const std::uint32_t want = crc_ref_update(0xFFFFFFFFu, p, n);
        ASSERT_EQ(got, want) << simd::level_name(level) << " crc n=" << n
                             << " off=" << off;
        // Split-state equivalence: resuming mid-buffer must match one shot.
        const std::size_t cut = n / 3;
        const std::uint32_t split =
            k.crc32_update(k.crc32_update(0xFFFFFFFFu, p, cut), p + cut, n - cut);
        ASSERT_EQ(split, want);
      }
    }
  }
}

TEST(SimdKernels, Crc32CopyUpdateCopiesAndChecksumsAcrossLevels) {
  const auto data_all = fuzz_bytes(70000, 53);
  for (const auto level : supported_levels()) {
    const auto& k = simd::kernels_for(level);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        const std::uint8_t* src = data_all.data() + off;
        std::vector<std::uint8_t> dst(n + 1, 0xEE);  // +1 canary
        const std::uint32_t got = k.crc32_copy_update(0xFFFFFFFFu, dst.data(), src, n);
        ASSERT_EQ(got, crc_ref_update(0xFFFFFFFFu, src, n))
            << simd::level_name(level) << " n=" << n << " off=" << off;
        ASSERT_EQ(std::memcmp(dst.data(), src, n), 0);
        ASSERT_EQ(dst[n], 0xEE) << "copy overran the destination";
      }
    }
  }
}

TEST(SimdKernels, PublicCrcApiAgreesWithActiveKernels) {
  const auto data = fuzz_bytes(9001, 61);
  const std::uint32_t whole = crc32(data);
  EXPECT_EQ(whole, crc_ref_update(0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu);

  // Incremental + fused public wrappers.
  std::uint32_t st = crc32_init();
  std::vector<std::uint8_t> copy(data.size());
  st = crc32_copy_update(st, copy, data);
  EXPECT_EQ(crc32_final(st), whole);
  EXPECT_EQ(copy, data);

  // Combine: per-piece CRCs stitched into the whole-file CRC.
  const std::size_t cut = 2718;
  const std::uint32_t a =
      crc32(std::span<const std::uint8_t>(data.data(), cut));
  const std::uint32_t b =
      crc32(std::span<const std::uint8_t>(data.data() + cut, data.size() - cut));
  EXPECT_EQ(crc32_combine(a, b, data.size() - cut), whole);
  EXPECT_EQ(crc32_combine(a, b, 0), a ^ b);
  // The stateless shim perfbench's load generator still constructs.
  EXPECT_EQ(Crc32Combiner{}.combine(a, b, data.size() - cut), whole);
}

}  // namespace
}  // namespace spcache
