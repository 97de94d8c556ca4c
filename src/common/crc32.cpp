#include "common/crc32.h"

#include <array>

#include "simd/simd.h"

namespace spcache {

namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;  // reflected 0x04C11DB7

// a(x)·b(x) mod P over GF(2), in the CRC's reflected bit order: bit 31 is
// the x^0 coefficient, bit 0 the x^31 one. Branch-free: b walks through
// b·x^i mod P while a's bits, highest (x^0) first, select which to keep.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (int i = 31; i >= 0; --i) {
    product ^= b & (0u - ((a >> i) & 1u));
    b = (b >> 1) ^ (kPoly & (0u - (b & 1u)));
  }
  return product;
}

// kX2n[k] = x^(2^k) mod P, by repeated squaring from x^1.
constexpr std::array<std::uint32_t, 32> kX2n = [] {
  std::array<std::uint32_t, 32> table{};
  std::uint32_t p = 1u << 30;  // x^1
  for (auto& entry : table) {
    entry = p;
    p = multmodp(p, p);
  }
  return table;
}();

// Squaring the last entry lands back on x: x^(2^32) ≡ x mod P, so
// x^(2^k) = kX2n[k mod 32] for every k a 64-bit length can reach.
static_assert(multmodp(kX2n[31], kX2n[31]) == kX2n[0]);

// x^(8n) mod P, the multiplier that appends n zero bytes to a CRC: one
// table multiply per set bit of n, starting at x^(2^3) for bit 0.
std::uint32_t x8nmodp(std::uint64_t n) {
  std::uint32_t p = 1u << 31;  // x^0
  for (unsigned k = 3; n != 0; n >>= 1, ++k) {
    if (n & 1u) p = multmodp(kX2n[k & 31u], p);
  }
  return p;
}

}  // namespace

std::uint32_t crc32_init() { return 0xFFFFFFFFu; }

std::uint32_t crc32_update(std::uint32_t state, std::span<const std::uint8_t> data) {
  return simd::kernels().crc32_update(state, data.data(), data.size());
}

std::uint32_t crc32_final(std::uint32_t state) { return state ^ 0xFFFFFFFFu; }

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32_final(crc32_update(crc32_init(), data));
}

std::uint32_t crc32_copy_update(std::uint32_t state, std::span<std::uint8_t> dst,
                                std::span<const std::uint8_t> src) {
  return simd::kernels().crc32_copy_update(state, dst.data(), src.data(),
                                           src.size());
}

std::uint32_t crc32_copy(std::span<std::uint8_t> dst,
                         std::span<const std::uint8_t> src) {
  return crc32_final(crc32_copy_update(crc32_init(), dst, src));
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::size_t len_b) {
  return multmodp(x8nmodp(len_b), crc_a) ^ crc_b;
}

}  // namespace spcache
