// Microbenchmarks (google-benchmark): throughput of the building blocks —
// GF(256) slice operations, Reed-Solomon encode/decode, CRC-32 and its
// combine, the fork-join bound solver, and the LRU — so regressions in the
// substrate are visible independently of the experiment harnesses.
//
// `bench_micro --smoke` skips google-benchmark and runs the data-plane
// gates instead (tools/check.sh `kernels` stage): RS(8,11) encode GB/s per
// SIMD level with bit-identical outputs, an AVX2 absolute floor, and an
// AVX2-over-scalar speedup floor. Exits non-zero when a gate fails.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "common/crc32.h"
#include "common/rng.h"
#include "erasure/gf256.h"
#include "erasure/rs_code.h"
#include "math/forkjoin_bound.h"
#include "math/scale_factor.h"
#include "rpc/serialize.h"
#include "sim/lru_cache.h"
#include "simd/simd.h"
#include "workload/file_catalog.h"

namespace spcache {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  return v;
}

void BM_Gf256MulAddSlice(benchmark::State& state) {
  Rng rng(1);
  const auto src = random_bytes(static_cast<std::size_t>(state.range(0)), rng);
  std::vector<std::uint8_t> dst(src.size(), 0);
  for (auto _ : state) {
    gf256::mul_add_slice(dst, src, 0xA7);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_Gf256MulAddSlice)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_RsEncode(benchmark::State& state) {
  Rng rng(2);
  const ReedSolomon rs(10, 14);
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    auto shards = rs.encode(data);
    benchmark::DoNotOptimize(shards.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_RsEncode)->Arg(1 * 1000 * 1000)->Arg(10 * 1000 * 1000);

void BM_RsDecodeWithParity(benchmark::State& state) {
  Rng rng(3);
  const ReedSolomon rs(10, 14);
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), rng);
  auto shards = rs.encode(data);
  // Lose two data shards: decode from 8 data + 2 parity.
  std::vector<Shard> subset(shards.begin() + 2, shards.begin() + 12);
  for (auto _ : state) {
    auto out = rs.decode(subset, data.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_RsDecodeWithParity)->Arg(1 * 1000 * 1000)->Arg(10 * 1000 * 1000);

void BM_Crc32(benchmark::State& state) {
  Rng rng(4);
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Crc32)->Arg(1024 * 1024);

// --- Per-level kernel benches (range(1) selects the SIMD tier) ----------

bool select_level(benchmark::State& state, simd::Level& level) {
  level = static_cast<simd::Level>(state.range(1));
  if (!simd::level_supported(level)) {
    state.SkipWithError("SIMD level not supported on this host");
    return false;
  }
  state.SetLabel(simd::level_name(level));
  return true;
}

void BM_KernelGf256MulAdd(benchmark::State& state) {
  simd::Level level;
  if (!select_level(state, level)) return;
  const auto& k = simd::kernels_for(level);
  Rng rng(8);
  const auto src = random_bytes(static_cast<std::size_t>(state.range(0)), rng);
  std::vector<std::uint8_t> dst(src.size(), 0);
  for (auto _ : state) {
    k.gf256_mul_add(dst.data(), src.data(), src.size(), 0xA7);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_KernelGf256MulAdd)
    ->Args({1024 * 1024, 0})
    ->Args({1024 * 1024, 1})
    ->Args({1024 * 1024, 2});

void BM_KernelCrc32(benchmark::State& state) {
  simd::Level level;
  if (!select_level(state, level)) return;
  const auto& k = simd::kernels_for(level);
  Rng rng(9);
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.crc32_update(0xFFFFFFFFu, data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_KernelCrc32)
    ->Args({1024 * 1024, 0})
    ->Args({1024 * 1024, 1})
    ->Args({1024 * 1024, 2});

// Fused copy+CRC against the naive memcpy-then-rescan it replaced on the
// put/reassembly paths; range(1): 0 = fused kernel, 1 = two-pass baseline.
void BM_Crc32Copy(benchmark::State& state) {
  Rng rng(10);
  const auto src = random_bytes(static_cast<std::size_t>(state.range(0)), rng);
  std::vector<std::uint8_t> dst(src.size());
  const bool fused = state.range(1) == 0;
  for (auto _ : state) {
    std::uint32_t crc;
    if (fused) {
      crc = crc32_copy(dst, src);
    } else {
      std::memcpy(dst.data(), src.data(), src.size());
      crc = crc32(dst);
    }
    benchmark::DoNotOptimize(crc);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetLabel(fused ? "fused" : "memcpy+crc");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_Crc32Copy)
    ->Args({64 * 1024, 0})
    ->Args({64 * 1024, 1})
    ->Args({1024 * 1024, 0})
    ->Args({1024 * 1024, 1});

// Stitching a piece's CRC onto the file's running CRC, per piece length:
// a read pays one of these per piece after its fused copies land.
void BM_Crc32Combine(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  std::uint32_t crc = 0x12345678u;
  for (auto _ : state) {
    crc = crc32_combine(crc, 0x9E3779B9u, len);  // chained: no hoisting
    benchmark::DoNotOptimize(crc);
  }
}
BENCHMARK(BM_Crc32Combine)->Arg(64)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_ForkJoinBound(benchmark::State& state) {
  std::vector<QueueStat> stats(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < stats.size(); ++i) {
    stats[i] = QueueStat{0.1 + 0.01 * static_cast<double>(i), 0.02};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fork_join_upper_bound(stats));
  }
}
BENCHMARK(BM_ForkJoinBound)->Arg(2)->Arg(10)->Arg(30);

void BM_ScaleFactorSearch(benchmark::State& state) {
  const auto cat = make_uniform_catalog(static_cast<std::size_t>(state.range(0)), 100 * kMB,
                                        1.05, 8.0);
  const std::vector<Bandwidth> bw(30, gbps(1.0));
  for (auto _ : state) {
    Rng rng(5);
    benchmark::DoNotOptimize(find_scale_factor(cat, bw, ScaleFactorConfig{}, rng).alpha);
  }
}
BENCHMARK(BM_ScaleFactorSearch)->Arg(100)->Arg(500)->Unit(benchmark::kMillisecond);

// Serialization of a kGetBlockMulti-style reply (count + per-piece tag +
// length-prefixed bytes) with and without the up-front reserve() the RPC
// hot paths now use — the delta is the cost of the O(log n) doubling
// reallocations reserve() removes.
void BM_BufferWriterSerialize(benchmark::State& state) {
  Rng rng(7);
  constexpr std::size_t kPieces = 8;
  const auto piece = random_bytes(static_cast<std::size_t>(state.range(0)), rng);
  const bool reserve = state.range(1) != 0;
  for (auto _ : state) {
    rpc::BufferWriter w;
    if (reserve) w.reserve(4 + kPieces * (1 + 4 + piece.size()));
    w.u32(kPieces);
    for (std::size_t i = 0; i < kPieces; ++i) {
      w.u8(1);
      w.bytes(piece);
    }
    auto buf = w.take();
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPieces * piece.size()));
}
BENCHMARK(BM_BufferWriterSerialize)
    ->Args({64 * 1024, 0})
    ->Args({64 * 1024, 1})
    ->Args({512 * 1024, 0})
    ->Args({512 * 1024, 1});

void BM_LruAccess(benchmark::State& state) {
  const auto cat = make_uniform_catalog(10000, 100, 1.1, 1.0);
  Rng rng(6);
  LruCache lru(200000);
  for (auto _ : state) {
    const FileId f = cat.sample_file(rng);
    benchmark::DoNotOptimize(lru.access(f, 100));
  }
}
BENCHMARK(BM_LruAccess);

// --- Smoke gates (tools/check.sh `kernels` stage) -----------------------

double best_encode_seconds(const ReedSolomon& rs, std::span<const std::uint8_t> data,
                           std::span<const std::span<std::uint8_t>> shards) {
  using clock = std::chrono::steady_clock;
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = clock::now();
    rs.encode_into(data, shards);
    const auto t1 = clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

// RS(8,11) encode throughput per SIMD level on one core, with outputs
// memcmp'd against the scalar tier. Gates (when AVX2 is available):
// AVX2 >= 4 GB/s absolute and >= 2x the scalar tier. Returns exit status.
int run_smoke() {
  constexpr std::size_t kK = 8, kN = 11;
  constexpr std::size_t kDataBytes = 32 * 1024 * 1024;
  const ReedSolomon rs(kK, kN);
  Rng rng(42);
  const auto data = random_bytes(kDataBytes, rng);
  const std::size_t shard_len = (kDataBytes + kK - 1) / kK;

  std::vector<std::vector<std::uint8_t>> shard_bufs(kN, std::vector<std::uint8_t>(shard_len));
  std::vector<std::span<std::uint8_t>> shard_spans(kN);
  for (std::size_t i = 0; i < kN; ++i) shard_spans[i] = shard_bufs[i];
  const std::span<const std::span<std::uint8_t>> shards(shard_spans);

  const auto restore = simd::detected_level();
  double gbps_by_level[3] = {0.0, 0.0, 0.0};
  std::vector<std::vector<std::uint8_t>> scalar_ref;
  bool identical = true;

  std::printf("smoke: rs(%zu,%zu) encode, %zu MiB, single core\n", kK, kN,
              kDataBytes / (1024 * 1024));
  for (const auto level : {simd::Level::kScalar, simd::Level::kSsse3, simd::Level::kAvx2}) {
    if (!simd::level_supported(level)) {
      std::printf("  %-6s: not supported on this host\n", simd::level_name(level));
      continue;
    }
    simd::force_level(level);
    rs.encode_into(data, shards);  // warm
    const double secs = best_encode_seconds(rs, data, shards);
    gbps_by_level[static_cast<int>(level)] = static_cast<double>(kDataBytes) / secs / 1e9;
    bool same = true;
    if (level == simd::Level::kScalar) {
      scalar_ref = shard_bufs;  // reference outputs for the identity check
    } else {
      for (std::size_t i = 0; i < kN && same; ++i) {
        same = std::memcmp(shard_bufs[i].data(), scalar_ref[i].data(), shard_len) == 0;
      }
      identical = identical && same;
    }
    std::printf("  %-6s: %6.2f GB/s%s\n", simd::level_name(level),
                gbps_by_level[static_cast<int>(level)],
                level == simd::Level::kScalar ? "" : (same ? "  (bit-identical)" : "  (MISMATCH)"));
  }
  simd::force_level(restore);

  bool ok = identical;
  if (!identical) std::printf("gate FAIL: levels disagree on encoded bytes\n");
  const double scalar = gbps_by_level[0];
  const double avx2 = gbps_by_level[2];
  if (simd::level_supported(simd::Level::kAvx2)) {
    const bool floor_ok = avx2 >= 4.0;
    const bool speedup_ok = avx2 >= 2.0 * scalar;
    std::printf("gate avx2 >= 4 GB/s: %s (%.2f)\n", floor_ok ? "PASS" : "FAIL", avx2);
    std::printf("gate avx2 >= 2x scalar: %s (%.2fx)\n", speedup_ok ? "PASS" : "FAIL",
                scalar > 0 ? avx2 / scalar : 0.0);
    ok = ok && floor_ok && speedup_ok;
  } else {
    std::printf("gates: AVX2 unavailable, identity check only\n");
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace spcache

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") return spcache::run_smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
