// Steady-state allocation audit for SpClient::read(id, scratch).
//
// The data-plane contract (DESIGN.md "Data plane kernels"): after one
// warming read, a cached-layout read of a same-or-smaller file performs
// ZERO heap allocations — the reassembly buffer, layout copy, arena spans,
// and CRC combine operators all live in the caller's ReadScratch. This
// test replaces the global operator new to count every allocation on every
// thread (pool workers included) and pins that count across a run of warm
// reads. It also pins Arena::fallback_allocs() == 0: nothing spilled past
// the scratch arena.
//
// Under ASan/TSan the sanitizer runtime owns the allocator and its
// interceptors allocate internally, so the strict zero-alloc assertion is
// relaxed there; the functional roundtrip and the arena invariant still run.
#include "cluster/client.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstdint>
#include <new>
#include <vector>

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n ? n : align) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

// Replacement global allocation functions (must live at global scope).
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace spcache {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kStrictAllocCheck = false;
#else
constexpr bool kStrictAllocCheck = true;
#endif

std::vector<std::uint8_t> pattern_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8));
  }
  return v;
}

TEST(ReadAlloc, SteadyStateCachedReadIsAllocationFree) {
  Cluster cluster(8, gbps(1.0));
  Master master;
  ThreadPool pool(4);
  ClientCacheConfig cache;
  // Keep the access accumulator from draining mid-measurement (a drain
  // builds the batch vector; it is amortized, not per-read).
  cache.report_flush_threshold = std::size_t{1} << 30;
  SpClient client(cluster, master, pool, /*stable=*/nullptr, fault::RetryPolicy{},
                  GoodputModel{}, cache);

  const auto data = pattern_bytes(256 * kKB + 7);
  client.write(42, data, {0, 1, 2, 3});

  // Warm: sizes the reassembly buffer, layout vectors, arena, and the
  // accumulator's node for file 42.
  ReadScratch scratch;
  for (int i = 0; i < 3; ++i) {
    const IoResult& r = client.read(42, scratch);
    ASSERT_EQ(r.bytes, data);
    ASSERT_TRUE(r.layout_cached);  // write-through layout cache serves pass 1
    ASSERT_FALSE(r.degraded);
  }
  ASSERT_EQ(scratch.arena.fallback_allocs(), 0u);

  // Measure: no gtest assertions inside the window (their failure paths
  // allocate; keep even the success paths out of the count).
  constexpr int kReads = 50;
  bool all_ok = true;
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < kReads; ++i) {
    const IoResult& r = client.read(42, scratch);
    all_ok = all_ok && r.bytes == data && r.layout_cached && !r.degraded;
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(scratch.arena.fallback_allocs(), 0u)
      << "a read spilled past its 16 KiB arena to the heap";
  if (kStrictAllocCheck) {
    EXPECT_EQ(after - before, 0u)
        << "steady-state cached-layout reads must not touch the heap ("
        << (after - before) << " allocations across " << kReads << " reads)";
  }
}

TEST(ReadAlloc, ScratchReuseAcrossFilesReusesCapacity) {
  Cluster cluster(8, gbps(1.0));
  Master master;
  ThreadPool pool(2);
  ClientCacheConfig cache;
  cache.report_flush_threshold = std::size_t{1} << 30;
  SpClient client(cluster, master, pool, /*stable=*/nullptr, fault::RetryPolicy{},
                  GoodputModel{}, cache);

  // Largest file first: every later (smaller, fewer-piece) read fits the
  // warmed buffers.
  const auto big = pattern_bytes(128 * kKB);
  const auto mid = pattern_bytes(64 * kKB + 3);
  const auto small = pattern_bytes(9 * kKB + 1);
  client.write(1, big, {0, 1, 2, 3, 4});
  client.write(2, mid, {5, 6, 7});
  client.write(3, small, {2});

  ReadScratch scratch;
  ASSERT_EQ(client.read(1, scratch).bytes, big);
  ASSERT_EQ(client.read(2, scratch).bytes, mid);
  ASSERT_EQ(client.read(3, scratch).bytes, small);

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  bool all_ok = true;
  for (int i = 0; i < 10; ++i) {
    all_ok = all_ok && client.read(3, scratch).bytes == small;
    all_ok = all_ok && client.read(2, scratch).bytes == mid;
    all_ok = all_ok && client.read(1, scratch).bytes == big;
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(scratch.arena.fallback_allocs(), 0u);
  if (kStrictAllocCheck) {
    EXPECT_EQ(after - before, 0u)
        << "cycling warmed files through one scratch must not allocate";
  }
}

}  // namespace
}  // namespace spcache
