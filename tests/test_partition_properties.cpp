// Property/invariant suite for Eq. 1, k_i = ceil(alpha * S_i * P_i).
//
// The selective-partition law is the paper's core mechanism; these tests
// lock in its algebraic properties across random catalogs rather than
// spot-checking single values:
//
//   * exactness    k_i matches the closed form, clamped to [1, N];
//   * monotonicity k_i is non-decreasing in alpha, in S_i, and in P_i
//                  (and raising one file's popularity can only *lower*
//                  everyone else's k_j, never raise it);
//   * publication  the partition counts SpCacheScheme computes are the
//                  ones the placement carries and the ones the Master
//                  publishes after a write — the formula, the placement,
//                  and the serving layout never disagree.
#include "math/scale_factor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "cluster/client.h"
#include "common/rng.h"
#include "core/sp_cache.h"

namespace spcache {
namespace {

constexpr std::size_t kN = 30;  // servers

// A random catalog with independently varying sizes and rates, so load
// L_i = S_i * P_i takes no special structure.
Catalog random_catalog(std::size_t n, Rng& rng) {
  std::vector<FileInfo> files(n);
  for (std::size_t i = 0; i < n; ++i) {
    files[i].id = static_cast<FileId>(i);
    files[i].size = static_cast<Bytes>(1 + rng.next_u64() % (200 * kMB));
    files[i].request_rate = 0.01 + 10.0 * rng.uniform();
  }
  return Catalog(std::move(files));
}

std::size_t expected_k(double alpha, double load, std::size_t n) {
  const double raw = std::ceil(alpha * load);
  if (!(raw >= 1.0)) return 1;
  if (raw >= static_cast<double>(n)) return n;
  return static_cast<std::size_t>(raw);
}

TEST(PartitionProperties, MatchesClosedFormForRandomCatalogs) {
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    const auto cat = random_catalog(64, rng);
    // Sweep alpha over ~12 decades so every clamp regime is visited.
    for (double alpha = 1e-12; alpha < 1e1; alpha *= 10.0) {
      const auto k = partition_counts_for_alpha(cat, alpha, kN);
      ASSERT_EQ(k.size(), cat.size());
      for (std::size_t i = 0; i < k.size(); ++i) {
        EXPECT_EQ(k[i], expected_k(alpha, cat.load(static_cast<FileId>(i)), kN))
            << "trial " << trial << " alpha " << alpha << " file " << i;
      }
    }
  }
}

TEST(PartitionProperties, AlwaysClampedToOneAndServerCount) {
  Rng rng(43);
  const auto cat = random_catalog(128, rng);
  for (double alpha : {0.0, 1e-30, 1e-9, 1e-6, 1e-3, 1.0, 1e9}) {
    for (const auto ki : partition_counts_for_alpha(cat, alpha, kN)) {
      EXPECT_GE(ki, 1u);
      EXPECT_LE(ki, kN);
    }
  }
}

TEST(PartitionProperties, MonotoneInAlpha) {
  Rng rng(47);
  for (int trial = 0; trial < 10; ++trial) {
    const auto cat = random_catalog(64, rng);
    std::vector<std::size_t> prev(cat.size(), 1);
    for (double alpha = 1e-11; alpha < 1e-2; alpha *= 1.7) {
      const auto k = partition_counts_for_alpha(cat, alpha, kN);
      for (std::size_t i = 0; i < k.size(); ++i) {
        EXPECT_GE(k[i], prev[i]) << "k_i decreased when alpha grew (file " << i << ")";
      }
      prev = k;
    }
  }
}

TEST(PartitionProperties, MonotoneInFileSize) {
  // Growing one file's size (rates fixed, so every P_i is unchanged) can
  // only grow that file's partition count and leaves the others alone.
  Rng rng(53);
  const auto base = random_catalog(32, rng);
  const double alpha = 2.0 / base.max_load();
  const auto k0 = partition_counts_for_alpha(base, alpha, kN);
  for (std::size_t grown = 0; grown < base.size(); grown += 7) {
    auto files = base.files();
    files[grown].size *= 3;
    const auto k1 = partition_counts_for_alpha(Catalog(files), alpha, kN);
    EXPECT_GE(k1[grown], k0[grown]);
    for (std::size_t i = 0; i < k0.size(); ++i) {
      if (i != grown) {
        EXPECT_EQ(k1[i], k0[i]) << "file " << i << " moved when " << grown << " grew";
      }
    }
  }
}

TEST(PartitionProperties, MonotoneInPopularity) {
  // Raising one file's request rate raises its popularity share and dilutes
  // everyone else's: k_i for the boosted file never drops, k_j for every
  // other file never rises.
  Rng rng(59);
  const auto base = random_catalog(32, rng);
  const double alpha = 2.0 / base.max_load();
  const auto k0 = partition_counts_for_alpha(base, alpha, kN);
  for (std::size_t boosted = 0; boosted < base.size(); boosted += 5) {
    auto files = base.files();
    files[boosted].request_rate *= 4.0;
    const auto k1 = partition_counts_for_alpha(Catalog(files), alpha, kN);
    EXPECT_GE(k1[boosted], k0[boosted]);
    for (std::size_t i = 0; i < k0.size(); ++i) {
      if (i != boosted) {
        EXPECT_LE(k1[i], k0[i]);
      }
    }
  }
}

TEST(PartitionProperties, SchemeCountsMatchFormulaAndPlacement) {
  Rng rng(61);
  const auto cat = make_uniform_catalog(100, 100 * kMB, 1.05, 10.0);
  SpCacheConfig cfg;
  cfg.fixed_alpha = 4.0 / cat.max_load();  // hottest file gets 4 partitions
  SpCacheScheme sp(cfg);
  sp.place(cat, std::vector<Bandwidth>(kN, gbps(1.0)), rng);

  const auto expected = partition_counts_for_alpha(cat, sp.alpha(), kN);
  ASSERT_EQ(sp.partition_counts(), expected);
  for (FileId f = 0; f < cat.size(); ++f) {
    const auto& p = sp.placement(f);
    EXPECT_EQ(p.servers.size(), expected[f]) << "file " << f;
    // No two partitions of a file may share a server (Section 5.1).
    const std::set<std::uint32_t> distinct(p.servers.begin(), p.servers.end());
    EXPECT_EQ(distinct.size(), p.servers.size()) << "file " << f;
  }
}

TEST(PartitionProperties, MasterPublishedLayoutMatchesPlacement) {
  // Write through the real cluster and check the Master's published layout
  // carries exactly the Eq. 1 partition counts and conserves every byte.
  Rng rng(67);
  constexpr std::size_t kFiles = 24;
  constexpr Bytes kFileSize = 64 * kKB;
  const auto cat = make_uniform_catalog(kFiles, kFileSize, 1.05, 10.0);
  SpCacheConfig cfg;
  cfg.fixed_alpha = 6.0 / cat.max_load();
  SpCacheScheme sp(cfg);

  Cluster cluster(16, gbps(1.0));
  Master master;
  ThreadPool pool(2);
  sp.place(cat, cluster.bandwidths(), rng);
  SpClient writer(cluster, master, pool);
  std::vector<std::uint8_t> data(kFileSize, 0x5a);
  for (FileId f = 0; f < kFiles; ++f) writer.write(f, data, sp.placement(f).servers);

  const auto expected = partition_counts_for_alpha(cat, sp.alpha(), 16);
  std::size_t total_published = 0;
  for (FileId f = 0; f < kFiles; ++f) {
    const auto meta = master.peek(f);
    ASSERT_TRUE(meta.has_value()) << "file " << f;
    EXPECT_EQ(meta->partitions(), expected[f]) << "file " << f;
    EXPECT_EQ(meta->servers, sp.placement(f).servers) << "file " << f;
    Bytes sum = 0;
    for (const Bytes b : meta->piece_sizes) sum += b;
    EXPECT_EQ(sum, kFileSize) << "file " << f;
    total_published += meta->partitions();
  }
  std::size_t total_expected = 0;
  for (const auto ki : expected) total_expected += ki;
  EXPECT_EQ(total_published, total_expected);
}

TEST(PartitionProperties, BatchedAccessReportsMatchPerReadLookups) {
  // Popularity parity: Eq. 1's P_i input must be identical whether clients
  // LOOKUP per read (baseline) or serve layouts from their cache and ship
  // batched kReportAccess deltas. Two identical clusters run the same
  // Zipf-ish read schedule; after the caching client flushes, every file's
  // access count — and therefore every partition count Eq. 1 would derive —
  // must match the baseline exactly.
  constexpr std::size_t kFiles = 16;
  constexpr std::size_t kReads = 400;
  Rng schedule_rng(73);
  std::vector<FileId> schedule(kReads);
  for (auto& f : schedule) {
    // Skewed-ish: low ids drawn more often, like a Zipf head.
    const auto a = schedule_rng.uniform_index(kFiles);
    const auto b = schedule_rng.uniform_index(kFiles);
    f = static_cast<FileId>(std::min(a, b));
  }

  ClientCacheConfig baseline_config;
  baseline_config.layout_cache = false;
  ClientCacheConfig cached_config;  // defaults: cache on, batched reports

  Cluster baseline_cluster(8, gbps(1.0));
  Master baseline_master;
  Cluster cached_cluster(8, gbps(1.0));
  Master cached_master;
  ThreadPool pool(4);
  SpClient baseline(baseline_cluster, baseline_master, pool, nullptr, fault::RetryPolicy{},
                    GoodputModel{}, baseline_config);
  SpClient cached(cached_cluster, cached_master, pool, nullptr, fault::RetryPolicy{},
                  GoodputModel{}, cached_config);

  std::vector<std::uint8_t> data(32 * kKB, 0x3c);
  for (FileId f = 0; f < kFiles; ++f) {
    const std::vector<std::uint32_t> servers{static_cast<std::uint32_t>(f % 8),
                                             static_cast<std::uint32_t>((f + 1) % 8)};
    baseline.write(f, data, servers);
    cached.write(f, data, servers);
  }

  for (const auto f : schedule) {
    baseline.read(f);
    cached.read(f);
  }
  cached.flush_access_reports();

  std::uint64_t total_baseline = 0;
  for (FileId f = 0; f < kFiles; ++f) {
    EXPECT_EQ(cached_master.access_count(f), baseline_master.access_count(f)) << "file " << f;
    total_baseline += baseline_master.access_count(f);
  }
  EXPECT_EQ(total_baseline, kReads);
  // The cached run actually exercised the metadata-light path.
  EXPECT_GT(cached.layout_cache().hits(), 0u);
}

}  // namespace
}  // namespace spcache
