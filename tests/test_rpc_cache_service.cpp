// End-to-end tests of the RPC-backed cache service: the Section 6.1
// read/write flows running purely over messages.
#include "rpc/cache_service.h"

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/sp_cache.h"
#include "fault/fault_injector.h"

namespace spcache::rpc {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  return v;
}

class RpcClusterTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kWorkers = 8;

  RpcClusterTest() {
    master_ = std::make_unique<MasterService>(bus_);
    for (std::size_t s = 0; s < kWorkers; ++s) {
      workers_.push_back(std::make_unique<CacheWorkerService>(
          bus_, kFirstWorkerNode + static_cast<NodeId>(s), static_cast<std::uint32_t>(s),
          gbps(1.0)));
      worker_nodes_.push_back(workers_.back()->node_id());
    }
    client_ = std::make_unique<RpcSpClient>(bus_, kFirstClientNode, kMasterNode, worker_nodes_);
  }

  Bus bus_;
  std::unique_ptr<MasterService> master_;
  std::vector<std::unique_ptr<CacheWorkerService>> workers_;
  std::vector<NodeId> worker_nodes_;
  std::unique_ptr<RpcSpClient> client_;
  Rng rng_{5150};
};

TEST_F(RpcClusterTest, WriteReadRoundtrip) {
  const auto data = random_bytes(300 * kKB + 11, rng_);
  client_->write(1, data, {0, 2, 5});
  EXPECT_EQ(client_->read(1), data);
}

TEST_F(RpcClusterTest, SinglePieceFile) {
  const auto data = random_bytes(4096, rng_);
  client_->write(2, data, {7});
  EXPECT_EQ(client_->read(2), data);
}

TEST_F(RpcClusterTest, RoundTripsEveryRemainderAcrossPieceCounts) {
  // A read verifies the whole-file CRC stitched from its piece CRCs; sizes
  // k·m + r give the k pieces two distinct lengths whenever r > 0.
  const std::size_t m = 65536 + 7;
  FileId id = 100;
  for (std::uint32_t k = 1; k <= 3; ++k) {
    std::vector<std::uint32_t> servers;
    for (std::uint32_t s = 0; s < k; ++s) servers.push_back(2 * s + 1);
    for (std::size_t r = 0; r < k; ++r, ++id) {
      const auto data = random_bytes(k * m + r, rng_);
      client_->write(id, data, servers);
      EXPECT_EQ(client_->read(id), data) << "k=" << k << " r=" << r;
    }
  }
  client_->write(id, std::vector<std::uint8_t>{}, {4});
  EXPECT_TRUE(client_->read(id).empty());
}

TEST_F(RpcClusterTest, PiecesLandOnCorrectWorkers) {
  const auto data = random_bytes(90 * kKB, rng_);
  client_->write(3, data, {1, 3, 6});
  EXPECT_TRUE(workers_[1]->store().contains(BlockKey{3, 0}));
  EXPECT_TRUE(workers_[3]->store().contains(BlockKey{3, 1}));
  EXPECT_TRUE(workers_[6]->store().contains(BlockKey{3, 2}));
  EXPECT_FALSE(workers_[0]->store().contains(BlockKey{3, 0}));
}

TEST_F(RpcClusterTest, ReadUnknownFileFails) {
  EXPECT_THROW(client_->read(99), std::runtime_error);
}

TEST_F(RpcClusterTest, MissingPieceSurfacesAsError) {
  const auto data = random_bytes(60 * kKB, rng_);
  client_->write(4, data, {0, 1, 2});
  workers_[1]->store().erase(BlockKey{4, 1});
  EXPECT_THROW(client_->read(4), std::runtime_error);
}

TEST_F(RpcClusterTest, AccessCountsBumpViaLookup) {
  const auto data = random_bytes(10 * kKB, rng_);
  client_->write(5, data, {0, 4});
  EXPECT_EQ(client_->access_count(5), 0u);
  client_->read(5);
  client_->read(5);
  // Cache-served reads tally locally; the popularity signal reaches the
  // master once the batched kReportAccess flushes (here: explicitly).
  client_->flush_access_reports();
  EXPECT_EQ(client_->access_count(5), 2u);
}

TEST_F(RpcClusterTest, OverwriteUpdatesLayout) {
  const auto v1 = random_bytes(20 * kKB, rng_);
  const auto v2 = random_bytes(40 * kKB, rng_);
  client_->write(6, v1, {0, 1});
  client_->write(6, v2, {2, 3, 4});
  EXPECT_EQ(client_->read(6), v2);
}

TEST_F(RpcClusterTest, ManyClientsConcurrently) {
  // Several RPC clients hammer the same master/workers from sibling
  // threads; every file must come back bit-exact.
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kFilesPerClient = 8;
  std::vector<std::vector<std::uint8_t>> blobs(kClients * kFilesPerClient);
  for (std::size_t i = 0; i < blobs.size(); ++i) blobs[i] = random_bytes(16 * kKB + i, rng_);

  ThreadPool pool(kClients);
  pool.parallel_for(kClients, [&](std::size_t c) {
    RpcSpClient client(bus_, kFirstClientNode + 1 + static_cast<NodeId>(c), kMasterNode,
                       worker_nodes_);
    for (std::size_t i = 0; i < kFilesPerClient; ++i) {
      const auto id = static_cast<FileId>(100 + c * kFilesPerClient + i);
      client.write(id, blobs[c * kFilesPerClient + i],
                   {static_cast<std::uint32_t>((c + i) % kWorkers),
                    static_cast<std::uint32_t>((c + i + 3) % kWorkers)});
    }
    for (std::size_t i = 0; i < kFilesPerClient; ++i) {
      const auto id = static_cast<FileId>(100 + c * kFilesPerClient + i);
      ASSERT_EQ(client.read(id), blobs[c * kFilesPerClient + i]);
    }
  });
}


TEST_F(RpcClusterTest, SpCachePlacementOverRpc) {
  // The full Section 6.1 flow: Algorithm 1 placement, RPC writes, RPC reads.
  const auto cat = make_uniform_catalog(20, 64 * kKB, 1.05, 10.0);
  SpCacheScheme sp;
  Rng rng(7);
  sp.place(cat, std::vector<Bandwidth>(kWorkers, gbps(1.0)), rng);
  std::vector<std::vector<std::uint8_t>> originals(20);
  for (FileId f = 0; f < 20; ++f) {
    originals[f] = random_bytes(64 * kKB, rng_);
    client_->write(f, originals[f], sp.placement(f).servers);
  }
  for (FileId f = 0; f < 20; ++f) EXPECT_EQ(client_->read(f), originals[f]);
}

// Every wait has a deadline: with every envelope lost, write() fails
// after its bounded waits (kFileEpoch, then the PUT join) instead of
// blocking on a PUT reply that never comes.
TEST(RpcCacheService, WriteFailsWithinTimeoutWhenEveryEnvelopeIsLost) {
  Bus bus;
  MasterService master(bus);
  CacheWorkerService worker(bus, kFirstWorkerNode, 0, gbps(1.0));
  fault::FaultConfig fc;
  fc.bus_drop_p = 1.0;
  fault::FaultInjector injector(3, fc);
  bus.set_fault_injector(&injector);
  constexpr auto kTimeout = std::chrono::milliseconds(50);
  RpcSpClient client(bus, kFirstClientNode, kMasterNode, {worker.node_id()},
                     fault::RetryPolicy{}, kTimeout);
  const std::vector<std::uint8_t> data(1000, 7);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(client.write(1, data, {0}), std::runtime_error);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // One kFileEpoch timeout plus one PUT timeout, with scheduling slack.
  EXPECT_LT(elapsed, 6 * kTimeout);
  EXPECT_EQ(client.node().pending_calls(), 0u) << "a timed-out PUT leaked its slot";
  bus.set_fault_injector(nullptr);
}

}  // namespace
}  // namespace spcache::rpc
