// RPC repartitioner tests: the full Fig. 9b flow over messages
// (kDeltaRepartitionFile: kGetRange + kStagePiece relay).
#include "rpc/repartitioner_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>

#include "core/sp_cache.h"

namespace spcache::rpc {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  return v;
}

class RpcRepartitionTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kWorkers = 10;
  static constexpr std::size_t kFiles = 25;
  static constexpr Bytes kFileSize = 120 * kKB;

  RpcRepartitionTest() {
    master_ = std::make_unique<MasterService>(bus_);
    for (std::size_t s = 0; s < kWorkers; ++s) {
      workers_.push_back(std::make_unique<CacheWorkerService>(
          bus_, kFirstWorkerNode + static_cast<NodeId>(s), static_cast<std::uint32_t>(s),
          gbps(1.0)));
      worker_nodes_.push_back(workers_.back()->node_id());
    }
    for (std::size_t s = 0; s < kWorkers; ++s) {
      repartitioners_.push_back(std::make_unique<RepartitionerService>(
          bus_, kFirstRepartitionerNode + static_cast<NodeId>(s),
          static_cast<std::uint32_t>(s), kMasterNode, worker_nodes_));
      repartitioner_nodes_.push_back(repartitioners_.back()->node_id());
    }
    client_ = std::make_unique<RpcSpClient>(bus_, kFirstClientNode, kMasterNode, worker_nodes_);
    coordinator_ = std::make_unique<RpcNode>(bus_, kFirstClientNode + 1, "coordinator");
    coordinator_->start();
  }

  // Populate via SP-Cache placement; returns originals + layout.
  void populate() {
    catalog_ = make_uniform_catalog(kFiles, kFileSize, 1.05, 10.0);
    SpCacheScheme sp;
    Rng rng(11);
    sp.place(catalog_, std::vector<Bandwidth>(kWorkers, gbps(1.0)), rng);
    old_k_ = sp.partition_counts();
    for (FileId f = 0; f < kFiles; ++f) {
      originals_.push_back(random_bytes(kFileSize, rng_));
      client_->write(f, originals_.back(), sp.placement(f).servers);
      old_servers_.push_back(sp.placement(f).servers);
    }
  }

  Bus bus_;
  std::unique_ptr<MasterService> master_;
  std::vector<std::unique_ptr<CacheWorkerService>> workers_;
  std::vector<NodeId> worker_nodes_;
  std::vector<std::unique_ptr<RepartitionerService>> repartitioners_;
  std::vector<NodeId> repartitioner_nodes_;
  std::unique_ptr<RpcSpClient> client_;
  std::unique_ptr<RpcNode> coordinator_;
  Rng rng_{12};
  Catalog catalog_;
  std::vector<std::size_t> old_k_;
  std::vector<std::vector<std::uint32_t>> old_servers_;
  std::vector<std::vector<std::uint8_t>> originals_;
};

TEST_F(RpcRepartitionTest, DeltaRepartitionPreservesEveryFile) {
  populate();
  catalog_.shuffle_popularities(rng_);
  const auto plan = plan_repartition_with_alpha(
      catalog_, kWorkers, 6.0 / catalog_.max_load(), old_k_, old_servers_, rng_);
  ASSERT_GT(plan.changed_files.size(), 0u);

  std::vector<std::uint64_t> epoch_before(kFiles);
  for (FileId f = 0; f < kFiles; ++f) {
    epoch_before[f] = master_->master().peek(f)->epoch;
  }

  const auto stats = rpc_execute_delta_repartition(*coordinator_, plan, repartitioner_nodes_);
  EXPECT_EQ(stats.files_touched, plan.changed_files.size());
  EXPECT_GT(stats.bytes_moved, 0u);

  Bytes changed_bytes = 0;
  for (const FileId f : plan.changed_files) changed_bytes += originals_[f].size();
  // Every byte of every changed file is moved once or staged in place.
  EXPECT_EQ(stats.bytes_moved + stats.bytes_saved, changed_bytes);

  for (FileId f = 0; f < kFiles; ++f) {
    EXPECT_EQ(client_->read(f), originals_[f]) << "file " << f;
  }
  for (std::size_t j = 0; j < plan.changed_files.size(); ++j) {
    const FileId f = plan.changed_files[j];
    const auto meta = master_->master().peek(f);
    ASSERT_TRUE(meta.has_value());
    EXPECT_EQ(meta->servers, plan.new_servers[j]);
    EXPECT_GT(meta->epoch, epoch_before[f]) << "file " << f;
    for (std::size_t i = 0; i < meta->servers.size(); ++i) {
      EXPECT_TRUE(workers_[meta->servers[i]]->store().contains(
          BlockKey{f, static_cast<PieceIndex>(i)}));
    }
  }
  // Nothing left in any staging area.
  for (const auto& w : workers_) EXPECT_EQ(w->store().staged_count(), 0u);
}

TEST_F(RpcRepartitionTest, DeltaReusedPlacementShipsOnlyBoundaryRanges) {
  populate();
  // Grow file 0 from k to k+1 pieces while keeping every old server in
  // place: new piece i lives where old piece i already does, so only the
  // bytes that slide across the shifted boundaries change server. The
  // delta flow must stage the overlap in place (zero wire payload) and
  // ship strictly less than the file.
  const FileId f = 0;
  RepartitionPlan plan;
  plan.new_k = old_k_;
  plan.new_k[f] = old_k_[f] + 1;
  plan.changed_files = {f};
  auto grown = old_servers_[f];
  for (std::uint32_t s = 0; s < kWorkers; ++s) {
    if (std::find(grown.begin(), grown.end(), s) == grown.end()) {
      grown.push_back(s);
      break;
    }
  }
  ASSERT_EQ(grown.size(), old_k_[f] + 1);
  plan.new_servers = {grown};
  plan.executor = {old_servers_[f][0]};

  const auto stats = rpc_execute_delta_repartition(*coordinator_, plan, repartitioner_nodes_);
  EXPECT_EQ(stats.files_touched, 1u);
  EXPECT_EQ(stats.bytes_moved + stats.bytes_saved, kFileSize);
  EXPECT_GT(stats.bytes_saved, 0u);
  EXPECT_LT(stats.bytes_moved, kFileSize);
  EXPECT_EQ(client_->read(f), originals_[f]);
}

TEST_F(RpcRepartitionTest, LocalRangesAreFree) {
  populate();
  // Grow file 0 by one piece, keeping new piece 0 on the server that holds
  // old piece 0: that range is staged in place, so it counts as saved, not
  // moved — exactly the transfer plan's accounting.
  const FileId f = 0;
  RepartitionPlan plan;
  plan.new_k = old_k_;
  plan.new_k[f] = old_k_[f] + 1;
  plan.changed_files = {f};
  std::vector<std::uint32_t> fresh = {old_servers_[f][0]};
  for (std::uint32_t s = 0; fresh.size() < plan.new_k[f]; ++s) {
    if (s != old_servers_[f][0]) fresh.push_back(s);
  }
  plan.new_servers = {fresh};
  plan.executor = {old_servers_[f][0]};
  const auto old_sizes = master_->master().peek(f)->piece_sizes;
  const auto ranges = plan_range_transfer(kFileSize, old_sizes, old_servers_[f], fresh);
  ASSERT_GT(ranges.bytes_saved, 0u);

  const auto stats = rpc_execute_delta_repartition(*coordinator_, plan, repartitioner_nodes_);
  EXPECT_EQ(stats.bytes_moved, ranges.bytes_moved);
  EXPECT_EQ(stats.bytes_saved, ranges.bytes_saved);
  EXPECT_EQ(client_->read(f), originals_[f]);
}

TEST_F(RpcRepartitionTest, EmptyPlanIsNoOp) {
  populate();
  RepartitionPlan plan;
  plan.new_k = old_k_;
  const auto stats = rpc_execute_delta_repartition(*coordinator_, plan, repartitioner_nodes_);
  EXPECT_EQ(stats.files_touched, 0u);
  EXPECT_EQ(stats.bytes_moved, 0u);
  EXPECT_EQ(stats.bytes_saved, 0u);
}

TEST_F(RpcRepartitionTest, StalledGetRangeFailsWithinBoundAndFreesTheService) {
  // A worker stand-in that holds every kGetRange until released, far past
  // the handler's 5 s bound on each call.
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  RpcNode stalled_worker(bus_, kFirstWorkerNode + 100, "stalled-worker");
  stalled_worker.handle(kGetRange, [released](BufferReader&) {
    released.wait_for(std::chrono::seconds(20));
    return std::vector<std::uint8_t>{};
  });
  stalled_worker.start();
  // A repartitioner that reaches server 1 through the stand-in; the client
  // wrote through the real workers, so every file stays readable.
  auto routes = worker_nodes_;
  routes[1] = stalled_worker.id();
  RepartitionerService repartitioner(bus_, kFirstRepartitionerNode + 100, 0, kMasterNode,
                                     routes);

  const auto stalled = random_bytes(40 * kKB, rng_);
  const auto healthy = random_bytes(40 * kKB + 3, rng_);
  client_->write(0, stalled, {0, 1});
  client_->write(1, healthy, {0, 2});
  const auto stalled_layout = master_->master().peek(0);
  const auto request = [](FileId file, const std::vector<std::uint32_t>& new_servers) {
    BufferWriter w;
    w.u32(file);
    w.u32(static_cast<std::uint32_t>(new_servers.size()));
    for (const auto s : new_servers) w.u32(s);
    return w.take();
  };

  const auto start = std::chrono::steady_clock::now();
  const auto failed = coordinator_->call_sync(repartitioner.node_id(), kDeltaRepartitionFile,
                                              request(0, {2, 3}), std::chrono::seconds(15));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.error_text().find("GET_RANGE failed"), std::string::npos)
      << failed.error_text();
  EXPECT_LT(elapsed, std::chrono::seconds(5) + std::chrono::seconds(3));

  // The stand-in still holds its kGetRange, yet the service thread is
  // free: a repartition that avoids server 1 goes through.
  const auto moved = coordinator_->call_sync(repartitioner.node_id(), kDeltaRepartitionFile,
                                             request(1, {2, 3}), std::chrono::seconds(15));
  EXPECT_TRUE(moved.ok()) << moved.error_text();
  release.set_value();
  EXPECT_EQ(client_->read(1), healthy);
  // The failed attempt published nothing and left nothing staged.
  const auto after = master_->master().peek(0);
  EXPECT_EQ(after->servers, stalled_layout->servers);
  EXPECT_EQ(after->epoch, stalled_layout->epoch);
  EXPECT_EQ(client_->read(0), stalled);
  for (const auto& w : workers_) EXPECT_EQ(w->store().staged_count(), 0u);
}

TEST_F(RpcRepartitionTest, CoordinatorGivesUpOnASilentExecutor) {
  // An executor that accepts kDeltaRepartitionFile and never answers: a
  // node that is never started keeps every request in its mailbox.
  RpcNode silent(bus_, kFirstRepartitionerNode + 100, "silent-repartitioner");
  silent.handle(kDeltaRepartitionFile, [](BufferReader&) { return std::vector<std::uint8_t>{}; });
  RepartitionPlan plan;
  plan.changed_files = {0};
  plan.new_servers = {{0}};
  plan.executor = {0};
  // One server, one file re-cut into one piece: the handler makes at most
  // 1 + 2*1 + 4*1 + 1 = 8 calls of at most 5 s each.
  const auto bound = std::chrono::seconds(8 * 5);

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(rpc_execute_delta_repartition(*coordinator_, plan, {silent.id()}),
               std::runtime_error);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, bound - std::chrono::milliseconds(50));
  EXPECT_LT(elapsed, bound + std::chrono::seconds(3));
  EXPECT_EQ(coordinator_->pending_calls(), 0u) << "the abandoned call leaked its slot";
}

}  // namespace
}  // namespace spcache::rpc
