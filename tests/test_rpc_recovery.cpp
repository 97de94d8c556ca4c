// Server-loss repair over RPC: RecoveryManager's sweep writing its
// replacement pieces through rpc_repair_peers (kPutBlock on an in-process
// Bus) — the path spcache_masterd's HealthMonitor runs after a worker
// dies.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/stable_store.h"
#include "obs/metrics.h"
#include "rpc/cache_service.h"

namespace spcache::rpc {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  return v;
}

// A master, `n` workers, a writing client, and a repair engine that reaches
// the workers over RPC from a monitor node, as spcache_masterd wires it.
class RpcRepairCluster {
 public:
  explicit RpcRepairCluster(std::size_t n) : alive_(n, true) {
    master_ = std::make_unique<MasterService>(bus_);
    for (std::size_t s = 0; s < n; ++s) {
      workers_.push_back(std::make_unique<CacheWorkerService>(
          bus_, kFirstWorkerNode + static_cast<NodeId>(s), static_cast<std::uint32_t>(s),
          gbps(1.0)));
      worker_nodes_.push_back(workers_.back()->node_id());
    }
    writer_ = std::make_unique<RpcSpClient>(bus_, kFirstClientNode, kMasterNode, worker_nodes_);
    recovery_ = std::make_unique<RecoveryManager>(
        n,
        rpc_repair_peers(monitor_, worker_nodes_,
                         [this](std::uint32_t s) { return bool(alive_[s]); }),
        master_->master(), master_->stable());
  }

  // The worker process is gone: its node leaves the bus, so every send to
  // it fails, and the liveness verdict says so.
  void kill(std::uint32_t server) {
    workers_[server].reset();
    alive_[server] = false;
  }

  // A client that has cached nothing, as after a restart.
  std::unique_ptr<RpcSpClient> fresh_client() {
    return std::make_unique<RpcSpClient>(bus_, kFirstClientNode + 1 + fresh_clients_++,
                                         kMasterNode, worker_nodes_);
  }

  FileMeta layout(FileId id) { return *master_->master().peek(id); }

  Bus bus_;
  std::unique_ptr<MasterService> master_;
  std::vector<std::unique_ptr<CacheWorkerService>> workers_;
  std::vector<NodeId> worker_nodes_;
  std::unique_ptr<RpcSpClient> writer_;
  RpcNode monitor_{bus_, kMonitorNode, "monitor"};
  std::vector<char> alive_;
  std::unique_ptr<RecoveryManager> recovery_;
  NodeId fresh_clients_ = 0;
};

// (a) Every piece on the lost worker is re-placed: every file reads back
// bit-exact, no layout names the dead server, and each repaired file's
// epoch rises by exactly one.
TEST(RpcRecovery, LostWorkerPiecesAreReplacedAtTheNextEpoch) {
  RpcRepairCluster c(4);
  obs::MetricsRegistry registry;
  c.recovery_->attach_observability(&registry);
  Rng rng(21);
  const std::vector<std::vector<std::uint32_t>> placements = {
      {0, 1}, {1, 2, 3}, {2, 3}, {1}, {3, 1}, {0, 2, 3}};
  std::vector<std::vector<std::uint8_t>> originals;
  std::vector<FileMeta> before;
  for (FileId f = 0; f < placements.size(); ++f) {
    originals.push_back(random_bytes(30 * kKB + 7 * f, rng));
    c.writer_->write(f, originals[f], placements[f]);
    before.push_back(c.layout(f));
  }

  const std::uint32_t failed = 1;
  c.kill(failed);
  const auto stats = c.recovery_->repair_after_server_loss(failed);
  EXPECT_EQ(stats.pieces_recovered, 4u);
  EXPECT_EQ(stats.files_skipped, 0u);
  EXPECT_EQ(registry.counter(obs::names::kRecoveryPieces).value(), 4u);

  const auto reader = c.fresh_client();
  for (FileId f = 0; f < placements.size(); ++f) {
    EXPECT_EQ(reader->read(f), originals[f]) << "file " << f;
    const auto after = c.layout(f);
    for (const std::uint32_t s : after.servers) EXPECT_NE(s, failed) << "file " << f;
    const bool repaired = std::find(placements[f].begin(), placements[f].end(), failed) !=
                          placements[f].end();
    EXPECT_EQ(after.epoch, before[f].epoch + (repaired ? 1 : 0)) << "file " << f;
  }
  // The writer's cached layouts are stale now; its reads converge too.
  for (FileId f = 0; f < placements.size(); ++f) EXPECT_EQ(c.writer_->read(f), originals[f]);
}

// (b) On two workers every survivor already holds a piece of a 2-piece
// file, so the lost piece is co-located on the survivor.
TEST(RpcRecovery, TwoWorkerFileIsCoLocatedOnTheSurvivor) {
  RpcRepairCluster c(2);
  Rng rng(22);
  const auto data = random_bytes(64 * kKB + 1, rng);
  c.writer_->write(0, data, {0, 1});
  const auto before = c.layout(0);

  c.kill(1);
  const auto stats = c.recovery_->repair_after_server_loss(1);
  EXPECT_EQ(stats.pieces_recovered, 1u);
  EXPECT_EQ(stats.files_skipped, 0u);

  const auto after = c.layout(0);
  EXPECT_EQ(after.servers, (std::vector<std::uint32_t>{0, 0}));
  EXPECT_EQ(after.piece_sizes, before.piece_sizes);
  EXPECT_EQ(after.epoch, before.epoch + 1);
  EXPECT_EQ(c.fresh_client()->read(0), data);
}

// (c) The stable tier lags an overwrite (the client's checkpoint is best
// effort): a copy shorter or longer than the file must not be cut by the
// current layout. The file is skipped, its layout and epoch untouched.
TEST(RpcRecovery, StaleStableCopyIsSkipped) {
  for (const bool stable_longer : {true, false}) {
    SCOPED_TRACE(stable_longer ? "stable copy longer than the file"
                               : "stable copy shorter than the file");
    RpcRepairCluster c(4);
    Rng rng(23);
    const auto first = random_bytes(stable_longer ? 120000 : 40000, rng);
    const auto second = random_bytes(stable_longer ? 40000 : 120000, rng);
    c.writer_->write(7, first, {0, 1, 2});
    c.writer_->write(7, second, {0, 1, 2});
    c.master_->stable().checkpoint(7, first);  // the second checkpoint was lost
    const auto before = c.layout(7);

    c.kill(1);
    const auto stats = c.recovery_->repair_after_server_loss(1);
    EXPECT_EQ(stats.files_skipped, 1u);
    EXPECT_EQ(stats.pieces_recovered, 0u);
    const auto after = c.layout(7);
    EXPECT_EQ(after.servers, before.servers);
    EXPECT_EQ(after.piece_sizes, before.piece_sizes);
    EXPECT_EQ(after.epoch, before.epoch);
  }
}

// A replacement PUT that does not land publishes nothing: the layout and
// epoch stay, and the file is counted as skipped.
TEST(RpcRecovery, FailedPutPublishesNothing) {
  RpcRepairCluster c(3);
  Rng rng(24);
  const auto data = random_bytes(50 * kKB, rng);
  c.writer_->write(3, data, {0, 1});
  const auto before = c.layout(3);

  c.kill(1);
  c.workers_[2].reset();  // dies after the liveness verdict was taken
  const auto stats = c.recovery_->repair_after_server_loss(1);
  EXPECT_EQ(stats.files_skipped, 1u);
  EXPECT_EQ(stats.pieces_recovered, 0u);
  const auto after = c.layout(3);
  EXPECT_EQ(after.servers, before.servers);
  EXPECT_EQ(after.epoch, before.epoch);
}

}  // namespace
}  // namespace spcache::rpc
