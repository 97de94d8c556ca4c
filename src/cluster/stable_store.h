// Stable backing storage and failure recovery (Section 8 "Fault
// Tolerance").
//
// SP-Cache is redundancy-free, so a crashed cache server loses its
// partitions. The paper's answer: the *underlying* storage system (HDFS /
// S3, cross-rack replicated) already holds every file durably — Alluxio
// periodically checkpoints cached files there — so SP-Cache recovers lost
// partitions from stable storage rather than keeping cache-level replicas.
//
// `StableStore` models that checkpointed tier: a durable, checksummed
// file-level store with a (slow) recovery bandwidth. `RecoveryManager` is
// the one repair engine of both deployments: it restores a file whose
// pieces went missing from the stable store, re-splits it per the
// master's current layout, re-places the lost pieces (least-loaded live
// servers), and returns the volume moved plus the modelled recovery time.
// Its server-loss sweep reaches the cache tier only through `RepairPeers`:
// the threaded cluster's CacheServer objects, or kPutBlock over RPC in
// spcache_masterd.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/cache_server.h"
#include "cluster/master.h"
#include "common/units.h"

namespace spcache {

class StableStore {
 public:
  // `bandwidth` is the effective restore throughput from stable storage —
  // disk/cross-rack, far below memory speed.
  explicit StableStore(Bandwidth bandwidth = mbps(400));

  Bandwidth bandwidth() const { return bandwidth_; }

  // Durably record a full file (Alluxio-style checkpoint).
  void checkpoint(FileId id, std::span<const std::uint8_t> bytes);

  bool contains(FileId id) const;

  // Restore a full file; nullopt if never checkpointed. Throws on
  // checksum mismatch (corrupted stable copy — should never happen).
  std::optional<std::vector<std::uint8_t>> restore(FileId id) const;

  std::size_t file_count() const;
  Bytes bytes_stored() const;

 private:
  Bandwidth bandwidth_;
  mutable std::mutex mu_;
  std::unordered_map<FileId, Block> files_;
};

struct RecoveryStats {
  std::size_t pieces_recovered = 0;
  std::size_t files_skipped = 0;  // no matching stable copy / no live server / a failed PUT
  Bytes bytes_restored = 0;       // pulled from stable storage
  Seconds modelled_time = 0;      // restore transfer + re-placement writes
};

// The two cache-tier operations a server-loss repair calls, so the same
// sweep runs over the threaded cluster and over RPC.
struct RepairPeers {
  // Is `server` up? A cached verdict is fine: a put to a server that has
  // died since fails, and the file is skipped.
  std::function<bool(std::uint32_t server)> alive;
  // Store a replacement piece on `server` under layout `epoch`; false if
  // it did not land.
  std::function<bool(std::uint32_t server, BlockKey key, std::span<const std::uint8_t> bytes,
                     std::uint64_t epoch)>
      put;
};

class RecoveryManager {
 public:
  // Threaded cluster: repairs write straight into `cluster`'s servers.
  RecoveryManager(Cluster& cluster, Master& master, StableStore& stable);
  // Any other deployment: `n_servers` cache servers reached through
  // `peers` (spcache_masterd: rpc::rpc_repair_peers). Re-placement writes
  // ride a real network, so modelled_time counts only the stable-store
  // restore. repair_file needs the Cluster constructor.
  RecoveryManager(std::size_t n_servers, RepairPeers peers, Master& master,
                  StableStore& stable);

  // Scan the file's layout and re-create any missing pieces from stable
  // storage. Keeps surviving pieces in place; lost pieces are rewritten to
  // their original servers if alive (a piece whose server is down is
  // skipped — that is repair_after_server_loss territory). Returns the
  // stats; throws std::runtime_error if the file was never checkpointed.
  RecoveryStats repair_file(FileId id);

  // Handle a whole-server loss: for every file with a piece on `server`,
  // move that piece's slot to a live replacement and restore it from
  // stable storage. The policy, per file:
  //   * skip the file if its stable copy is missing or differs from the
  //     layout in size or CRC (a checkpoint can lag an overwrite);
  //   * each replacement is the least-loaded live server (pieces per
  //     server, from a scan of the master's layouts) not already holding
  //     the file — or, when every live survivor already holds it, the
  //     least-loaded live survivor (the piece is co-located);
  //   * PUT every replacement piece at the file's epoch + 1 before
  //     Master::update_file publishes the layout; a failed PUT skips the
  //     file and publishes nothing.
  //
  // Safe to run while readers are in flight and safe to run twice (e.g.
  // two HealthMonitor ticks racing): each file is handled under its
  // master-side mutation guard (Master::lock_file), and a file with no
  // slot left on the failed server — already repaired by a concurrent run
  // — is skipped. A reader holding the new layout always finds the bytes;
  // one holding the old layout fails, retries, and picks up the new one.
  // Skipped files are counted in files_skipped rather than aborting the
  // sweep.
  RecoveryStats repair_after_server_loss(std::uint32_t failed_server);

  // --- Observability (src/obs) ----------------------------------------
  // Resolve "recovery.pieces_recovered|bytes_restored|repair_model_s" in
  // `registry` once; every successful repair adds its RecoveryStats to the
  // counters and records the modelled repair time. Detached by default.
  void attach_observability(obs::MetricsRegistry* registry);

  struct ObsProbes {
    obs::Counter* pieces = nullptr;
    obs::Counter* bytes = nullptr;
    obs::LatencyHistogram* repair_time = nullptr;
  };

 private:
  // Body of repair_file, run while the caller already holds the file's
  // master-side mutation guard.
  RecoveryStats repair_pieces(FileId id);
  // Fold one repair's stats into the attached probes (no-op when detached).
  void record_repair(const RecoveryStats& stats);

  Cluster* cluster_ = nullptr;  // threaded cluster only (repair_file)
  std::size_t n_servers_;
  RepairPeers peers_;
  Bandwidth rewrite_bandwidth_;  // re-placement writes, for modelled_time
  Master& master_;
  StableStore& stable_;
  std::unique_ptr<ObsProbes> probes_storage_;
  std::atomic<ObsProbes*> probes_{nullptr};
};

}  // namespace spcache
