#include "cluster/stable_store.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/log.h"
#include "erasure/rs_code.h"
#include "obs/metrics.h"

namespace spcache {

StableStore::StableStore(Bandwidth bandwidth) : bandwidth_(bandwidth) {
  assert(bandwidth > 0.0);
}

void StableStore::checkpoint(FileId id, std::span<const std::uint8_t> bytes) {
  Block block;
  block.bytes.assign(bytes.begin(), bytes.end());
  block.crc = crc32(block.bytes);
  std::lock_guard lock(mu_);
  files_[id] = std::move(block);
}

bool StableStore::contains(FileId id) const {
  std::lock_guard lock(mu_);
  return files_.count(id) > 0;
}

std::optional<std::vector<std::uint8_t>> StableStore::restore(FileId id) const {
  Block copy;
  {
    std::lock_guard lock(mu_);
    const auto it = files_.find(id);
    if (it == files_.end()) return std::nullopt;
    copy = it->second;
  }
  if (crc32(copy.bytes) != copy.crc) {
    throw std::runtime_error("StableStore::restore: corrupted stable copy");
  }
  return copy.bytes;
}

std::size_t StableStore::file_count() const {
  std::lock_guard lock(mu_);
  return files_.size();
}

Bytes StableStore::bytes_stored() const {
  std::lock_guard lock(mu_);
  Bytes total = 0;
  for (const auto& [id, block] : files_) total += block.bytes.size();
  return total;
}

RecoveryManager::RecoveryManager(Cluster& cluster, Master& master, StableStore& stable)
    : RecoveryManager(
          cluster.size(),
          RepairPeers{
              [&cluster](std::uint32_t s) { return cluster.is_alive(s); },
              // CacheServer keeps no epochs: the threaded client validates
              // layouts against the master alone.
              [&cluster](std::uint32_t s, BlockKey key, std::span<const std::uint8_t> bytes,
                         std::uint64_t) {
                try {
                  cluster.server(s).put_copy(key, bytes);
                  return true;
                } catch (const std::exception&) {
                  return false;  // died since the liveness check
                }
              }},
          master, stable) {
  cluster_ = &cluster;
  rewrite_bandwidth_ = cluster.server(0).bandwidth();
}

RecoveryManager::RecoveryManager(std::size_t n_servers, RepairPeers peers, Master& master,
                                 StableStore& stable)
    : n_servers_(n_servers),
      peers_(std::move(peers)),
      rewrite_bandwidth_(std::numeric_limits<double>::infinity()),
      master_(master),
      stable_(stable) {}

RecoveryStats RecoveryManager::repair_file(FileId id) {
  if (cluster_ == nullptr) throw std::logic_error("repair_file: needs the threaded cluster");
  // Serialize against concurrent layout mutations (repartition, online
  // split/merge) of the same file while pieces are re-created.
  const auto guard = master_.lock_file(id);
  if (!guard) throw std::runtime_error("repair_file: unknown file");
  const auto stats = repair_pieces(id);
  record_repair(stats);
  return stats;
}

void RecoveryManager::attach_observability(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    probes_.store(nullptr, std::memory_order_release);
    return;
  }
  namespace n = obs::names;
  auto probes = std::make_unique<ObsProbes>();
  probes->pieces = &registry->counter(n::kRecoveryPieces);
  probes->bytes = &registry->counter(n::kRecoveryBytes);
  probes->repair_time = &registry->histogram(n::kRecoveryRepairTime);
  probes_storage_ = std::move(probes);
  probes_.store(probes_storage_.get(), std::memory_order_release);
}

void RecoveryManager::record_repair(const RecoveryStats& stats) {
  const auto* probes = probes_.load(std::memory_order_acquire);
  if (probes == nullptr) return;
  probes->pieces->add(stats.pieces_recovered);
  probes->bytes->add(stats.bytes_restored);
  if (stats.pieces_recovered > 0) probes->repair_time->record(stats.modelled_time);
}

namespace {

// Piece i's bytes within the whole file under the layout's (possibly
// heterogeneous — write_sized) piece sizes. The write path stores
// contiguous slices, so slicing the restored file by the recorded sizes
// reproduces each piece exactly, split_plain's rounding included. The
// caller has checked that the sizes add up to the file.
std::span<const std::uint8_t> piece_span(const std::vector<std::uint8_t>& bytes,
                                         const std::vector<Bytes>& piece_sizes, std::size_t i) {
  const Bytes offset = std::accumulate(piece_sizes.begin(),
                                       piece_sizes.begin() + static_cast<std::ptrdiff_t>(i),
                                       Bytes{0});
  return std::span(bytes).subspan(offset, piece_sizes[i]);
}

// A stable copy the layout can be cut from: same size (the piece sizes
// included) and same CRC as the file the layout describes.
bool matches_layout(const std::optional<std::vector<std::uint8_t>>& bytes, const FileMeta& meta) {
  return bytes && bytes->size() == meta.size &&
         std::accumulate(meta.piece_sizes.begin(), meta.piece_sizes.end(), Bytes{0}) ==
             meta.size &&
         crc32(*bytes) == meta.file_crc;
}

}  // namespace

RecoveryStats RecoveryManager::repair_pieces(FileId id) {
  RecoveryStats stats;
  const auto meta = master_.peek(id);
  if (!meta) throw std::runtime_error("repair_file: unknown file");

  // Which pieces are gone? A piece whose server is down cannot be
  // re-placed in place — that is a server-loss repair, not a piece repair.
  std::vector<std::size_t> missing;
  bool on_dead_server = false;
  for (std::size_t i = 0; i < meta->partitions(); ++i) {
    if (!cluster_->server(meta->servers[i]).alive()) {
      on_dead_server = true;
      continue;
    }
    if (!cluster_->server(meta->servers[i]).contains(BlockKey{id, static_cast<PieceIndex>(i)})) {
      missing.push_back(i);
    }
  }
  if (on_dead_server) {
    SPCACHE_LOG(kWarn) << "repair_file: file " << id
                       << " has piece(s) on a dead server; run repair_after_server_loss";
    ++stats.files_skipped;
  }
  if (missing.empty()) return stats;

  const auto bytes = stable_.restore(id);
  if (!bytes) throw std::runtime_error("repair_file: file was never checkpointed");
  if (!matches_layout(bytes, *meta)) {
    throw std::runtime_error("repair_file: stable copy does not match the cached file");
  }

  // Re-slice exactly as the write path stored and re-place the lost pieces.
  Bytes rewritten = 0;
  for (std::size_t i : missing) {
    const auto piece = piece_span(*bytes, meta->piece_sizes, i);
    rewritten += piece.size();
    cluster_->server(meta->servers[i]).put_copy(BlockKey{id, static_cast<PieceIndex>(i)}, piece);
    ++stats.pieces_recovered;
  }
  stats.bytes_restored = bytes->size();
  // Restore pulls the whole file from stable storage; re-placing the lost
  // pieces rides the (fast) cluster network.
  stats.modelled_time = static_cast<double>(stats.bytes_restored) / stable_.bandwidth() +
                        static_cast<double>(rewritten) / rewrite_bandwidth_;
  SPCACHE_LOG(kInfo) << "recovered " << stats.pieces_recovered << " piece(s) of file " << id
                     << " from stable storage (" << stats.bytes_restored / kKB << " kB)";
  return stats;
}

RecoveryStats RecoveryManager::repair_after_server_loss(std::uint32_t failed_server) {
  SPCACHE_LOG(kWarn) << "repairing after loss of server " << failed_server;
  RecoveryStats total;
  // Current per-server piece counts (for least-loaded re-placement). The
  // scan is advisory — layouts move underneath it — but each file's actual
  // mutation happens under its guard below, so a stale count only costs
  // balance, never correctness.
  std::vector<std::size_t> load(n_servers_, 0);
  const auto ids = master_.file_ids();
  for (FileId id : ids) {
    const auto meta = master_.peek(id);
    if (!meta) continue;
    for (std::uint32_t s : meta->servers) {
      if (s < n_servers_) ++load[s];
    }
  }

  for (FileId id : ids) {
    const auto guard = master_.lock_file(id);
    if (!guard) continue;  // removed since the scan
    const auto meta = master_.peek(id);
    if (!meta) continue;

    // Slots still on the failed server. None ⇒ already repaired (by an
    // earlier or concurrent run) — idempotent skip.
    std::vector<std::size_t> slots;
    for (std::size_t i = 0; i < meta->partitions(); ++i) {
      if (meta->servers[i] == failed_server) slots.push_back(i);
    }
    if (slots.empty()) continue;

    const auto bytes = stable_.restore(id);
    if (!matches_layout(bytes, *meta)) {
      SPCACHE_LOG(kWarn) << "repair_after_server_loss: no usable stable copy of file " << id
                         << " — skipped";
      ++total.files_skipped;
      continue;
    }

    // Least-loaded live survivor not already holding the file; in a
    // cluster too small for that, the least-loaded live survivor — the
    // piece is co-located, but the file stays readable.
    auto new_meta = *meta;
    bool placed = true;
    for (std::size_t i : slots) {
      std::size_t best = n_servers_;
      std::size_t fallback = n_servers_;
      for (std::uint32_t s = 0; s < n_servers_; ++s) {
        if (s == failed_server || !peers_.alive(s)) continue;
        if (fallback == n_servers_ || load[s] < load[fallback]) fallback = s;
        const bool holds = std::find(new_meta.servers.begin(), new_meta.servers.end(), s) !=
                           new_meta.servers.end();
        if (!holds && (best == n_servers_ || load[s] < load[best])) best = s;
      }
      if (best == n_servers_) best = fallback;
      if (best == n_servers_) {
        placed = false;
        break;
      }
      if (load[failed_server] > 0) --load[failed_server];
      ++load[best];
      new_meta.servers[i] = static_cast<std::uint32_t>(best);
    }
    if (!placed) {
      SPCACHE_LOG(kWarn) << "repair_after_server_loss: no live replacement server for file " << id
                         << " — skipped";
      ++total.files_skipped;
      continue;
    }

    // Write the replacement pieces at the next epoch first, publish the
    // layout second: readers holding the new layout always find the
    // bytes; readers holding the old one fail, retry, and pick up the new
    // layout.
    new_meta.epoch = meta->epoch + 1;
    Bytes rewritten = 0;
    bool landed = true;
    for (std::size_t i : slots) {
      const auto piece = piece_span(*bytes, new_meta.piece_sizes, i);
      if (!peers_.put(new_meta.servers[i], BlockKey{id, static_cast<PieceIndex>(i)}, piece,
                      new_meta.epoch)) {
        landed = false;
        break;
      }
      rewritten += piece.size();
    }
    if (!landed) {
      SPCACHE_LOG(kWarn) << "repair_after_server_loss: a replacement PUT of file " << id
                         << " failed — skipped, layout unchanged";
      ++total.files_skipped;
      continue;
    }
    master_.update_file(id, std::move(new_meta));
    total.pieces_recovered += slots.size();
    total.bytes_restored += bytes->size();
    // Repartitioned files recover in parallel in a real deployment; we
    // report the aggregate serial time as a conservative upper bound.
    total.modelled_time += static_cast<double>(bytes->size()) / stable_.bandwidth() +
                           static_cast<double>(rewritten) / rewrite_bandwidth_;
  }
  record_repair(total);
  return total;
}

}  // namespace spcache
