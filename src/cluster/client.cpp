#include "cluster/client.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <stdexcept>

#include "cluster/stable_store.h"
#include "common/crc32.h"
#include "common/hash_mix.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace spcache {

namespace {

// Client NICs are provisioned like server NICs in the paper's clusters; the
// write path is bottlenecked by the client's uplink shared across its
// parallel streams, the read path by the slowest piece transfer.
Seconds modelled_write_time(const Cluster& cluster, const std::vector<std::uint32_t>& servers,
                            Bytes total_bytes, const GoodputModel& goodput) {
  assert(!servers.empty());
  const Bandwidth client_bw = cluster.server(servers.front()).bandwidth();
  return static_cast<double>(total_bytes) / (client_bw * goodput.factor(servers.size()));
}

double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

SpClient::SpClient(Cluster& cluster, Master& master, ThreadPool& pool, GoodputModel goodput)
    : SpClient(cluster, master, pool, nullptr, fault::RetryPolicy{}, goodput) {}

SpClient::SpClient(Cluster& cluster, Master& master, ThreadPool& pool, StableStore* stable,
                   fault::RetryPolicy retry, GoodputModel goodput, ClientCacheConfig cache)
    : cluster_(cluster),
      master_(master),
      pool_(pool),
      stable_(stable),
      retry_(retry),
      goodput_(goodput),
      cache_config_(cache),
      layout_cache_(cache.cache_capacity),
      access_acc_(cache.report_flush_threshold) {}

SpClient::~SpClient() { flush_access_reports(); }

std::uint64_t SpClient::flush_access_reports() {
  const auto deltas = access_acc_.drain();
  if (deltas.empty()) return 0;
  return master_.report_access_batch(deltas);
}

void SpClient::cache_own_write(FileId id) {
  if (!cache_config_.layout_cache) return;
  // The master assigned the epoch during register/update; re-read it so
  // the cached entry carries the authoritative layout.
  if (auto meta = master_.peek(id)) layout_cache_.put(id, std::move(*meta));
}

bool SpClient::layout_for_pass(FileId id, std::size_t pass, bool& from_cache,
                               FileMeta& out) {
  const auto* probes = probes_.load(std::memory_order_acquire);
  from_cache = false;
  if (cache_config_.layout_cache && pass == 1) {
    if (layout_cache_.get_into(id, out)) {
      from_cache = true;
      if (probes) probes->layout_hits->add(1);
      if (access_acc_.record(id)) flush_access_reports();
      return true;
    }
    if (probes) probes->layout_misses->add(1);
  }
  auto meta = master_.lookup_for_read(id);
  if (!meta) return false;
  if (cache_config_.layout_cache) layout_cache_.put(id, *meta);
  out = std::move(*meta);
  return true;
}

IoResult SpClient::write_sized(FileId id, std::span<const std::uint8_t> data,
                               const std::vector<std::uint32_t>& servers,
                               const std::vector<Bytes>& piece_sizes) {
  assert(servers.size() == piece_sizes.size());
  // Pieces are views into `data`: each piece's only copy is the fused
  // copy+CRC pass inside put_copy, straight into the server's block.
  std::vector<std::span<const std::uint8_t>> pieces(piece_sizes.size());
  split_sized_views(data, piece_sizes, pieces);
  FileMeta meta;
  meta.size = data.size();
  meta.servers = servers;
  meta.piece_sizes = piece_sizes;
  meta.file_crc = crc32(data);

  pool_.parallel_for(pieces.size(), [&](std::size_t i) {
    cluster_.server(servers[i]).put_copy(BlockKey{id, static_cast<PieceIndex>(i)},
                                         pieces[i]);
  });
  if (master_.peek(id).has_value()) {
    master_.update_file(id, std::move(meta));
  } else {
    master_.register_file(id, std::move(meta));
  }
  cache_own_write(id);
  IoResult result;
  result.network_time = modelled_write_time(cluster_, servers, data.size(), goodput_);
  return result;
}

IoResult SpClient::write(FileId id, std::span<const std::uint8_t> data,
                         const std::vector<std::uint32_t>& servers) {
  assert(!servers.empty());
  std::vector<std::span<const std::uint8_t>> pieces(servers.size());
  split_plain_views(data, servers.size(), pieces);
  FileMeta meta;
  meta.size = data.size();
  meta.servers = servers;
  meta.piece_sizes.reserve(pieces.size());
  for (const auto& p : pieces) meta.piece_sizes.push_back(p.size());
  meta.file_crc = crc32(data);

  pool_.parallel_for(pieces.size(), [&](std::size_t i) {
    cluster_.server(servers[i]).put_copy(BlockKey{id, static_cast<PieceIndex>(i)},
                                         pieces[i]);
  });

  if (master_.peek(id).has_value()) {
    master_.update_file(id, std::move(meta));
  } else {
    master_.register_file(id, std::move(meta));
  }
  cache_own_write(id);

  IoResult result;
  result.network_time = modelled_write_time(cluster_, servers, data.size(), goodput_);
  return result;
}

// One pass of the degraded-read state machine:
//   fetch (per-piece retries) -> failover (stable restore) -> verify.
// A false return means "retry the whole read with a fresh layout": either
// pieces stayed unfetchable with no usable stable copy, or the end-to-end
// CRC failed (racing repartition, injected wire flip) — both heal on a
// later pass once the layout settles or the flip doesn't recur.
bool SpClient::read_pass(FileId id, std::size_t pass, std::uint64_t op,
                         ReadScratch& scratch, std::string& error) {
  const auto* probes = probes_.load(std::memory_order_acquire);
  obs::TraceRecorder* trace = probes ? probes->trace : nullptr;
  const FileMeta& meta = scratch.meta;
  IoResult& result = scratch.result;
  const std::size_t k = meta.partitions();
  // Per-pass bookkeeping lives in the scratch arena: no vector allocations
  // on the hot path, and reset() makes the next pass start from a clean
  // bump pointer.
  scratch.arena.reset();
  auto offsets = scratch.arena.make_span<Bytes>(k);
  auto fetched = scratch.arena.make_span<std::uint8_t>(k);
  auto piece_crcs = scratch.arena.make_span<std::uint32_t>(k);
  Bytes total = 0;
  for (std::size_t i = 0; i < k; ++i) {
    offsets[i] = total;
    total += meta.piece_sizes[i];
    fetched[i] = 0;
  }

  // resize, not assign(total, 0): every byte of the live range is written
  // by a piece copy (or the stable-store restore) before the pass can
  // succeed, so pre-zeroing is pure overhead; a warmed buffer reuses its
  // capacity and allocates nothing.
  result.bytes.resize(total);
  // Zero-copy reassembly: each shared block's bytes are copied exactly
  // once, directly into their final offset in the output buffer — through
  // the fused crc32_copy kernel, which also yields the piece's CRC for the
  // O(k·32) whole-file combine below. Fetch outcomes are per-piece; a
  // thread never throws out of the pool.
  std::atomic<std::size_t> refetches{0};
  pool_.parallel_for(k, [&](std::size_t i) {
    const BlockKey key{id, static_cast<PieceIndex>(i)};
    for (std::size_t attempt = 1; attempt <= retry_.piece_attempts; ++attempt) {
      try {
        auto block = cluster_.server(meta.servers[i]).get(key);
        if (block && block->bytes.size() == meta.piece_sizes[i]) {
          piece_crcs[i] = crc32_copy(
              std::span<std::uint8_t>(result.bytes.data() + offsets[i],
                                      meta.piece_sizes[i]),
              block->bytes);
          fetched[i] = 1;
          if (trace) {
            trace->record(obs::TraceKind::kPieceFetch, op, id, meta.servers[i],
                          static_cast<std::uint32_t>(i),
                          static_cast<double>(meta.piece_sizes[i]));
          }
          return;
        }
      } catch (const std::exception&) {
        // Dead server, injected fetch failure, or a block-level checksum
        // trip: all retryable.
      }
      if (attempt < retry_.piece_attempts) {
        refetches.fetch_add(1, std::memory_order_relaxed);
        if (trace) {
          trace->record(obs::TraceKind::kPieceRetry, op, id, meta.servers[i],
                        static_cast<std::uint32_t>(i), static_cast<double>(attempt));
        }
        fault::backoff_sleep(retry_, attempt, fault::retry_token(id, i, pass));
      }
    }
  });
  result.retries += refetches.load(std::memory_order_relaxed);

  auto failed = scratch.arena.make_span<std::size_t>(k);
  std::size_t n_failed = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (!fetched[i]) failed[n_failed++] = i;
  }
  failed = failed.first(n_failed);
  std::size_t degraded = 0;
  if (!failed.empty()) {
    // Failover: restore the checkpointed file inline and serve the
    // unfetchable pieces from it (the read completes degraded while the
    // HealthMonitor/RecoveryManager repair catches up in the background).
    bool restored = false;
    if (stable_ != nullptr) {
      const auto bytes = stable_->restore(id);
      if (bytes && bytes->size() == total && crc32(*bytes) == meta.file_crc) {
        for (std::size_t i : failed) {
          std::copy(bytes->begin() + static_cast<std::ptrdiff_t>(offsets[i]),
                    bytes->begin() + static_cast<std::ptrdiff_t>(offsets[i] + meta.piece_sizes[i]),
                    result.bytes.begin() + static_cast<std::ptrdiff_t>(offsets[i]));
          ++degraded;
          if (trace) {
            trace->record(obs::TraceKind::kPieceDegraded, op, id, meta.servers[i],
                          static_cast<std::uint32_t>(i));
          }
        }
        restored = true;
      }
    }
    if (!restored) {
      error = "piece(s) unfetchable and no usable stable copy";
      return false;
    }
  }

  // Whole-file verification. Clean pass: stitch the per-piece CRCs from
  // the fused copies into crc32(result.bytes) — one O(log piece length)
  // combine per piece, the reassembled buffer is never rescanned.
  // Degraded pass: some ranges came from the stable restore (no fused
  // CRC), so fall back to one full pass.
  std::uint32_t whole_crc;
  if (degraded == 0 && k > 0) {
    whole_crc = piece_crcs[0];
    for (std::size_t i = 1; i < k; ++i) {
      whole_crc = crc32_combine(whole_crc, piece_crcs[i], meta.piece_sizes[i]);
    }
  } else {
    whole_crc = crc32(result.bytes);
  }
  if (whole_crc != meta.file_crc) {
    error = "whole-file checksum mismatch";
    return false;
  }
  result.degraded_pieces += degraded;
  result.degraded = result.degraded_pieces > 0;

  // Parallel fetch: modelled time is the slowest piece at its server's
  // goodput-degraded bandwidth (queueing effects belong to the simulator);
  // a degraded read additionally pays the whole-file restore at the
  // stable store's (slow) recovery bandwidth.
  Seconds slowest = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    if (!fetched[i]) continue;
    const Bandwidth bw = cluster_.server(meta.servers[i]).bandwidth();
    slowest =
        std::max(slowest, static_cast<double>(meta.piece_sizes[i]) / (bw * goodput_.factor(k)));
  }
  if (degraded > 0 && stable_ != nullptr) {
    slowest = std::max(slowest, static_cast<double>(total) / stable_->bandwidth());
  }
  result.network_time = slowest;
  return true;
}

IoResult SpClient::read(FileId id) {
  // Compatibility wrapper: one-shot scratch. Hot callers (benches, the
  // adversarial scenario readers) hold a ReadScratch per thread and call
  // the allocation-free overload directly.
  ReadScratch scratch;
  return std::move(read(id, scratch));
}

IoResult& SpClient::read(FileId id, ReadScratch& scratch) {
  const auto* probes = probes_.load(std::memory_order_acquire);
  obs::TraceRecorder* trace = probes ? probes->trace : nullptr;
  const std::uint64_t op = trace ? trace->begin_op() : 0;
  if (trace) trace->record(obs::TraceKind::kReadStart, op, id);
  const auto start = std::chrono::steady_clock::now();

  IoResult& result = scratch.result;
  result.network_time = 0.0;
  result.compute_time = 0.0;
  result.retries = 0;
  result.degraded_pieces = 0;
  result.degraded = false;
  result.layout_cached = false;
  std::string error = "unknown file";
  for (std::size_t pass = 1; pass <= retry_.read_attempts; ++pass) {
    if (pass > 1) {
      ++result.retries;
      if (trace) {
        trace->record(obs::TraceKind::kReadRepeatPass, op, id, 0, 0,
                      static_cast<double>(pass));
      }
      fault::backoff_sleep(retry_, pass, fault::retry_token(id, 0, pass));
    }
    bool from_cache = false;
    if (!layout_for_pass(id, pass, from_cache, scratch.meta)) {
      if (probes) probes->read_failures->add(1);
      if (trace) trace->record(obs::TraceKind::kReadFailed, op, id);
      throw std::runtime_error("SpClient::read: unknown file");
    }
    if (read_pass(id, pass, op, scratch, error)) {
      result.layout_cached = from_cache;
      if (result.degraded && cache_config_.layout_cache) {
        // A degraded success means this layout references pieces that are
        // gone. Drop it so the next read re-LOOKUPs and picks up a
        // repair's re-placement, instead of replaying the stale layout
        // and paying the stable-store failover on every read forever.
        layout_cache_.invalidate(id);
        if (probes) probes->layout_invalidations->add(1);
      }
      if (probes) {
        const double wall = elapsed_seconds(start);
        probes->reads->add(1);
        probes->retries->add(result.retries);
        if (result.degraded) probes->degraded_reads->add(1);
        probes->degraded_pieces->add(result.degraded_pieces);
        probes->read_wall->record(wall);
        probes->read_model->record(result.network_time + result.compute_time);
        probes->arena_high_water->set(
            static_cast<std::int64_t>(scratch.arena.high_water()));
        probes->arena_fallbacks->set(
            static_cast<std::int64_t>(scratch.arena.fallback_allocs()));
        if (trace) trace->record(obs::TraceKind::kReadDone, op, id, 0, 0, wall);
      }
      return result;
    }
    // The pass failed against this layout: drop it from the cache so the
    // next pass (and concurrent readers) re-LOOKUP instead of replaying a
    // stale layout.
    if (cache_config_.layout_cache) {
      layout_cache_.invalidate(id);
      if (probes) probes->layout_invalidations->add(1);
    }
  }
  if (probes) {
    probes->read_failures->add(1);
    probes->retries->add(result.retries);
    if (trace) trace->record(obs::TraceKind::kReadFailed, op, id);
  }
  throw std::runtime_error("SpClient::read: " + error + " after " +
                           std::to_string(retry_.read_attempts) + " attempts");
}

void SpClient::attach_observability(obs::MetricsRegistry* registry,
                                    obs::TraceRecorder* trace) {
  if (registry == nullptr) {
    probes_.store(nullptr, std::memory_order_release);
    return;
  }
  namespace n = obs::names;
  auto probes = std::make_unique<ObsProbes>();
  probes->reads = &registry->counter(n::kClientReads);
  probes->read_failures = &registry->counter(n::kClientReadFailures);
  probes->retries = &registry->counter(n::kClientRetries);
  probes->degraded_reads = &registry->counter(n::kClientDegradedReads);
  probes->degraded_pieces = &registry->counter(n::kClientDegradedPieces);
  probes->layout_hits = &registry->counter(n::kClientLayoutHits);
  probes->layout_misses = &registry->counter(n::kClientLayoutMisses);
  probes->layout_invalidations = &registry->counter(n::kClientLayoutInvalidations);
  probes->read_wall = &registry->histogram(n::kClientReadLatency);
  probes->read_model = &registry->histogram(n::kClientReadModelled);
  probes->arena_high_water = &registry->gauge(n::kArenaHighWater);
  probes->arena_fallbacks = &registry->gauge(n::kArenaFallbackAllocs);
  probes->trace = trace;
  probes_storage_ = std::move(probes);
  probes_.store(probes_storage_.get(), std::memory_order_release);
}

EcClient::EcClient(Cluster& cluster, Master& master, ThreadPool& pool, std::size_t k,
                   std::size_t n, GoodputModel goodput)
    : cluster_(cluster), master_(master), pool_(pool), rs_(k, n), goodput_(goodput) {}

IoResult EcClient::write(FileId id, std::span<const std::uint8_t> data,
                         const std::vector<std::uint32_t>& servers) {
  if (servers.size() != rs_.total_shards()) {
    throw std::invalid_argument("EcClient::write: need exactly n servers");
  }
  const auto encode_start = std::chrono::steady_clock::now();
  auto shards = rs_.encode(data);
  const double encode_time = elapsed_seconds(encode_start);
  if (auto* probes = probes_.load(std::memory_order_acquire)) {
    probes->encode_bytes->add(data.size());
    if (encode_time > 0.0) {
      probes->encode_gbps->set(static_cast<std::int64_t>(
          static_cast<double>(data.size()) / encode_time / 1e6));  // x1e3 GB/s
    }
  }

  FileMeta meta;
  meta.size = data.size();
  meta.servers = servers;
  meta.piece_sizes.reserve(shards.size());
  for (const auto& s : shards) meta.piece_sizes.push_back(s.bytes.size());
  meta.file_crc = crc32(data);

  Bytes total = 0;
  for (const auto& s : shards) total += s.bytes.size();
  pool_.parallel_for(shards.size(), [&](std::size_t i) {
    cluster_.server(servers[i]).put(BlockKey{id, static_cast<PieceIndex>(i)},
                                    std::move(shards[i].bytes));
  });

  if (master_.peek(id).has_value()) {
    master_.update_file(id, std::move(meta));
  } else {
    master_.register_file(id, std::move(meta));
  }

  IoResult result;
  result.network_time = modelled_write_time(cluster_, servers, total, goodput_);
  result.compute_time = encode_time;
  return result;
}

IoResult EcClient::read(FileId id, Rng& rng) {
  const auto meta = master_.lookup_for_read(id);
  if (!meta) throw std::runtime_error("EcClient::read: unknown file");
  const std::size_t k = rs_.data_shards();
  const std::size_t n = rs_.total_shards();
  if (meta->partitions() != n) throw std::runtime_error("EcClient::read: layout mismatch");

  // Late binding: sample k+1 distinct shards; decode from the first k of
  // the sample (in the real system, the k fastest to arrive).
  const std::size_t fetch_count = std::min(k + 1, n);
  const auto picks = rng.sample_without_replacement(n, fetch_count);

  // Zero-copy shard access: the fetched BlockRefs stay alive for the whole
  // decode, and the decoder reads the cached bytes through non-owning
  // ShardViews — the old path copied every shard into a working Shard
  // first, which doubled the read's memory traffic.
  std::vector<BlockRef> blocks(fetch_count);
  std::vector<ShardView> views(fetch_count);
  pool_.parallel_for(fetch_count, [&](std::size_t j) {
    const std::size_t piece = picks[j];
    auto block = cluster_.server(meta->servers[piece])
                     .get(BlockKey{id, static_cast<PieceIndex>(piece)});
    if (!block) throw std::runtime_error("EcClient::read: missing shard");
    views[j] = ShardView{piece, block->bytes};
    blocks[j] = std::move(block);
  });

  const auto decode_start = std::chrono::steady_clock::now();
  IoResult result;
  result.bytes.resize(meta->size);
  RsScratch scratch;
  // Decode from the first k of the sample (the k "fastest").
  rs_.decode_into(std::span<const ShardView>(views.data(), k), meta->size, result.bytes,
                  scratch);
  result.compute_time = elapsed_seconds(decode_start);
  if (auto* probes = probes_.load(std::memory_order_acquire)) {
    probes->decode_bytes->add(meta->size);
    if (result.compute_time > 0.0) {
      probes->decode_gbps->set(static_cast<std::int64_t>(
          static_cast<double>(meta->size) / result.compute_time / 1e6));  // x1e3 GB/s
    }
  }
  if (crc32(result.bytes) != meta->file_crc) {
    throw std::runtime_error("EcClient::read: whole-file checksum mismatch");
  }
  Seconds slowest = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    const Bandwidth bw = cluster_.server(meta->servers[views[j].index]).bandwidth();
    slowest = std::max(slowest, static_cast<double>(views[j].bytes.size()) /
                                    (bw * goodput_.factor(fetch_count)));
  }
  result.network_time = slowest;
  return result;
}

void EcClient::attach_observability(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    probes_.store(nullptr, std::memory_order_release);
    return;
  }
  namespace n = obs::names;
  auto probes = std::make_unique<CodecProbes>();
  probes->encode_bytes = &registry->counter(n::kCodecEncodeBytes);
  probes->decode_bytes = &registry->counter(n::kCodecDecodeBytes);
  probes->encode_gbps = &registry->gauge(n::kCodecEncodeGbps);
  probes->decode_gbps = &registry->gauge(n::kCodecDecodeGbps);
  probes_storage_ = std::move(probes);
  probes_.store(probes_storage_.get(), std::memory_order_release);
}

}  // namespace spcache
