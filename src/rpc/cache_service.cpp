#include "rpc/cache_service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/crc32.h"
#include "erasure/rs_code.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace spcache::rpc {

namespace {

std::vector<std::uint8_t> empty_body() { return {}; }

// Bound on one repair PUT: a lost reply skips the file instead of parking
// the repair sweep.
constexpr std::chrono::milliseconds kRepairPutTimeout{1000};

}  // namespace

void CacheWorkerService::serve_block_bytes(BufferWriter& w, const Block& block) {
  w.u32(static_cast<std::uint32_t>(block.bytes.size()));
  // The copy into the reply IS the integrity scan: one fused pass instead
  // of a verify scan in the store followed by a separate append copy.
  const auto dst = w.extend(block.bytes.size());
  if (crc32_copy(dst, block.bytes) != block.crc) {
    throw std::runtime_error("checksum mismatch (corrupted block)");
  }
}

void write_meta(BufferWriter& w, const FileMeta& meta) {
  w.u64(meta.size);
  w.u32(meta.file_crc);
  w.u64(meta.epoch);
  w.u32(static_cast<std::uint32_t>(meta.partitions()));
  for (std::size_t i = 0; i < meta.partitions(); ++i) {
    w.u32(meta.servers[i]);
    w.u64(meta.piece_sizes[i]);
  }
}

FileMeta read_meta(BufferReader& r) {
  FileMeta meta;
  meta.size = r.u64();
  meta.file_crc = r.u32();
  meta.epoch = r.u64();
  const std::uint32_t n = r.u32();
  meta.servers.reserve(n);
  meta.piece_sizes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    meta.servers.push_back(r.u32());
    meta.piece_sizes.push_back(r.u64());
  }
  return meta;
}

CacheWorkerService::CacheWorkerService(Bus& bus, NodeId node_id, std::uint32_t server_id,
                                       Bandwidth bandwidth)
    : store_(server_id, bandwidth) {
  // Every handler is a bounded in-memory operation that never calls out,
  // so over TCP they run on the loop thread as requests decode.
  node_ = std::make_unique<RpcNode>(bus, node_id, "worker-" + std::to_string(server_id),
                                    RpcNode::Dispatch::kInline);
  node_->handle(kPutBlock, [this](BufferReader& r) {
    const auto file = static_cast<FileId>(r.u32());
    const auto piece = static_cast<PieceIndex>(r.u32());
    // View straight into the request payload: the only copy of the block
    // bytes is the fused copy+CRC inside put_copy.
    const auto data = r.bytes_view();
    const std::uint64_t epoch = r.u64();
    store_.put_copy(BlockKey{file, piece}, data);
    auto& recorded = epochs_[file];
    recorded = std::max(recorded, epoch);
    return empty_body();
  });
  node_->handle_into(kGetBlock, [this](BufferReader& r, BufferWriter& w) {
    const auto file = static_cast<FileId>(r.u32());
    const auto piece = static_cast<PieceIndex>(r.u32());
    // Fused serve: the block bytes go from the store straight into the
    // reply payload with one crc32_copy pass that doubles as the verify
    // scan — no body vector, no separate checksum sweep.
    const auto block = store_.get_for_serve(BlockKey{file, piece});
    if (!block) throw std::runtime_error("block not found");
    w.reserve(4 + block->bytes.size());
    serve_block_bytes(w, *block);
  });
  node_->handle_into(kGetBlockMulti, [this](BufferReader& r, BufferWriter& w) {
    const auto file = static_cast<FileId>(r.u32());
    const std::uint64_t epoch = r.u64();
    if (const auto it = epochs_.find(file); it != epochs_.end() && epoch < it->second) {
      // The request was built against a layout this worker has already
      // seen superseded: reject it wholesale so the client re-LOOKUPs
      // instead of fetching pieces of a torn layout.
      throw WrongEpochError("stale layout epoch " + std::to_string(epoch) + " < " +
                            std::to_string(it->second));
    }
    const std::uint32_t count = r.u32();
    // Piece indices land in the arena, BlockRefs in the recycled vector:
    // in steady state this handler's only allocation is the reply payload
    // itself, whose ownership transfers to the wire.
    scratch_arena_.reset();
    const auto pieces = scratch_arena_.make_span<PieceIndex>(count);
    for (auto& p : pieces) p = static_cast<PieceIndex>(r.u32());
    scratch_blocks_.clear();
    scratch_blocks_.reserve(count);
    std::size_t total = 0;
    for (const auto piece : pieces) {
      scratch_blocks_.push_back(store_.get_for_serve(BlockKey{file, piece}));
      if (scratch_blocks_.back()) total += scratch_blocks_.back()->bytes.size();
    }
    // Reply: count u32, then per piece a found byte + length-prefixed
    // bytes. The reply length is known exactly, so one reserve() replaces
    // the doubling reallocations a multi-megabyte append sequence pays.
    w.reserve(4 + count * 5 + total);
    w.u32(count);
    for (const auto& block : scratch_blocks_) {
      if (!block) {
        w.u8(0);  // missing piece: the client's per-piece retry handles it
        continue;
      }
      w.u8(1);
      serve_block_bytes(w, *block);
    }
    scratch_blocks_.clear();  // drop the shared refs before the reply ships
  });
  node_->handle_into(kGetRange, [this](BufferReader& r, BufferWriter& w) {
    const auto file = static_cast<FileId>(r.u32());
    const auto piece = static_cast<PieceIndex>(r.u32());
    const Bytes offset = r.u64();
    const Bytes length = r.u64();
    const auto bytes = store_.get_range(BlockKey{file, piece}, offset, length);
    w.reserve(4 + bytes.size());
    w.bytes(bytes);
  });
  node_->handle(kStagePiece, [this](BufferReader& r) {
    const auto file = static_cast<FileId>(r.u32());
    const auto piece = static_cast<PieceIndex>(r.u32());
    const std::uint64_t epoch = r.u64();
    const std::uint8_t op = r.u8();
    const BlockKey key{file, piece};
    BufferWriter w;
    switch (op) {
      case kStageOpAppend: {
        const Bytes piece_size = r.u64();
        const Bytes offset = r.u64();
        store_.stage_range(key, epoch, piece_size, offset, r.bytes_view());
        w.u8(1);
        break;
      }
      case kStageOpLocalCopy: {
        // The source range is resident right here: serve it out of the own
        // store and stage it without any payload having crossed the wire.
        const Bytes piece_size = r.u64();
        const Bytes offset = r.u64();
        const auto src_piece = static_cast<PieceIndex>(r.u32());
        const Bytes src_offset = r.u64();
        const Bytes length = r.u64();
        const auto bytes = store_.get_range(BlockKey{file, src_piece}, src_offset, length);
        store_.stage_range(key, epoch, piece_size, offset, bytes);
        w.u8(1);
        break;
      }
      case kStageOpFinalize:
        w.u8(store_.finalize_staged(key, epoch) ? 1 : 0);
        break;
      case kStageOpPublish: {
        const bool ok = store_.publish_staged(key, epoch);
        if (ok) {
          // The published piece belongs to the new layout generation:
          // record it so a multi-GET built against the old one is rejected
          // with kWrongEpoch instead of served a torn mix.
          auto& recorded = epochs_[file];
          recorded = std::max(recorded, epoch);
        }
        w.u8(ok ? 1 : 0);
        break;
      }
      case kStageOpDiscard:
        w.u8(store_.discard_staged(key, epoch) ? 1 : 0);
        break;
      default:
        throw std::runtime_error("kStagePiece: unknown op " + std::to_string(op));
    }
    return w.take();
  });
  node_->handle(kEraseBlock, [this](BufferReader& r) {
    const auto file = static_cast<FileId>(r.u32());
    const auto piece = static_cast<PieceIndex>(r.u32());
    BufferWriter w;
    w.u8(store_.erase(BlockKey{file, piece}) ? 1 : 0);
    return w.take();
  });
  node_->handle(kPing, [](BufferReader& r) {
    // Liveness probe: echo the caller's token. Running on the service
    // thread means a wedged worker fails the probe, not just a dead one.
    BufferWriter w;
    w.u64(r.u64());
    return w.take();
  });
  node_->start();
}

MasterService::MasterService(Bus& bus, NodeId node_id) {
  // Metadata and stable-store handlers never block or call out: inline.
  node_ = std::make_unique<RpcNode>(bus, node_id, "sp-master", RpcNode::Dispatch::kInline);
  node_->handle(kRegisterFile, [this](BufferReader& r) {
    const auto id = static_cast<FileId>(r.u32());
    FileMeta meta = read_meta(r);  // .epoch is the writer's proposal
    if (master_.peek(id).has_value()) {
      master_.update_file(id, std::move(meta));
    } else {
      master_.register_file(id, std::move(meta));
    }
    // Reply with the epoch the master actually assigned (it enforces
    // monotonicity past the proposal) so the writer can cache its own
    // layout at the authoritative generation.
    BufferWriter w;
    w.u64(master_.file_epoch(id));
    return w.take();
  });
  node_->handle(kLookupFile, [this](BufferReader& r) {
    const auto id = static_cast<FileId>(r.u32());
    const auto meta = master_.lookup_for_read(id);
    if (!meta) throw std::runtime_error("unknown file");
    BufferWriter w;
    write_meta(w, *meta);
    return w.take();
  });
  node_->handle(kLookupBatch, [this](BufferReader& r) {
    const std::uint32_t count = r.u32();
    BufferWriter w;
    w.u32(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto id = static_cast<FileId>(r.u32());
      const auto meta = master_.lookup_for_read(id);
      if (!meta) {
        w.u8(0);
        continue;
      }
      w.u8(1);
      write_meta(w, *meta);
    }
    return w.take();
  });
  node_->handle(kAccessCount, [this](BufferReader& r) {
    const auto id = static_cast<FileId>(r.u32());
    BufferWriter w;
    w.u64(master_.access_count(id));
    return w.take();
  });
  node_->handle(kFileEpoch, [this](BufferReader& r) {
    const auto id = static_cast<FileId>(r.u32());
    BufferWriter w;
    w.u64(master_.file_epoch(id));
    return w.take();
  });
  node_->handle(kReportAccess, [this](BufferReader& r) {
    const std::uint32_t count = r.u32();
    std::vector<std::pair<FileId, std::uint64_t>> deltas;
    deltas.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto id = static_cast<FileId>(r.u32());
      deltas.emplace_back(id, r.u64());
    }
    BufferWriter w;
    w.u64(master_.report_access_batch(deltas));
    return w.take();
  });
  node_->handle(kPutStable, [this](BufferReader& r) {
    // Alluxio-style checkpoint to the stable tier: the whole file, kept
    // durable so a worker death is repairable without cache replicas.
    const auto id = static_cast<FileId>(r.u32());
    stable_.checkpoint(id, r.bytes_view());
    return empty_body();
  });
  node_->handle(kPing, [](BufferReader& r) {
    BufferWriter w;
    w.u64(r.u64());
    return w.take();
  });
  node_->start();
}

RepairPeers rpc_repair_peers(RpcNode& node, std::vector<NodeId> worker_of_server,
                             std::function<bool(std::uint32_t server)> alive) {
  return RepairPeers{
      std::move(alive),
      [&node, workers = std::move(worker_of_server)](
          std::uint32_t server, BlockKey key, std::span<const std::uint8_t> bytes,
          std::uint64_t epoch) {
        BufferWriter w;
        w.reserve(4 + 4 + 4 + bytes.size() + 8);
        w.u32(key.file);
        w.u32(key.piece);
        w.bytes(bytes);
        w.u64(epoch);
        return node.call_sync(workers.at(server), kPutBlock, w.take(), kRepairPutTimeout).ok();
      }};
}

RpcSpClient::RpcSpClient(Bus& bus, NodeId node_id, NodeId master_node,
                         std::vector<NodeId> worker_of_server, fault::RetryPolicy retry,
                         std::chrono::milliseconds rpc_timeout, ClientCacheConfig cache)
    : bus_(bus),
      master_node_(master_node),
      worker_of_server_(std::move(worker_of_server)),
      retry_(retry),
      rpc_timeout_(rpc_timeout),
      cache_config_(cache),
      layout_cache_(cache.cache_capacity),
      access_acc_(cache.report_flush_threshold) {
  // No handlers and no start(): replies resolve on the delivering thread.
  node_ = std::make_unique<RpcNode>(bus, node_id, "sp-client-" + std::to_string(node_id));
}

RpcSpClient::~RpcSpClient() {
  try {
    flush_access_reports();
  } catch (const std::exception&) {
    // Best effort: a dead master must not fail teardown.
  }
}

std::uint64_t RpcSpClient::flush_access_reports() {
  const auto deltas = access_acc_.drain();
  if (deltas.empty()) return 0;
  BufferWriter w;
  w.u32(static_cast<std::uint32_t>(deltas.size()));
  for (const auto& [id, delta] : deltas) {
    w.u32(id);
    w.u64(delta);
  }
  const auto reply = node_->call_sync(master_node_, kReportAccess, w.take(), rpc_timeout_);
  if (!reply.ok()) {
    // The envelope (or master) was lost: put the counts back so the next
    // flush retries them — popularity must not silently leak away.
    for (const auto& [id, delta] : deltas) access_acc_.record(id, delta);
    return 0;
  }
  BufferReader r(reply.payload);
  return r.u64();
}

std::size_t RpcSpClient::prefetch_layouts(const std::vector<FileId>& ids) {
  if (!cache_config_.layout_cache || ids.empty()) return 0;
  BufferWriter w;
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const auto id : ids) w.u32(id);
  const auto reply = node_->call_sync(master_node_, kLookupBatch, w.take(), rpc_timeout_);
  if (!reply.ok()) return 0;
  BufferReader r(reply.payload);
  const std::uint32_t count = r.u32();
  std::size_t found = 0;
  for (std::uint32_t i = 0; i < count && i < ids.size(); ++i) {
    if (r.u8() == 0) continue;
    layout_cache_.put(ids[i], read_meta(r));
    ++found;
  }
  return found;
}

std::uint64_t RpcSpClient::file_epoch(FileId id) {
  BufferWriter w;
  w.u32(id);
  const auto reply = node_->call_sync(master_node_, kFileEpoch, w.take(), rpc_timeout_);
  if (!reply.ok()) return 0;  // the master re-enforces monotonicity at REGISTER
  BufferReader r(reply.payload);
  return r.u64();
}

void RpcSpClient::write(FileId id, std::span<const std::uint8_t> data,
                        const std::vector<std::uint32_t>& servers) {
  const auto pieces = split_plain(data, servers.size());
  // Propose the next layout generation. The workers record it at PUT so a
  // later multi-GET against the *previous* generation draws kWrongEpoch;
  // the master keeps max(proposal, current+1), so a lost/failed kFileEpoch
  // degrades to a weaker proposal, never a regression.
  const std::uint64_t proposed = file_epoch(id) + 1;

  // Fan out the PUTs, then join — within one rpc_timeout_, so a lost
  // reply fails the write instead of hanging it.
  std::vector<RpcNode::PendingCall> puts;
  puts.reserve(pieces.size());
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    BufferWriter w;
    w.reserve(4 + 4 + 4 + pieces[i].size() + 8);  // whole PUT frame, one allocation
    w.u32(id);
    w.u32(static_cast<std::uint32_t>(i));
    w.bytes(pieces[i]);
    w.u64(proposed);
    puts.push_back(node_->call_tagged(worker_of_server_.at(servers[i]), kPutBlock, w.take(),
                                      rpc_timeout_));
  }
  const auto put_deadline = std::chrono::steady_clock::now() + rpc_timeout_;
  for (auto& put : puts) {
    const auto reply = node_->await(put, put_deadline);
    if (!reply.ok()) {
      for (auto& other : puts) node_->forget(other.request_id);
      throw std::runtime_error("PUT failed: " + reply.error_text());
    }
  }

  FileMeta meta;
  meta.size = data.size();
  meta.file_crc = crc32(data);
  meta.epoch = proposed;
  meta.servers = servers;
  meta.piece_sizes.reserve(pieces.size());
  for (const auto& p : pieces) meta.piece_sizes.push_back(p.size());

  BufferWriter w;
  w.u32(id);
  write_meta(w, meta);
  const auto reply = node_->call_sync(master_node_, kRegisterFile, w.take());
  if (!reply.ok()) throw std::runtime_error("REGISTER failed: " + reply.error_text());
  if (cache_config_.layout_cache) {
    BufferReader r(reply.payload);
    meta.epoch = r.u64();  // the epoch the master actually assigned
    layout_cache_.put(id, std::move(meta));
  }

  // Checkpoint the whole file to the master's stable tier (Section 8: the
  // underlying storage, not cache replicas, is the durability story). Best
  // effort — a lost checkpoint narrows repair coverage, never fails the
  // write; the file is already served from cache.
  BufferWriter cw;
  cw.reserve(4 + 4 + data.size());
  cw.u32(id);
  cw.bytes(data);
  (void)node_->call_sync(master_node_, kPutStable, cw.take());
}

std::optional<std::vector<std::uint8_t>> RpcSpClient::fetch_piece(FileId id, std::uint32_t piece,
                                                                  NodeId worker, std::size_t pass,
                                                                  std::uint64_t op,
                                                                  std::size_t& retries) {
  const auto* probes = probes_.load(std::memory_order_acquire);
  obs::TraceRecorder* trace = probes ? probes->trace : nullptr;
  for (std::size_t attempt = 1; attempt <= retry_.piece_attempts; ++attempt) {
    BufferWriter w;
    w.u32(id);
    w.u32(piece);
    auto pending = node_->call_tagged(worker, kGetBlock, w.take());
    Reply reply;
    if (pending.reply.wait_for(rpc_timeout_) == std::future_status::ready) {
      reply = pending.reply.get();
    } else {
      // Lost request or reply (dropped envelope, dead worker): reclaim the
      // slot so the late reply — if any — is a counted no-op.
      node_->forget(pending.request_id);
      reply.status = Status::kError;
    }
    if (reply.ok()) {
      BufferReader pr(reply.payload);
      auto bytes = pr.bytes();
      if (trace) {
        trace->record(obs::TraceKind::kPieceFetch, op, id, worker, piece,
                      static_cast<double>(bytes.size()));
      }
      return bytes;
    }
    if (attempt < retry_.piece_attempts) {
      ++retries;
      if (trace) {
        trace->record(obs::TraceKind::kPieceRetry, op, id, worker, piece,
                      static_cast<double>(attempt));
      }
      fault::backoff_sleep(retry_, attempt, fault::retry_token(id, piece, pass));
    }
  }
  return std::nullopt;
}

std::optional<FileMeta> RpcSpClient::layout_for_pass(FileId id, std::size_t pass,
                                                     bool& from_cache, bool& unknown,
                                                     std::string& error) {
  const auto* probes = probes_.load(std::memory_order_acquire);
  from_cache = false;
  unknown = false;
  if (cache_config_.layout_cache && pass == 1) {
    if (auto cached = layout_cache_.get(id)) {
      from_cache = true;
      if (probes) probes->layout_hits->add(1);
      // The master saw no LOOKUP for this read: tally it locally and ship
      // the batch once the threshold fills.
      if (access_acc_.record(id)) flush_access_reports();
      return cached;
    }
    if (probes) probes->layout_misses->add(1);
  }
  BufferWriter lookup;
  lookup.u32(id);
  const auto reply = node_->call_sync(master_node_, kLookupFile, lookup.take(), rpc_timeout_);
  if (!reply.ok()) {
    error = "LOOKUP failed: " + reply.error_text();
    unknown = reply.error_text() == "unknown file";
    return std::nullopt;
  }
  BufferReader r(reply.payload);
  FileMeta meta = read_meta(r);
  if (cache_config_.layout_cache) layout_cache_.put(id, meta);
  return meta;
}

bool RpcSpClient::multi_get_pass(FileId id, const FileMeta& meta, std::size_t pass,
                                 std::uint64_t op, std::vector<std::uint8_t>& out,
                                 std::size_t& retries, bool& wrong_epoch,
                                 std::uint32_t& whole_crc, std::string& error) {
  const auto* probes = probes_.load(std::memory_order_acquire);
  obs::TraceRecorder* trace = probes ? probes->trace : nullptr;
  const std::size_t n = meta.partitions();
  std::vector<std::uint64_t> offsets(n, 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    offsets[i] = total;
    total += meta.piece_sizes[i];
  }
  // resize() zero-fills a fresh vector; the fused copies below then write
  // every byte of a successful pass, and a failed pass never surfaces
  // `out`.
  out.resize(total);
  std::vector<std::uint8_t> have(n, 0);
  std::vector<std::uint32_t> piece_crcs(n, 0);
  const auto fused_copy_at = [&](std::size_t i, std::span<const std::uint8_t> bytes) {
    piece_crcs[i] = crc32_copy(
        std::span<std::uint8_t>(out.data() + offsets[i], bytes.size()), bytes);
    have[i] = 1;
  };
  wrong_epoch = false;

  if (cache_config_.coalesce) {
    // Coalesce: one kGetBlockMulti per destination worker, covering every
    // piece of this file that lives there.
    struct Group {
      NodeId worker = 0;
      std::vector<std::uint32_t> pieces;
      RpcNode::PendingCall call;
    };
    std::vector<Group> groups;
    std::unordered_map<NodeId, std::size_t> group_of;
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId worker = worker_of_server_.at(meta.servers[i]);
      const auto [it, inserted] = group_of.try_emplace(worker, groups.size());
      if (inserted) {
        groups.emplace_back();
        groups.back().worker = worker;
      }
      groups[it->second].pieces.push_back(static_cast<std::uint32_t>(i));
    }
    auto* bus_probes = bus_.observability();
    for (auto& g : groups) {
      BufferWriter w;
      w.u32(id);
      w.u64(meta.epoch);
      w.u32(static_cast<std::uint32_t>(g.pieces.size()));
      for (const auto p : g.pieces) w.u32(p);
      g.call = node_->call_tagged(g.worker, kGetBlockMulti, w.take());
      if (g.pieces.size() > 1 && bus_probes && bus_probes->envelopes_coalesced) {
        bus_probes->envelopes_coalesced->add(g.pieces.size() - 1);
      }
    }
    for (auto& g : groups) {
      Reply reply;
      if (g.call.reply.wait_for(rpc_timeout_) == std::future_status::ready) {
        reply = g.call.reply.get();
      } else {
        node_->forget(g.call.request_id);
        reply.status = Status::kError;
      }
      if (reply.status == Status::kWrongEpoch) {
        // Keep draining the remaining groups' futures (their replies
        // self-resolve), but the pass is already lost.
        wrong_epoch = true;
        error = "stale layout: " + reply.error_text();
        continue;
      }
      if (!reply.ok()) continue;  // whole group falls to the per-piece path
      BufferReader pr(reply.payload);
      const std::uint32_t count = pr.u32();
      if (count != g.pieces.size()) continue;
      for (const auto i : g.pieces) {
        if (pr.u8() == 0) continue;  // missing on the worker
        const auto bytes = pr.bytes_view();
        if (bytes.size() != meta.piece_sizes[i]) continue;
        fused_copy_at(i, bytes);
        if (trace) {
          trace->record(obs::TraceKind::kPieceFetch, op, id, g.worker, i,
                        static_cast<double>(bytes.size()));
        }
      }
    }
    if (wrong_epoch) return false;
  } else {
    // Baseline: one kGetBlock per piece, fanned out in parallel.
    std::vector<RpcNode::PendingCall> gets;
    gets.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      BufferWriter w;
      w.u32(id);
      w.u32(i);
      gets.push_back(node_->call_tagged(worker_of_server_.at(meta.servers[i]), kGetBlock,
                                        w.take()));
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      Reply reply;
      if (gets[i].reply.wait_for(rpc_timeout_) == std::future_status::ready) {
        reply = gets[i].reply.get();
      } else {
        node_->forget(gets[i].request_id);
        reply.status = Status::kError;
      }
      if (!reply.ok()) continue;
      BufferReader pr(reply.payload);
      const auto bytes = pr.bytes_view();
      if (bytes.size() != meta.piece_sizes[i]) continue;
      fused_copy_at(i, bytes);
      if (trace) {
        trace->record(obs::TraceKind::kPieceFetch, op, id, worker_of_server_.at(meta.servers[i]),
                      i, static_cast<double>(bytes.size()));
      }
    }
  }

  // Per-piece retry fallback for anything the fan-out missed.
  bool all_ok = true;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (have[i]) continue;
    const NodeId worker = worker_of_server_.at(meta.servers[i]);
    ++retries;
    if (trace) trace->record(obs::TraceKind::kPieceRetry, op, id, worker, i, 0.0);
    const auto bytes = fetch_piece(id, i, worker, pass, op, retries);
    if (!bytes || bytes->size() != meta.piece_sizes[i]) {
      all_ok = false;
      error = "piece " + std::to_string(i) + " unfetchable";
      continue;
    }
    fused_copy_at(i, *bytes);
  }
  if (all_ok) {
    // Stitch the per-piece CRCs (from the fused copies) into crc32(out):
    // one O(log piece length) combine per piece instead of a second pass
    // over the reassembled file.
    whole_crc = n > 0 ? piece_crcs[0] : crc32(out);
    for (std::size_t i = 1; i < n; ++i) {
      whole_crc = crc32_combine(whole_crc, piece_crcs[i], meta.piece_sizes[i]);
    }
  }
  return all_ok;
}

RpcReadStats RpcSpClient::do_read(FileId id) {
  const auto* probes = probes_.load(std::memory_order_acquire);
  obs::TraceRecorder* trace = probes ? probes->trace : nullptr;
  const std::uint64_t op = trace ? trace->begin_op() : 0;
  if (trace) trace->record(obs::TraceKind::kReadStart, op, id);
  const auto start = std::chrono::steady_clock::now();

  RpcReadStats stats;
  std::string error = "retry budget exhausted";
  for (std::size_t pass = 1; pass <= retry_.read_attempts; ++pass) {
    stats.passes = pass;
    if (pass > 1) {
      ++stats.retries;
      if (trace) {
        trace->record(obs::TraceKind::kReadRepeatPass, op, id, 0, 0,
                      static_cast<double>(pass));
      }
      fault::backoff_sleep(retry_, pass, fault::retry_token(id, 0, pass));
    }
    bool from_cache = false;
    bool unknown = false;
    const auto meta = layout_for_pass(id, pass, from_cache, unknown, error);
    if (!meta) {
      if (unknown) {
        if (probes) probes->read_failures->add(1);
        if (trace) trace->record(obs::TraceKind::kReadFailed, op, id);
        throw std::runtime_error("RpcSpClient::read: unknown file");
      }
      continue;  // transient LOOKUP failure: back off and retry the pass
    }

    std::vector<std::uint8_t> out;
    bool wrong_epoch = false;
    std::uint32_t whole_crc = 0;
    bool fetched = multi_get_pass(id, *meta, pass, op, out, stats.retries, wrong_epoch,
                                  whole_crc, error);
    if (fetched && (out.size() != meta->size || whole_crc != meta->file_crc)) {
      error = "whole-file checksum mismatch";
      fetched = false;
    }
    if (!fetched) {
      // This layout failed us — whether it came from the cache or a LOOKUP
      // that raced a repartition. Drop it so pass+1 (and concurrent
      // readers) start from a fresh LOOKUP.
      if (cache_config_.layout_cache) {
        layout_cache_.invalidate(id);
        if (probes) probes->layout_invalidations->add(1);
      }
      continue;
    }
    stats.bytes = std::move(out);
    stats.layout_cached = from_cache;
    if (probes) {
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      probes->reads->add(1);
      probes->retries->add(stats.retries);
      probes->read_wall->record(wall);
      if (trace) trace->record(obs::TraceKind::kReadDone, op, id, 0, 0, wall);
    }
    return stats;
  }
  if (probes) {
    probes->read_failures->add(1);
    probes->retries->add(stats.retries);
    if (trace) trace->record(obs::TraceKind::kReadFailed, op, id);
  }
  throw std::runtime_error("RpcSpClient::read: " + error + " after " +
                           std::to_string(retry_.read_attempts) + " attempts");
}

RpcReadStats RpcSpClient::read_with_stats(FileId id) {
  if (!cache_config_.single_flight) return do_read(id);

  std::shared_ptr<Inflight> inflight;
  bool leader = false;
  {
    std::lock_guard lock(sf_mu_);
    auto& slot = inflight_[id];
    if (!slot) {
      slot = std::make_shared<Inflight>();
      slot->future = slot->promise.get_future().share();
      leader = true;
    } else {
      ++slot->waiters;
    }
    inflight = slot;
  }
  if (!leader) {
    // Single-flight follower: the leader's fetch is already on the wire;
    // wait for its result and copy the bytes instead of re-fetching.
    if (const auto* probes = probes_.load(std::memory_order_acquire)) {
      probes->singleflight_shared->add(1);
    }
    const auto shared = inflight->future.get();  // rethrows the leader's failure
    RpcReadStats stats;
    stats.bytes = shared->bytes;
    stats.passes = shared->passes;
    stats.layout_cached = shared->layout_cached;
    stats.shared = true;
    return stats;
  }
  std::size_t waiters = 0;
  try {
    auto stats = do_read(id);
    {
      std::lock_guard lock(sf_mu_);
      inflight_.erase(id);
      waiters = inflight->waiters;
    }
    // Publish (one bytes copy) only if someone actually waited.
    if (waiters > 0) inflight->promise.set_value(std::make_shared<const RpcReadStats>(stats));
    return stats;
  } catch (...) {
    {
      std::lock_guard lock(sf_mu_);
      inflight_.erase(id);
      waiters = inflight->waiters;
    }
    if (waiters > 0) inflight->promise.set_exception(std::current_exception());
    throw;
  }
}

std::vector<std::uint8_t> RpcSpClient::read(FileId id) { return read_with_stats(id).bytes; }

void RpcSpClient::attach_observability(obs::MetricsRegistry* registry,
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
  probes->layout_hits = &registry->counter(n::kClientLayoutHits);
  probes->layout_misses = &registry->counter(n::kClientLayoutMisses);
  probes->layout_invalidations = &registry->counter(n::kClientLayoutInvalidations);
  probes->singleflight_shared = &registry->counter(n::kClientSingleFlightShared);
  probes->read_wall = &registry->histogram(n::kClientReadLatency);
  probes->trace = trace;
  probes_storage_ = std::move(probes);
  probes_.store(probes_storage_.get(), std::memory_order_release);
}

std::uint64_t RpcSpClient::access_count(FileId id) {
  BufferWriter w;
  w.u32(id);
  const auto reply = node_->call_sync(master_node_, kAccessCount, w.take());
  if (!reply.ok()) throw std::runtime_error("ACCESS_COUNT failed: " + reply.error_text());
  BufferReader r(reply.payload);
  return r.u64();
}

}  // namespace spcache::rpc
