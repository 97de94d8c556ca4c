#include "rpc/repartitioner_service.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace spcache::rpc {

namespace {

// Bound on every call a repartition handler makes (the call_sync
// default), so a lost reply fails the file instead of parking the service
// thread and every request queued behind it.
constexpr std::chrono::milliseconds kCallTimeout{5000};

// Most calls one kDeltaRepartitionFile handler makes for a file re-cut
// from k_old to k_new pieces: the LOOKUP; a kGetRange and a kStagePiece
// per range of the transfer plan (at most k_old + k_new - 1 ranges); a
// finalize and a publish per new piece; the epoch check and REGISTER; then
// a GC erase per old piece or, on the abort path, a discard per new piece.
std::size_t delta_handler_max_calls(std::size_t k_old, std::size_t k_new) {
  return 1 + 2 * (k_old + k_new - 1) + 2 * k_new + 2 + std::max(k_old, k_new);
}

}  // namespace

RepartitionerService::RepartitionerService(Bus& bus, NodeId node_id, std::uint32_t server_id,
                                           NodeId master_node,
                                           std::vector<NodeId> worker_of_server)
    : master_node_(master_node),
      worker_of_server_(std::move(worker_of_server)) {
  // A mailbox node: the handler calls out (LOOKUP, GET_RANGE, STAGE,
  // REGISTER through the same node) and blocks on the replies, which
  // resolve on the thread that delivers them, not on this node's service
  // thread.
  node_ = std::make_unique<RpcNode>(bus, node_id, "repartitioner-" + std::to_string(server_id));
  node_->handle(kDeltaRepartitionFile,
                [this](BufferReader& r) { return handle_delta_repartition(r); });
  node_->start();
}

std::vector<std::uint8_t> RepartitionerService::handle_delta_repartition(BufferReader& r) {
  const auto file = static_cast<FileId>(r.u32());
  const std::uint32_t new_n = r.u32();
  std::vector<std::uint32_t> new_servers(new_n);
  for (auto& s : new_servers) s = r.u32();

  // Authoritative current layout — sizes and epoch — straight from the
  // master; the coordinator only chose the destination.
  FileMeta meta;
  {
    BufferWriter w;
    w.u32(file);
    const auto reply = node_->call_sync(master_node_, kLookupFile, w.take());
    if (!reply.ok()) {
      throw std::runtime_error("delta repartition LOOKUP failed: " + reply.error_text());
    }
    BufferReader mr(reply.payload);
    meta = read_meta(mr);
  }
  const std::uint64_t staging_epoch = meta.epoch + 1;
  const auto rplan = plan_range_transfer(meta.size, meta.piece_sizes, meta.servers, new_servers);

  // Common kStagePiece request header.
  const auto stage_header = [&](BufferWriter& w, std::uint32_t piece, std::uint8_t op) {
    w.u32(file);
    w.u32(piece);
    w.u64(staging_epoch);
    w.u8(op);
  };
  const auto discard_all = [&] {
    for (const auto& piece : rplan.pieces) {
      BufferWriter w;
      stage_header(w, piece.new_piece, kStageOpDiscard);
      node_->call_sync(worker_of_server_.at(piece.dst_server), kStagePiece, w.take());
    }
  };

  Bytes moved = 0;
  Bytes saved = 0;
  try {
    // Phase 1: stage every new piece, range by range. Only remote ranges
    // carry payload — and each is relayed straight from its source worker
    // to its destination worker, never accumulated here.
    for (const auto& piece : rplan.pieces) {
      const NodeId dst = worker_of_server_.at(piece.dst_server);
      Bytes filled = 0;
      for (const auto& range : piece.sources) {
        if (range.local) {
          BufferWriter w;
          stage_header(w, piece.new_piece, kStageOpLocalCopy);
          w.u64(piece.piece_size);
          w.u64(filled);
          w.u32(range.old_piece);
          w.u64(range.offset_in_piece);
          w.u64(range.length);
          const auto reply = node_->call_sync(dst, kStagePiece, w.take());
          if (!reply.ok()) {
            throw std::runtime_error("stage local-copy failed: " + reply.error_text());
          }
          saved += range.length;
        } else {
          BufferWriter g;
          g.u32(file);
          g.u32(range.old_piece);
          g.u64(range.offset_in_piece);
          g.u64(range.length);
          const auto got =
              node_->call_sync(worker_of_server_.at(range.src_server), kGetRange, g.take());
          if (!got.ok()) {
            throw std::runtime_error("GET_RANGE failed: " + got.error_text());
          }
          BufferReader pr(got.payload);
          const auto bytes = pr.bytes_view();
          BufferWriter w;
          w.reserve(4 + 4 + 8 + 1 + 8 + 8 + 4 + bytes.size());
          stage_header(w, piece.new_piece, kStageOpAppend);
          w.u64(piece.piece_size);
          w.u64(filled);
          w.bytes(bytes);
          const auto reply = node_->call_sync(dst, kStagePiece, w.take());
          if (!reply.ok()) {
            throw std::runtime_error("stage append failed: " + reply.error_text());
          }
          moved += range.length;
        }
        filled += range.length;
      }
      // Seal now (completeness + CRC) so the publishes below are pure map
      // splices.
      BufferWriter w;
      stage_header(w, piece.new_piece, kStageOpFinalize);
      const auto reply = node_->call_sync(dst, kStagePiece, w.take());
      bool sealed = reply.ok();
      if (sealed) {
        BufferReader fr(reply.payload);
        sealed = fr.u8() != 0;
      }
      if (!sealed) throw std::runtime_error("finalize of staged piece failed");
    }

    // Phase 2: optimistic cutover. Abort if another writer landed a layout
    // since we planned — our staged bytes describe a stale file.
    {
      BufferWriter w;
      w.u32(file);
      const auto reply = node_->call_sync(master_node_, kFileEpoch, w.take());
      if (!reply.ok()) throw std::runtime_error("delta repartition epoch check failed");
      BufferReader er(reply.payload);
      if (er.u64() != meta.epoch) {
        throw std::runtime_error("delta repartition lost the race (epoch moved)");
      }
    }
    for (const auto& piece : rplan.pieces) {
      BufferWriter w;
      stage_header(w, piece.new_piece, kStageOpPublish);
      const auto reply =
          node_->call_sync(worker_of_server_.at(piece.dst_server), kStagePiece, w.take());
      bool published = reply.ok();
      if (published) {
        BufferReader fr(reply.payload);
        published = fr.u8() != 0;
      }
      if (!published) throw std::runtime_error("publish of staged piece failed");
    }
    FileMeta new_meta;
    new_meta.size = meta.size;
    new_meta.file_crc = meta.file_crc;  // content is unchanged, only its cut
    new_meta.epoch = staging_epoch;
    new_meta.servers = new_servers;
    new_meta.piece_sizes.reserve(rplan.pieces.size());
    for (const auto& piece : rplan.pieces) new_meta.piece_sizes.push_back(piece.piece_size);
    BufferWriter reg;
    reg.u32(file);
    write_meta(reg, new_meta);
    const auto reply = node_->call_sync(master_node_, kRegisterFile, reg.take());
    if (!reply.ok()) throw std::runtime_error("delta repartition REGISTER failed");
  } catch (const std::exception&) {
    discard_all();
    throw;
  }

  // Phase 3: lazy GC. An old piece whose index and server survive into the
  // new layout was overwritten by the publish (same block key) — everything
  // else is unreachable through the master now and can go. Best effort: a
  // failed erase leaves a harmless orphan, not an inconsistency.
  for (std::uint32_t i = 0; i < meta.partitions(); ++i) {
    const bool reused_in_place = i < new_n && meta.servers[i] == new_servers[i];
    if (reused_in_place) continue;
    BufferWriter w;
    w.u32(file);
    w.u32(i);
    node_->call_sync(worker_of_server_.at(meta.servers[i]), kEraseBlock, w.take());
  }

  BufferWriter out;
  out.u64(moved);
  out.u64(saved);
  return out.take();
}

RpcRepartitionStats rpc_execute_delta_repartition(
    RpcNode& coordinator, const RepartitionPlan& plan,
    const std::vector<NodeId>& repartitioner_of_server) {
  // An executor serves its requests one at a time, so the join allows the
  // busiest executor its whole queue: the sum of its files' handler call
  // bounds. The coordinator does not know a file's current piece count;
  // placement caps it at the server count.
  const std::size_t n_servers = repartitioner_of_server.size();
  std::vector<std::size_t> queued_calls(n_servers, 0);
  for (std::size_t j = 0; j < plan.changed_files.size(); ++j) {
    queued_calls.at(plan.executor[j]) +=
        delta_handler_max_calls(n_servers, plan.new_servers[j].size());
  }
  const std::size_t busiest =
      queued_calls.empty() ? 0 : *std::max_element(queued_calls.begin(), queued_calls.end());
  const auto budget = kCallTimeout * static_cast<std::int64_t>(busiest);

  std::vector<RpcNode::PendingCall> calls;
  calls.reserve(plan.changed_files.size());
  for (std::size_t j = 0; j < plan.changed_files.size(); ++j) {
    BufferWriter w;
    w.u32(plan.changed_files[j]);
    const auto& fresh = plan.new_servers[j];
    w.u32(static_cast<std::uint32_t>(fresh.size()));
    for (auto s : fresh) w.u32(s);
    calls.push_back(coordinator.call_tagged(repartitioner_of_server.at(plan.executor[j]),
                                            kDeltaRepartitionFile, w.take(), budget));
  }
  const auto deadline = std::chrono::steady_clock::now() + budget;
  RpcRepartitionStats stats;
  for (auto& call : calls) {
    const auto reply = coordinator.await(call, deadline);
    if (!reply.ok()) {
      for (auto& other : calls) coordinator.forget(other.request_id);
      throw std::runtime_error("rpc delta repartition failed: " + reply.error_text());
    }
    BufferReader r(reply.payload);
    stats.bytes_moved += r.u64();
    stats.bytes_saved += r.u64();
    ++stats.files_touched;
  }
  return stats;
}

}  // namespace spcache::rpc
