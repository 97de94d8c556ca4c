// The SP-Cache components as RPC services (Fig. 9, over the in-process
// bus): cache workers expose block put/get/erase, the SP-Master exposes
// registration and layout lookup, and an RPC SP-Client performs the
// paper's read/write flows purely through messages — every byte and every
// piece of metadata crosses a serialization boundary, exactly as in the
// networked deployment.
//
// Node-id convention: master = 0, workers = 1..N, monitor = 900,
// clients >= 1000.
#pragma once

#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "cluster/cache_server.h"
#include "cluster/layout_cache.h"
#include "cluster/master.h"
#include "cluster/stable_store.h"
#include "erasure/rs_code.h"
#include "fault/retry.h"
#include "rpc/bus.h"

namespace spcache::rpc {

inline constexpr NodeId kMasterNode = 0;
inline constexpr NodeId kFirstWorkerNode = 1;
inline constexpr NodeId kMonitorNode = 900;  // masterd's liveness prober
inline constexpr NodeId kFirstClientNode = 1000;

// Method ids.
inline constexpr MethodId kPutBlock = 1;       // carries the layout epoch
inline constexpr MethodId kGetBlock = 2;
inline constexpr MethodId kEraseBlock = 3;
inline constexpr MethodId kGetBlockMulti = 4;  // all of one file's pieces on a worker
inline constexpr MethodId kGetRange = 5;       // byte range of one resident piece
inline constexpr MethodId kStagePiece = 6;     // staged-assembly ops (delta repartition)
inline constexpr MethodId kRegisterFile = 10;  // proposes an epoch, replies the assigned one
inline constexpr MethodId kLookupFile = 11;    // bumps the access count; reply carries epoch
inline constexpr MethodId kAccessCount = 12;
inline constexpr MethodId kFileEpoch = 13;     // current layout epoch (0 = unknown file)
inline constexpr MethodId kLookupBatch = 14;   // many kLookupFile in one envelope
inline constexpr MethodId kReportAccess = 15;  // batched per-file access-count deltas
inline constexpr MethodId kPing = 16;          // liveness probe; echoes the sent token
inline constexpr MethodId kPutStable = 17;     // checkpoint a whole file (master's StableStore)

// kStagePiece sub-operations. Common request header: file u32, piece u32,
// epoch u64, op u8; then per op:
//   kStageOpAppend     piece_size u64, offset u64, length-prefixed bytes
//   kStageOpLocalCopy  piece_size u64, offset u64, src_piece u32,
//                      src_offset u64, length u64 — the worker copies the
//                      range out of its own resident store (the bytes are
//                      already on the destination; no payload on the wire)
//   kStageOpFinalize   (no body) completeness check + CRC of the staged piece
//   kStageOpPublish    (no body) splice the finalized piece into the live
//                      store and record the epoch for kWrongEpoch rejection
//   kStageOpDiscard    (no body) drop the staged piece (abort path)
// Reply for every op: u8 success flag.
inline constexpr std::uint8_t kStageOpAppend = 0;
inline constexpr std::uint8_t kStageOpLocalCopy = 1;
inline constexpr std::uint8_t kStageOpFinalize = 2;
inline constexpr std::uint8_t kStageOpPublish = 3;
inline constexpr std::uint8_t kStageOpDiscard = 4;

// Layout wire format, shared by kLookupFile/kLookupBatch replies, the
// kRegisterFile request body (after the file id), and every client parser:
// size u64, crc u32, epoch u64, n u32, then n (server u32, piece_size u64)
// pairs.
void write_meta(BufferWriter& w, const FileMeta& meta);
FileMeta read_meta(BufferReader& r);

// A cache worker: an RpcNode whose handlers are backed by a CacheServer
// block store (checksummed, thread-safe). The handlers never block or call
// out, so the node is RpcNode::Dispatch::kInline: over TCP they run on the
// transport's loop thread, elsewhere on the node's service thread — one at
// a time either way.
//
// Epoch validation: every PUT carries the layout epoch it belongs to; the
// worker remembers the highest epoch seen per file (handler-thread state,
// no lock). A kGetBlockMulti whose request epoch is older than that gets a
// kWrongEpoch reply instead of bytes — the signal that tells a caching
// client its layout is stale *before* it wastes GETs and a CRC pass.
class CacheWorkerService {
 public:
  CacheWorkerService(Bus& bus, NodeId node_id, std::uint32_t server_id, Bandwidth bandwidth);

  NodeId node_id() const { return node_->id(); }
  CacheServer& store() { return store_; }

 private:
  // Fused serve of one resident block: length prefix, then a single
  // crc32_copy pass straight into the reply payload — the copy IS the
  // integrity scan (compared against the block's ingest CRC). Throws on
  // mismatch, which dispatch turns into a kError reply.
  static void serve_block_bytes(BufferWriter& w, const Block& block);

  CacheServer store_;
  // file -> highest layout epoch PUT here. Touched only by this node's
  // handlers (all mutations arrive as RPCs, handled one at a time), so
  // unlocked by design.
  std::unordered_map<FileId, std::uint64_t> epochs_;
  // Serve scratch, reused across requests (handlers run one at a time):
  // the multi-GET piece-index span lives in the arena and
  // the BlockRef list in a recycled vector, so a steady-state multi-GET
  // allocates nothing beyond the reply payload that ships.
  Arena scratch_arena_{16 * 1024};
  std::vector<BlockRef> scratch_blocks_;
  std::unique_ptr<RpcNode> node_;
};

// The SP-Master as a service over the metadata Master (an inline node, like
// the workers: its handlers never block or call out). It also hosts the
// deployment's StableStore (the checkpointed tier the paper assumes under
// the cache): clients kPutStable whole files after a write, and the
// RpcRecoveryCoordinator restores lost pieces from it after a worker
// death — so degraded reads stay bit-exact without cache-level replicas.
class MasterService {
 public:
  MasterService(Bus& bus, NodeId node_id = kMasterNode);

  Master& master() { return master_; }
  StableStore& stable() { return stable_; }
  NodeId node_id() const { return node_->id(); }

 private:
  Master master_;
  StableStore stable_;
  std::unique_ptr<RpcNode> node_;
};

// What an RPC read went through to complete (degraded-read telemetry).
struct RpcReadStats {
  std::vector<std::uint8_t> bytes;
  std::size_t retries = 0;  // per-piece re-GETs plus extra whole-read passes
  std::size_t passes = 1;   // read rounds (>1 ⇒ the layout was re-fetched)
  bool layout_cached = false;  // served without a master LOOKUP
  bool shared = false;         // piggybacked on a concurrent read (single-flight)
};

// An SP-Client that speaks only RPC. Reads follow Section 6.1: LOOKUP at
// the master (which bumps the access count), parallel GETs to the listed
// workers, client-side reassembly and whole-file CRC verification.
//
// Fault tolerance: every GET carries a bounded wait; a timed-out or
// failed GET is retried with capped exponential backoff + jitter
// (fault::RetryPolicy), and when a piece stays unfetchable the whole
// read re-LOOKUPs — picking up any layout the RecoveryManager published
// while repairing — before trying again. Abandoned GETs are forgotten at
// the RpcNode, so dropped replies become counted no-ops, not leaks.
//
// Metadata-light path (all on by default; ClientCacheConfig turns the
// pieces off for baselines):
//   * layout cache — pass 1 serves the layout from the client's epoch-
//     validated LayoutCache; the master sees no LOOKUP. Cache-served
//     accesses accumulate locally and flush as one kReportAccess batch.
//   * multi-GET coalescing — pieces that live on the same worker travel
//     in one kGetBlockMulti envelope instead of one kGetBlock each; a
//     kWrongEpoch reply invalidates the cached layout and the next pass
//     re-LOOKUPs.
//   * single-flight — concurrent reads of the same file share one fetch;
//     followers block on the leader's result and copy its bytes.
class RpcSpClient {
 public:
  // `worker_of_server[i]` maps cache-server index i to its bus NodeId.
  RpcSpClient(Bus& bus, NodeId node_id, NodeId master_node,
              std::vector<NodeId> worker_of_server,
              fault::RetryPolicy retry = fault::RetryPolicy{},
              std::chrono::milliseconds rpc_timeout = std::chrono::milliseconds(1000),
              ClientCacheConfig cache = ClientCacheConfig{});

  // Flushes pending batched access reports (best effort).
  ~RpcSpClient();

  // Split into servers.size() near-equal pieces, PUT them (in parallel,
  // via async calls) stamped with the next layout epoch, then REGISTER
  // the layout proposing that epoch. Throws on any RPC failure.
  void write(FileId id, std::span<const std::uint8_t> data,
             const std::vector<std::uint32_t>& servers);

  // LOOKUP + parallel GET + reassemble + verify, with the retry/backoff
  // machinery above. Throws std::runtime_error on unknown file or once
  // the retry budget is exhausted.
  std::vector<std::uint8_t> read(FileId id);

  // read() plus the retry telemetry.
  RpcReadStats read_with_stats(FileId id);

  // Master-side access count (for tests).
  std::uint64_t access_count(FileId id);

  // Ship pending cache-served access counts to the master now (one
  // kReportAccess envelope). Returns the number of accesses reported.
  std::uint64_t flush_access_reports();

  // Warm the layout cache for `ids` with a single kLookupBatch envelope
  // (one LOOKUP round-trip instead of ids.size()). Returns how many of
  // the ids the master knew. No-op (returns 0) with the cache disabled.
  std::size_t prefetch_layouts(const std::vector<FileId>& ids);

  const fault::RetryPolicy& retry_policy() const { return retry_; }
  const LayoutCache& layout_cache() const { return layout_cache_; }
  RpcNode& node() { return *node_; }

  // --- Observability (src/obs) ----------------------------------------
  // Same "client.*" metric names as the in-process SpClient, so a mixed
  // deployment aggregates into one view: end-to-end read wall latency,
  // read/retry/failure counters, and (with `trace`) kReadStart/kReadDone/
  // kReadFailed/kReadRepeatPass plus per-piece kPieceFetch/kPieceRetry
  // events. Detached (default): one relaxed pointer load + branch.
  void attach_observability(obs::MetricsRegistry* registry,
                            obs::TraceRecorder* trace = nullptr);

  struct ObsProbes {
    obs::Counter* reads = nullptr;
    obs::Counter* read_failures = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* layout_hits = nullptr;
    obs::Counter* layout_misses = nullptr;
    obs::Counter* layout_invalidations = nullptr;
    obs::Counter* singleflight_shared = nullptr;
    obs::LatencyHistogram* read_wall = nullptr;
    obs::TraceRecorder* trace = nullptr;
  };

 private:
  // One bounded-wait GET of piece `i`, including per-piece retries.
  // Returns the payload or nullopt once the per-piece budget is spent.
  // `op` is the trace op-id of the enclosing read (0 = tracing detached).
  std::optional<std::vector<std::uint8_t>> fetch_piece(FileId id, std::uint32_t piece,
                                                       NodeId worker, std::size_t pass,
                                                       std::uint64_t op, std::size_t& retries);

  // Layout for pass `pass`: cache on pass 1 (when enabled), kLookupFile
  // otherwise (write-through to the cache). nullopt = LOOKUP failure, with
  // `unknown` telling a permanently-unknown file from a transient loss.
  std::optional<FileMeta> layout_for_pass(FileId id, std::size_t pass, bool& from_cache,
                                          bool& unknown, std::string& error);

  // Current layout epoch at the master (kFileEpoch; 0 = unknown file).
  std::uint64_t file_epoch(FileId id);

  // The read itself (all passes); read_with_stats wraps it in the
  // single-flight gate.
  RpcReadStats do_read(FileId id);

  // Coalesced GET phase of one pass: per-worker kGetBlockMulti fan-out,
  // falling back to per-piece fetch_piece for pieces a multi-GET missed.
  // Returns false (with `error` set) when the pass must be retried;
  // `wrong_epoch` reports a kWrongEpoch reply (caller invalidates). Every
  // reassembly copy runs through the fused crc32_copy kernel; on success
  // `whole_crc` carries the per-piece CRCs stitched into crc32(out) by
  // crc32_combine (stateless, O(log piece length) per piece), so the
  // caller's end-to-end verification never rescans the bytes.
  bool multi_get_pass(FileId id, const FileMeta& meta, std::size_t pass, std::uint64_t op,
                      std::vector<std::uint8_t>& out, std::size_t& retries,
                      bool& wrong_epoch, std::uint32_t& whole_crc, std::string& error);

  // One read in flight per file; followers share the leader's bytes.
  struct Inflight {
    std::promise<std::shared_ptr<const RpcReadStats>> promise;
    std::shared_future<std::shared_ptr<const RpcReadStats>> future;
    std::size_t waiters = 0;  // guarded by sf_mu_
  };

  Bus& bus_;
  std::unique_ptr<RpcNode> node_;
  NodeId master_node_;
  std::vector<NodeId> worker_of_server_;
  fault::RetryPolicy retry_;
  std::chrono::milliseconds rpc_timeout_;
  ClientCacheConfig cache_config_;
  LayoutCache layout_cache_;
  AccessAccumulator access_acc_;
  std::mutex sf_mu_;
  std::unordered_map<FileId, std::shared_ptr<Inflight>> inflight_;
  std::unique_ptr<ObsProbes> probes_storage_;
  std::atomic<ObsProbes*> probes_{nullptr};
};

// An EC-Cache client over the same wire: writes run the real Reed-Solomon
// encoder and PUT all n shards; reads LOOKUP, late-bind k+1 GETs, and
// decode from the first k that complete.
class RpcEcClient {
 public:
  RpcEcClient(Bus& bus, NodeId node_id, NodeId master_node,
              std::vector<NodeId> worker_of_server, std::size_t k = 10, std::size_t n = 14);

  // Encode into n shards and store them on the n listed (distinct) servers.
  void write(FileId id, std::span<const std::uint8_t> data,
             const std::vector<std::uint32_t>& servers);

  // Late-binding read + decode + whole-file CRC verification.
  std::vector<std::uint8_t> read(FileId id, Rng& rng);

 private:
  std::unique_ptr<RpcNode> node_;
  NodeId master_node_;
  std::vector<NodeId> worker_of_server_;
  ReedSolomon rs_;
};

}  // namespace spcache::rpc
