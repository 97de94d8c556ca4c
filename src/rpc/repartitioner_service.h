// SP-Repartitioners as RPC services (Fig. 9b over messages).
//
// The parallel repartition scheme of Section 6.2 runs one SP-Repartitioner
// per cache server; the SP-Master assigns each a disjoint set of changed
// files. Here each repartitioner is an RPC service co-located with its
// worker: on a kDeltaRepartitionFile request it re-cuts one file by range
// migration (DESIGN §7) — remote ranges relayed from source worker to
// destination worker, local ranges staged in place, the new pieces staged
// under epoch+1 and published only after an epoch check, the old ones
// erased only after REGISTER — and reports the bytes it moved and saved. A
// coordinator fans the per-file requests out to the executors and joins
// them within a deadline — the whole Fig. 9b flow, message by message.
#pragma once

#include <memory>
#include <vector>

#include "core/repartition.h"
#include "rpc/cache_service.h"

namespace spcache::rpc {

// Method id on repartitioner nodes. Request: file u32, new piece count
// u32, then per new piece a server u32. The handler looks the current
// layout (sizes + epoch) up at the master, computes the range transfer
// plan, relays only the remote ranges (kGetRange from the source,
// kStagePiece to the destination, one range at a time — the whole file is
// never materialized anywhere), stages local ranges with zero wire
// payload, seals, publishes under epoch+1, REGISTERs, and lazily erases
// old pieces not reused in place. Reply: u64 remote bytes moved, u64
// bytes saved in place.
inline constexpr MethodId kDeltaRepartitionFile = 21;
// Node-id convention: repartitioner for server s = kFirstRepartitionerNode + s.
inline constexpr NodeId kFirstRepartitionerNode = 500;

class RepartitionerService {
 public:
  // The repartitioner lives next to worker `server_id`; it reaches every
  // worker (including its own) through `worker_of_server`, and the master
  // through `master_node` for the final metadata update.
  RepartitionerService(Bus& bus, NodeId node_id, std::uint32_t server_id, NodeId master_node,
                       std::vector<NodeId> worker_of_server);

  NodeId node_id() const { return node_->id(); }

 private:
  std::vector<std::uint8_t> handle_delta_repartition(BufferReader& r);

  NodeId master_node_;
  std::vector<NodeId> worker_of_server_;
  std::unique_ptr<RpcNode> node_;  // serves kDeltaRepartitionFile, makes the calls
};

struct RpcRepartitionStats {
  Bytes bytes_moved = 0;  // remote traffic summed over executors
  Bytes bytes_saved = 0;  // ranges staged in place
  std::size_t files_touched = 0;
};

// The coordinator side: dispatch `plan` to the per-server repartitioners
// (each changed file goes to its planned executor) as kDeltaRepartitionFile
// requests and join the replies. The request carries only the new
// placement — each executor fetches the authoritative old layout (piece
// sizes, epoch) from the master itself. Every request is issued before
// any is awaited, so executors run in parallel; the join waits at most as
// long as the busiest executor's files can legitimately take (DESIGN §8,
// "Every wait has a deadline"). Throws std::runtime_error on the first
// failed or overdue file, abandoning the rest.
RpcRepartitionStats rpc_execute_delta_repartition(
    RpcNode& coordinator, const RepartitionPlan& plan,
    const std::vector<NodeId>& repartitioner_of_server);

}  // namespace spcache::rpc
