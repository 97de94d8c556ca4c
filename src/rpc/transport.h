// Transport seam of the RPC layer: how envelopes travel between nodes.
//
// The paper's deployment (Fig. 9) is a set of networked OS processes —
// SP-Master, cache workers, SP-Clients, SP-Repartitioners. Everything in
// this repo speaks length-delimited binary envelopes already; the only
// thing that distinguishes a fast in-process test cluster from a real
// multi-process one is *how an envelope reaches its destination mailbox*.
// That seam is the `Transport` interface below:
//
//   * `InprocTransport` (this file) — the mailbox routing the repo grew up
//     on: a shared registry of local `RpcNode`s, a request's delivery is a
//     deque push.
//     Deterministic, allocation-light, and the default every test and
//     bench keeps using.
//   * `TcpTransport` (rpc/tcp_transport.h) — the same envelopes framed
//     onto real sockets via an epoll event loop, so a cluster runs as
//     actual OS processes (tools/spcache_masterd, tools/spcache_serverd).
//
// Everything above the seam — `RpcNode`, `Bus` chaos/observability hooks,
// `RpcSpClient`, cache and repartitioner services — is transport-agnostic:
// services keep taking `Bus&` and never learn which backend carries their
// bytes.
#pragma once

#include <chrono>
#include <cstdint>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace spcache::obs {
class MetricsRegistry;
}  // namespace spcache::obs

namespace spcache::rpc {

using NodeId = std::uint32_t;
using MethodId = std::uint16_t;

// Outcome of a call, carried by every reply envelope (and in the frame
// header's flags over TCP); the payload is the handler's body, or the
// error text for a non-kOk status.
//   kTransportOverloaded — the send was refused before touching the wire:
//     the destination's write queue sits above its high watermark or its
//     circuit breaker is open. A fast, retryable signal (back off, do not
//     pile more bytes onto a struggling peer).
//   kDeadlineExpired — the server shed the request because its propagated
//     deadline had already passed when a mailbox node's service thread
//     reached it; the caller has long stopped waiting, so no handler ran.
enum class Status : std::uint8_t {
  kOk = 0,
  kError = 1,
  kNoSuchMethod = 2,
  kWrongEpoch = 3,
  kTransportOverloaded = 4,
  kDeadlineExpired = 5,
};

// Outcome of handing an envelope to a transport.
//   kAccepted  — the transport took it (acceptance is not delivery; losses
//                surface at the caller's timeout).
//   kNoRoute   — the destination is not a known endpoint; the caller turns
//                this into an immediate "no such node" error.
//   kOverloaded — refused by backpressure: the peer's write queue is above
//                its high watermark. Immediate kTransportOverloaded error.
//   kCircuitOpen — refused by the peer's circuit breaker after consecutive
//                connection failures; retried sends pass again once a
//                half-open probe succeeds.
enum class SendStatus : std::uint8_t { kAccepted = 0, kNoRoute, kOverloaded, kCircuitOpen };

// Thrown by a handler that detects a stale layout epoch in the request
// (e.g. a cache server asked for blocks of a layout that has since been
// repartitioned). dispatch_request turns it into a kWrongEpoch reply —
// distinguishable from kError so clients invalidate their cached layout
// and re-LOOKUP instead of burning retries against the same stale layout.
class WrongEpochError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Envelope {
  NodeId from = 0;
  NodeId to = 0;
  std::uint64_t request_id = 0;  // matches replies to calls
  bool is_reply = false;
  MethodId method = 0;
  // Remaining time budget when the envelope was sent (0 = none). Carried
  // on the wire as a *relative* duration — robust to clock skew between
  // processes — and measured against `accepted_at` on the receiving side,
  // so a request that sat in a queue past its budget is shed with
  // kDeadlineExpired instead of running a handler nobody waits for.
  std::uint32_t deadline_ms = 0;
  // Replies only: the call's outcome (kOk on every request).
  Status status = Status::kOk;
  // Stamped by RpcNode::deliver on the receiving side; not on the wire.
  std::chrono::steady_clock::time_point accepted_at{};
  std::vector<std::uint8_t> payload;
};

// The reply to a call: status + payload (error text for non-kOk).
struct Reply {
  Status status = Status::kOk;
  std::vector<std::uint8_t> payload;

  bool ok() const { return status == Status::kOk; }
  // Error message carried by a failed reply.
  std::string error_text() const { return std::string(payload.begin(), payload.end()); }
};

class RpcNode;

// Where envelopes go once the Bus has applied fault injection and
// accounting. One transport per Bus; local endpoints register through
// Bus::add / Bus::remove, which forward here.
class Transport {
 public:
  virtual ~Transport() = default;

  // Local endpoint registration: inbound envelopes addressed to `id` are
  // handed to `node` (RpcNode::deliver). detach() must not return while a
  // delivery, dispatch or reply resolve aimed at that node is in flight —
  // RpcNode's destructor relies on this to tear down safely.
  virtual void attach(NodeId id, RpcNode& node) = 0;
  virtual void detach(NodeId id) = 0;

  // True if this backend runs the handlers of RpcNode::Dispatch::kInline
  // nodes on the thread that receives their requests (TcpTransport's loop
  // thread). False keeps every node on its mailbox and service thread.
  virtual bool dispatches_inline() const { return false; }

  // Carry `envelope` toward its destination. kNoRoute when the
  // destination is not a known endpoint, kOverloaded/kCircuitOpen when
  // backpressure or the peer's breaker refuses it (both become immediate,
  // typed error replies at the caller); kAccepted means the transport
  // *accepted* the send. Like a real network, acceptance is not delivery —
  // losses surface at the caller's timeout, never as a hang
  // (RpcNode::call_sync pairs every bounded wait with forget()).
  virtual SendStatus send(Envelope envelope) = 0;

  // Resolve transport-level metrics in `registry` and start counting
  // (no-op for transports with nothing to count). Forwarded by
  // Bus::attach_observability so callers wire one seam.
  virtual void attach_observability(obs::MetricsRegistry* registry);

  // Stop moving envelopes and release transport resources (sockets,
  // threads). Idempotent; a destructor-only teardown is also legal.
  virtual void shutdown() {}
};

// The in-process mailbox transport: routes by node id through a local
// registry. Requests land in the destination's mailbox (every node keeps
// its service thread here); replies resolve on the sending thread.
class InprocTransport final : public Transport {
 public:
  void attach(NodeId id, RpcNode& node) override;
  void detach(NodeId id) override;
  SendStatus send(Envelope envelope) override;

 private:
  // Held shared across the whole lookup + deliver so a node cannot be
  // destroyed while an envelope is in flight to it: detach() takes it
  // exclusively and thus waits out concurrent deliveries.
  std::shared_mutex mu_;
  std::unordered_map<NodeId, RpcNode*> nodes_;
};

}  // namespace spcache::rpc
