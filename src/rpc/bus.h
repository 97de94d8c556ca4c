// In-process message bus: mailboxes, service nodes, request/reply RPC.
//
// The paper's system is a set of networked processes — SP-Master,
// SP-Clients, Alluxio workers, SP-Repartitioners (Fig. 9). This module
// gives the repository that structure: every component is an `RpcNode`;
// nodes exchange length-delimited binary envelopes through a `Bus` that
// routes by node id. Calls are asynchronous request/reply pairs matched by
// request id, with timeouts. A node's handlers run on one thread at a
// time — its service thread draining a mailbox, or (for kInline nodes over
// TCP) the transport's loop thread — and a reply resolves its call on the
// thread that delivers it. All the concurrency discipline of a real
// deployment (no shared memory between components, explicit serialization
// at every boundary) is exercised.
//
// Delivery itself goes through the `Transport` seam (rpc/transport.h):
// the default is the in-process mailbox registry (`InprocTransport` —
// fast, deterministic, what every test uses); a `TcpTransport`
// (rpc/tcp_transport.h) carries the same envelopes over real sockets for
// multi-process deployments. The Bus stays the single place where fault
// injection and bus-level observability hook the send path, whichever
// backend is underneath.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "rpc/serialize.h"
#include "rpc/transport.h"

namespace spcache::fault {
class FaultInjector;
}  // namespace spcache::fault

namespace spcache::obs {
class Counter;
class Gauge;
class MetricsRegistry;
class TraceRecorder;
}  // namespace spcache::obs

namespace spcache::rpc {

class Bus;

// A service endpoint. Handlers are registered per MethodId before start();
// each maps a request payload to a reply payload (exceptions become kError
// replies). Replies to this node's own calls resolve on the thread that
// delivers them, so a node can await calls from inside its handlers and
// needs no start() just to make calls.
class RpcNode {
 public:
  using Handler = std::function<std::vector<std::uint8_t>(BufferReader&)>;
  // Streaming form for hot serve paths: the handler appends its body
  // directly into the reply payload, so the reply bytes are produced
  // exactly once — no body vector, no copy into the envelope. Exceptions
  // still become typed error replies; anything the handler wrote before
  // throwing is discarded.
  using StreamHandler = std::function<void(BufferReader&, BufferWriter&)>;

  // Which thread runs the handlers. kMailbox: the node's service thread
  // drains its mailbox, so handlers may block or call out (call_sync).
  // kInline: the handlers never block or call out, so a transport that
  // dispatches inline (TcpTransport) runs them on the thread that receives
  // the request and queues the reply on the same pass — no mailbox, no
  // service thread, no deadline shedding. Other transports treat kInline
  // as kMailbox. Either way the handlers run one at a time. A kInline node
  // drops requests that reach it before start().
  enum class Dispatch : std::uint8_t { kMailbox, kInline };

  RpcNode(Bus& bus, NodeId id, std::string name, Dispatch dispatch = Dispatch::kMailbox);
  ~RpcNode();

  RpcNode(const RpcNode&) = delete;
  RpcNode& operator=(const RpcNode&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  // Registration is only legal before start(). start() launches a service
  // thread only for a kMailbox node with handlers; a node without handlers
  // starts one the first time a request reaches it (to answer
  // kNoSuchMethod).
  void handle(MethodId method, Handler handler);
  void handle_into(MethodId method, StreamHandler handler);
  void start();

  // True if the transport runs this node's handlers on its receiving
  // thread (see Dispatch).
  bool dispatches_inline() const { return inline_; }

  // An in-flight call: the reply future plus the request id needed to
  // abandon it (forget) if the caller gives up waiting.
  struct PendingCall {
    std::uint64_t request_id = 0;
    std::future<Reply> reply;
  };

  // Asynchronous call; the future resolves with the callee's Reply. If the
  // request or its reply is lost (dropped envelope, dead node), the future
  // never resolves — bounded waiters must pair wait_for with forget().
  // A nonzero `deadline` rides the envelope (frame header over TCP): a
  // server whose queue delays dispatch past it sheds the request with
  // kDeadlineExpired instead of running the handler. A refused send
  // (unknown node, backpressure, open circuit breaker) resolves the
  // future immediately with the matching error status.
  PendingCall call_tagged(NodeId to, MethodId method, std::vector<std::uint8_t> payload,
                          std::chrono::milliseconds deadline = std::chrono::milliseconds(0));
  std::future<Reply> call(NodeId to, MethodId method, std::vector<std::uint8_t> payload,
                          std::chrono::milliseconds deadline = std::chrono::milliseconds(0));

  // Abandon a pending call after a timeout: erases its slot so a reply
  // arriving later becomes a counted no-op instead of resolving a dead
  // promise (and so the slot does not leak). Returns false if the call
  // already resolved (or was never pending).
  bool forget(std::uint64_t request_id);

  // Bounded wait on a call_tagged() call: its reply, or a kError "rpc
  // timeout" reply once `deadline` passes. On timeout the slot is
  // forgotten, so a late reply becomes a counted no-op; a reply racing the
  // timeout still wins.
  Reply await(PendingCall& call, std::chrono::steady_clock::time_point deadline);

  // Blocking convenience with timeout (call_tagged + await). The timeout
  // doubles as the propagated deadline — a server reaching the request
  // after it passed sheds it instead of serving a ghost.
  Reply call_sync(NodeId to, MethodId method, std::vector<std::uint8_t> payload,
                  std::chrono::milliseconds timeout = std::chrono::milliseconds(5000));

  // Observability for the timeout/loss paths.
  std::size_t pending_calls() const;
  std::uint64_t late_replies() const { return late_replies_.load(std::memory_order_relaxed); }

  // Transport entry point, called on the thread that received the
  // envelope. A reply resolves its call right here. A request to a
  // dispatches_inline() node runs its handler here (the transport calls
  // this only from the thread that serves such nodes, never under a lock
  // the reply's send takes); any other request is queued for the service
  // thread.
  void deliver(Envelope envelope);

 private:
  void service_loop();
  void dispatch_request(Envelope envelope);
  void resolve_reply(Envelope envelope);
  void spawn_service_thread();  // caller holds mu_

  Bus& bus_;
  NodeId id_;
  std::string name_;
  const bool inline_;
  std::unordered_map<MethodId, Handler> handlers_;
  std::unordered_map<MethodId, StreamHandler> stream_handlers_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Envelope> mailbox_;
  bool stopping_ = false;
  // Release-stored by start() after the last handler registration, so a
  // thread that dispatches inline sees the finished handler maps.
  std::atomic<bool> started_{false};
  std::thread service_thread_;

  mutable std::mutex pending_mu_;
  std::uint64_t next_request_id_ = 1;
  std::unordered_map<std::uint64_t, std::promise<Reply>> pending_;
  std::atomic<std::uint64_t> late_replies_{0};
};

// Routes envelopes between nodes through a Transport. Nodes register on
// construction and deregister on destruction; sending to an unknown node
// fails the call immediately.
//
// Chaos hook: with a FaultInjector installed, route() may drop an
// envelope (it vanishes, like a lost packet — the caller's timeout path
// fires), stall the sender briefly (delay), or deliver the envelope twice
// (duplication — handlers run twice and the second reply lands as a
// counted late-reply no-op). The hooks sit above the transport seam, so
// they apply identically to the inproc and TCP backends.
class Bus {
 public:
  // Default: a private InprocTransport — fast, deterministic, in-process.
  Bus();
  // External transport (e.g. a TcpTransport). Not owned: the transport
  // must outlive the Bus, and one transport serves exactly one Bus.
  explicit Bus(Transport& transport);

  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;

  Transport& transport() { return *transport_; }

  void add(RpcNode& node);
  void remove(NodeId id);

  // kNoRoute if the destination is unknown, kOverloaded/kCircuitOpen if
  // the transport refused the send (the caller turns each into an
  // immediate typed error reply), kAccepted otherwise.
  SendStatus route(Envelope envelope);

  void set_fault_injector(fault::FaultInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

  // --- Observability (src/obs) ----------------------------------------
  // Resolve "bus.routed|in_flight|drops|delays|duplicates" in `registry`
  // once and start counting routed envelopes, the in-flight depth (inside
  // route()), and injected faults; with `trace` non-null each injected
  // fault also records a kBusDrop/kBusDelay/kBusDuplicate event. Also
  // forwards `registry` to the transport so backends with their own
  // counters (transport.* on TcpTransport) wire up through one call.
  // Detached (default): one relaxed pointer load + branch per route().
  void attach_observability(obs::MetricsRegistry* registry,
                            obs::TraceRecorder* trace = nullptr);

  struct ObsProbes {
    obs::Counter* routed = nullptr;
    obs::Gauge* in_flight = nullptr;
    obs::Counter* drops = nullptr;
    obs::Counter* delays = nullptr;
    obs::Counter* duplicates = nullptr;
    // Mailbox batch-drain stats (recorded by RpcNode::service_loop):
    // batches = lock/cv cycles that yielded work, batched_envelopes = total
    // envelopes those cycles drained. batched_envelopes / batches is the
    // mean drain depth — >1 under load means the swap is amortizing locks.
    obs::Counter* mailbox_batches = nullptr;
    obs::Counter* mailbox_batched_envelopes = nullptr;
    // Multi-GET coalescing (counted by clients): envelopes *not* sent
    // because pieces shared a kGetBlockMulti with another piece.
    obs::Counter* envelopes_coalesced = nullptr;
    // Requests shed by a mailbox node's service thread because their
    // propagated deadline had already expired, and sends refused by
    // transport backpressure / an open circuit breaker.
    obs::Counter* deadline_shed = nullptr;
    obs::Counter* send_rejected = nullptr;
    obs::TraceRecorder* trace = nullptr;
  };

  // Probe access for nodes/clients that tally bus-level metrics
  // themselves (mailbox batch sizes, coalesced envelopes). Null while
  // observability is detached.
  ObsProbes* observability() const { return probes_.load(std::memory_order_acquire); }

 private:
  std::unique_ptr<Transport> owned_transport_;  // default-constructed Bus only
  Transport* transport_;

  std::atomic<fault::FaultInjector*> injector_{nullptr};
  std::unique_ptr<ObsProbes> probes_storage_;
  std::atomic<ObsProbes*> probes_{nullptr};
};

}  // namespace spcache::rpc
