// TCP backend for the Transport seam: real sockets, framed envelopes.
//
// One TcpTransport serves one process (one Bus). It hosts any number of
// local nodes (a daemon's master or worker services, a client's reply
// endpoint) and reaches remote nodes two ways:
//
//   * the address book — add_peer(id, host, port) names where a daemon
//     node listens. The first send to that node opens a non-blocking
//     connection; the connection is pooled per peer and reused for every
//     later envelope (requests and replies alike).
//   * learned reply routes — a frame arriving from node X binds X to the
//     connection it arrived on, so replies to clients (which listen on
//     nothing) travel back over the caller's own connection, exactly like
//     a real RPC server. The newest connection for a node wins.
//
// Loss semantics match the in-process backend's contract: send() returns
// kNoRoute only for a node that is neither local, addressed, nor learned
// — the immediate-error path. An accepted envelope ("the network took
// it") may still be lost if its connection then fails; the caller's
// timeout fires (RpcNode pairs every bounded wait with forget(), so lost
// replies are counted no-ops, never hangs). The next send to an addressed
// peer opens a fresh connection — that is the reconnect-on-failure path,
// visible as transport.reconnects.
//
// Overload and failure isolation (send() can also *refuse*):
//
//   * Bounded write queues: each connection's pending-byte queue has a
//     high/low watermark. Crossing high flags the peer overloaded —
//     send() to it fails fast with kOverloaded until the queue drains
//     below low (hysteresis, so the flag does not flap per byte). A queue
//     that still reaches 2x high (envelopes already in flight through the
//     loop when the flag rose) drops further frames at the cap, so a
//     slow-draining peer bounds this process's memory instead of growing
//     a buffer without limit.
//   * Per-peer circuit breaker: `breaker_threshold` consecutive
//     connection failures (refused connects, or closes that stranded
//     queued bytes) open the circuit for `breaker_open`; sends fail fast
//     with kCircuitOpen instead of burning a timeout per call. After the
//     open window one send is let through as a half-open probe — success
//     (a completed connect) closes the circuit, failure re-arms it.
//
// Write path: each connection keeps an iovec-based frame queue — queued
// frames hold their payload by reference (shared with the boxed envelope
// the sender posted), and flush drains many frames per syscall through
// writev with partial-write resume across iovec boundaries. No payload
// byte is copied between the handler's serialization and the socket.
// Off-loop senders stage envelopes in an MPSC queue and wake the loop once
// per burst (not once per envelope); the loop enqueues the whole burst,
// then flushes each touched connection exactly once — so a burst costs one
// eventfd wake and one writev, not one of each per frame.
//
// Run-to-completion dispatch: the loop thread resolves every inbound
// reply itself (the waiting caller wakes straight from the loop), and
// runs the handlers of RpcNode::Dispatch::kInline nodes (cache workers,
// the master) as their requests decode. Their replies go straight onto
// the connection queue — no mailbox, service thread, stage or wake — and
// leave in one flush per touched connection after each read pass. A
// request to a co-hosted inline node is posted to the loop, so an inline
// node's handlers only ever run there, one at a time.
//
// Chaos: set_fault_injector() arms seeded socket-level faults, decided on
// the loop thread so the schedule is deterministic per seed even over
// real sockets — partial writes (a flush pass clamps its gather list to a
// few bytes, splitting frames across segments), connection resets (close
// with SO_LINGER{1,0}, so the peer sees a hard RST), and pre-flush delays
// (a brief loop-thread stall, modelling a congested link).
//
// Concurrency: all socket and connection state is owned by the epoll
// EventLoop thread; send() does a locked reachability/overload check,
// then hands the envelope to the loop. The routing maps (locals, address
// book with per-peer breaker/backpressure state, learned routes) are the
// only cross-thread state and sit under one mutex, mu_, which is never
// held while a handler runs (the handler's reply send takes it). The loop
// thread instead holds dispatch_mu_ across every call into a local node;
// detach() takes both, so it returns only once no delivery, dispatch or
// resolve aimed at the node is in flight. Counters are relaxed atomics,
// mirrored into the MetricsRegistry (transport.*) when observability is
// attached.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "rpc/event_loop.h"
#include "rpc/frame.h"
#include "rpc/transport.h"

namespace spcache::fault {
class FaultInjector;
}  // namespace spcache::fault

namespace spcache::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace spcache::obs

namespace spcache::rpc {

struct TcpTransportConfig {
  // Per-connection write-queue watermarks, in bytes. Crossing high flags
  // the peer overloaded (send() fails fast); draining to low clears it.
  // The hard cap — where queued frames are dropped outright — is 2x high.
  std::size_t wqueue_high = 8 * 1024 * 1024;
  std::size_t wqueue_low = 2 * 1024 * 1024;
  // Circuit breaker: open after this many consecutive connection
  // failures to a peer (0 disables), for `breaker_open` per arming.
  std::uint32_t breaker_threshold = 5;
  std::chrono::milliseconds breaker_open{250};
  // Scatter-gather write batching (the default): queued frames keep their
  // payload by reference and drain many-per-syscall through writev. Off,
  // the transport reproduces the pre-batching write path — each send pays
  // a flat-buffer payload copy and each syscall carries at most one frame
  // — kept as the measurable baseline arm for bench_tcp_scale.
  bool batch_writes = true;
  // Graceful-shutdown drain budget: shutdown() retries flush passes until
  // every connection's queue empties or this deadline expires, so final
  // replies under load are not silently dropped by a single-pass flush.
  std::chrono::milliseconds shutdown_drain{250};
};

class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(TcpTransportConfig config = TcpTransportConfig{});
  ~TcpTransport() override;

  // Daemon side: bind + listen on host:port (port 0 = kernel-assigned) and
  // start the event loop. Returns the bound port. SO_REUSEADDR is set, so
  // a restarted daemon rebinds its old port immediately.
  std::uint16_t listen(const std::string& host, std::uint16_t port);
  // Client side: start the event loop with no listening socket.
  void start();

  // Address-book entry for a remote daemon node. Call before traffic to
  // that node; replies need no entry (routes are learned per connection).
  void add_peer(NodeId id, std::string host, std::uint16_t port);

  // Arm seeded socket-level chaos (null detaches). The injector must
  // outlive the transport or be detached first.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

  const TcpTransportConfig& config() const { return config_; }

  void attach(NodeId id, RpcNode& node) override;
  // Must not be called from an inline handler (it would wait on itself).
  void detach(NodeId id) override;
  bool dispatches_inline() const override { return true; }
  SendStatus send(Envelope envelope) override;
  void attach_observability(obs::MetricsRegistry* registry) override;

  // Graceful shutdown: flush passes retry until every connection's frame
  // queue drains or config().shutdown_drain expires, then close all
  // sockets and stop the loop. Idempotent; the destructor calls it.
  void shutdown() override;

  struct Counters {
    std::uint64_t connects = 0;        // connections successfully established
    std::uint64_t reconnects = 0;      // of those, re-establishments after a failure
    std::uint64_t framing_errors = 0;  // malformed inbound streams (connection dropped)
    std::uint64_t bytes_tx = 0;
    std::uint64_t bytes_rx = 0;
    std::uint64_t frames_dropped = 0;  // undeliverable frames (dead peer / unknown node)
    // Backpressure on the bounded write queues.
    std::uint64_t backpressure_events = 0;   // queues that crossed the high watermark
    std::uint64_t backpressure_rejects = 0;  // sends refused while a peer was flagged
    std::uint64_t backpressure_drops = 0;    // frames discarded at the 2x-high hard cap
    std::uint64_t wqueue_peak = 0;           // deepest any write queue ever got (bytes)
    // Per-peer circuit breaker.
    std::uint64_t circuit_opens = 0;       // closed -> open transitions
    std::uint64_t circuit_fast_fails = 0;  // sends refused while a circuit was open
    std::uint64_t connections_active = 0;  // live sockets right now
    // Syscall budget of the write path: gather syscalls issued and frames
    // fully drained by them. frames_sent / writev_calls is the mean batch
    // depth (> 1 means scatter-gather is amortizing syscalls); bytes_tx /
    // writev_calls is the mean bytes per syscall.
    std::uint64_t writev_calls = 0;
    std::uint64_t frames_sent = 0;
    double frames_per_writev = 0.0;   // derived: frames_sent / writev_calls
    double bytes_per_syscall = 0.0;   // derived: bytes_tx / writev_calls
  };
  Counters counters() const;

 private:
  struct Peer {
    std::string host;
    std::uint16_t port = 0;
    bool ever_connected = false;  // loop thread; distinguishes re-connects
    // Backpressure flag, set/cleared by the loop thread at the write-queue
    // watermarks and read by send() for the fast-fail path. Under mu_.
    bool backpressured = false;
    // Circuit breaker (under mu_). consecutive_failures counts connection
    // attempts that ended badly since the last success; once the circuit
    // opens, sends fail fast until open_until, then one probe is allowed
    // through (half_open_inflight) before the next verdict.
    std::uint32_t consecutive_failures = 0;
    bool circuit_open = false;
    bool half_open_inflight = false;
    std::chrono::steady_clock::time_point open_until{};
    obs::Gauge* circuit_gauge = nullptr;  // "transport.peer.<id>.circuit_open"
  };

  // One queued outbound frame: the 32-byte header owned inline, the
  // payload held by reference (shared with the boxed envelope send()
  // created) — nothing is copied between send() and the socket.
  struct OutFrame {
    std::array<std::uint8_t, kFrameHeaderSize> header;
    std::shared_ptr<const std::vector<std::uint8_t>> payload;  // null = empty

    std::size_t size() const {
      return kFrameHeaderSize + (payload ? payload->size() : 0);
    }
  };

  struct Conn {
    int fd = -1;
    NodeId peer = 0;            // 0 = not yet known (inbound, pre-first-frame)
    bool peer_known = false;
    bool connecting = false;    // connect() in flight (EINPROGRESS)
    bool inbound = false;
    FrameDecoder decoder;
    // Pending frames, oldest first. out_offset is how far into the front
    // frame the socket has advanced (may sit mid-header or mid-payload
    // after a partial write); out_bytes is the total queued across the
    // deque — the write-queue depth the watermarks measure.
    std::deque<OutFrame> outq;
    std::size_t out_offset = 0;
    std::size_t out_bytes = 0;
  };

  struct ObsProbes {
    obs::Counter* connects = nullptr;
    obs::Counter* reconnects = nullptr;
    obs::Counter* framing_errors = nullptr;
    obs::Counter* bytes_tx = nullptr;
    obs::Counter* bytes_rx = nullptr;
    obs::Counter* frames_dropped = nullptr;
    obs::Counter* backpressure_events = nullptr;
    obs::Counter* backpressure_rejects = nullptr;
    obs::Counter* backpressure_drops = nullptr;
    obs::Counter* circuit_opens = nullptr;
    obs::Counter* circuit_fast_fails = nullptr;
    obs::Counter* writev_calls = nullptr;
    obs::Counter* frames_sent = nullptr;
    obs::Gauge* wqueue_peak = nullptr;
    obs::Gauge* connections_active = nullptr;
  };

  // --- loop-thread only ------------------------------------------------
  // Route + frame one staged envelope onto its connection's queue (no
  // flush). Returns the fd the frame landed on, or -1 (unroutable or
  // dropped at the hard cap) — the caller flushes touched fds.
  int enqueue_on_loop(std::shared_ptr<Envelope> boxed);
  // Drain the staged-send queue: enqueue the whole burst, then flush each
  // touched connection once.
  void drain_staged();
  // Note `fd` for the next flush_touched(), which flushes each noted
  // connection once.
  void touch(int fd);
  void flush_touched();
  Conn* connect_peer(NodeId id);
  void on_connected(Conn& conn);
  void handle_listen_ready();
  void handle_conn_event(int fd, std::uint32_t events);
  void read_conn(Conn& conn);
  void flush_conn(Conn& conn);
  void update_interest(Conn& conn);
  void close_conn(int fd);
  // Hand an envelope from a socket (or, via_fd = -1, a co-hosted sender's
  // request to an inline node) to its local node.
  void deliver_inbound(Envelope envelope, int via_fd);
  // Watermark hysteresis + peak tracking for conn's write queue.
  void update_backpressure(Conn& conn);
  // Breaker bookkeeping after a connection to `id` failed (loop thread).
  void note_peer_failure(NodeId id);
  void register_conn(int fd);
  void unregister_conn();
  // Sets the per-peer circuit gauge (lazily resolved). Caller holds mu_.
  void set_circuit_gauge(NodeId id, Peer& peer, std::int64_t value);

  void count(std::atomic<std::uint64_t>& counter, obs::Counter* ObsProbes::* probe,
             std::uint64_t n = 1);

  TcpTransportConfig config_;
  EventLoop loop_;
  int listen_fd_ = -1;
  std::atomic<bool> stopped_{false};
  bool loop_started_ = false;

  // Cross-thread routing state (send() reachability check vs. loop-thread
  // updates). Off-loop deliveries to locals_ hold mu_ and loop-thread ones
  // hold dispatch_mu_, so detach() (which takes both) waits them out — the
  // same guarantee InprocTransport gives RpcNode teardown.
  std::mutex dispatch_mu_;
  mutable std::mutex mu_;
  std::unordered_map<NodeId, RpcNode*> locals_;
  std::unordered_map<NodeId, Peer> addrs_;
  std::unordered_map<NodeId, int> route_;  // node -> live connection fd

  // Loop-thread-only connection table, and the connections with frames
  // queued since the last flush_touched().
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::vector<int> touched_;

  // Staged sends (batched write path): producers push under stage_mu_ and
  // post the drain closure only when none is pending — one wake per burst.
  std::mutex stage_mu_;
  std::vector<std::shared_ptr<Envelope>> staged_;
  bool stage_sweep_pending_ = false;  // guarded by stage_mu_

  std::atomic<fault::FaultInjector*> injector_{nullptr};

  std::atomic<std::uint64_t> connects_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> framing_errors_{0};
  std::atomic<std::uint64_t> bytes_tx_{0};
  std::atomic<std::uint64_t> bytes_rx_{0};
  std::atomic<std::uint64_t> frames_dropped_{0};
  std::atomic<std::uint64_t> backpressure_events_{0};
  std::atomic<std::uint64_t> backpressure_rejects_{0};
  std::atomic<std::uint64_t> backpressure_drops_{0};
  std::atomic<std::uint64_t> wqueue_peak_{0};
  std::atomic<std::uint64_t> circuit_opens_{0};
  std::atomic<std::uint64_t> circuit_fast_fails_{0};
  std::atomic<std::uint64_t> connections_active_{0};
  std::atomic<std::uint64_t> writev_calls_{0};
  std::atomic<std::uint64_t> frames_sent_{0};

  std::atomic<obs::MetricsRegistry*> registry_{nullptr};
  std::unique_ptr<ObsProbes> probes_storage_;
  std::atomic<ObsProbes*> probes_{nullptr};
};

}  // namespace spcache::rpc
