#include "rpc/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <future>
#include <stdexcept>
#include <thread>

#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "rpc/bus.h"

namespace spcache::rpc {

namespace {

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &sin.sin_addr) != 1) {
    throw std::runtime_error("TcpTransport: bad IPv4 address '" + host + "'");
  }
  return sin;
}

}  // namespace

TcpTransport::TcpTransport(TcpTransportConfig config) : config_(config) {}

TcpTransport::~TcpTransport() { shutdown(); }

std::uint16_t TcpTransport::listen(const std::string& host, std::uint16_t port) {
  if (loop_started_) throw std::runtime_error("TcpTransport: already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("TcpTransport: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  auto sin = make_addr(host, port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("TcpTransport: bind(" + host + ":" + std::to_string(port) +
                             ") failed: " + err);
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("TcpTransport: listen() failed");
  }
  socklen_t len = sizeof(sin);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&sin), &len);
  loop_.add_fd(listen_fd_, EPOLLIN, [this](std::uint32_t) { handle_listen_ready(); });
  start();
  return ntohs(sin.sin_port);
}

void TcpTransport::start() {
  if (loop_started_) return;
  loop_started_ = true;
  loop_.start();
}

void TcpTransport::add_peer(NodeId id, std::string host, std::uint16_t port) {
  std::lock_guard lock(mu_);
  auto& peer = addrs_[id];
  peer.host = std::move(host);
  peer.port = port;
}

void TcpTransport::attach(NodeId id, RpcNode& node) {
  std::lock_guard lock(mu_);
  locals_[id] = &node;
}

void TcpTransport::detach(NodeId id) {
  // dispatch_mu_ first: the loop thread holds it across every call into a
  // node, so this waits out an inline dispatch or reply resolve in flight.
  std::lock_guard dispatch(dispatch_mu_);
  std::lock_guard lock(mu_);
  locals_.erase(id);
}

SendStatus TcpTransport::send(Envelope envelope) {
  if (stopped_.load(std::memory_order_acquire)) return SendStatus::kNoRoute;
  {
    std::lock_guard lock(mu_);
    // Local short-circuit: a co-hosted destination never touches a socket
    // (a daemon's own services talk at in-process speed).
    if (const auto it = locals_.find(envelope.to); it != locals_.end()) {
      if (!envelope.is_reply && it->second->dispatches_inline()) {
        // An inline node's handlers run only on the loop thread, one at a
        // time — a local request joins the socket ones there instead of
        // running on the sender's thread.
        if (!loop_started_) return SendStatus::kNoRoute;
        auto boxed = std::make_shared<Envelope>(std::move(envelope));
        loop_.post([this, boxed] {
          deliver_inbound(std::move(*boxed), -1);
          flush_touched();
        });
        return SendStatus::kAccepted;
      }
      // A reply resolves and a mailbox request queues right here — no
      // handler runs — under mu_, so detach() waits it out.
      it->second->deliver(std::move(envelope));
      return SendStatus::kAccepted;
    }
    const auto ait = addrs_.find(envelope.to);
    if (!route_.contains(envelope.to) && ait == addrs_.end()) return SendStatus::kNoRoute;
    if (ait != addrs_.end()) {
      Peer& peer = ait->second;
      if (peer.circuit_open) {
        // Fail fast while the circuit is open; after the open window let
        // exactly one envelope through as the half-open probe.
        const auto now = std::chrono::steady_clock::now();
        if (now < peer.open_until || peer.half_open_inflight) {
          count(circuit_fast_fails_, &ObsProbes::circuit_fast_fails);
          return SendStatus::kCircuitOpen;
        }
        peer.half_open_inflight = true;
      }
      if (peer.backpressured) {
        count(backpressure_rejects_, &ObsProbes::backpressure_rejects);
        return SendStatus::kOverloaded;
      }
    }
  }
  if (!loop_started_) return SendStatus::kNoRoute;
  // shared_ptr keeps the (possibly multi-megabyte) payload from being
  // copied by std::function's copyable-closure requirement — and the same
  // box then keeps the payload alive by reference while it sits in the
  // connection's frame queue.
  auto boxed = std::make_shared<Envelope>(std::move(envelope));
  if (loop_.on_loop_thread()) {
    // A send made on the loop thread (an inline handler's reply) goes
    // straight onto its connection's queue; the loop flushes each touched
    // connection once per read pass — no stage, no post, no eventfd wake.
    const int fd = enqueue_on_loop(std::move(boxed));
    if (fd >= 0) touch(fd);
    return SendStatus::kAccepted;
  }
  // Stage the envelope and wake the loop only if no sweep is already
  // pending: a burst of sends (e.g. requests fanned out by callers, or
  // replies from a mailbox node's service thread) rides a single eventfd
  // wake and drains in one sweep, which flushes each touched connection
  // exactly once.
  bool need_post = false;
  {
    std::lock_guard lock(stage_mu_);
    staged_.push_back(std::move(boxed));
    need_post = !stage_sweep_pending_;
    stage_sweep_pending_ = true;
  }
  if (need_post) loop_.post([this] { drain_staged(); });
  return SendStatus::kAccepted;
}

void TcpTransport::drain_staged() {
  std::vector<std::shared_ptr<Envelope>> batch;
  {
    std::lock_guard lock(stage_mu_);
    batch.swap(staged_);
    // Reset before processing: a producer staging after this point needs a
    // fresh post, because this sweep no longer sees its envelope.
    stage_sweep_pending_ = false;
  }
  for (auto& boxed : batch) {
    const int fd = enqueue_on_loop(std::move(boxed));
    if (fd >= 0) touch(fd);
  }
  flush_touched();
}

void TcpTransport::touch(int fd) {
  // Bursts touch a handful of connections — a linear scan beats a set.
  if (std::find(touched_.begin(), touched_.end(), fd) == touched_.end()) {
    touched_.push_back(fd);
  }
}

void TcpTransport::flush_touched() {
  for (const int fd : touched_) {
    const auto it = conns_.find(fd);
    if (it != conns_.end()) flush_conn(*it->second);
  }
  touched_.clear();
}

int TcpTransport::enqueue_on_loop(std::shared_ptr<Envelope> boxed) {
  Envelope& envelope = *boxed;
  Conn* conn = nullptr;
  {
    std::lock_guard lock(mu_);
    if (const auto it = route_.find(envelope.to); it != route_.end()) {
      const auto cit = conns_.find(it->second);
      if (cit != conns_.end()) conn = cit->second.get();
    }
  }
  if (conn == nullptr) conn = connect_peer(envelope.to);
  if (conn == nullptr) {
    // Reachability changed between send() and here (peer connection died
    // and it has no address, or connect failed immediately): the envelope
    // is lost like a packet on a dead link — the caller's timeout fires.
    count(frames_dropped_, &ObsProbes::frames_dropped);
    return -1;
  }
  // Hard cap at 2x high: envelopes that were already in flight through the
  // loop when the backpressure flag rose still land here; past the cap
  // they are dropped (the caller's timeout fires) so a slow-draining peer
  // bounds this process's memory instead of growing the queue forever.
  if (conn->out_bytes + kFrameHeaderSize + envelope.payload.size() > 2 * config_.wqueue_high) {
    count(backpressure_drops_, &ObsProbes::backpressure_drops);
    count(frames_dropped_, &ObsProbes::frames_dropped);
    return -1;
  }
  OutFrame frame;
  frame.header = encode_frame_header(envelope, envelope.payload.size());
  if (!envelope.payload.empty()) {
    // Aliasing ctor: the frame shares ownership of the envelope box but
    // points at its payload — the bytes serialized in the handler are the
    // very bytes the socket writes; no copy on this whole path.
    frame.payload = std::shared_ptr<const std::vector<std::uint8_t>>(boxed, &envelope.payload);
  }
  conn->out_bytes += frame.size();
  conn->outq.push_back(std::move(frame));
  // The caller flushes this fd after the whole burst is enqueued;
  // flush_conn refreshes backpressure and epoll interest on its way out.
  update_backpressure(*conn);
  return conn->fd;
}

TcpTransport::Conn* TcpTransport::connect_peer(NodeId id) {
  std::string host;
  std::uint16_t port = 0;
  {
    std::lock_guard lock(mu_);
    const auto it = addrs_.find(id);
    if (it == addrs_.end()) return nullptr;
    host = it->second.host;
    port = it->second.port;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto sin = make_addr(host, port);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return nullptr;
  }
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->peer = id;
  conn->peer_known = true;
  conn->connecting = (rc != 0);
  Conn* raw = conn.get();
  conns_[fd] = std::move(conn);
  register_conn(fd);
  {
    std::lock_guard lock(mu_);
    route_[id] = fd;
  }
  loop_.add_fd(fd, EPOLLIN | EPOLLOUT, [this, fd](std::uint32_t ev) {
    handle_conn_event(fd, ev);
  });
  // rc == 0: connected instantly (loopback). Otherwise the outcome arrives
  // as EPOLLOUT (success) or EPOLLERR/EPOLLHUP (refused); frames queue on
  // conn->out meanwhile.
  if (!raw->connecting) on_connected(*raw);
  return raw;
}

void TcpTransport::on_connected(Conn& conn) {
  conn.connecting = false;
  bool again = false;
  {
    std::lock_guard lock(mu_);
    if (const auto it = addrs_.find(conn.peer); it != addrs_.end()) {
      Peer& peer = it->second;
      again = peer.ever_connected;
      peer.ever_connected = true;
      // A completed connect is the breaker's success signal: the failure
      // streak ends and an open circuit (this was the half-open probe)
      // closes again.
      peer.consecutive_failures = 0;
      peer.half_open_inflight = false;
      if (peer.circuit_open) {
        peer.circuit_open = false;
        set_circuit_gauge(conn.peer, peer, 0);
      }
    }
  }
  count(connects_, &ObsProbes::connects);
  if (again) count(reconnects_, &ObsProbes::reconnects);
  flush_conn(conn);
}

void TcpTransport::handle_listen_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;  // a signal is not "no more clients"
      break;                        // EAGAIN (or teardown)
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->inbound = true;
    conns_[fd] = std::move(conn);
    register_conn(fd);
    loop_.add_fd(fd, EPOLLIN, [this, fd](std::uint32_t ev) { handle_conn_event(fd, ev); });
  }
}

void TcpTransport::handle_conn_event(int fd, std::uint32_t events) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    close_conn(fd);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (conn.connecting) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        close_conn(fd);
        return;
      }
      on_connected(conn);
    } else {
      flush_conn(conn);
    }
    if (!conns_.contains(fd)) return;  // flush hit a fatal error
  }
  if ((events & EPOLLIN) != 0) read_conn(conn);
}

void TcpTransport::read_conn(Conn& conn) {
  std::uint8_t buffer[64 * 1024];
  for (;;) {
    // Large in-flight payloads receive straight into the decoder's sized
    // payload window (readv: window first, scratch for whatever follows),
    // so a multi-megabyte frame costs one kernel->payload copy instead of
    // passing through the decoder buffer on the way.
    std::size_t window_len = 0;
    ssize_t n;
    if (conn.decoder.in_direct()) {
      const auto window = conn.decoder.direct_window();
      window_len = window.size();
      iovec iov[2];
      iov[0].iov_base = window.data();
      iov[0].iov_len = window_len;
      iov[1].iov_base = buffer;
      iov[1].iov_len = sizeof(buffer);
      n = ::readv(conn.fd, iov, 2);
    } else {
      n = ::read(conn.fd, buffer, sizeof(buffer));
    }
    if (n > 0) {
      count(bytes_rx_, &ObsProbes::bytes_rx, static_cast<std::uint64_t>(n));
      try {
        const std::size_t direct_n = std::min(static_cast<std::size_t>(n), window_len);
        if (direct_n > 0) {
          if (auto envelope = conn.decoder.commit_direct(direct_n)) {
            deliver_inbound(std::move(*envelope), conn.fd);
          }
        }
        if (static_cast<std::size_t>(n) > direct_n) {
          conn.decoder.feed(
              std::span(buffer, static_cast<std::size_t>(n) - direct_n));
        }
        while (auto envelope = conn.decoder.next()) {
          deliver_inbound(std::move(*envelope), conn.fd);
        }
        conn.decoder.try_begin_direct();
      } catch (const FramingError&) {
        // The stream is unrecoverable past a bad header: count it and cut
        // the connection; the peer's in-flight calls time out and retry.
        count(framing_errors_, &ObsProbes::framing_errors);
        close_conn(conn.fd);
        break;
      }
      continue;
    }
    if (n == 0) {  // orderly peer close
      close_conn(conn.fd);
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn(conn.fd);
    break;
  }
  // Replies that inline handlers queued during this read pass leave now,
  // one flush per touched connection — requests that arrived while earlier
  // ones were being served share the writev. Flushing only once decoding
  // is over keeps a failed flush from closing a connection mid-read.
  flush_touched();
}

void TcpTransport::deliver_inbound(Envelope envelope, int via_fd) {
  // dispatch_mu_, not mu_, spans the call into the node: an inline
  // handler's reply send takes mu_, and detach() takes dispatch_mu_ to
  // wait this out.
  std::lock_guard dispatch(dispatch_mu_);
  RpcNode* node = nullptr;
  {
    std::lock_guard lock(mu_);
    // Learn the reply route: the sender is reachable over this connection.
    // Newest connection wins, so a reconnected peer supersedes its corpse.
    if (via_fd >= 0) route_[envelope.from] = via_fd;
    if (const auto it = locals_.find(envelope.to); it != locals_.end()) node = it->second;
  }
  if (node == nullptr) {
    count(frames_dropped_, &ObsProbes::frames_dropped);
    return;
  }
  node->deliver(std::move(envelope));
}

void TcpTransport::flush_conn(Conn& conn) {
  if (conn.connecting) return;  // queued; the EPOLLOUT completion flushes
  // Seeded socket chaos, decided here on the loop thread so the fault
  // schedule is a pure function of the seed even over real sockets.
  std::size_t write_clamp = 0;  // 0 = no clamp
  if (auto* injector = injector_.load(std::memory_order_acquire);
      injector != nullptr && conn.out_bytes > 0) {
    if (injector->sock_delay()) {
      std::this_thread::sleep_for(injector->config().sock_delay);
    }
    if (injector->sock_reset()) {
      // Hard RST instead of an orderly FIN: the peer's read() fails with
      // ECONNRESET mid-stream, its decoder state is discarded with the
      // connection, and retries drive a reconnect.
      const linger lg{.l_onoff = 1, .l_linger = 0};
      ::setsockopt(conn.fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
      close_conn(conn.fd);
      return;
    }
    if (injector->sock_partial_write()) write_clamp = 7;
  }
  // Up to kMaxIovPerWritev segments per syscall: each frame contributes
  // its header and (if any) payload segment, so one writev drains many
  // queued frames. A partial write leaves out_offset mid-frame — possibly
  // mid-header — and the next pass resumes from that exact byte, across
  // iovec boundaries.
  constexpr std::size_t kMaxIovPerWritev = 64;
  while (conn.out_bytes > 0) {
    iovec iov[kMaxIovPerWritev];
    std::size_t iovcnt = 0;
    std::size_t skip = conn.out_offset;
    for (const OutFrame& frame : conn.outq) {
      if (iovcnt + 2 > kMaxIovPerWritev) break;
      if (skip < kFrameHeaderSize) {
        iov[iovcnt].iov_base =
            const_cast<std::uint8_t*>(frame.header.data()) + skip;
        iov[iovcnt].iov_len = kFrameHeaderSize - skip;
        ++iovcnt;
        skip = 0;
      } else {
        skip -= kFrameHeaderSize;
      }
      const std::size_t payload_len = frame.payload ? frame.payload->size() : 0;
      if (payload_len > skip) {
        iov[iovcnt].iov_base =
            const_cast<std::uint8_t*>(frame.payload->data()) + skip;
        iov[iovcnt].iov_len = payload_len - skip;
        ++iovcnt;
        skip = 0;
      } else {
        skip -= payload_len;
      }
    }
    if (iovcnt == 0) break;
    if (write_clamp != 0) {
      // Honor the chaos clamp by trimming the gather list to the first
      // write_clamp bytes — frames still split across segments exactly as
      // they did with the clamped flat write().
      std::size_t budget = write_clamp;
      std::size_t kept = 0;
      while (kept < iovcnt && budget > 0) {
        if (iov[kept].iov_len > budget) iov[kept].iov_len = budget;
        budget -= iov[kept].iov_len;
        ++kept;
      }
      iovcnt = kept;
    }
    const ssize_t n = ::writev(conn.fd, iov, static_cast<int>(iovcnt));
    if (n > 0) {
      count(bytes_tx_, &ObsProbes::bytes_tx, static_cast<std::uint64_t>(n));
      count(writev_calls_, &ObsProbes::writev_calls);
      conn.out_bytes -= static_cast<std::size_t>(n);
      conn.out_offset += static_cast<std::size_t>(n);
      std::uint64_t completed = 0;
      while (!conn.outq.empty() && conn.out_offset >= conn.outq.front().size()) {
        conn.out_offset -= conn.outq.front().size();
        conn.outq.pop_front();
        ++completed;
      }
      if (completed > 0) count(frames_sent_, &ObsProbes::frames_sent, completed);
      if (write_clamp != 0) break;  // leave the tail for the next EPOLLOUT
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_conn(conn.fd);
    return;
  }
  update_backpressure(conn);
  update_interest(conn);
}

void TcpTransport::update_backpressure(Conn& conn) {
  const std::size_t queued = conn.out_bytes;
  if (queued > wqueue_peak_.load(std::memory_order_relaxed)) {
    // Loop thread is the only writer, so load-compare-store is race-free.
    wqueue_peak_.store(queued, std::memory_order_relaxed);
    if (auto* probes = probes_.load(std::memory_order_acquire); probes && probes->wqueue_peak) {
      probes->wqueue_peak->set(static_cast<std::int64_t>(queued));
    }
  }
  if (!conn.peer_known) return;
  bool crossed = false;
  {
    std::lock_guard lock(mu_);
    const auto it = addrs_.find(conn.peer);
    if (it == addrs_.end()) return;
    Peer& peer = it->second;
    if (!peer.backpressured && queued >= config_.wqueue_high) {
      peer.backpressured = true;
      crossed = true;
    } else if (peer.backpressured && queued <= config_.wqueue_low) {
      peer.backpressured = false;
    }
  }
  if (crossed) count(backpressure_events_, &ObsProbes::backpressure_events);
}

void TcpTransport::update_interest(Conn& conn) {
  const bool want_write = conn.connecting || conn.out_bytes > 0;
  loop_.modify_fd(conn.fd, EPOLLIN | (want_write ? EPOLLOUT : 0u));
}

void TcpTransport::close_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  const bool stranded = conn.out_bytes > 0;
  if (stranded) {
    count(frames_dropped_, &ObsProbes::frames_dropped);
  }
  // Breaker failure signal: an *outbound* connection that died while still
  // connecting, or with bytes it never delivered. An orderly close of a
  // drained connection (peer restarting cleanly) is not a failure.
  const bool failed = !conn.inbound && conn.peer_known && (conn.connecting || stranded);
  const NodeId failed_peer = conn.peer;
  loop_.remove_fd(fd);
  ::close(fd);
  {
    std::lock_guard lock(mu_);
    // Unbind every node routed over this connection — but only if the
    // route still points here (a reconnect may have superseded it).
    for (auto rit = route_.begin(); rit != route_.end();) {
      if (rit->second == fd) {
        rit = route_.erase(rit);
      } else {
        ++rit;
      }
    }
    // The queue died with the connection; never leave its flag wedged.
    if (conn.peer_known) {
      if (const auto ait = addrs_.find(conn.peer); ait != addrs_.end()) {
        ait->second.backpressured = false;
      }
    }
  }
  conns_.erase(it);
  unregister_conn();
  if (failed) note_peer_failure(failed_peer);
}

void TcpTransport::note_peer_failure(NodeId id) {
  if (config_.breaker_threshold == 0) return;
  bool opened = false;
  {
    std::lock_guard lock(mu_);
    const auto it = addrs_.find(id);
    if (it == addrs_.end()) return;
    Peer& peer = it->second;
    ++peer.consecutive_failures;
    peer.half_open_inflight = false;  // the probe (if any) just failed
    if (peer.consecutive_failures >= config_.breaker_threshold) {
      if (!peer.circuit_open) {
        peer.circuit_open = true;
        opened = true;
        set_circuit_gauge(id, peer, 1);
      }
      // Every further failure (including a failed half-open probe)
      // re-arms the open window from now.
      peer.open_until = std::chrono::steady_clock::now() + config_.breaker_open;
    }
  }
  if (opened) count(circuit_opens_, &ObsProbes::circuit_opens);
}

void TcpTransport::register_conn(int /*fd*/) {
  const auto active = connections_active_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (auto* probes = probes_.load(std::memory_order_acquire);
      probes && probes->connections_active) {
    probes->connections_active->set(static_cast<std::int64_t>(active));
  }
}

void TcpTransport::unregister_conn() {
  const auto active = connections_active_.fetch_sub(1, std::memory_order_relaxed) - 1;
  if (auto* probes = probes_.load(std::memory_order_acquire);
      probes && probes->connections_active) {
    probes->connections_active->set(static_cast<std::int64_t>(active));
  }
}

void TcpTransport::set_circuit_gauge(NodeId id, Peer& peer, std::int64_t value) {
  auto* registry = registry_.load(std::memory_order_acquire);
  if (registry == nullptr) return;
  if (peer.circuit_gauge == nullptr) {
    // Lazy resolve: peers can be added after attach_observability. The
    // registry's own mutex serializes this; it never takes mu_, so the
    // lock order (mu_ -> registry) cannot cycle.
    peer.circuit_gauge =
        &registry->gauge("transport.peer." + std::to_string(id) + ".circuit_open");
  }
  peer.circuit_gauge->set(value);
}

void TcpTransport::attach_observability(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    probes_.store(nullptr, std::memory_order_release);
    registry_.store(nullptr, std::memory_order_release);
    return;
  }
  namespace n = obs::names;
  auto probes = std::make_unique<ObsProbes>();
  probes->connects = &registry->counter(n::kTransportConnects);
  probes->reconnects = &registry->counter(n::kTransportReconnects);
  probes->framing_errors = &registry->counter(n::kTransportFramingErrors);
  probes->bytes_tx = &registry->counter(n::kTransportBytesTx);
  probes->bytes_rx = &registry->counter(n::kTransportBytesRx);
  probes->frames_dropped = &registry->counter(n::kTransportFramesDropped);
  probes->backpressure_events = &registry->counter(n::kTransportBackpressureEvents);
  probes->backpressure_rejects = &registry->counter(n::kTransportBackpressureRejects);
  probes->backpressure_drops = &registry->counter(n::kTransportBackpressureDrops);
  probes->circuit_opens = &registry->counter(n::kTransportCircuitOpens);
  probes->circuit_fast_fails = &registry->counter(n::kTransportCircuitFastFails);
  probes->writev_calls = &registry->counter(n::kTransportWritevCalls);
  probes->frames_sent = &registry->counter(n::kTransportFramesSent);
  probes->wqueue_peak = &registry->gauge(n::kTransportWqueuePeak);
  probes->connections_active = &registry->gauge(n::kTransportConnectionsActive);
  registry_.store(registry, std::memory_order_release);
  probes_storage_ = std::move(probes);
  probes_.store(probes_storage_.get(), std::memory_order_release);
}

void TcpTransport::shutdown() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  if (!loop_started_) {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }
  // Run the teardown on the loop thread so it cannot race live I/O, then
  // stop the loop itself.
  std::promise<void> done;
  loop_.post([this, &done] {
    // Posted closures run FIFO, so a pending staged-send sweep already ran —
    // but drain explicitly anyway so envelopes staged between that sweep and
    // stopped_ flipping still make it onto their connection queues.
    drain_staged();
    if (listen_fd_ >= 0) {
      loop_.remove_fd(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    // Graceful drain: retry non-blocking flush passes until every
    // connection's frame queue empties or the drain deadline expires, so
    // replies serialized just before shutdown reach the wire instead of
    // being dropped by a single best-effort pass. Work off a snapshot of
    // fds — flush_conn can erase a dead connection.
    std::vector<int> fds;
    fds.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) fds.push_back(fd);
    const auto drain_deadline = std::chrono::steady_clock::now() + config_.shutdown_drain;
    for (;;) {
      bool pending = false;
      for (const int fd : fds) {
        const auto it = conns_.find(fd);
        if (it == conns_.end()) continue;
        flush_conn(*it->second);
        if (const auto again = conns_.find(fd); again != conns_.end()) {
          pending |= again->second->out_bytes > 0 && !again->second->connecting;
        }
      }
      if (!pending || std::chrono::steady_clock::now() >= drain_deadline) break;
      // The sockets are non-blocking; give the kernel a beat to drain its
      // buffers before the next pass. Nothing else runs on this loop —
      // stopped_ already refuses new sends.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (const int fd : fds) close_conn(fd);
    done.set_value();
  });
  done.get_future().wait();
  loop_.stop();
}

TcpTransport::Counters TcpTransport::counters() const {
  Counters c;
  c.connects = connects_.load(std::memory_order_relaxed);
  c.reconnects = reconnects_.load(std::memory_order_relaxed);
  c.framing_errors = framing_errors_.load(std::memory_order_relaxed);
  c.bytes_tx = bytes_tx_.load(std::memory_order_relaxed);
  c.bytes_rx = bytes_rx_.load(std::memory_order_relaxed);
  c.frames_dropped = frames_dropped_.load(std::memory_order_relaxed);
  c.backpressure_events = backpressure_events_.load(std::memory_order_relaxed);
  c.backpressure_rejects = backpressure_rejects_.load(std::memory_order_relaxed);
  c.backpressure_drops = backpressure_drops_.load(std::memory_order_relaxed);
  c.wqueue_peak = wqueue_peak_.load(std::memory_order_relaxed);
  c.circuit_opens = circuit_opens_.load(std::memory_order_relaxed);
  c.circuit_fast_fails = circuit_fast_fails_.load(std::memory_order_relaxed);
  c.connections_active = connections_active_.load(std::memory_order_relaxed);
  c.writev_calls = writev_calls_.load(std::memory_order_relaxed);
  c.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  if (c.writev_calls > 0) {
    c.frames_per_writev =
        static_cast<double>(c.frames_sent) / static_cast<double>(c.writev_calls);
    c.bytes_per_syscall =
        static_cast<double>(c.bytes_tx) / static_cast<double>(c.writev_calls);
  }
  return c;
}

void TcpTransport::count(std::atomic<std::uint64_t>& counter, obs::Counter* ObsProbes::* probe,
                         std::uint64_t n) {
  counter.fetch_add(n, std::memory_order_relaxed);
  if (auto* probes = probes_.load(std::memory_order_acquire)) (probes->*probe)->add(n);
}

}  // namespace spcache::rpc
