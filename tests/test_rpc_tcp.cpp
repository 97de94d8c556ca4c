// TcpTransport loopback tests: real sockets, framed envelopes, the same
// RpcNode/Bus/service machinery as production. Covers request/reply over
// TCP (small and multi-megabyte payloads), the full SP write/read flow
// bit-exact through daemon-style processes-in-miniature, dead and
// mid-call-disconnected peers surfacing as bounded errors (never hangs),
// and reconnect-on-failure after a peer restarts on its old port.
//
// Runs under the tsan preset too (tools/check.sh matches test_rpc_*), so
// the loop-thread/caller-thread handoffs are race-checked for real.
#include "rpc/tcp_transport.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "fault/fault_injector.h"
#include "rpc/cache_service.h"

namespace spcache::rpc {
namespace {

using namespace std::chrono_literals;

constexpr MethodId kEcho = 42;

std::vector<std::uint8_t> pattern_payload(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint8_t>(salt + i * 31);
  return p;
}

// One listening endpoint hosting an echo node, plus a client wired to it.
struct EchoPair {
  TcpTransport server_tcp;
  std::uint16_t port = 0;
  std::unique_ptr<Bus> server_bus;
  std::unique_ptr<RpcNode> echo;

  TcpTransport client_tcp;
  std::unique_ptr<Bus> client_bus;
  std::unique_ptr<RpcNode> caller;

  EchoPair() {
    port = server_tcp.listen("127.0.0.1", 0);
    server_bus = std::make_unique<Bus>(server_tcp);
    echo = std::make_unique<RpcNode>(*server_bus, 1, "echo");
    echo->handle(kEcho, [](BufferReader& r) {
      const auto body = r.bytes();
      BufferWriter w;
      w.bytes(body);
      return w.take();
    });
    echo->start();

    client_tcp.start();
    client_tcp.add_peer(1, "127.0.0.1", port);
    client_bus = std::make_unique<Bus>(client_tcp);
    caller = std::make_unique<RpcNode>(*client_bus, kFirstClientNode, "caller");
    caller->start();
  }
};

Reply echo_call(RpcNode& caller, std::size_t n, std::uint8_t salt,
                std::chrono::milliseconds timeout = 5000ms) {
  BufferWriter w;
  w.bytes(pattern_payload(n, salt));
  return caller.call_sync(1, kEcho, w.take(), timeout);
}

TEST(TcpTransport, RequestReplyOverLoopback) {
  EchoPair p;
  const Reply reply = echo_call(*p.caller, 100, 7);
  ASSERT_TRUE(reply.ok()) << reply.error_text();
  BufferReader r(reply.payload);
  EXPECT_EQ(r.bytes(), pattern_payload(100, 7));

  const auto c = p.client_tcp.counters();
  EXPECT_EQ(c.connects, 1u);
  EXPECT_EQ(c.framing_errors, 0u);
  EXPECT_GT(c.bytes_tx, 0u);
  EXPECT_GT(c.bytes_rx, 0u);
}

// Multi-megabyte payloads span many partial reads/writes — the framed
// stream must reassemble them exactly.
TEST(TcpTransport, LargePayloadRoundtrip) {
  EchoPair p;
  const std::size_t kBig = 3 * 1024 * 1024 + 137;
  const Reply reply = echo_call(*p.caller, kBig, 3, 20000ms);
  ASSERT_TRUE(reply.ok()) << reply.error_text();
  BufferReader r(reply.payload);
  EXPECT_EQ(r.bytes(), pattern_payload(kBig, 3));
}

// Sequential calls reuse the pooled connection instead of redialing.
TEST(TcpTransport, ConnectionIsPooled) {
  EchoPair p;
  for (int i = 0; i < 20; ++i) {
    const Reply reply = echo_call(*p.caller, 64, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(reply.ok()) << reply.error_text();
  }
  EXPECT_EQ(p.client_tcp.counters().connects, 1u);
  EXPECT_EQ(p.client_tcp.counters().reconnects, 0u);
}

// The acceptance scenario in miniature: master + 3 workers behind one
// listening transport, the real RpcSpClient on its own transport, every
// byte over loopback TCP — write, read back, verify bit-exact.
TEST(TcpTransport, WriteReadBitExactThroughServices) {
  TcpTransport cluster_tcp;
  const std::uint16_t port = cluster_tcp.listen("127.0.0.1", 0);
  Bus cluster_bus(cluster_tcp);
  MasterService master(cluster_bus);
  std::vector<std::unique_ptr<CacheWorkerService>> workers;
  std::vector<NodeId> worker_nodes;
  for (std::uint32_t s = 0; s < 3; ++s) {
    workers.push_back(std::make_unique<CacheWorkerService>(
        cluster_bus, kFirstWorkerNode + s, s, gbps(1.0)));
    worker_nodes.push_back(workers.back()->node_id());
  }

  TcpTransport client_tcp;
  client_tcp.start();
  client_tcp.add_peer(kMasterNode, "127.0.0.1", port);
  for (const NodeId w : worker_nodes) client_tcp.add_peer(w, "127.0.0.1", port);
  Bus client_bus(client_tcp);
  RpcSpClient client(client_bus, kFirstClientNode, kMasterNode, worker_nodes);

  std::vector<std::vector<std::uint8_t>> originals;
  for (FileId f = 0; f < 6; ++f) {
    originals.push_back(pattern_payload(96 * 1024 + f * 1000, static_cast<std::uint8_t>(f)));
    client.write(f, originals.back(), {0, 1, 2});
  }
  for (FileId f = 0; f < 6; ++f) {
    EXPECT_EQ(client.read(f), originals[f]) << "file " << f;
  }
  EXPECT_EQ(client_tcp.counters().framing_errors, 0u);
}

// A peer that nobody is listening for: the connection fails, frames drop,
// and the caller gets a bounded error — not a hang.
TEST(TcpTransport, DeadPeerSurfacesAsBoundedError) {
  TcpTransport client_tcp;
  client_tcp.start();
  // Reserve a port, then close it so nothing listens there.
  std::uint16_t dead_port = 0;
  {
    TcpTransport probe;
    dead_port = probe.listen("127.0.0.1", 0);
    probe.shutdown();
  }
  client_tcp.add_peer(1, "127.0.0.1", dead_port);
  Bus bus(client_tcp);
  RpcNode caller(bus, kFirstClientNode, "caller");
  caller.start();

  BufferWriter w;
  w.bytes(pattern_payload(16, 1));
  const auto t0 = std::chrono::steady_clock::now();
  const Reply reply = caller.call_sync(1, kEcho, w.take(), 500ms);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(reply.ok());
  EXPECT_LT(elapsed, 5s);
  // An entirely unknown node (no address, no learned route) fails without
  // even burning the timeout.
  const Reply unknown = caller.call_sync(99, kEcho, {}, 500ms);
  EXPECT_FALSE(unknown.ok());
}

// Peer dies mid-call (request delivered, connection torn down before the
// reply): the caller's timeout fires — error, not a hang.
TEST(TcpTransport, MidCallDisconnectSurfacesAsError) {
  auto server_tcp = std::make_unique<TcpTransport>();
  const std::uint16_t port = server_tcp->listen("127.0.0.1", 0);
  auto server_bus = std::make_unique<Bus>(*server_tcp);
  auto sloth = std::make_unique<RpcNode>(*server_bus, 1, "sloth");
  sloth->handle(kEcho, [](BufferReader&) -> std::vector<std::uint8_t> {
    std::this_thread::sleep_for(1s);  // the reply will find the wire gone
    return {};
  });
  sloth->start();

  TcpTransport client_tcp;
  client_tcp.start();
  client_tcp.add_peer(1, "127.0.0.1", port);
  Bus client_bus(client_tcp);
  RpcNode caller(client_bus, kFirstClientNode, "caller");
  caller.start();

  auto pending = caller.call_tagged(1, kEcho, {});
  std::this_thread::sleep_for(200ms);  // let the request land in the handler
  // Kill the server's sockets out from under the in-flight call. (The node
  // and bus stay alive so the sleeping handler can finish harmlessly.)
  server_tcp->shutdown();

  const auto status = pending.reply.wait_for(1500ms);
  if (status != std::future_status::ready) {
    EXPECT_TRUE(caller.forget(pending.request_id));
  } else {
    EXPECT_FALSE(pending.reply.get().ok());
  }
}

// Peer restarts on its old port: the next sends notice the dead
// connection, redial, and complete — counted as transport.reconnects.
TEST(TcpTransport, ReconnectAfterPeerRestart) {
  std::uint16_t port = 0;
  auto server_tcp = std::make_unique<TcpTransport>();
  port = server_tcp->listen("127.0.0.1", 0);
  auto server_bus = std::make_unique<Bus>(*server_tcp);
  auto make_echo = [](Bus& bus) {
    auto node = std::make_unique<RpcNode>(bus, 1, "echo");
    node->handle(kEcho, [](BufferReader& r) {
      const auto body = r.bytes();
      BufferWriter w;
      w.bytes(body);
      return w.take();
    });
    node->start();
    return node;
  };
  auto echo = make_echo(*server_bus);

  TcpTransport client_tcp;
  client_tcp.start();
  client_tcp.add_peer(1, "127.0.0.1", port);
  Bus client_bus(client_tcp);
  RpcNode caller(client_bus, kFirstClientNode, "caller");
  caller.start();

  BufferWriter w1;
  w1.bytes(pattern_payload(64, 9));
  ASSERT_TRUE(caller.call_sync(1, kEcho, w1.take(), 5000ms).ok());

  // Restart: tear the whole server process-in-miniature down, then bring a
  // fresh one up on the same port (SO_REUSEADDR makes the rebind instant).
  echo.reset();
  server_bus.reset();
  server_tcp.reset();
  server_tcp = std::make_unique<TcpTransport>();
  ASSERT_EQ(server_tcp->listen("127.0.0.1", port), port);
  server_bus = std::make_unique<Bus>(*server_tcp);
  echo = make_echo(*server_bus);

  // The first send after the crash may ride the dead connection and drop;
  // retrying must land on a fresh one.
  bool recovered = false;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline) {
    BufferWriter w2;
    w2.bytes(pattern_payload(64, 11));
    if (caller.call_sync(1, kEcho, w2.take(), 500ms).ok()) {
      recovered = true;
      break;
    }
  }
  EXPECT_TRUE(recovered);
  EXPECT_GE(client_tcp.counters().reconnects, 1u);
  EXPECT_EQ(client_tcp.counters().framing_errors, 0u);
}

// A peer that accepts but never reads: the client's write queue backs up,
// crosses the high watermark, and further sends fail fast with
// kOverloaded — while the queue itself stays bounded at the 2x-high hard
// cap instead of growing without limit.
TEST(TcpTransport, SlowReaderHitsWatermarkAndFailsFast) {
  // A raw listening socket that accepts connections and then ignores them
  // completely — the TCP window closes and nothing drains.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listen_fd, 0);
  const int rcvbuf = 4096;  // tiny receive window: the kernel absorbs little
  ::setsockopt(listen_fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  TcpTransportConfig cfg;
  cfg.wqueue_high = 128 * 1024;
  cfg.wqueue_low = 32 * 1024;
  TcpTransport client(cfg);
  client.start();
  client.add_peer(1, "127.0.0.1", port);

  const auto payload = pattern_payload(64 * 1024, 9);
  bool overloaded = false;
  for (int i = 0; i < 400 && !overloaded; ++i) {
    Envelope e;
    e.from = kFirstClientNode;
    e.to = 1;
    e.method = kEcho;
    e.request_id = static_cast<std::uint64_t>(i + 1);
    e.payload = payload;
    const SendStatus st = client.send(std::move(e));
    if (st == SendStatus::kOverloaded) overloaded = true;
    std::this_thread::sleep_for(1ms);  // let the loop thread queue + flush
  }
  EXPECT_TRUE(overloaded) << "send() never failed fast against a non-draining peer";

  const auto c = client.counters();
  EXPECT_GE(c.backpressure_events, 1u);
  EXPECT_GE(c.backpressure_rejects, 1u);
  EXPECT_GE(c.wqueue_peak, cfg.wqueue_high);
  // The bounded-memory claim: the queue never exceeded the hard cap.
  EXPECT_LE(c.wqueue_peak, 2 * cfg.wqueue_high);

  client.shutdown();
  ::close(listen_fd);
}

// Deadline propagation over the wire: a request that sits in the server's
// mailbox past its budget is shed with kDeadlineExpired — the handler
// never runs for it.
TEST(TcpTransport, DeadlineShedOverTcp) {
  TcpTransport server_tcp;
  const std::uint16_t port = server_tcp.listen("127.0.0.1", 0);
  Bus server_bus(server_tcp);
  RpcNode sloth(server_bus, 1, "sloth");
  sloth.handle(kEcho, [](BufferReader& r) {
    std::this_thread::sleep_for(300ms);  // holds the service thread
    const auto body = r.bytes();
    BufferWriter w;
    w.bytes(body);
    return w.take();
  });
  sloth.start();

  TcpTransport client_tcp;
  client_tcp.start();
  client_tcp.add_peer(1, "127.0.0.1", port);
  Bus client_bus(client_tcp);
  RpcNode caller(client_bus, kFirstClientNode, "caller");
  caller.start();

  // Call A occupies the service thread; call B queues behind it with a
  // 50ms budget that expires long before dispatch.
  BufferWriter wa;
  wa.bytes(pattern_payload(32, 1));
  auto a = caller.call_tagged(1, kEcho, wa.take());
  std::this_thread::sleep_for(50ms);  // A is in the handler by now
  BufferWriter wb;
  wb.bytes(pattern_payload(32, 2));
  auto b = caller.call_tagged(1, kEcho, wb.take(), 50ms);

  ASSERT_EQ(b.reply.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(b.reply.get().status, Status::kDeadlineExpired);
  ASSERT_EQ(a.reply.wait_for(5s), std::future_status::ready);
  EXPECT_TRUE(a.reply.get().ok());
}

// Consecutive connection failures open the per-peer circuit: sends fail
// fast with kCircuitOpen instead of burning a timeout each, and after the
// open window one half-open probe is admitted again.
TEST(TcpTransport, CircuitBreakerFastFailsAfterConsecutiveFailures) {
  // Reserve a port, then free it so every connect is refused.
  std::uint16_t dead_port = 0;
  {
    TcpTransport probe;
    dead_port = probe.listen("127.0.0.1", 0);
    probe.shutdown();
  }

  TcpTransportConfig cfg;
  cfg.breaker_threshold = 2;
  cfg.breaker_open = 200ms;
  TcpTransport client(cfg);
  client.start();
  client.add_peer(1, "127.0.0.1", dead_port);

  auto send_one = [&](std::uint64_t id) {
    Envelope e;
    e.from = kFirstClientNode;
    e.to = 1;
    e.method = kEcho;
    e.request_id = id;
    e.payload = pattern_payload(16, 3);
    return client.send(std::move(e));
  };

  bool circuit_open = false;
  for (int i = 0; i < 100 && !circuit_open; ++i) {
    if (send_one(static_cast<std::uint64_t>(i + 1)) == SendStatus::kCircuitOpen) {
      circuit_open = true;
      break;
    }
    std::this_thread::sleep_for(20ms);  // let the refused connect register
  }
  EXPECT_TRUE(circuit_open) << "circuit never opened against a refusing peer";
  EXPECT_GE(client.counters().circuit_opens, 1u);
  EXPECT_GE(client.counters().circuit_fast_fails, 1u);

  // After the open window a single probe is let through (and will fail
  // again here, re-arming the breaker — but it must not be refused).
  std::this_thread::sleep_for(cfg.breaker_open + 100ms);
  EXPECT_EQ(send_one(1000), SendStatus::kAccepted);
  client.shutdown();
}

// Seeded partial-write chaos: every flush pass is clamped to a few bytes,
// splitting each frame across many TCP segments — reassembly must still
// be bit-exact.
TEST(TcpTransport, ChaosPartialWritesStayBitExact) {
  fault::FaultConfig fc;
  fc.sock_partial_write_p = 1.0;
  fault::FaultInjector injector(42, fc);

  TcpTransport server_tcp;
  const std::uint16_t port = server_tcp.listen("127.0.0.1", 0);
  Bus server_bus(server_tcp);
  RpcNode echo(server_bus, 1, "echo");
  echo.handle(kEcho, [](BufferReader& r) {
    const auto body = r.bytes();
    BufferWriter w;
    w.bytes(body);
    return w.take();
  });
  echo.start();

  TcpTransport client_tcp;
  client_tcp.set_fault_injector(&injector);
  client_tcp.start();
  client_tcp.add_peer(1, "127.0.0.1", port);
  Bus client_bus(client_tcp);
  RpcNode caller(client_bus, kFirstClientNode, "caller");
  caller.start();

  BufferWriter w;
  w.bytes(pattern_payload(2048, 7));
  const Reply reply = caller.call_sync(1, kEcho, w.take(), 30000ms);
  ASSERT_TRUE(reply.ok()) << reply.error_text();
  BufferReader r(reply.payload);
  EXPECT_EQ(r.bytes(), pattern_payload(2048, 7));
  EXPECT_GT(injector.stats().sock_partial_writes, 0u);
  EXPECT_EQ(server_tcp.counters().framing_errors, 0u);
}

// Seeded reset chaos: connections are torn down with a hard RST mid-
// stream. Individual calls may fail, but nothing hangs, the stream never
// misframes, and the client keeps succeeding via reconnects.
TEST(TcpTransport, ChaosResetsRecoverViaReconnect) {
  fault::FaultConfig fc;
  fc.sock_reset_p = 0.05;
  fault::FaultInjector injector(7, fc);

  TcpTransport server_tcp;
  const std::uint16_t port = server_tcp.listen("127.0.0.1", 0);
  Bus server_bus(server_tcp);
  RpcNode echo(server_bus, 1, "echo");
  echo.handle(kEcho, [](BufferReader& r) {
    const auto body = r.bytes();
    BufferWriter w;
    w.bytes(body);
    return w.take();
  });
  echo.start();

  TcpTransport client_tcp;
  client_tcp.set_fault_injector(&injector);
  client_tcp.start();
  client_tcp.add_peer(1, "127.0.0.1", port);
  Bus client_bus(client_tcp);
  RpcNode caller(client_bus, kFirstClientNode, "caller");
  caller.start();

  std::size_t ok = 0;
  for (int i = 0; i < 60; ++i) {
    BufferWriter w;
    w.bytes(pattern_payload(4096, static_cast<std::uint8_t>(i)));
    const Reply reply = caller.call_sync(1, kEcho, w.take(), 1000ms);
    if (!reply.ok()) continue;
    BufferReader r(reply.payload);
    if (r.bytes() == pattern_payload(4096, static_cast<std::uint8_t>(i))) ++ok;
  }
  EXPECT_GT(injector.stats().sock_resets, 0u);
  EXPECT_GE(ok, 20u) << "too few calls survived seeded resets";
  EXPECT_EQ(client_tcp.counters().framing_errors, 0u);
  EXPECT_EQ(server_tcp.counters().framing_errors, 0u);
}

// Shutdown with traffic in flight must not crash, leak, or deadlock.
// A multi-frame batch split by partial-write chaos at EVERY iovec
// boundary: with sock_partial_write_p = 1.0 each flush pass is clamped to
// 7 bytes, so the gathered stream (32-byte headers + payloads of every
// alignment) leaves the socket in slivers that cross header/payload and
// frame/frame boundaries at every offset mod 7. Both directions run
// chaotic — concurrent callers queue several request frames on the client
// connection while the echo replies queue on the server side — and every
// payload must come back bit-exact with zero framing errors.
TEST(TcpTransport, ChaosPartialWritesSplitMultiFrameBatchAtEveryBoundary) {
  fault::FaultConfig fc;
  fc.sock_partial_write_p = 1.0;
  fault::FaultInjector server_injector(7, fc);
  fault::FaultInjector client_injector(8, fc);

  EchoPair p;
  p.server_tcp.set_fault_injector(&server_injector);
  p.client_tcp.set_fault_injector(&client_injector);

  // Payload sizes chosen to land frame boundaries at every 7-byte phase:
  // empty, sub-header-sliver, exactly one clamp, and larger odd sizes.
  const std::size_t sizes[] = {0, 1, 6, 7, 8, 25, 33, 100, 501, 2048};
  std::vector<std::thread> callers;
  std::vector<Reply> replies(std::size(sizes));
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    callers.emplace_back([&, i] {
      replies[i] = echo_call(*p.caller, sizes[i], static_cast<std::uint8_t>(i + 1), 30000ms);
    });
  }
  for (auto& t : callers) t.join();

  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    ASSERT_TRUE(replies[i].ok()) << "size=" << sizes[i] << ": " << replies[i].error_text();
    BufferReader r(replies[i].payload);
    EXPECT_EQ(r.bytes(), pattern_payload(sizes[i], static_cast<std::uint8_t>(i + 1)))
        << "size=" << sizes[i];
  }
  EXPECT_GT(server_injector.stats().sock_partial_writes, 0u);
  EXPECT_GT(client_injector.stats().sock_partial_writes, 0u);
  EXPECT_EQ(p.server_tcp.counters().framing_errors, 0u);
  EXPECT_EQ(p.client_tcp.counters().framing_errors, 0u);
}

// The syscall-budget counters are exact on a quiet wire: N echo calls are
// N request frames out of the client and N reply frames out of the
// server, and every gathered writev moved at least one whole frame.
TEST(TcpTransport, WritevCountersTrackFramesExactly) {
  EchoPair p;
  constexpr std::size_t kCalls = 10;
  for (std::size_t i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(echo_call(*p.caller, 64 + i, static_cast<std::uint8_t>(i)).ok());
  }
  const auto server = p.server_tcp.counters();
  const auto client = p.client_tcp.counters();
  EXPECT_EQ(server.frames_sent, kCalls);
  EXPECT_EQ(client.frames_sent, kCalls);
  EXPECT_GE(server.writev_calls, 1u);
  EXPECT_LE(server.writev_calls, server.frames_sent);
  EXPECT_GE(server.frames_per_writev, 1.0);
  EXPECT_GT(server.bytes_per_syscall, 0.0);
}

// The --legacy-write-path arm (batch_writes=false) must reproduce the
// pre-batching wire behavior: bit-exact payloads, and never more than one
// frame per writev — that invariant is what makes it an honest baseline.
TEST(TcpTransport, LegacyWritePathStaysBitExactOneFramePerWritev) {
  TcpTransportConfig legacy;
  legacy.batch_writes = false;

  TcpTransport server_tcp(legacy);
  const std::uint16_t port = server_tcp.listen("127.0.0.1", 0);
  Bus server_bus(server_tcp);
  RpcNode echo(server_bus, 1, "echo");
  echo.handle(kEcho, [](BufferReader& r) {
    const auto body = r.bytes();
    BufferWriter w;
    w.bytes(body);
    return w.take();
  });
  echo.start();

  TcpTransport client_tcp(legacy);
  client_tcp.start();
  client_tcp.add_peer(1, "127.0.0.1", port);
  Bus client_bus(client_tcp);
  RpcNode caller(client_bus, kFirstClientNode, "caller");
  caller.start();

  std::vector<std::thread> callers;
  std::vector<Reply> replies(8);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    callers.emplace_back([&, i] {
      BufferWriter w;
      w.bytes(pattern_payload(256 + i, static_cast<std::uint8_t>(i)));
      replies[i] = caller.call_sync(1, kEcho, w.take(), 5000ms);
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t i = 0; i < replies.size(); ++i) {
    ASSERT_TRUE(replies[i].ok()) << replies[i].error_text();
    BufferReader r(replies[i].payload);
    EXPECT_EQ(r.bytes(), pattern_payload(256 + i, static_cast<std::uint8_t>(i)));
  }
  const auto server = server_tcp.counters();
  EXPECT_EQ(server.frames_sent, replies.size());
  EXPECT_GT(server.writev_calls, 0u);
  EXPECT_LE(server.frames_per_writev, 1.0);
  EXPECT_EQ(server.framing_errors, 0u);
  EXPECT_EQ(client_tcp.counters().framing_errors, 0u);
}

// Replies resolve on the thread that delivers them, so a node that only
// makes calls needs no start() — and starts no service thread.
TEST(TcpTransport, ClientNodeWithoutStartReceivesReplies) {
  EchoPair p;
  RpcNode quiet(*p.client_bus, kFirstClientNode + 1, "never-started");
  BufferWriter w;
  w.bytes(pattern_payload(48, 4));
  const Reply reply = quiet.call_sync(1, kEcho, w.take(), 5000ms);
  ASSERT_TRUE(reply.ok()) << reply.error_text();
  BufferReader r(reply.payload);
  EXPECT_EQ(r.bytes(), pattern_payload(48, 4));
}

// Tearing down an inline CacheWorkerService while clients stream
// multi-GETs at it: every caller gets a reply or an error within its
// deadline — no hang, no crash, no use-after-free of the worker (detach
// waits out the dispatch running on the loop thread).
TEST(TcpTransport, InlineWorkerDestroyedMidStream) {
  TcpTransport server_tcp;
  const std::uint16_t port = server_tcp.listen("127.0.0.1", 0);
  Bus server_bus(server_tcp);
  auto worker = std::make_unique<CacheWorkerService>(server_bus, kFirstWorkerNode, 0, gbps(1.0));

  TcpTransport client_tcp;
  client_tcp.start();
  client_tcp.add_peer(kFirstWorkerNode, "127.0.0.1", port);
  Bus client_bus(client_tcp);
  RpcNode loader(client_bus, kFirstClientNode, "loader");
  for (std::uint32_t piece = 0; piece < 4; ++piece) {
    BufferWriter w;
    w.u32(7);
    w.u32(piece);
    w.bytes(pattern_payload(2048, static_cast<std::uint8_t>(piece)));
    w.u64(1);
    ASSERT_TRUE(loader.call_sync(kFirstWorkerNode, kPutBlock, w.take(), 5000ms).ok());
  }

  constexpr int kCallers = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> ok{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      RpcNode node(client_bus, kFirstClientNode + 1 + static_cast<NodeId>(c), "streamer");
      while (!stop.load()) {
        BufferWriter w;
        w.u32(7);
        w.u64(1);
        w.u32(4);
        for (std::uint32_t piece = 0; piece < 4; ++piece) w.u32(piece);
        const Reply reply = node.call_sync(kFirstWorkerNode, kGetBlockMulti, w.take(), 200ms);
        (reply.ok() ? ok : failed).fetch_add(1);
      }
    });
  }
  while (ok.load() < 50) std::this_thread::sleep_for(1ms);
  worker.reset();  // mid-stream: requests keep arriving for node 1
  std::this_thread::sleep_for(50ms);
  stop.store(true);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& t : callers) t.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 2s) << "a caller hung past its deadline";
  EXPECT_GE(ok.load(), 50);
  EXPECT_GE(failed.load(), 1) << "no call ever reached the destroyed worker";
  EXPECT_EQ(server_tcp.counters().framing_errors, 0u);
  EXPECT_EQ(client_tcp.counters().framing_errors, 0u);
}

// An inline node's handlers run one at a time on the loop thread, whether
// a request arrived over a socket or from a co-hosted sender (posted to
// the loop, never run on the sender's thread).
TEST(TcpTransport, InlineNodeNeverRunsTwoHandlersAtOnce) {
  TcpTransport server_tcp;
  const std::uint16_t port = server_tcp.listen("127.0.0.1", 0);
  Bus server_bus(server_tcp);
  std::atomic<int> active{0};
  std::atomic<int> overlaps{0};
  std::atomic<int> handled{0};
  std::atomic<std::thread::id> handler_thread{};
  std::atomic<int> thread_switches{0};
  RpcNode counter(server_bus, 1, "inline-counter", RpcNode::Dispatch::kInline);
  counter.handle(kEcho, [&](BufferReader& r) {
    if (active.fetch_add(1) != 0) overlaps.fetch_add(1);
    const auto self = std::this_thread::get_id();
    const auto prev = handler_thread.exchange(self);
    if (prev != std::thread::id{} && prev != self) thread_switches.fetch_add(1);
    const auto body = r.bytes();
    std::this_thread::sleep_for(std::chrono::microseconds(20));  // widen the window
    handled.fetch_add(1);
    active.fetch_sub(1);
    BufferWriter w;
    w.bytes(body);
    return w.take();
  });
  counter.start();
  ASSERT_TRUE(counter.dispatches_inline());

  TcpTransport client_tcp;
  client_tcp.start();
  client_tcp.add_peer(1, "127.0.0.1", port);
  Bus client_bus(client_tcp);

  constexpr int kPerThread = 100;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    // Threads 0-1 call over the socket; threads 2-3 are co-hosted with the
    // inline node and take the local short-circuit.
    Bus& bus = t < 2 ? client_bus : server_bus;
    threads.emplace_back([&, t, bus_ptr = &bus] {
      RpcNode caller(*bus_ptr, kFirstClientNode + static_cast<NodeId>(t), "caller");
      for (int i = 0; i < kPerThread; ++i) {
        const auto salt = static_cast<std::uint8_t>(t * 31 + i);
        const Reply reply = echo_call(caller, 16 + i, salt);
        BufferReader r(reply.payload);
        if (!reply.ok() || r.bytes() != pattern_payload(16 + i, salt)) bad.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(handled.load(), 4 * kPerThread);
  EXPECT_EQ(overlaps.load(), 0) << "two handlers of one inline node ran at once";
  EXPECT_EQ(thread_switches.load(), 0) << "inline handlers ran off the loop thread";
}

TEST(TcpTransport, ShutdownIsIdempotentAndGraceful) {
  EchoPair p;
  ASSERT_TRUE(echo_call(*p.caller, 256, 5).ok());
  p.client_tcp.shutdown();
  p.client_tcp.shutdown();  // idempotent
  // Sends after shutdown are refused, not crashed.
  BufferWriter w;
  w.bytes(pattern_payload(8, 1));
  const Reply reply = p.caller->call_sync(1, kEcho, w.take(), 200ms);
  EXPECT_FALSE(reply.ok());
}

}  // namespace
}  // namespace spcache::rpc
