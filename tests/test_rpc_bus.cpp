// RPC bus tests: request/reply matching, error propagation, timeouts,
// concurrency across service threads.
#include "rpc/bus.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

namespace spcache::rpc {
namespace {

TEST(RpcBus, EchoRoundtrip) {
  Bus bus;
  RpcNode server(bus, 1, "echo");
  server.handle(7, [](BufferReader& r) {
    BufferWriter w;
    w.str("echo: " + r.str());
    return w.take();
  });
  server.start();

  RpcNode client(bus, 2, "client");
  client.start();
  BufferWriter w;
  w.str("hello");
  const auto reply = client.call_sync(1, 7, w.take());
  ASSERT_TRUE(reply.ok());
  BufferReader r(reply.payload);
  EXPECT_EQ(r.str(), "echo: hello");
}

TEST(RpcBus, HandlerExceptionBecomesErrorReply) {
  Bus bus;
  RpcNode server(bus, 1, "thrower");
  server.handle(1, [](BufferReader&) -> std::vector<std::uint8_t> {
    throw std::runtime_error("kaboom");
  });
  server.start();
  RpcNode client(bus, 2, "client");
  client.start();
  const auto reply = client.call_sync(1, 1, {});
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status, Status::kError);
  EXPECT_EQ(reply.error_text(), "kaboom");
}

TEST(RpcBus, UnknownMethodRejected) {
  Bus bus;
  RpcNode server(bus, 1, "empty");
  server.start();
  RpcNode client(bus, 2, "client");
  client.start();
  const auto reply = client.call_sync(1, 99, {});
  EXPECT_EQ(reply.status, Status::kNoSuchMethod);
}

// Replies resolve on the delivering thread: a node that only makes calls
// needs no start().
TEST(RpcBus, ClientNodeWithoutStartReceivesReplies) {
  Bus bus;
  RpcNode server(bus, 1, "echo");
  server.handle(7, [](BufferReader& r) {
    BufferWriter w;
    w.str(r.str());
    return w.take();
  });
  server.start();
  RpcNode client(bus, 2, "never-started");
  BufferWriter w;
  w.str("hi");
  const auto reply = client.call_sync(1, 7, w.take());
  ASSERT_TRUE(reply.ok());
  BufferReader r(reply.payload);
  EXPECT_EQ(r.str(), "hi");
}

TEST(RpcBus, UnknownNodeFailsImmediately) {
  Bus bus;
  RpcNode client(bus, 2, "client");
  client.start();
  const auto reply = client.call_sync(42, 1, {});
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.error_text(), "no such node");
}

TEST(RpcBus, SlowHandlerTimesOut) {
  Bus bus;
  RpcNode server(bus, 1, "slow");
  server.handle(1, [](BufferReader&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return std::vector<std::uint8_t>{};
  });
  server.start();
  RpcNode client(bus, 2, "client");
  client.start();
  const auto reply = client.call_sync(1, 1, {}, std::chrono::milliseconds(30));
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.error_text(), "rpc timeout");
}

TEST(RpcBus, ManyOutstandingCallsMatchCorrectly) {
  Bus bus;
  RpcNode server(bus, 1, "square");
  server.handle(1, [](BufferReader& r) {
    const auto x = r.u64();
    BufferWriter w;
    w.u64(x * x);
    return w.take();
  });
  server.start();
  RpcNode client(bus, 2, "client");
  client.start();

  std::vector<std::future<Reply>> futures;
  for (std::uint64_t x = 0; x < 200; ++x) {
    BufferWriter w;
    w.u64(x);
    futures.push_back(client.call(1, 1, w.take()));
  }
  for (std::uint64_t x = 0; x < 200; ++x) {
    const auto reply = futures[x].get();
    ASSERT_TRUE(reply.ok());
    BufferReader r(reply.payload);
    EXPECT_EQ(r.u64(), x * x) << "request " << x;
  }
}

TEST(RpcBus, ConcurrentClientsShareOneServer) {
  Bus bus;
  std::atomic<int> handled{0};
  RpcNode server(bus, 1, "counter");
  server.handle(1, [&handled](BufferReader&) {
    handled.fetch_add(1);
    return std::vector<std::uint8_t>{};
  });
  server.start();

  constexpr int kClients = 5;
  std::vector<std::unique_ptr<RpcNode>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<RpcNode>(bus, static_cast<NodeId>(100 + c), "c"));
    clients.back()->start();
  }
  std::vector<std::future<Reply>> futures;
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < 50; ++i) futures.push_back(clients[c]->call(1, 1, {}));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(handled.load(), kClients * 50);
}

TEST(RpcBus, TimeoutErasesThePendingSlot) {
  // A timed-out call_sync must not leak its pending_ entry: the slot is
  // forgotten on timeout, and the reply that eventually arrives is a
  // counted no-op instead of a resolve on a dead promise.
  Bus bus;
  RpcNode server(bus, 1, "slow");
  server.handle(1, [](BufferReader&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    return std::vector<std::uint8_t>{};
  });
  server.start();
  RpcNode client(bus, 2, "client");
  client.start();

  const auto reply = client.call_sync(1, 1, {}, std::chrono::milliseconds(10));
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.error_text(), "rpc timeout");
  EXPECT_EQ(client.pending_calls(), 0u) << "timeout leaked a pending slot";

  // Let the slow handler finish and send its (now unwanted) reply.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(client.late_replies(), 1u) << "the late reply was not counted as a no-op";
  EXPECT_EQ(client.pending_calls(), 0u);

  // The node is still fully usable after the leak-free timeout.
  server.handle(2, [](BufferReader&) { return std::vector<std::uint8_t>{1, 2, 3}; });
  const auto ok = client.call_sync(1, 2, {});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.payload.size(), 3u);
}

TEST(RpcBus, ForgetIsANoOpOnceTheReplyLanded) {
  Bus bus;
  RpcNode server(bus, 1, "echo");
  server.handle(1, [](BufferReader&) { return std::vector<std::uint8_t>{42}; });
  server.start();
  RpcNode client(bus, 2, "client");
  client.start();

  auto pending = client.call_tagged(1, 1, {});
  const auto reply = pending.reply.get();  // resolved -> slot already gone
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(client.forget(pending.request_id)) << "forget after resolve must report false";
  EXPECT_EQ(client.pending_calls(), 0u);
  EXPECT_EQ(client.late_replies(), 0u);
}

TEST(RpcBus, NodeDestructionFailsPendingCalls) {
  Bus bus;
  RpcNode client(bus, 2, "client");
  client.start();
  std::future<Reply> orphan;
  {
    RpcNode server(bus, 1, "vanishing");
    server.handle(1, [](BufferReader&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return std::vector<std::uint8_t>{};
    });
    server.start();
    orphan = client.call(1, 1, {});
    // Server destructor drains its mailbox, so the in-flight request is
    // either answered or (if not yet delivered) dropped with the node.
  }
  const auto status = orphan.wait_for(std::chrono::milliseconds(500));
  // Either the reply arrived before teardown or the call is simply never
  // answered (real networks drop packets too) — both are acceptable; what
  // must NOT happen is a crash or a hang beyond the wait above.
  if (status == std::future_status::ready) {
    (void)orphan.get();
  }
  SUCCEED();
}

}  // namespace
}  // namespace spcache::rpc
