#include "rpc/bus.h"

#include <cassert>
#include <thread>

#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace spcache::rpc {

RpcNode::RpcNode(Bus& bus, NodeId id, std::string name, Dispatch dispatch)
    : bus_(bus),
      id_(id),
      name_(std::move(name)),
      inline_(dispatch == Dispatch::kInline && bus.transport().dispatches_inline()) {
  bus_.add(*this);
}

RpcNode::~RpcNode() {
  // detach() waits out any delivery in flight, so nothing below races one.
  bus_.remove(id_);
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (service_thread_.joinable()) service_thread_.join();
  // Fail any calls still waiting for replies.
  std::lock_guard lock(pending_mu_);
  for (auto& [request_id, promise] : pending_) {
    Reply reply;
    reply.status = Status::kError;
    const std::string msg = "rpc node shut down";
    reply.payload.assign(msg.begin(), msg.end());
    promise.set_value(std::move(reply));
  }
  pending_.clear();
}

void RpcNode::handle(MethodId method, Handler handler) {
  assert(!started_ && "handlers must be registered before start()");
  handlers_[method] = std::move(handler);
}

void RpcNode::handle_into(MethodId method, StreamHandler handler) {
  assert(!started_ && "handlers must be registered before start()");
  stream_handlers_[method] = std::move(handler);
}

void RpcNode::start() {
  std::lock_guard lock(mu_);
  assert(!started_);
  started_.store(true, std::memory_order_release);
  const bool has_handlers = !handlers_.empty() || !stream_handlers_.empty();
  if (!inline_ && (has_handlers || !mailbox_.empty())) spawn_service_thread();
}

void RpcNode::spawn_service_thread() {
  service_thread_ = std::thread([this] { service_loop(); });
}

RpcNode::PendingCall RpcNode::call_tagged(NodeId to, MethodId method,
                                          std::vector<std::uint8_t> payload,
                                          std::chrono::milliseconds deadline) {
  std::promise<Reply> promise;
  PendingCall pending;
  pending.reply = promise.get_future();
  {
    std::lock_guard lock(pending_mu_);
    pending.request_id = next_request_id_++;
    pending_.emplace(pending.request_id, std::move(promise));
  }
  Envelope envelope;
  envelope.from = id_;
  envelope.to = to;
  envelope.request_id = pending.request_id;
  envelope.is_reply = false;
  envelope.method = method;
  if (deadline.count() > 0) {
    envelope.deadline_ms = static_cast<std::uint32_t>(
        std::min<std::int64_t>(deadline.count(), UINT32_MAX));
  }
  envelope.payload = std::move(payload);
  const SendStatus sent = bus_.route(std::move(envelope));
  if (sent != SendStatus::kAccepted) {
    // Refused before the wire: resolve the call right now with a typed
    // error so the caller backs off instead of burning its timeout.
    std::lock_guard lock(pending_mu_);
    const auto it = pending_.find(pending.request_id);
    if (it != pending_.end()) {
      Reply reply;
      std::string msg;
      switch (sent) {
        case SendStatus::kOverloaded:
          reply.status = Status::kTransportOverloaded;
          msg = "transport overloaded";
          break;
        case SendStatus::kCircuitOpen:
          reply.status = Status::kTransportOverloaded;
          msg = "circuit open to node " + std::to_string(to);
          break;
        default:
          reply.status = Status::kError;
          msg = "no such node";
          break;
      }
      reply.payload.assign(msg.begin(), msg.end());
      it->second.set_value(std::move(reply));
      pending_.erase(it);
    }
  }
  return pending;
}

std::future<Reply> RpcNode::call(NodeId to, MethodId method,
                                 std::vector<std::uint8_t> payload,
                                 std::chrono::milliseconds deadline) {
  return call_tagged(to, method, std::move(payload), deadline).reply;
}

bool RpcNode::forget(std::uint64_t request_id) {
  std::lock_guard lock(pending_mu_);
  return pending_.erase(request_id) > 0;
}

Reply RpcNode::await(PendingCall& call, std::chrono::steady_clock::time_point deadline) {
  if (call.reply.wait_until(deadline) != std::future_status::ready) {
    // Reclaim the pending slot so it cannot leak and a late reply becomes
    // a counted no-op. If the reply raced us past the deadline, forget()
    // finds the slot already resolved and the real reply wins.
    if (forget(call.request_id)) {
      Reply reply;
      reply.status = Status::kError;
      const std::string msg = "rpc timeout";
      reply.payload.assign(msg.begin(), msg.end());
      return reply;
    }
  }
  return call.reply.get();
}

Reply RpcNode::call_sync(NodeId to, MethodId method, std::vector<std::uint8_t> payload,
                         std::chrono::milliseconds timeout) {
  // The bounded wait doubles as the propagated deadline: a server that
  // reaches the request after `timeout` sheds it — by then this caller
  // has already returned "rpc timeout" and forgotten the slot.
  auto pending = call_tagged(to, method, std::move(payload), timeout);
  return await(pending, std::chrono::steady_clock::now() + timeout);
}

std::size_t RpcNode::pending_calls() const {
  std::lock_guard lock(pending_mu_);
  return pending_.size();
}

void RpcNode::deliver(Envelope envelope) {
  if (envelope.is_reply) {
    resolve_reply(std::move(envelope));
    return;
  }
  if (inline_) {
    // Handler maps are complete once started_ reads true; before that the
    // request is dropped like a datagram to a port nobody listens on yet.
    if (started_.load(std::memory_order_acquire)) dispatch_request(std::move(envelope));
    return;
  }
  // Arrival stamp for deadline accounting: the queueing delay between here
  // and dispatch is what the shed check measures.
  envelope.accepted_at = std::chrono::steady_clock::now();
  {
    std::lock_guard lock(mu_);
    if (stopping_) return;
    mailbox_.push_back(std::move(envelope));
    // A started node without handlers has no thread until a request
    // reaches it.
    if (started_.load(std::memory_order_relaxed) && !service_thread_.joinable()) {
      spawn_service_thread();
    }
  }
  cv_.notify_one();
}

void RpcNode::service_loop() {
  std::deque<Envelope> batch;
  for (;;) {
    batch.clear();
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !mailbox_.empty(); });
      if (mailbox_.empty()) return;  // stopping with drained mailbox
      // Batch drain: swap the whole mailbox out under the lock instead of
      // popping one envelope per lock/cv cycle. Senders that arrive while
      // we work fill a fresh deque; under load one wakeup amortizes over
      // the entire backlog.
      batch.swap(mailbox_);
    }
    const auto* probes = bus_.observability();
    if (probes && probes->mailbox_batches) {
      probes->mailbox_batches->add(1);
      probes->mailbox_batched_envelopes->add(batch.size());
    }
    for (auto& envelope : batch) {
      // Shed already-expired work: if the request sat in the mailbox past
      // its propagated deadline, the caller has timed out and forgotten
      // the call — running the handler would only burn service time on a
      // reply destined to be a late-reply no-op.
      if (envelope.deadline_ms > 0 &&
          std::chrono::steady_clock::now() - envelope.accepted_at >
              std::chrono::milliseconds(envelope.deadline_ms)) {
        if (probes && probes->deadline_shed) probes->deadline_shed->add(1);
        Envelope reply;
        reply.from = id_;
        reply.to = envelope.from;
        reply.request_id = envelope.request_id;
        reply.is_reply = true;
        reply.method = envelope.method;
        reply.status = Status::kDeadlineExpired;
        const std::string msg = "deadline expired before dispatch";
        reply.payload.assign(msg.begin(), msg.end());
        bus_.route(std::move(reply));
        continue;
      }
      dispatch_request(std::move(envelope));
    }
  }
}

void RpcNode::dispatch_request(Envelope envelope) {
  Envelope reply;
  reply.from = id_;
  reply.to = envelope.from;
  reply.request_id = envelope.request_id;
  reply.is_reply = true;
  reply.method = envelope.method;

  const auto sit = stream_handlers_.find(envelope.method);
  const auto it = handlers_.find(envelope.method);
  if (sit == stream_handlers_.end() && it == handlers_.end()) {
    reply.status = Status::kNoSuchMethod;
  } else {
    try {
      BufferReader reader(envelope.payload);
      if (sit != stream_handlers_.end()) {
        // Streaming handler: the body lands directly in the reply payload.
        BufferWriter w;
        sit->second(reader, w);
        reply.payload = w.take();
      } else {
        reply.payload = it->second(reader);
      }
    } catch (const WrongEpochError& e) {
      reply.status = Status::kWrongEpoch;
      const std::string msg = e.what();
      reply.payload.assign(msg.begin(), msg.end());
    } catch (const std::exception& e) {
      reply.status = Status::kError;
      const std::string msg = e.what();
      reply.payload.assign(msg.begin(), msg.end());
    }
  }
  bus_.route(std::move(reply));
}

void RpcNode::resolve_reply(Envelope envelope) {
  std::promise<Reply> promise;
  {
    std::lock_guard lock(pending_mu_);
    const auto it = pending_.find(envelope.request_id);
    if (it == pending_.end()) {
      // Timed out and abandoned (or a duplicated envelope's second reply):
      // a counted no-op, never a dead-promise resolution.
      late_replies_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    promise = std::move(it->second);
    pending_.erase(it);
  }
  Reply reply;
  reply.status = envelope.status;
  reply.payload = std::move(envelope.payload);
  promise.set_value(std::move(reply));
}

Bus::Bus() : owned_transport_(std::make_unique<InprocTransport>()) {
  transport_ = owned_transport_.get();
}

Bus::Bus(Transport& transport) : transport_(&transport) {}

void Bus::add(RpcNode& node) { transport_->attach(node.id(), node); }

void Bus::remove(NodeId id) { transport_->detach(id); }

SendStatus Bus::route(Envelope envelope) {
  const auto* probes = probes_.load(std::memory_order_acquire);
  if (probes) {
    probes->routed->add(1);
    probes->in_flight->add(1);
  }
  bool duplicate = false;
  if (auto* injector = injector_.load(std::memory_order_acquire)) {
    // Drop: the envelope vanishes like a lost packet. Deliberately returns
    // kAccepted — the network took the send; the caller's timeout fires.
    if (injector->drop_envelope()) {
      if (probes) {
        probes->drops->add(1);
        probes->in_flight->sub(1);
        if (probes->trace) probes->trace->record(obs::TraceKind::kBusDrop);
      }
      return SendStatus::kAccepted;
    }
    if (injector->delay_envelope()) {
      if (probes) {
        probes->delays->add(1);
        if (probes->trace) probes->trace->record(obs::TraceKind::kBusDelay);
      }
      std::this_thread::sleep_for(injector->config().bus_delay);
    }
    duplicate = injector->duplicate_envelope();
    if (duplicate && probes) {
      probes->duplicates->add(1);
      if (probes->trace) probes->trace->record(obs::TraceKind::kBusDuplicate);
    }
  }
  // Duplication sends a second, independent copy through the transport —
  // the backend treats it like any other envelope, so handler idempotency
  // and late-reply accounting are exercised on every backend.
  if (duplicate) transport_->send(Envelope(envelope));
  const SendStatus delivered = transport_->send(std::move(envelope));
  if (probes) {
    probes->in_flight->sub(1);
    if ((delivered == SendStatus::kOverloaded || delivered == SendStatus::kCircuitOpen) &&
        probes->send_rejected) {
      probes->send_rejected->add(1);
    }
  }
  return delivered;
}

void Bus::attach_observability(obs::MetricsRegistry* registry, obs::TraceRecorder* trace) {
  transport_->attach_observability(registry);
  if (registry == nullptr) {
    probes_.store(nullptr, std::memory_order_release);
    return;
  }
  namespace n = obs::names;
  auto probes = std::make_unique<ObsProbes>();
  probes->routed = &registry->counter(n::kBusRouted);
  probes->in_flight = &registry->gauge(n::kBusInFlight);
  probes->drops = &registry->counter(n::kBusDrops);
  probes->delays = &registry->counter(n::kBusDelays);
  probes->duplicates = &registry->counter(n::kBusDuplicates);
  probes->mailbox_batches = &registry->counter(n::kBusMailboxBatches);
  probes->mailbox_batched_envelopes = &registry->counter(n::kBusMailboxBatchedEnvelopes);
  probes->envelopes_coalesced = &registry->counter(n::kBusEnvelopesCoalesced);
  probes->deadline_shed = &registry->counter(n::kBusDeadlineShed);
  probes->send_rejected = &registry->counter(n::kBusSendRejected);
  probes->trace = trace;
  probes_storage_ = std::move(probes);
  probes_.store(probes_storage_.get(), std::memory_order_release);
}

}  // namespace spcache::rpc
