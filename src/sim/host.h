// Simulated server: a CPU-serialized message handler with an RPC layer.
//
// CPU model: each host owns one logical core (the testbed's dual-core Xeons
// ran one Sedna service each); incoming messages wait in a real ingress
// queue and each costs a (seeded, jittered) service time. This
// serialization is what produces the Fig. 8 behaviour — nine concurrent
// clients slow each other down at the replicas while aggregate throughput
// rises.
//
// Overload safety: the ingress queue is priority-classed (0 = most
// important) and optionally bounded. When `max_ingress_queue` is set,
// requests arriving above their class's admission threshold are *shed* at
// delivery — the subclass's on_shed() hook decides whether to answer with
// an explicit kOverloaded reply — and requests whose stamped deadline
// (Message::deadline) has already expired are shed at dequeue time without
// consuming any CPU. Responses are never shed: they complete work the
// host already paid for. With the bound disabled (the default) and a
// single priority class the queue degenerates to exactly the old FIFO
// timeline, byte for byte.
//
// RPC: call() tags a message with a fresh rpc_id and arms a timeout timer.
// The callback receives kOk plus the response payload, or kTimeout with an
// empty payload when the peer crashed, the network dropped the message, or
// the peer simply never answered. This is precisely the failure evidence
// the paper's read/write paths act on (Section III.C).
//
// Tracing: each host carries a current TraceContext. Incoming requests set
// it from the message; every call() opens an RPC span under it (ended with
// "ok"/"timeout"/"crashed") and stamps the outgoing message so the
// receiver's spans parent correctly; RPC callbacks run under the context
// saved at call time, so a whole async quorum exchange stays on one span
// tree. All of it is a no-op while the simulation's Tracer is disabled.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/status.h"
#include "common/types.h"
#include "sim/message.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace sedna::sim {

/// Ingress priority classes (0 served first). The data-path convention:
/// client reads > client writes > repair/anti-entropy > migration.
inline constexpr std::size_t kHostPriorities = 4;

/// Why a message was shed instead of serviced.
enum class ShedReason : std::uint8_t {
  /// Admission control: the ingress queue was at this class's threshold.
  kQueueFull = 0,
  /// The message's stamped deadline expired while it waited in queue.
  kDeadlineExceeded = 1,
};

struct HostConfig {
  /// Mean CPU cost of handling one message (hash + store op + reply build).
  /// ~8 us matches the era's Memcached at roughly 100k ops/s/core.
  SimDuration base_service_us = 8;
  /// Uniform jitter fraction applied to each service time.
  double service_jitter_frac = 0.25;
  /// Default RPC timeout.
  SimDuration rpc_timeout_us = 50 * 1000;
  /// Bounded ingress queue: maximum queued messages before *requests*
  /// start being shed (responses are always admitted). Priority class p
  /// is admitted only while the queue holds fewer than
  /// max_ingress_queue·(4-p)/4 messages, so background classes lose
  /// their slots first as the queue fills. 0 = unbounded (legacy model).
  std::size_t max_ingress_queue = 0;
};

class Host {
 public:
  using RpcCallback =
      std::function<void(const Status&, const std::string& payload)>;

  Host(Network& net, NodeId id, HostConfig config = {})
      : net_(net), id_(id), config_(config) {
    net_.attach(id_, this);
  }
  virtual ~Host() {
    // Cancel every event that still points at this host (the CPU
    // completion, RPC timeouts): hosts may die while the simulation runs
    // on (e.g. a short-lived bootstrap client).
    cpu_done_.cancel();
    for (auto& [rpc_id, pending] : pending_) pending.timeout.cancel();
    net_.detach(id_);
  }

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] Simulation& sim() const { return net_.sim(); }
  [[nodiscard]] SimTime now() const { return net_.sim().now(); }
  [[nodiscard]] Network& network() { return net_; }
  [[nodiscard]] const HostConfig& config() const { return config_; }
  [[nodiscard]] bool alive() const { return alive_; }

  /// Crash the host: stop receiving, drop the ingress queue, forget
  /// pending RPCs (their remote responses will be dropped by the network
  /// anyway). Recover with restart(); subclasses override
  /// on_crash/on_restart for state effects.
  void crash() {
    alive_ = false;
    net_.set_node_up(id_, false);
    for (auto& [rpc_id, pending] : pending_) {
      pending.timeout.cancel();
      tracer().end(pending.rpc_span, now(), "crashed");
    }
    pending_.clear();
    for (auto& q : queues_) q.clear();
    queued_ = 0;
    cpu_busy_ = false;
    in_service_ = {};
    ++cpu_epoch_;  // orphan any in-flight service completion event
    trace_ctx_ = {};
    on_crash();
  }
  void restart() {
    alive_ = true;
    net_.set_node_up(id_, true);
    on_restart();
  }

  /// Entry point used by Network: admit (or shed) the message, then queue
  /// it behind the CPU in its priority class. The message is moved, never
  /// copied, from here to dispatch.
  void deliver(Message msg) {
    if (!alive_) return;
    const std::size_t prio = clamp_priority(message_priority(msg));
    if (!msg.is_response && config_.max_ingress_queue > 0) {
      const std::size_t cap = config_.max_ingress_queue *
                              (kHostPriorities - prio) / kHostPriorities;
      if (queued_ >= (cap == 0 ? 1 : cap)) {
        ++shed_queue_full_;
        on_shed(msg, ShedReason::kQueueFull);
        return;
      }
    }
    // Service cost is drawn at arrival (not at dequeue) so the shared RNG
    // stream is consumed in network-delivery order — the same order the
    // pre-queue timeline model used.
    const SimDuration cost = service_cost(msg);
    queues_[prio].push_back(QueuedMessage{std::move(msg), now(), cost});
    ++queued_;
    if (!cpu_busy_) start_next();
  }

  /// Issues a request and arms a timeout.
  void call(NodeId to, MessageType type, std::string payload,
            RpcCallback cb) {
    call_with_timeout(to, type, std::move(payload), config_.rpc_timeout_us,
                      std::move(cb));
  }

  /// `deadline` (absolute, 0 = none) is stamped on the outgoing message so
  /// every downstream host may shed the work once it cannot finish in time.
  void call_with_timeout(NodeId to, MessageType type, std::string payload,
                         SimDuration timeout, RpcCallback cb,
                         SimTime deadline = 0) {
    const std::uint64_t rpc_id = next_rpc_id_++;
    const TraceContext caller_ctx = trace_ctx_;
    // The span name is only built while tracing: it costs an allocation.
    const SpanId rpc_span =
        tracer().enabled() ? tracer().begin(caller_ctx, rpc_span_name(type),
                                            id_, now(), rpc_span_stage(type))
                           : 0;
    // Crash and destruction cancel this timer, so it never finds the host
    // gone.
    auto timer = sim().schedule(timeout, [this, rpc_id]() {
      auto it = pending_.find(rpc_id);
      if (it == pending_.end()) return;
      Pending pending = std::move(it->second);
      pending_.erase(it);
      tracer().end(pending.rpc_span, now(), "timeout");
      trace_ctx_ = pending.ctx;
      pending.callback(Status::Timeout(), {});
    });
    pending_.emplace(rpc_id,
                     Pending{std::move(cb), timer, caller_ctx, rpc_span});
    Message msg{id_, to, type, rpc_id, /*is_response=*/false,
                std::move(payload)};
    msg.trace_id = caller_ctx.trace_id;
    msg.span_id = rpc_span != 0 ? rpc_span : caller_ctx.span_id;
    msg.deadline = deadline;
    net_.send(std::move(msg));
  }

  /// One-way message; no response expected.
  void send_oneway(NodeId to, MessageType type, std::string payload) {
    Message msg{id_, to, type, /*rpc_id=*/0, /*is_response=*/false,
                std::move(payload)};
    msg.trace_id = trace_ctx_.trace_id;
    msg.span_id = trace_ctx_.span_id;
    net_.send(std::move(msg));
  }

  /// Replies to a request received in on_message().
  void reply(const Message& request, std::string payload) {
    Message msg{id_, request.from, request.type, request.rpc_id,
                /*is_response=*/true, std::move(payload)};
    msg.trace_id = trace_ctx_.trace_id;
    msg.span_id = trace_ctx_.span_id;
    net_.send(std::move(msg));
  }

  [[nodiscard]] std::size_t pending_rpcs() const { return pending_.size(); }

  // ---- overload introspection -------------------------------------------
  /// Messages currently waiting in the ingress queue (all classes).
  [[nodiscard]] std::size_t queue_depth() const { return queued_; }
  /// Requests shed at admission because the queue was full.
  [[nodiscard]] std::uint64_t shed_queue_full() const {
    return shed_queue_full_;
  }
  /// Requests shed at dequeue because their deadline had expired.
  [[nodiscard]] std::uint64_t shed_deadline() const { return shed_deadline_; }

  // ---- tracing ----------------------------------------------------------
  [[nodiscard]] Tracer& tracer() const { return sim().tracer(); }
  [[nodiscard]] TraceContext trace_context() const { return trace_ctx_; }
  void set_trace_context(TraceContext ctx) { trace_ctx_ = ctx; }

  /// Opens a fresh trace rooted at this host and makes it current.
  TraceContext begin_trace(std::string_view name,
                           TraceStage stage = TraceStage::kUnknown) {
    trace_ctx_ = tracer().start_trace(name, id_, now(), stage);
    return trace_ctx_;
  }
  /// Child span of the current context. Does not change the context.
  SpanId begin_span(std::string_view name,
                    TraceStage stage = TraceStage::kUnknown) {
    return tracer().begin(trace_ctx_, name, id_, now(), stage);
  }
  /// Makes `span` the current context; returns the previous context so
  /// the caller can restore it after issuing nested work.
  TraceContext enter_span(SpanId span) {
    const TraceContext prev = trace_ctx_;
    if (span != 0) trace_ctx_ = TraceContext{prev.trace_id, span};
    return prev;
  }
  void end_span(SpanId span, std::string_view status = "ok") {
    tracer().end(span, now(), status);
  }
  /// Zero-duration annotation under the current context.
  void instant_span(std::string_view name, std::string_view status = "ok",
                    TraceStage stage = TraceStage::kUnknown) {
    tracer().instant(trace_ctx_, name, id_, now(), status, stage);
  }

 protected:
  /// Handles a request or one-way message. Responses are routed to RPC
  /// callbacks before reaching this.
  virtual void on_message(const Message& msg) = 0;

  virtual void on_crash() {}
  virtual void on_restart() {}

  /// Ingress priority class for a message (0 = served first). The base
  /// host treats all traffic equally — strict FIFO, exactly the old
  /// timeline model. Protocol subclasses classify their request types;
  /// responses should stay in class 0 (they finish work in flight).
  [[nodiscard]] virtual std::size_t message_priority(
      const Message& msg) const {
    (void)msg;
    return 0;
  }

  /// A message was dropped instead of serviced. Runs at shed time with no
  /// CPU cost modeled; subclasses may send an explicit kOverloaded reply
  /// (building a tiny reject reply is negligible next to real service).
  /// Default: silent drop — the caller's RPC timeout is the signal.
  virtual void on_shed(const Message& msg, ShedReason reason) {
    (void)msg;
    (void)reason;
  }

  /// Name given to the span opened around an outgoing RPC. Subclasses
  /// that know their protocol override this with readable names.
  [[nodiscard]] virtual std::string rpc_span_name(MessageType type) const {
    return "rpc.t" + std::to_string(type);
  }

  /// Attribution stage for an outgoing RPC span. The base host only knows
  /// "it went over the wire"; protocol subclasses override this alongside
  /// rpc_span_name (replica fan-out → service, ZooKeeper → zk, ...).
  [[nodiscard]] virtual TraceStage rpc_span_stage(MessageType type) const {
    (void)type;
    return TraceStage::kNet;
  }

  /// CPU cost model; override for per-type costs.
  virtual SimDuration service_cost(const Message& msg) {
    (void)msg;
    const double jitter =
        1.0 + config_.service_jitter_frac * (2.0 * sim().rng().next_double() -
                                             1.0);
    const double cost =
        static_cast<double>(config_.base_service_us) * jitter;
    return cost < 1.0 ? 1 : static_cast<SimDuration>(cost);
  }

 private:
  struct Pending {
    RpcCallback callback;
    TimerHandle timeout;
    /// Caller's trace context at call time; restored for the callback.
    TraceContext ctx;
    /// Span covering the request/response round trip (0 when untraced).
    SpanId rpc_span = 0;
  };

  struct QueuedMessage {
    Message msg;
    SimTime arrival = 0;
    SimDuration cost = 0;
  };

  static std::size_t clamp_priority(std::size_t p) {
    return p >= kHostPriorities ? kHostPriorities - 1 : p;
  }

  /// Begins servicing the head of the highest non-empty priority class.
  /// Expired-deadline requests are shed here, before any CPU is spent on
  /// them — late work is dropped, not burned.
  void start_next() {
    while (queued_ > 0) {
      auto* queue = &queues_[0];
      for (auto& q : queues_) {
        if (!q.empty()) {
          queue = &q;
          break;
        }
      }
      QueuedMessage item = std::move(queue->front());
      queue->pop_front();
      --queued_;
      if (!item.msg.is_response && item.msg.deadline != 0 &&
          now() > item.msg.deadline) {
        ++shed_deadline_;
        on_shed(item.msg, ShedReason::kDeadlineExceeded);
        continue;
      }
      cpu_busy_ = true;
      const SimDuration cost = item.cost;
      in_service_ = std::move(item);
      cpu_done_ = sim().schedule(cost, [this, epoch = cpu_epoch_,
                                        start = now()]() {
        if (epoch != cpu_epoch_) return;
        cpu_busy_ = false;
        // Moved out first: a handler may put this CPU to work again.
        const QueuedMessage done = std::move(in_service_);
        if (alive_) dispatch(done.msg, done.arrival, start, done.cost);
        if (alive_ && !cpu_busy_) start_next();
      });
      return;
    }
    cpu_busy_ = false;
  }

  void dispatch(const Message& msg, SimTime arrival, SimTime start,
                SimDuration cost) {
    if (msg.is_response) {
      auto it = pending_.find(msg.rpc_id);
      if (it == pending_.end()) return;  // response raced its own timeout
      Pending pending = std::move(it->second);
      pending.timeout.cancel();
      pending_.erase(it);
      // The response's queue/service time belongs under the RPC span it
      // answers — its stamped span id points at the *caller side* context
      // whose span may already be closed.
      record_cpu_spans(TraceContext{msg.trace_id, pending.rpc_span}, arrival,
                       start, cost);
      tracer().end(pending.rpc_span, now(), "ok");
      trace_ctx_ = pending.ctx;
      pending.callback(Status::Ok(), msg.payload);
      return;
    }
    record_cpu_spans(TraceContext{msg.trace_id, msg.span_id}, arrival, start,
                     cost);
    trace_ctx_ = TraceContext{msg.trace_id, msg.span_id};
    on_message(msg);
  }

  /// Records the CPU queue wait and service time of one handled message
  /// as closed child spans. Emitted at dispatch time so a host that
  /// crashes with messages queued never reports phantom CPU work.
  void record_cpu_spans(const TraceContext& parent, SimTime arrival,
                        SimTime start, SimDuration cost) {
    if (!parent.active() || parent.span_id == 0) return;
    Tracer& t = tracer();
    if (start > arrival) {
      const SpanId queue =
          t.begin(parent, "cpu.queue", id_, arrival, TraceStage::kQueue);
      t.end(queue, start, "ok");
    }
    const SpanId svc =
        t.begin(parent, "cpu.service", id_, start, TraceStage::kService);
    t.end(svc, start + cost, "ok");
  }

  Network& net_;
  NodeId id_;
  HostConfig config_;
  bool alive_ = true;
  /// Real ingress queues, one per priority class, drained by one core.
  std::array<std::deque<QueuedMessage>, kHostPriorities> queues_;
  std::size_t queued_ = 0;
  bool cpu_busy_ = false;
  /// The message on the CPU and the event that completes it (cancelled if
  /// the host is destroyed first).
  QueuedMessage in_service_;
  TimerHandle cpu_done_;
  /// Bumped on crash so an in-flight service-completion event from the
  /// previous incarnation cannot touch the restarted host.
  std::uint64_t cpu_epoch_ = 0;
  std::uint64_t shed_queue_full_ = 0;
  std::uint64_t shed_deadline_ = 0;
  std::uint64_t next_rpc_id_ = 1;
  std::unordered_map<std::uint64_t, Pending> pending_;
  TraceContext trace_ctx_;
};

}  // namespace sedna::sim
