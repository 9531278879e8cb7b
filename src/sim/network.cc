#include "sim/network.h"

#include <cmath>

#include "sim/host.h"

namespace sedna::sim {

void Network::attach(NodeId id, Host* host) { hosts_[id] = host; }

void Network::set_node_up(NodeId id, bool up) {
  if (up) {
    down_.erase(id);
  } else {
    down_.insert(id);
  }
}

SimDuration Network::delivery_delay(const Message& msg) {
  const double transmit =
      static_cast<double>(msg.wire_size()) / config_.bandwidth_bytes_per_us;
  const double jitter =
      1.0 + config_.jitter_frac * (2.0 * sim_.rng().next_double() - 1.0);
  const double total =
      static_cast<double>(config_.base_latency_us) * jitter + transmit;
  return total < 1.0 ? 1 : static_cast<SimDuration>(total);
}

void Network::drop(const Message& msg, const char* why) {
  ++dropped_;
  metrics_.counter(std::string("net.drops.") + why).add(1);
  // A traced message that vanishes leaves a zero-duration span on the
  // receiver's side of the tree — the trace explains the later timeout.
  sim_.tracer().instant(TraceContext{msg.trace_id, msg.span_id}, "net.drop",
                        msg.to, sim_.now(), why, TraceStage::kNet);
}

void Network::send(Message msg) {
  ++sent_;
  bytes_ += msg.wire_size();

  // Loopback messages bypass the wire but still cost the receiver CPU.
  const bool loopback = msg.from == msg.to;

  if (down_.contains(msg.from) || down_.contains(msg.to)) {
    drop(msg, "crashed");
    return;
  }
  if (!loopback && partitions_.contains(edge(msg.from, msg.to))) {
    drop(msg, "partitioned");
    return;
  }
  if (!loopback && config_.loss_prob > 0.0 &&
      sim_.rng().next_bool(config_.loss_prob)) {
    drop(msg, "loss");
    return;
  }

  const SimDuration delay = loopback ? 1 : delivery_delay(msg);
  // The delivery closure carries the message itself; EventFn is sized to
  // hold it without a heap allocation.
  static_assert(sizeof(Network*) + sizeof(Message) <= EventFn::kInlineBytes);
  sim_.schedule(delay, [this, m = std::move(msg)]() mutable {
    // Re-check liveness at delivery time: the receiver may have crashed
    // while the message was in flight.
    if (down_.contains(m.to)) {
      drop(m, "crashed");
      return;
    }
    auto it = hosts_.find(m.to);
    if (it == hosts_.end()) {
      drop(m, "no_host");
      return;
    }
    ++delivered_;
    it->second->deliver(std::move(m));
  });
}

}  // namespace sedna::sim
