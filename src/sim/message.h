// Wire message for the simulated network.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

namespace sedna::sim {

/// Message type tags. Each subsystem owns a numeric range so a single
/// dispatch switch per host stays readable:
///   100–199  ZooKeeper-lite client protocol and ensemble internals
///   200–299  Sedna data path (replica read/write, recovery transfer)
///   300–399  Memcached baseline protocol
///   400–499  Trigger runtime control
/// Tests may use 900+ freely.
using MessageType = std::uint32_t;

struct Message {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  MessageType type = 0;
  /// Matches a response to its request; 0 for one-way messages.
  std::uint64_t rpc_id = 0;
  bool is_response = false;
  /// Serialized payload (BinaryWriter/BinaryReader framing).
  std::string payload;
  /// Distributed-tracing context: the sender's trace and the span this
  /// message descends from (for a request, the caller's RPC span). Zero
  /// when tracing is off or the sender holds no active trace. The 16
  /// bytes ride inside the modeled fixed header below, so carrying a
  /// trace changes no timing.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  /// Absolute request deadline (virtual µs); 0 = none. Stamped by the
  /// client on fresh ops and propagated verbatim through every hop the
  /// coordinator fans out on the request's behalf, so any host on the
  /// path can shed work that can no longer finish in time. Rides inside
  /// the modeled fixed header, like the trace context.
  SimTime deadline = 0;

  /// A copy of everything but the payload: what a handler keeps to reply
  /// to a request (or to read its deadline) once the payload is decoded.
  [[nodiscard]] Message header() const {
    Message h;
    h.from = from;
    h.to = to;
    h.type = type;
    h.rpc_id = rpc_id;
    h.is_response = is_response;
    h.trace_id = trace_id;
    h.span_id = span_id;
    h.deadline = deadline;
    return h;
  }

  [[nodiscard]] std::size_t wire_size() const {
    // Headers modeled as a fixed 32-byte cost, roughly an Ethernet+IP+TCP
    // header share plus framing, matching the 1 GbE testbed assumption.
    return payload.size() + 32;
  }
};

}  // namespace sedna::sim
