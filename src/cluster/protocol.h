// Sedna data-path wire protocol (message-type range 200–299).
//
// Clients route requests directly to the primary replica of a key's vnode
// (zero-hop DHT, Section VII); that node coordinates the N-replica quorum
// (Section III.C). Recovery traffic (vnode takeover + item transfer) uses
// the same link layer.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "sim/message.h"
#include "store/dvv.h"
#include "store/item.h"

// Each message declares its layout once in `wire` (common/codec.h).
// Causal (DVV) and audit extensions ride in trailing sections (io.tail,
// io.sparse): encoded only when carrying state, so messages on the
// default LWW path keep their exact pre-causal byte size — the simulated
// network charges delivery delay by payload size.

namespace sedna::cluster {

constexpr sim::MessageType kMsgClientWrite = 200;
constexpr sim::MessageType kMsgClientRead = 201;
constexpr sim::MessageType kMsgReplicaWrite = 210;
constexpr sim::MessageType kMsgReplicaRead = 211;
constexpr sim::MessageType kMsgFetchVnode = 220;   // new owner → survivor
constexpr sim::MessageType kMsgTakeoverVnode = 221;  // coordinator → new owner
constexpr sim::MessageType kMsgPurgeVnode = 222;   // new owner → old owner
constexpr sim::MessageType kMsgScan = 230;         // client → every node
constexpr sim::MessageType kMsgHintDeliver = 240;  // coordinator → healed replica
constexpr sim::MessageType kMsgVnodeDigest = 241;  // anti-entropy digest exchange
constexpr sim::MessageType kMsgMigrateVnode = 250;  // rebalance leader → destination

enum class WriteMode : std::uint8_t { kLatest = 0, kAll = 1 };
enum class ReadMode : std::uint8_t { kLatest = 0, kAll = 1 };

struct WriteRequest {
  WriteMode mode = WriteMode::kLatest;
  std::string key;
  std::string value;
  Timestamp ts = 0;
  std::uint32_t flags = 0;
  /// Source server tag for write_all value lists (Section III.F).
  NodeId source = kInvalidNode;
  /// Relative expiry in simulated microseconds; 0 = never. Applied by
  /// each replica against its own clock at apply time.
  std::uint64_t ttl = 0;

  /// Trailing causal section selector.
  enum : std::uint8_t {
    kCausalNone = 0,
    /// Client put: `ctx` carries the version vector of the client's last
    /// read of the key (its write context). The coordinator prunes the
    /// siblings the client had seen and mints a fresh dot.
    kCausalCtx = 1,
    /// Replica push (fan-out, hint replay, read repair, anti-entropy):
    /// `record` is the coordinator's full post-update record; receivers
    /// join it into their own.
    kCausalRecord = 2,
  };
  std::uint8_t causal_tag = kCausalNone;
  store::VersionVector ctx;
  store::CausalRecord record;

  static void wire(auto& io, auto& m) {
    io(m.mode, m.key, m.value, m.ts, m.flags, m.source, m.ttl);
    if (!io.tail(m.causal_tag != kCausalNone, m.causal_tag)) return;
    io.check(m.causal_tag == kCausalCtx || m.causal_tag == kCausalRecord);
    if (m.causal_tag == kCausalCtx) io(m.ctx);
    if (m.causal_tag == kCausalRecord) io(m.record);
  }
  [[nodiscard]] std::string encode() const { return wire_encode(*this); }
  static Result<WriteRequest> decode(std::string_view bytes) {
    return wire_decode<WriteRequest>(bytes, "bad write request");
  }
};

struct WriteReply {
  /// kOk | kOutdated | kFailure (the three client-visible outcomes of
  /// Section III.F) — plus kQuorumFailed for diagnostics.
  StatusCode status = StatusCode::kOk;
  /// Trailing causal section: the post-write clock, returned for a
  /// kCausalCtx put so the client can thread it into its next context.
  bool has_ctx = false;
  store::VersionVector ctx;

  static void wire(auto& io, auto& m) {
    io(m.status);
    io.tail(m.has_ctx, m.ctx);
  }
  [[nodiscard]] std::string encode() const { return wire_encode(*this); }
  static Result<WriteReply> decode(std::string_view bytes) {
    return wire_decode<WriteReply>(bytes, "bad write reply");
  }
};

struct ReadRequest {
  ReadMode mode = ReadMode::kLatest;
  std::string key;
  /// Trailing causal flag: ask for the full causal record (clock +
  /// siblings) instead of the LWW projection.
  bool causal = false;

  static void wire(auto& io, auto& m) {
    io(m.mode, m.key);
    io.tail(m.causal, m.causal);
  }
  [[nodiscard]] std::string encode() const { return wire_encode(*this); }
  static Result<ReadRequest> decode(std::string_view bytes) {
    return wire_decode<ReadRequest>(bytes, "bad read request");
  }
};

struct ReadReply {
  StatusCode status = StatusCode::kOk;
  bool has_latest = false;
  store::VersionedValue latest;
  std::vector<store::SourceValue> value_list;
  /// Degraded-mode marker: the coordinator could not assemble a full read
  /// quorum (overload shedding or partition) and served this value from
  /// fewer than R agreeing replicas. The value is the freshest available
  /// but may miss a concurrent acked write (see PAPERS.md 2008.11900 on
  /// the availability/staleness trade).
  bool stale = false;
  /// Trailing causal section: the replica's full causal record, present
  /// only on replies to causal reads.
  bool has_causal = false;
  store::CausalRecord causal;
  /// Trailing audit section (consistency auditor): on stale-tagged
  /// serves, the measured staleness bound in µs — "stale by at most
  /// this much", not just "stale". 0 = not measured (auditing off).
  std::uint64_t staleness_us = 0;
  /// Trailing expiry section: the absolute expiry of `latest` on the
  /// shared simulated clock (0 = never), so a copy made from this reply
  /// (read repair, anti-entropy pull) keeps the deadline.
  std::uint64_t expires_at = 0;

  // Trailing sections share one mask byte so they compose: bit 0 =
  // causal record follows, bit 1 = staleness bound precedes it, bit 2 =
  // expiry follows. The mask is a tail, so plain LWW replies — and
  // *every* reply of a key without TTL with auditing off — stay
  // byte-identical with the legacy layout.
  static constexpr std::uint8_t kTrailCausal = 1;
  static constexpr std::uint8_t kTrailAudit = 2;
  static constexpr std::uint8_t kTrailExpiry = 4;

  static void wire(auto& io, auto& m) {
    io(m.status, m.has_latest, m.latest, m.value_list, m.stale);
    auto mask = static_cast<std::uint8_t>(
        (m.has_causal ? kTrailCausal : 0) |
        (m.staleness_us != 0 ? kTrailAudit : 0) |
        (m.expires_at != 0 ? kTrailExpiry : 0));
    if (!io.tail(mask != 0, mask)) return;
    io.check(mask != 0 &&
             (mask & ~(kTrailCausal | kTrailAudit | kTrailExpiry)) == 0);
    if ((mask & kTrailAudit) != 0) io(m.staleness_us);
    if ((mask & kTrailCausal) != 0) io(m.causal);
    if ((mask & kTrailExpiry) != 0) io(m.expires_at);
    wire_set(m.has_causal, (mask & kTrailCausal) != 0);
  }
  [[nodiscard]] std::string encode() const { return wire_encode(*this); }
  static Result<ReadReply> decode(std::string_view bytes) {
    return wire_decode<ReadReply>(bytes, "bad read reply");
  }
};

/// The reply a client read or write request is answered with.
template <class Request>
using ReplyOf = std::conditional_t<std::is_same_v<Request, WriteRequest>,
                                   WriteReply, ReadReply>;

/// One transferable item (vnode recovery / join data movement).
struct TransferItem {
  std::string key;
  bool has_latest = false;
  store::VersionedValue latest;
  std::vector<store::SourceValue> value_list;
  /// Causal record; empty for LWW items. Carried in FetchVnodeReply's
  /// trailing sparse sections (the per-item layout is not individually
  /// framed, so it cannot grow in place without breaking old readers).
  store::CausalRecord causal;
  /// Absolute expiry on the shared simulated clock; 0 = never. The second
  /// sparse section, so replies without TTL'd items keep their bytes.
  std::uint64_t expires_at = 0;

  static void wire(auto& io, auto& m) {
    io(m.key, m.has_latest, m.latest, m.value_list);
  }
};

struct FetchVnodeRequest {
  VnodeId vnode = kInvalidVnode;

  static void wire(auto& io, auto& m) { io(m.vnode); }
  [[nodiscard]] std::string encode() const { return wire_encode(*this); }
  static Result<FetchVnodeRequest> decode(std::string_view bytes) {
    return wire_decode<FetchVnodeRequest>(bytes, "bad fetch request");
  }
};

struct FetchVnodeReply {
  StatusCode status = StatusCode::kOk;
  std::vector<TransferItem> items;

  static void wire(auto& io, auto& m) {
    io(m.status, m.items);
    io.sparse(m.items, &TransferItem::causal, &TransferItem::expires_at);
  }
  [[nodiscard]] std::string encode() const { return wire_encode(*this); }
  static Result<FetchVnodeReply> decode(std::string_view bytes) {
    return wire_decode<FetchVnodeReply>(bytes, "bad fetch reply");
  }
};

/// Prefix scan of one node's *primary* keys (keys whose vnode the node
/// owns), capped at `limit`. Clients scatter this to every node and merge
/// (an extension beyond the paper, which has no enumeration API).
struct ScanRequest {
  std::string prefix;
  std::uint32_t limit = 1000;

  static void wire(auto& io, auto& m) { io(m.prefix, m.limit); }
  [[nodiscard]] std::string encode() const { return wire_encode(*this); }
  static Result<ScanRequest> decode(std::string_view bytes) {
    return wire_decode<ScanRequest>(bytes, "bad scan request");
  }
};

struct ScanReply {
  StatusCode status = StatusCode::kOk;
  std::vector<std::string> keys;
  bool truncated = false;

  static void wire(auto& io, auto& m) { io(m.status, m.keys, m.truncated); }
  [[nodiscard]] std::string encode() const { return wire_encode(*this); }
  static Result<ScanReply> decode(std::string_view bytes) {
    return wire_decode<ScanReply>(bytes, "bad scan reply");
  }
};

/// Asks a previous owner to drop its now-redundant copy of a vnode's
/// data. Carries the new owner so the receiver can update its cached
/// table before deciding whether it still belongs to the replica set.
struct PurgeVnodeRequest {
  VnodeId vnode = kInvalidVnode;
  NodeId new_owner = kInvalidNode;

  static void wire(auto& io, auto& m) { io(m.vnode, m.new_owner); }
  [[nodiscard]] std::string encode() const { return wire_encode(*this); }
  static Result<PurgeVnodeRequest> decode(std::string_view bytes) {
    return wire_decode<PurgeVnodeRequest>(bytes, "bad purge request");
  }
};

struct TakeoverRequest {
  VnodeId vnode = kInvalidVnode;
  /// Healthy replicas to pull the data from, in preference order.
  std::vector<NodeId> sources;

  static void wire(auto& io, auto& m) { io(m.vnode, m.sources); }
  [[nodiscard]] std::string encode() const { return wire_encode(*this); }
  static Result<TakeoverRequest> decode(std::string_view bytes) {
    return wire_decode<TakeoverRequest>(bytes, "bad takeover request");
  }
};

/// Hinted handoff: a coordinator replays a write that a replica missed
/// while it was down (Section III.C's quorum leaves W..N-1 replicas
/// eligible for hints). The payload is the original replica write — same
/// pinned timestamp, so replay is idempotent under LWW — carried as one
/// length-prefixed inner message.
struct HintDeliverRequest {
  WriteRequest write;

  [[nodiscard]] std::string encode() const {
    BinaryWriter w;
    w.put_string(write.encode());
    return std::move(w).take();
  }

  static Result<HintDeliverRequest> decode(std::string_view bytes) {
    BinaryReader r(bytes);
    const std::string inner = r.get_string();
    if (r.failed()) return Status::Corruption("bad hint request");
    auto w = WriteRequest::decode(inner);
    if (!w.ok()) return w.status();
    return HintDeliverRequest{std::move(w).value()};
  }
};

struct HintAckReply {
  /// kOk: applied. kOutdated: replica already has newer data (hint can be
  /// dropped). Anything else: keep the hint and retry later.
  StatusCode status = StatusCode::kOk;

  static void wire(auto& io, auto& m) { io(m.status); }
  [[nodiscard]] std::string encode() const { return wire_encode(*this); }
  static Result<HintAckReply> decode(std::string_view bytes) {
    return wire_decode<HintAckReply>(bytes, "bad hint ack");
  }
};

/// Merkle anti-entropy: the initiator sends its per-bucket digests for one
/// vnode; the peer answers with the mismatched bucket ids and a key-level
/// summary of its own content in those buckets so the initiator can
/// compute the exact divergent set.
struct VnodeDigestRequest {
  VnodeId vnode = kInvalidVnode;
  std::uint64_t root = 0;
  std::vector<std::uint64_t> buckets;

  static void wire(auto& io, auto& m) { io(m.vnode, m.root, m.buckets); }
  [[nodiscard]] std::string encode() const { return wire_encode(*this); }
  static Result<VnodeDigestRequest> decode(std::string_view bytes) {
    return wire_decode<VnodeDigestRequest>(bytes, "bad digest request");
  }
};

/// Key-level summary of one item in a mismatched bucket: enough for the
/// initiator to decide push (local newer), pull (peer newer), or
/// value-list reconcile (list digests differ).
struct KeySummary {
  std::string key;
  bool has_latest = false;
  Timestamp latest_ts = 0;
  std::uint64_t list_digest = 0;
  /// Digest of the peer's causal record (0 = no causal state). Ordering
  /// on timestamps cannot reconcile causal keys — equal digests mean
  /// converged, different digests mean "exchange records and join".
  /// Carried in VnodeDigestReply's trailing sparse section.
  std::uint64_t causal_digest = 0;

  static void wire(auto& io, auto& m) {
    io(m.key, m.has_latest, m.latest_ts, m.list_digest);
  }
};

struct VnodeDigestReply {
  StatusCode status = StatusCode::kOk;
  /// True when the peer's root digest matches the request's (no walk).
  bool match = false;
  /// Bucket indices whose digests differ.
  std::vector<std::uint32_t> mismatched;
  /// Peer's key summaries for the mismatched buckets (capped; see
  /// `truncated`).
  std::vector<KeySummary> keys;
  bool truncated = false;

  static void wire(auto& io, auto& m) {
    io(m.status, m.match, m.mismatched, m.keys, m.truncated);
    io.sparse(m.keys, &KeySummary::causal_digest);
  }
  [[nodiscard]] std::string encode() const { return wire_encode(*this); }
  static Result<VnodeDigestReply> decode(std::string_view bytes) {
    return wire_decode<VnodeDigestReply>(bytes, "bad digest reply");
  }
};

/// Traffic-aware rebalancing: the rebalance leader asks a destination
/// node to *pull* one vnode through the multi-phase migration protocol
/// (snapshot transfer → Merkle delta catch-up → versioned ZK cutover →
/// old-owner drain). The destination drives every phase, so a leader
/// crash mid-migration at worst orphans an in-flight pull.
struct MigrateVnodeRequest {
  VnodeId vnode = kInvalidVnode;
  /// Current owner, per the leader's plan; the destination re-verifies
  /// against ZooKeeper at cutover time (versioned CAS).
  NodeId from = kInvalidNode;

  static void wire(auto& io, auto& m) { io(m.vnode, m.from); }
  [[nodiscard]] std::string encode() const { return wire_encode(*this); }
  static Result<MigrateVnodeRequest> decode(std::string_view bytes) {
    return wire_decode<MigrateVnodeRequest>(bytes, "bad migrate request");
  }
};

struct MigrateVnodeReply {
  /// kOk: cutover committed. kRefused: plan went stale (owner changed
  /// under us) — safe no-op. Anything else: the migration failed before
  /// cutover; ownership is unchanged.
  StatusCode status = StatusCode::kOk;
  std::uint64_t items = 0;
  std::uint64_t bytes = 0;
  /// Cutover (CAS + journal) latency in simulated microseconds.
  std::uint64_t cutover_us = 0;

  static void wire(auto& io, auto& m) {
    io(m.status, m.items, m.bytes, m.cutover_us);
  }
  [[nodiscard]] std::string encode() const { return wire_encode(*this); }
  static Result<MigrateVnodeReply> decode(std::string_view bytes) {
    return wire_decode<MigrateVnodeReply>(bytes, "bad migrate reply");
  }
};

/// Payload of a vnode znode (/sedna/vnodes/vNNNNNN): its owner.
struct VnodeOwner {
  NodeId owner = kInvalidNode;

  static void wire(auto& io, auto& m) { io(m.owner); }
  [[nodiscard]] std::string encode() const { return wire_encode(*this); }
  static Result<VnodeOwner> decode(std::string_view bytes) {
    return wire_decode<VnodeOwner>(bytes, "bad vnode owner");
  }
};

/// One change-journal entry (/sedna/changes/cNNNNNNNNNN): `vnode` moved
/// to `owner`. Caches replay the journal to refresh their vnode tables.
struct ChangeJournalEntry {
  VnodeId vnode = kInvalidVnode;
  NodeId owner = kInvalidNode;

  static void wire(auto& io, auto& m) { io(m.vnode, m.owner); }
  [[nodiscard]] std::string encode() const { return wire_encode(*this); }
  static Result<ChangeJournalEntry> decode(std::string_view bytes) {
    return wire_decode<ChangeJournalEntry>(bytes, "bad journal entry");
  }
};

// ZooKeeper path layout shared by nodes and clients.
inline constexpr const char* kZkRoot = "/sedna";
inline constexpr const char* kZkConfig = "/sedna/config";
inline constexpr const char* kZkRealNodes = "/sedna/real_nodes";
inline constexpr const char* kZkVnodes = "/sedna/vnodes";
inline constexpr const char* kZkChanges = "/sedna/changes";

[[nodiscard]] inline std::string vnode_znode(VnodeId v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s/v%06u", kZkVnodes, v);
  return buf;
}
[[nodiscard]] inline std::string real_node_znode(NodeId n) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%s/node-%u", kZkRealNodes, n);
  return buf;
}

}  // namespace sedna::cluster
