// Tests for the Sedna wire protocol codecs and the MetadataCache
// (journal-driven refresh, adaptive-lease integration, bootstrap layout).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>

#include "cluster/metadata.h"
#include "cluster/protocol.h"
#include "cluster/sedna_cluster.h"
#include "ring/imbalance.h"
#include "wal/snapshot.h"
#include "wal/wal.h"
#include "zk/protocol.h"

namespace sedna::cluster {
namespace {

// ---- protocol codecs -----------------------------------------------------------

TEST(Protocol, WriteRequestRoundTrip) {
  WriteRequest req;
  req.mode = WriteMode::kAll;
  req.key = "tweets/msgs/42";
  req.value = std::string("binary\0data", 11);
  req.ts = 0xdeadbeefcafeULL;
  req.flags = 9;
  req.source = 106;
  auto back = WriteRequest::decode(req.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->mode, req.mode);
  EXPECT_EQ(back->key, req.key);
  EXPECT_EQ(back->value, req.value);
  EXPECT_EQ(back->ts, req.ts);
  EXPECT_EQ(back->flags, req.flags);
  EXPECT_EQ(back->source, req.source);
}

TEST(Protocol, WriteReplyRoundTrip) {
  for (StatusCode code : {StatusCode::kOk, StatusCode::kOutdated,
                          StatusCode::kFailure}) {
    WriteReply rep;
    rep.status = code;
    auto back = WriteReply::decode(rep.encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->status, code);
  }
}

TEST(Protocol, ReadRequestReplyRoundTrip) {
  ReadRequest req;
  req.mode = ReadMode::kAll;
  req.key = "k";
  auto req_back = ReadRequest::decode(req.encode());
  ASSERT_TRUE(req_back.ok());
  EXPECT_EQ(req_back->mode, ReadMode::kAll);

  ReadReply rep;
  rep.status = StatusCode::kOk;
  rep.has_latest = true;
  rep.latest = {"value", 77, 1};
  rep.value_list = {{1, "a", 10}, {2, "b", 11}};
  auto rep_back = ReadReply::decode(rep.encode());
  ASSERT_TRUE(rep_back.ok());
  EXPECT_EQ(rep_back->latest, rep.latest);
  ASSERT_EQ(rep_back->value_list.size(), 2u);
  EXPECT_EQ(rep_back->value_list[1], rep.value_list[1]);
}

TEST(Protocol, FetchVnodeReplyRoundTrip) {
  FetchVnodeReply rep;
  TransferItem item;
  item.key = "k";
  item.has_latest = true;
  item.latest = {"v", 5, 0};
  item.value_list = {{3, "lv", 9}};
  rep.items.push_back(item);
  auto back = FetchVnodeReply::decode(rep.encode());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->items.size(), 1u);
  EXPECT_EQ(back->items[0].key, "k");
  EXPECT_EQ(back->items[0].latest.value, "v");
  ASSERT_EQ(back->items[0].value_list.size(), 1u);
  EXPECT_EQ(back->items[0].value_list[0].source, 3u);
}

// Both replies carry causal state in the same sparse trailing section:
// a u32 count, then (u32 index, value) pairs for the entries that have it.
TEST(Protocol, SparseCausalSectionsRoundTrip) {
  store::CausalRecord rec;
  rec.update({}, "sib-a", 10, 0, 100);
  rec.update({}, "sib-b", 11, 0, 101);

  FetchVnodeReply fetch;
  fetch.items.resize(3);
  fetch.items[0].key = "lww";
  fetch.items[1].key = "causal";
  fetch.items[1].causal = rec;
  fetch.items[2].key = "lww-too";
  auto fetch_back = FetchVnodeReply::decode(fetch.encode());
  ASSERT_TRUE(fetch_back.ok());
  ASSERT_EQ(fetch_back->items.size(), 3u);
  EXPECT_TRUE(fetch_back->items[0].causal.empty());
  EXPECT_EQ(fetch_back->items[1].causal, rec);
  EXPECT_TRUE(fetch_back->items[2].causal.empty());

  VnodeDigestReply digest;
  digest.mismatched = {2, 5};
  digest.keys.resize(3);
  digest.keys[0].key = "a";
  digest.keys[1].key = "b";
  digest.keys[2].key = "c";
  digest.keys[2].causal_digest = rec.digest();
  auto digest_back = VnodeDigestReply::decode(digest.encode());
  ASSERT_TRUE(digest_back.ok());
  EXPECT_EQ(digest_back->mismatched, digest.mismatched);
  ASSERT_EQ(digest_back->keys.size(), 3u);
  EXPECT_EQ(digest_back->keys[0].causal_digest, 0u);
  EXPECT_EQ(digest_back->keys[1].causal_digest, 0u);
  EXPECT_EQ(digest_back->keys[2].causal_digest, rec.digest());
}

TEST(Protocol, SparseSectionIndexPastTheEndIsCorruption) {
  FetchVnodeReply fetch;
  fetch.items.resize(1);
  std::string fetch_bytes = fetch.encode();
  BinaryWriter fetch_trailer;
  fetch_trailer.put_u32(1);
  fetch_trailer.put_u32(1);  // only index 0 exists
  store::CausalRecord().encode(fetch_trailer);
  fetch_bytes += fetch_trailer.data();
  auto fetch_back = FetchVnodeReply::decode(fetch_bytes);
  ASSERT_FALSE(fetch_back.ok());
  EXPECT_TRUE(fetch_back.status().is(StatusCode::kCorruption));

  VnodeDigestReply digest;
  digest.keys.resize(2);
  std::string digest_bytes = digest.encode();
  BinaryWriter digest_trailer;
  digest_trailer.put_u32(1);
  digest_trailer.put_u32(2);  // indices 0 and 1 exist
  digest_trailer.put_u64(42);
  digest_bytes += digest_trailer.data();
  auto digest_back = VnodeDigestReply::decode(digest_bytes);
  ASSERT_FALSE(digest_back.ok());
  EXPECT_TRUE(digest_back.status().is(StatusCode::kCorruption));
}

TEST(Protocol, LwwOnlyRepliesCarryNoCausalTrailer) {
  // Without causal state the encoding ends right after the LWW layout:
  // a reply with no items is exactly the status byte and the item count.
  FetchVnodeReply empty;
  EXPECT_EQ(empty.encode().size(), 1u + 4u);

  FetchVnodeReply fetch;
  fetch.items.resize(1);
  fetch.items[0].key = "k";
  fetch.items[0].has_latest = true;
  fetch.items[0].latest = {"v", 5, 0};
  FetchVnodeReply with_causal = fetch;
  with_causal.items[0].causal.update({}, "v", 5, 0, 100);
  const std::string lww = fetch.encode();
  const std::string causal = with_causal.encode();
  // The causal encoding is the LWW encoding plus the trailer.
  ASSERT_GT(causal.size(), lww.size());
  EXPECT_EQ(causal.substr(0, lww.size()), lww);

  VnodeDigestReply digest;
  digest.keys.resize(1);
  digest.keys[0].key = "k";
  digest.truncated = true;
  const std::string bytes = digest.encode();
  // status, match, mismatched count, key count, key (u32 + 1 byte),
  // has_latest, latest_ts, list_digest, truncated; then nothing.
  EXPECT_EQ(bytes.size(), 1u + 1u + 4u + 4u + 5u + 1u + 8u + 8u + 1u);
  EXPECT_EQ(bytes.back(), '\x01');
}

TEST(Protocol, TakeoverAndPurgeRoundTrip) {
  TakeoverRequest take;
  take.vnode = 42;
  take.sources = {7, 8, 9};
  auto take_back = TakeoverRequest::decode(take.encode());
  ASSERT_TRUE(take_back.ok());
  EXPECT_EQ(take_back->vnode, 42u);
  EXPECT_EQ(take_back->sources, take.sources);

  PurgeVnodeRequest purge{11, 200};
  auto purge_back = PurgeVnodeRequest::decode(purge.encode());
  ASSERT_TRUE(purge_back.ok());
  EXPECT_EQ(purge_back->vnode, 11u);
  EXPECT_EQ(purge_back->new_owner, 200u);
}

TEST(Protocol, DecodersRejectTruncation) {
  WriteRequest req;
  req.key = "some-key";
  req.value = "some-value";
  const std::string bytes = req.encode();
  EXPECT_FALSE(
      WriteRequest::decode(std::string_view(bytes).substr(0, 4)).ok());
  EXPECT_FALSE(ReadReply::decode("x").ok());
  EXPECT_FALSE(FetchVnodeReply::decode("").ok());
}

TEST(Protocol, ClusterConfigRoundTripAndValidation) {
  ClusterConfig cfg;
  cfg.total_vnodes = 4096;
  cfg.replicas = 5;
  cfg.read_quorum = 3;
  cfg.write_quorum = 3;
  auto back = ClusterConfig::decode(cfg.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->total_vnodes, 4096u);
  EXPECT_TRUE(back->quorum_valid());
}

TEST(Protocol, ZnodePathHelpers) {
  EXPECT_EQ(vnode_znode(7), "/sedna/vnodes/v000007");
  EXPECT_EQ(vnode_znode(123456), "/sedna/vnodes/v123456");
  EXPECT_EQ(real_node_znode(104), "/sedna/real_nodes/node-104");
}

// ---- wire gates -------------------------------------------------------------------
//
// Every wire type, with each trailing section both present and absent,
// pinned to the bytes it encodes to. The simulated network charges delay
// by payload size, so a changed byte shifts every seeded run.

std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

struct WireCase {
  std::string name;
  std::string bytes;
  /// Decodes `bytes` and re-encodes the result ("" when decoding fails).
  std::function<std::string(std::string_view)> round_trip;
};

template <typename T>
WireCase wire_case(std::string name, const T& m) {
  return {std::move(name), m.encode(), [](std::string_view bytes) {
            auto back = T::decode(bytes);
            return back.ok() ? back->encode() : std::string();
          }};
}

store::CausalRecord sample_record() {
  store::CausalRecord rec;
  rec.update({}, "sib-a", 10, 1, 100);
  rec.update({}, "sib-b", 11, 0, 101);
  return rec;
}

WriteRequest sample_write() {
  WriteRequest w;
  w.key = "user/42";
  w.value = "hello";
  w.ts = 0x0102030405060708ULL;
  w.flags = 3;
  w.source = 104;
  return w;
}

zk::ClientRequest sample_zk_create() {
  zk::ClientRequest req;
  req.op = zk::ClientRequest::Op::kCreate;
  req.path = "/sedna/changes/c";
  req.data = "data";
  req.mode = 2;
  req.expected_version = -1;
  req.session_id = 0x1122;
  req.watch = true;
  req.watch_id = 9;
  return req;
}

std::vector<WireCase> wire_cases() {
  const store::CausalRecord rec = sample_record();
  std::vector<WireCase> cases;

  WriteRequest write = sample_write();
  cases.push_back(wire_case("write_lww", write));
  write.mode = WriteMode::kAll;
  write.ttl = 5000;
  cases.push_back(wire_case("write_all_ttl", write));
  WriteRequest write_ctx = sample_write();
  write_ctx.causal_tag = WriteRequest::kCausalCtx;
  write_ctx.ctx = rec.clock;
  cases.push_back(wire_case("write_ctx", write_ctx));
  WriteRequest write_record = sample_write();
  write_record.causal_tag = WriteRequest::kCausalRecord;
  write_record.record = rec;
  cases.push_back(wire_case("write_record", write_record));

  WriteReply write_reply;
  write_reply.status = StatusCode::kOutdated;
  cases.push_back(wire_case("write_reply", write_reply));
  write_reply.status = StatusCode::kOk;
  write_reply.has_ctx = true;
  write_reply.ctx = rec.clock;
  cases.push_back(wire_case("write_reply_ctx", write_reply));

  ReadRequest read;
  read.key = "user/42";
  cases.push_back(wire_case("read_request", read));
  read.mode = ReadMode::kAll;
  read.causal = true;
  cases.push_back(wire_case("read_request_causal", read));

  ReadReply reply;
  reply.has_latest = true;
  reply.latest = {"value", 77, 1};
  reply.value_list = {{1, "a", 10}, {2, "bb", 11}};
  cases.push_back(wire_case("read_reply_lww", reply));
  ReadReply audit = reply;
  audit.stale = true;
  audit.staleness_us = 1234;
  cases.push_back(wire_case("read_reply_audit", audit));
  ReadReply causal = reply;
  causal.has_causal = true;
  causal.causal = rec;
  cases.push_back(wire_case("read_reply_causal", causal));
  ReadReply both = causal;
  both.stale = true;
  both.staleness_us = 99;
  cases.push_back(wire_case("read_reply_both", both));

  cases.push_back(wire_case("fetch_request", FetchVnodeRequest{77}));
  FetchVnodeReply fetch;
  fetch.items.resize(3);
  fetch.items[0].key = "k0";
  fetch.items[0].has_latest = true;
  fetch.items[0].latest = {"v0", 5, 2};
  fetch.items[1].key = "k1";
  fetch.items[1].value_list = {{3, "lv", 9}};
  fetch.items[2].key = "k2";
  cases.push_back(wire_case("fetch_reply_lww", fetch));
  fetch.items[1].causal = rec;
  cases.push_back(wire_case("fetch_reply_causal", fetch));

  cases.push_back(wire_case("scan_request", ScanRequest{"user/", 50}));
  ScanReply scan;
  scan.keys = {"user/1", "user/2"};
  scan.truncated = true;
  cases.push_back(wire_case("scan_reply", scan));
  cases.push_back(wire_case("purge_request", PurgeVnodeRequest{11, 200}));
  TakeoverRequest takeover;
  takeover.vnode = 42;
  takeover.sources = {7, 8, 9};
  cases.push_back(wire_case("takeover_request", takeover));
  cases.push_back(
      wire_case("hint_deliver", HintDeliverRequest{write_record}));
  cases.push_back(wire_case("hint_ack", HintAckReply{StatusCode::kOutdated}));

  VnodeDigestRequest digest_req;
  digest_req.vnode = 3;
  digest_req.root = 0xfeedfacecafebeefULL;
  digest_req.buckets = {1, 2, 0xffffffffffULL};
  cases.push_back(wire_case("digest_request", digest_req));
  VnodeDigestReply digest;
  digest.mismatched = {2, 5};
  digest.keys.resize(2);
  digest.keys[0] = {"a", true, 17, 0xabcdef, 0};
  digest.keys[1] = {"b", false, 0, 0, 0};
  digest.truncated = true;
  cases.push_back(wire_case("digest_reply_lww", digest));
  digest.keys[1].causal_digest = rec.digest();
  cases.push_back(wire_case("digest_reply_causal", digest));

  cases.push_back(wire_case("migrate_request", MigrateVnodeRequest{12, 103}));
  cases.push_back(wire_case(
      "migrate_reply", MigrateVnodeReply{StatusCode::kRefused, 10, 2048, 77}));
  cases.push_back(wire_case("cluster_config", ClusterConfig{}));

  ring::RealNodeLoad load;
  load.node = 104;
  load.vnode_count = 20;
  load.capacity_bytes = 1 << 20;
  load.reads = 5;
  load.writes = 6;
  load.misses = 7;
  load.vnodes.push_back(ring::VnodeLoadRow{9, 100, 5, 1, 0});
  load.vnodes.push_back(ring::VnodeLoadRow{12, 300, 0, 5, 7});
  cases.push_back(wire_case("load_row", load));
  load.lags.push_back(ring::VnodeLagRow{9, 2500, 3});
  cases.push_back(wire_case("load_row_lags", load));

  zk::ClientRequest connect;
  connect.op = zk::ClientRequest::Op::kConnect;
  connect.session_timeout_us = 4000000;
  cases.push_back(wire_case("zk_connect", connect));
  cases.push_back(wire_case("zk_create", sample_zk_create()));
  zk::ClientReply zk_reply;
  zk_reply.status = StatusCode::kNotFound;
  zk_reply.payload = "owner";
  zk_reply.stat = {5, 6, 2, 0x77, 3};
  zk_reply.children = {"c0000000001", "c0000000002"};
  zk_reply.session_id = 0x1122;
  cases.push_back(wire_case("zk_reply", zk_reply));
  cases.push_back(wire_case(
      "zk_watch_event",
      zk::WatchEventMsg{31, "/sedna/vnodes/v000003",
                        zk::WatchEventType::kChildrenChanged}));
  cases.push_back(wire_case(
      "zk_proposal", zk::Proposal{zk::make_zxid(2, 17), sample_zk_create()}));
  zk::TreeSyncMsg sync;
  sync.epoch = 2;
  sync.last_zxid = zk::make_zxid(2, 17);
  sync.next_session_id = 5;
  sync.tree_image = "image";
  sync.sessions = {{3, 4000000}, {4, 6000000}};
  cases.push_back(wire_case("zk_tree_sync", sync));

  wal::WalRecord wal_latest;
  wal_latest.key = "user/42";
  wal_latest.value = "hello";
  wal_latest.ts = 88;
  wal_latest.flags = 1;
  cases.push_back(wire_case("wal_write_latest", wal_latest));
  wal::WalRecord wal_all = wal_latest;
  wal_all.type = wal::WalRecord::Type::kWriteAll;
  wal_all.source = 105;
  cases.push_back(wire_case("wal_write_all", wal_all));
  wal::WalRecord wal_causal;
  wal_causal.type = wal::WalRecord::Type::kWriteCausal;
  wal_causal.key = "user/42";
  wal_causal.value = rec.encode_string();
  cases.push_back(wire_case("wal_write_causal", wal_causal));
  cases.push_back({"causal_record", rec.encode_string(),
                   [](std::string_view bytes) {
                     return store::CausalRecord::decode_string(bytes)
                         .encode_string();
                   }});
  return cases;
}

// Captured from the encoders before they moved to declared layouts.
const std::map<std::string, std::string>& golden_hex() {
  static const std::map<std::string, std::string> kHex = {
      {"write_lww",
       "0007000000757365722f34320500000068656c6c6f0807060504030201030000"
       "00680000000000000000000000"},
      {"write_all_ttl",
       "0107000000757365722f34320500000068656c6c6f0807060504030201030000"
       "00680000008813000000000000"},
      {"write_ctx",
       "0007000000757365722f34320500000068656c6c6f0807060504030201030000"
       "0068000000000000000000000001020000006400000001000000000000006500"
       "00000100000000000000"},
      {"write_record",
       "0007000000757365722f34320500000068656c6c6f0807060504030201030000"
       "0068000000000000000000000002020000006400000001000000000000006500"
       "0000010000000000000002000000050000007369622d610a0000000000000001"
       "000000640000000100000000000000050000007369622d620b00000000000000"
       "00000000650000000100000000000000"},
      {"write_reply",
       "01"},
      {"write_reply_ctx",
       "0002000000640000000100000000000000650000000100000000000000"},
      {"read_request",
       "0007000000757365722f3432"},
      {"read_request_causal",
       "0107000000757365722f343201"},
      {"read_reply_lww",
       "00010500000076616c75654d0000000000000001000000020000000100000001"
       "000000610a00000000000000020000000200000062620b0000000000000000"},
      {"read_reply_audit",
       "00010500000076616c75654d0000000000000001000000020000000100000001"
       "000000610a00000000000000020000000200000062620b000000000000000102"
       "d204000000000000"},
      {"read_reply_causal",
       "00010500000076616c75654d0000000000000001000000020000000100000001"
       "000000610a00000000000000020000000200000062620b000000000000000001"
       "0200000064000000010000000000000065000000010000000000000002000000"
       "050000007369622d610a00000000000000010000006400000001000000000000"
       "00050000007369622d620b000000000000000000000065000000010000000000"
       "0000"},
      {"read_reply_both",
       "00010500000076616c75654d0000000000000001000000020000000100000001"
       "000000610a00000000000000020000000200000062620b000000000000000103"
       "6300000000000000020000006400000001000000000000006500000001000000"
       "0000000002000000050000007369622d610a0000000000000001000000640000"
       "000100000000000000050000007369622d620b00000000000000000000006500"
       "00000100000000000000"},
      {"fetch_request",
       "4d000000"},
      {"fetch_reply_lww",
       "0003000000020000006b30010200000076300500000000000000020000000000"
       "0000020000006b31000000000000000000000000000000000001000000030000"
       "00020000006c760900000000000000020000006b320000000000000000000000"
       "00000000000000000000"},
      {"fetch_reply_causal",
       "0003000000020000006b30010200000076300500000000000000020000000000"
       "0000020000006b31000000000000000000000000000000000001000000030000"
       "00020000006c760900000000000000020000006b320000000000000000000000"
       "0000000000000000000001000000010000000200000064000000010000000000"
       "000065000000010000000000000002000000050000007369622d610a00000000"
       "00000001000000640000000100000000000000050000007369622d620b000000"
       "0000000000000000650000000100000000000000"},
      {"scan_request",
       "05000000757365722f32000000"},
      {"scan_reply",
       "000200000006000000757365722f3106000000757365722f3201"},
      {"purge_request",
       "0b000000c8000000"},
      {"takeover_request",
       "2a00000003000000070000000800000009000000"},
      {"hint_deliver",
       "900000000007000000757365722f34320500000068656c6c6f08070605040302"
       "0103000000680000000000000000000000020200000064000000010000000000"
       "000065000000010000000000000002000000050000007369622d610a00000000"
       "00000001000000640000000100000000000000050000007369622d620b000000"
       "0000000000000000650000000100000000000000"},
      {"hint_ack",
       "01"},
      {"digest_request",
       "03000000efbefecacefaedfe0300000001000000000000000200000000000000"
       "ffffffffff000000"},
      {"digest_reply_lww",
       "0000020000000200000005000000020000000100000061011100000000000000"
       "efcdab00000000000100000062000000000000000000000000000000000001"},
      {"digest_reply_causal",
       "0000020000000200000005000000020000000100000061011100000000000000"
       "efcdab0000000000010000006200000000000000000000000000000000000101"
       "00000001000000025c316c4c8e2480"},
      {"migrate_request",
       "0c00000067000000"},
      {"migrate_reply",
       "040a0000000000000000080000000000004d00000000000000"},
      {"cluster_config",
       "00040000030000000200000002000000"},
      {"load_row",
       "6800000014000000000010000000000005000000000000000600000000000000"
       "0700000000000000020000000900000064000000000000000500000000000000"
       "010000000000000000000000000000000c0000002c0100000000000000000000"
       "0000000005000000000000000700000000000000"},
      {"load_row_lags",
       "6800000014000000000010000000000005000000000000000600000000000000"
       "0700000000000000020000000900000064000000000000000500000000000000"
       "010000000000000000000000000000000c0000002c0100000000000000000000"
       "00000000050000000000000007000000000000000100000009000000c4090000"
       "000000000300000000000000"},
      {"zk_connect",
       "00000000000000000000ffffffffffffffff000000000000000000093d000000"
       "0000000000000000000000"},
      {"zk_create",
       "01100000002f7365646e612f6368616e6765732f63040000006461746102ffff"
       "ffffffffffff22110000000000000000000000000000010900000000000000"},
      {"zk_reply",
       "05050000006f776e657205000000000000000600000000000000020000000000"
       "0000770000000000000003000000020000000b00000063303030303030303030"
       "310b00000063303030303030303030322211000000000000"},
      {"zk_watch_event",
       "1f00000000000000150000002f7365646e612f766e6f6465732f763030303030"
       "3303"},
      {"zk_proposal",
       "11000000020000003f00000001100000002f7365646e612f6368616e6765732f"
       "63040000006461746102ffffffffffffffff2211000000000000000000000000"
       "0000010900000000000000"},
      {"zk_tree_sync",
       "02000000000000001100000002000000050000000000000005000000696d6167"
       "6502000000030000000000000000093d00000000000400000000000000808d5b"
       "0000000000"},
      {"wal_write_latest",
       "0107000000757365722f34320500000068656c6c6f5800000000000000010000"
       "00ffffffff"},
      {"wal_write_all",
       "0207000000757365722f34320500000068656c6c6f5800000000000000010000"
       "0069000000"},
      {"wal_write_causal",
       "0407000000757365722f34326200000002000000640000000100000000000000"
       "65000000010000000000000002000000050000007369622d610a000000000000"
       "0001000000640000000100000000000000050000007369622d620b0000000000"
       "000000000000650000000100000000000000000000000000000000000000ffff"
       "ffff"},
      {"causal_record",
       "0200000064000000010000000000000065000000010000000000000002000000"
       "050000007369622d610a00000000000000010000006400000001000000000000"
       "00050000007369622d620b000000000000000000000065000000010000000000"
       "0000"},
      {"snapshot_file",
       "5345444e41534e500100000029000000d2c3e5940700000074746c2d6b657901"
       "0100000076050000000000000002000000000000004c040000000000002b0000"
       "00824236f7080000006c6973742d6b6579000100000007000000020000006c76"
       "090000000000000000000000000000005d0000002f52162e0a00000063617573"
       "616c2d6b65790101000000630c00000000000000000000000000000000000000"
       "00000000010000006700000001000000000000000100000001000000630c0000"
       "000000000000000000670000000100000000000000"},
  };
  return kHex;
}

/// A snapshot of a fixed store: one LWW item with a TTL, one value-list
/// item and one causal item.
std::string fixed_snapshot_bytes() {
  std::uint64_t now = 1000;
  store::LocalStore source({}, [&now] { return now; });
  source.write_latest("ttl-key", "v", 5, 2, /*ttl=*/100);
  source.write_all("list-key", 7, "lv", 9);
  source.write_causal("causal-key", {}, "c", 12, 0, 103);
  const auto path = std::filesystem::temp_directory_path() /
                    ("sedna_wire_gate_" + std::to_string(::getpid()));
  if (!wal::Snapshot::write(path.string(), source).ok()) return {};
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  return bytes;
}

TEST(Protocol, GoldenWireBytes) {
  const auto& golden = golden_hex();
  for (const WireCase& c : wire_cases()) {
    SCOPED_TRACE(c.name);
    const auto it = golden.find(c.name);
    ASSERT_NE(it, golden.end()) << to_hex(c.bytes);
    EXPECT_EQ(to_hex(c.bytes), it->second);
    EXPECT_EQ(to_hex(c.round_trip(c.bytes)), it->second);
  }
  const auto snap = golden.find("snapshot_file");
  ASSERT_NE(snap, golden.end()) << to_hex(fixed_snapshot_bytes());
  EXPECT_EQ(to_hex(fixed_snapshot_bytes()), snap->second);
}

// A count or length overwritten with a huge value must decode to an
// error, never throw (std::bad_alloc from sizing a container by it).
TEST(Protocol, DecodersNeverThrowOnCorruptCounts) {
  int throws = 0;
  for (const WireCase& c : wire_cases()) {
    for (std::size_t at = 0; at + 4 <= c.bytes.size(); ++at) {
      for (const std::uint32_t count :
           {0xffffffffu, 0x7fffffffu, 0x10000000u}) {
        std::string bytes = c.bytes;
        for (std::size_t i = 0; i < 4; ++i) {
          bytes[at + i] = static_cast<char>((count >> (8 * i)) & 0xff);
        }
        try {
          (void)c.round_trip(bytes);
        } catch (const std::exception& e) {
          ++throws;
          ADD_FAILURE() << c.name << " @" << at << " = " << count << ": "
                        << e.what();
        }
      }
    }
  }
  EXPECT_EQ(throws, 0);
}

TEST(Protocol, ZookeeperOwnerRecordsKeepTheirBytes) {
  // Vnode znode payload: u32 owner. Journal entry: u32 vnode, u32 owner.
  EXPECT_EQ(to_hex(VnodeOwner{0x68}.encode()), "68000000");
  EXPECT_EQ(to_hex(ChangeJournalEntry{5, 0x68}.encode()), "0500000068000000");
  auto owner = VnodeOwner::decode(VnodeOwner{104}.encode());
  ASSERT_TRUE(owner.ok());
  EXPECT_EQ(owner->owner, 104u);
  auto entry = ChangeJournalEntry::decode(ChangeJournalEntry{7, 105}.encode());
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->vnode, 7u);
  EXPECT_EQ(entry->owner, 105u);
  EXPECT_FALSE(VnodeOwner::decode("abc").ok());
  EXPECT_FALSE(ChangeJournalEntry::decode("abcdefg").ok());
}

// ---- MetadataCache against a live ensemble ---------------------------------------

SednaClusterConfig small_config() {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 4;
  cfg.cluster.total_vnodes = 64;
  return cfg;
}

TEST(Metadata, BootLoadsFullTable) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  const auto& meta = cluster.node(0).metadata();
  EXPECT_TRUE(meta.ready());
  EXPECT_EQ(meta.config().total_vnodes, 64u);
  EXPECT_EQ(meta.table().total_vnodes(), 64u);
  for (std::uint32_t v = 0; v < 64; ++v) {
    EXPECT_NE(meta.table().owner(v), kInvalidNode);
  }
}

TEST(Metadata, AllPartiesAgreeAfterBoot) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  const auto& reference = cluster.node(0).metadata().table();
  for (std::size_t i = 1; i < cluster.data_node_count(); ++i) {
    EXPECT_TRUE(cluster.node(i).metadata().table() == reference);
  }
  EXPECT_TRUE(client.metadata().table() == reference);
}

TEST(Metadata, JournalEntryPropagatesWithinLeases) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());

  // Write a reassignment directly: CAS the vnode znode + journal entry,
  // exactly what recovery does.
  auto& node = cluster.node(0);
  const VnodeId vnode = 5;
  const NodeId new_owner = cluster.node(3).id();
  bool done = false;
  BinaryWriter w;
  w.put_u32(new_owner);
  node.zk().set(vnode_znode(vnode), std::move(w).take(), -1,
                [&](const Result<zk::ZnodeStat>&) {
                  BinaryWriter jw;
                  jw.put_u32(vnode);
                  jw.put_u32(new_owner);
                  node.zk().create(std::string(kZkChanges) + "/c",
                                   std::move(jw).take(),
                                   zk::CreateMode::kPersistentSequential,
                                   [&](const Result<std::string>&) {
                                     done = true;
                                   });
                });
  cluster.run_until([&] { return done; });

  // Everyone converges via their lease-paced journal sync.
  cluster.run_for(sim_sec(20));
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    EXPECT_EQ(cluster.node(i).metadata().table().owner(vnode), new_owner)
        << "node " << i;
  }
}

TEST(Metadata, SyncsSkipAlreadySeenEntries) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& meta = cluster.node(0).metadata();
  const auto before = meta.vnodes_refreshed();
  cluster.run_for(sim_sec(20));  // many sync rounds, no changes
  EXPECT_EQ(meta.vnodes_refreshed(), before);
  EXPECT_GT(meta.syncs_run(), 0u);
}

TEST(Metadata, QuietPeriodsGrowTheLease) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& node = cluster.node(0);
  const SimDuration initial = node.zk().current_lease();
  cluster.run_for(sim_sec(30));  // nothing changes
  EXPECT_GT(node.zk().current_lease(), initial);
}

TEST(Metadata, ApplyLocalTakesEffectImmediately) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& meta = cluster.node(0).metadata();
  const NodeId target = cluster.node(2).id();
  meta.apply_local(7, target);
  EXPECT_EQ(meta.table().owner(7), target);
  // Out-of-range vnode is ignored, not UB.
  meta.apply_local(1 << 20, target);
}

}  // namespace
}  // namespace sedna::cluster
