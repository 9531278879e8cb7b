// Tests for the Sedna wire protocol codecs and the MetadataCache
// (journal-driven refresh, adaptive-lease integration, bootstrap layout).
#include <gtest/gtest.h>

#include "cluster/metadata.h"
#include "cluster/protocol.h"
#include "cluster/sedna_cluster.h"

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
