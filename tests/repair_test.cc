// Repair-subsystem tests: LocalStore Merkle digests, hinted handoff,
// anti-entropy convergence with zero reads, hint eviction fallback,
// client retry backoff, and the per-reason network drop counters.
//
// The convergence tests deliberately never read the keys under test:
// read repair must not be the mechanism that heals them.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "cluster/admin.h"
#include "cluster/sedna_cluster.h"
#include "common/hash.h"
#include "store/local_store.h"

namespace sedna::cluster {
namespace {

constexpr std::uint32_t kVnodes = 32;

SednaClusterConfig base_config() {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 6;
  cfg.cluster.total_vnodes = kVnodes;
  // Fast repair cadence so tests converge in a few simulated seconds.
  cfg.node_template.hint_replay_interval = sim_ms(100);
  cfg.node_template.hint_backoff_initial = sim_ms(50);
  cfg.node_template.hint_backoff_max = sim_ms(500);
  cfg.node_template.anti_entropy_interval = sim_ms(500);
  cfg.node_template.anti_entropy_vnodes_per_round = 4;
  return cfg;
}

std::size_t node_index(SednaCluster& cluster, NodeId id) {
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    if (cluster.node(i).id() == id) return i;
  }
  ADD_FAILURE() << "no data node with id " << id;
  return SIZE_MAX;
}

/// Replicas currently holding `key` with value `want`, by direct store
/// inspection (no network traffic, cannot trigger read repair).
std::size_t replicas_holding(SednaCluster& cluster, const std::string& key,
                             const std::string& want) {
  std::size_t holders = 0;
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    if (!cluster.node(i).alive()) continue;
    auto got = cluster.node(i).local_store().read_latest(key);
    if (got.ok() && got->value == want) ++holders;
  }
  return holders;
}

std::uint64_t sum_counter(SednaCluster& cluster, const char* name) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    total += cluster.node(i).metrics().counter(name).value();
  }
  return total;
}

// ---- LocalStore digest tree --------------------------------------------

TEST(Digests, IdenticalContentMatchesRegardlessOfWriteOrder) {
  store::LocalStore a, b;
  a.enable_digests(kVnodes, 8);
  b.enable_digests(kVnodes, 8);

  // Same items, pinned timestamps, opposite insertion order; plus a
  // value list built in different per-source order.
  for (int i = 0; i < 50; ++i) {
    const std::string key = "k-" + std::to_string(i);
    ASSERT_TRUE(a.write_latest(key, "v" + std::to_string(i),
                               1000 + i).ok());
  }
  for (int i = 49; i >= 0; --i) {
    const std::string key = "k-" + std::to_string(i);
    ASSERT_TRUE(b.write_latest(key, "v" + std::to_string(i),
                               1000 + i).ok());
  }
  ASSERT_TRUE(a.write_all("list", 1, "one", 10).ok());
  ASSERT_TRUE(a.write_all("list", 2, "two", 20).ok());
  ASSERT_TRUE(b.write_all("list", 2, "two", 20).ok());
  ASSERT_TRUE(b.write_all("list", 1, "one", 10).ok());

  for (VnodeId v = 0; v < kVnodes; ++v) {
    EXPECT_EQ(a.digest_root(v), b.digest_root(v)) << "vnode " << v;
    EXPECT_EQ(a.digest_buckets(v), b.digest_buckets(v)) << "vnode " << v;
  }
}

TEST(Digests, DivergenceIsIsolatedToTheKeysBucket) {
  store::LocalStore a, b;
  a.enable_digests(kVnodes, 8);
  b.enable_digests(kVnodes, 8);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "k-" + std::to_string(i);
    ASSERT_TRUE(a.write_latest(key, "v", 1000 + i).ok());
    ASSERT_TRUE(b.write_latest(key, "v", 1000 + i).ok());
  }

  const std::string extra = "only-in-a";
  ASSERT_TRUE(a.write_latest(extra, "x", 9999).ok());
  const VnodeId hot = static_cast<VnodeId>(ring_hash(extra) % kVnodes);
  const std::uint32_t bucket = store::LocalStore::digest_bucket_of(extra, 8);

  for (VnodeId v = 0; v < kVnodes; ++v) {
    if (v == hot) {
      EXPECT_NE(a.digest_root(v), b.digest_root(v));
      const auto ba = a.digest_buckets(v);
      const auto bb = b.digest_buckets(v);
      for (std::uint32_t c = 0; c < 8; ++c) {
        if (c == bucket) {
          EXPECT_NE(ba[c], bb[c]);
        } else {
          EXPECT_EQ(ba[c], bb[c]);
        }
      }
    } else {
      EXPECT_EQ(a.digest_root(v), b.digest_root(v)) << "vnode " << v;
    }
  }
}

TEST(Digests, MutationsAreReversibleAndConvergent) {
  store::LocalStore a;
  a.enable_digests(kVnodes, 8);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(a.write_latest("k-" + std::to_string(i), "v", 100 + i).ok());
  }
  const std::uint64_t before = a.digest_root(
      static_cast<VnodeId>(ring_hash("scratch") % kVnodes));

  // Insert + delete restores the cell exactly (XOR is its own inverse).
  ASSERT_TRUE(a.write_latest("scratch", "tmp", 500).ok());
  EXPECT_NE(a.digest_root(static_cast<VnodeId>(ring_hash("scratch") %
                                               kVnodes)),
            before);
  ASSERT_TRUE(a.del("scratch").ok());
  EXPECT_EQ(a.digest_root(static_cast<VnodeId>(ring_hash("scratch") %
                                               kVnodes)),
            before);

  // A replica that replays the same pinned-ts write converges to the
  // same digest even though it saw a different history first.
  store::LocalStore b;
  b.enable_digests(kVnodes, 8);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(b.write_latest("k-" + std::to_string(i), "old", 1).ok());
    ASSERT_TRUE(b.write_latest("k-" + std::to_string(i), "v", 100 + i).ok());
  }
  for (VnodeId v = 0; v < kVnodes; ++v) {
    EXPECT_EQ(a.digest_root(v), b.digest_root(v)) << "vnode " << v;
  }
}

TEST(Digests, EnableOnPopulatedStoreMatchesIncrementalMaintenance) {
  store::LocalStore incremental, late;
  incremental.enable_digests(kVnodes, 8);
  for (int i = 0; i < 40; ++i) {
    const std::string key = "k-" + std::to_string(i);
    ASSERT_TRUE(incremental.write_latest(key, "v", 100 + i).ok());
    ASSERT_TRUE(late.write_latest(key, "v", 100 + i).ok());
  }
  late.enable_digests(kVnodes, 8);  // rebuild over existing content
  for (VnodeId v = 0; v < kVnodes; ++v) {
    EXPECT_EQ(incremental.digest_root(v), late.digest_root(v));
  }
}

// ---- Hinted handoff -----------------------------------------------------

TEST(HintedHandoff, TransientCrashHealsWithZeroReads) {
  SednaClusterConfig cfg = base_config();
  cfg.node_template.anti_entropy_interval = 0;  // isolate the hint path
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  const std::string key = "hinted-key";
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key(key);
  ASSERT_EQ(replicas.size(), 3u);
  const std::size_t victim = node_index(cluster, replicas[1]);
  const std::size_t coord = node_index(cluster, replicas[0]);

  cluster.crash_node(victim);
  // W=2 still succeeds; the coordinator queues a hint for the dead
  // replica once its RPC times out.
  ASSERT_TRUE(cluster.write_latest(client, key, "v1").ok());
  cluster.run_for(sim_ms(200));
  EXPECT_EQ(cluster.node(coord).hints_pending(), 1u);
  EXPECT_GE(cluster.node(coord)
                .metrics()
                .counter("coordinator.hints_queued")
                .value(),
            1u);
  EXPECT_EQ(replicas_holding(cluster, key, "v1"), 2u);

  // Stay down past session expiry so the restart registers a fresh
  // ephemeral znode — the signal the replay daemon waits for.
  cluster.run_for(sim_sec(3));
  cluster.restart_node(victim);
  ASSERT_TRUE(cluster.node(victim).ready());
  cluster.run_for(sim_sec(2));

  // No reads were issued; the hint alone restored RF 3.
  EXPECT_EQ(replicas_holding(cluster, key, "v1"), 3u);
  EXPECT_EQ(cluster.node(coord).hints_pending(), 0u);
  EXPECT_GE(cluster.node(coord)
                .metrics()
                .counter("coordinator.hints_delivered")
                .value(),
            1u);
  EXPECT_GE(cluster.node(victim)
                .metrics()
                .counter("replica.hints_received")
                .value(),
            1u);
}

TEST(HintedHandoff, CoalescesRewritesOfTheSameKey) {
  SednaClusterConfig cfg = base_config();
  cfg.node_template.anti_entropy_interval = 0;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  const std::string key = "rewrite-me";
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key(key);
  const std::size_t victim = node_index(cluster, replicas[1]);
  const std::size_t coord = node_index(cluster, replicas[0]);

  cluster.crash_node(victim);
  ASSERT_TRUE(cluster.write_latest(client, key, "v1").ok());
  cluster.run_for(sim_ms(100));
  ASSERT_TRUE(cluster.write_latest(client, key, "v2").ok());
  cluster.run_for(sim_ms(100));
  // One slot, upgraded in place to the newest write.
  EXPECT_EQ(cluster.node(coord).hints_pending(), 1u);

  cluster.run_for(sim_sec(3));
  cluster.restart_node(victim);
  cluster.run_for(sim_sec(2));
  auto got = cluster.node(victim).local_store().read_latest(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v2");
}

// ---- Merkle anti-entropy ------------------------------------------------

TEST(AntiEntropy, ColdKeyConvergesWithZeroReads) {
  SednaClusterConfig cfg = base_config();
  cfg.node_template.hint_max_queued = 0;  // isolate the Merkle path
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  const std::string key = "cold-key";
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key(key);
  ASSERT_EQ(replicas.size(), 3u);

  // Partition the third replica away from the other two (its ZooKeeper
  // session stays alive, so no recovery reassignment fires) and write.
  cluster.network().partition(replicas[2], replicas[0]);
  cluster.network().partition(replicas[2], replicas[1]);
  ASSERT_TRUE(cluster.write_latest(client, key, "cold").ok());
  cluster.run_for(sim_ms(200));
  EXPECT_EQ(replicas_holding(cluster, key, "cold"), 2u);

  cluster.network().heal_all();
  // A handful of anti-entropy rounds: each node sweeps its ~16 replica
  // vnodes at 4 per 500 ms round, so one full sweep takes 2 s.
  cluster.run_for(sim_sec(6));

  EXPECT_EQ(replicas_holding(cluster, key, "cold"), 3u);
  EXPECT_GE(sum_counter(cluster, "antientropy.digest_mismatches"), 1u);
  EXPECT_GE(sum_counter(cluster, "antientropy.keys_pushed") +
                sum_counter(cluster, "antientropy.keys_pulled"),
            1u);
}

TEST(AntiEntropy, RepairedKeySurvivesLosingBothOriginalWriters) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  const std::string key = "survivor";
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key(key);
  ASSERT_EQ(replicas.size(), 3u);
  const std::size_t victim = node_index(cluster, replicas[2]);

  // Write with the third replica down: only two nodes hold the ack'd
  // value.
  cluster.crash_node(victim);
  ASSERT_TRUE(cluster.write_latest(client, key, "precious").ok());
  cluster.run_for(sim_ms(200));
  EXPECT_EQ(replicas_holding(cluster, key, "precious"), 2u);

  // Heal; hint replay (or anti-entropy) restores the third copy.
  cluster.run_for(sim_sec(3));
  cluster.restart_node(victim);
  ASSERT_TRUE(cluster.run_until([&] {
    return replicas_holding(cluster, key, "precious") == 3;
  }));

  // Now lose the two replicas that took the original write. The value
  // survives on the repaired third copy and stays readable.
  cluster.crash_node(node_index(cluster, replicas[0]));
  cluster.crash_node(node_index(cluster, replicas[1]));
  auto got = cluster.read_latest(client, key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "precious");
}

TEST(AntiEntropy, CoversHintsLostToEviction) {
  SednaClusterConfig cfg = base_config();
  cfg.node_template.hint_max_queued = 1;  // force eviction under load
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  cluster.crash_node(3);
  std::vector<std::string> keys;
  for (int i = 0; i < 60; ++i) {
    keys.push_back("evict-" + std::to_string(i));
    ASSERT_TRUE(cluster.write_latest(client, keys.back(), "v").ok());
  }
  cluster.run_for(sim_ms(200));
  // The one-hint cap cannot hold every key routed at the dead node.
  EXPECT_GE(sum_counter(cluster, "coordinator.hints_evicted"), 1u);

  cluster.run_for(sim_sec(3));
  cluster.restart_node(3);
  cluster.run_for(sim_sec(8));

  // Merkle repair backfills what the evicted hints lost: every key is
  // back at full replication without a single read.
  ClusterInspector inspector(cluster);
  EXPECT_EQ(inspector.under_replicated(keys, 3), 0u);
}

TEST(AntiEntropy, CausalSiblingsFromBothSidesOfAPartitionConverge) {
  SednaClusterConfig cfg = base_config();
  cfg.node_template.hint_max_queued = 0;  // isolate the Merkle path
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& left = cluster.make_client();
  auto& right = cluster.make_client();

  const std::string key = "causal-split";
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key(key);
  ASSERT_EQ(replicas.size(), 3u);
  cluster.network().partition(replicas[2], replicas[0]);
  cluster.network().partition(replicas[2], replicas[1]);
  // The right-hand client only reaches replicas[2], which coordinates its
  // put on the last attempt and holds the sibling alone.
  cluster.network().partition(right.id(), replicas[0]);
  cluster.network().partition(right.id(), replicas[1]);

  int settled = 0;
  left.put_causal(key, "left", {},
                  [&](const Status& st, const store::VersionVector&) {
                    EXPECT_TRUE(st.ok());
                    ++settled;
                  });
  right.put_causal(key, "right", {},
                   [&](const Status&, const store::VersionVector&) {
                     ++settled;
                   });
  ASSERT_TRUE(cluster.run_until([&] { return settled == 2; }));
  auto only_right =
      cluster.node(node_index(cluster, replicas[2])).local_store().read_causal(
          key);
  ASSERT_TRUE(only_right.ok());
  ASSERT_EQ(only_right->siblings.size(), 1u);
  EXPECT_EQ(only_right->siblings[0].value, "right");

  cluster.network().heal_all();
  cluster.run_for(sim_sec(6));

  // No reads were issued: anti-entropy alone joined the two records.
  auto first =
      cluster.node(node_index(cluster, replicas[0])).local_store().read_causal(
          key);
  ASSERT_TRUE(first.ok());
  std::vector<std::string> values;
  for (const auto& sib : first->siblings) values.push_back(sib.value);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<std::string>{"left", "right"}));
  for (NodeId r : replicas) {
    auto got = cluster.node(node_index(cluster, r)).local_store().read_causal(
        key);
    ASSERT_TRUE(got.ok()) << "replica " << r;
    EXPECT_EQ(*got, *first) << "replica " << r;
  }
  EXPECT_EQ(sum_counter(cluster, "coordinator.read_repairs"), 0u);
}

TEST(AntiEntropy, CausalRecordAndValueListOnDifferentReplicasConverge) {
  SednaClusterConfig cfg = base_config();
  cfg.node_template.hint_max_queued = 0;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());

  // One replica holds only a causal record of the key, another only a
  // write_all element: each side's digest summary differs in both parts.
  const std::string key = "causal-and-list";
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key(key);
  ASSERT_EQ(replicas.size(), 3u);
  SednaNode& with_record = cluster.node(node_index(cluster, replicas[0]));
  SednaNode& with_list = cluster.node(node_index(cluster, replicas[1]));
  auto record = with_record.local_store().write_causal(
      key, {}, "record", with_record.next_ts(), 0, with_record.id());
  ASSERT_TRUE(record.ok());
  ASSERT_TRUE(with_list.local_store()
                  .write_all(key, with_list.id(), "element",
                             with_list.next_ts())
                  .ok());

  cluster.run_for(sim_sec(6));

  for (NodeId r : replicas) {
    store::LocalStore& store = cluster.node(node_index(cluster, r)).local_store();
    auto causal = store.read_causal(key);
    ASSERT_TRUE(causal.ok()) << "replica " << r;
    EXPECT_EQ(*causal, *record) << "replica " << r;
    auto list = store.read_all(key);
    ASSERT_TRUE(list.ok()) << "replica " << r;
    ASSERT_EQ(list->size(), 1u) << "replica " << r;
    EXPECT_EQ((*list)[0].value, "element") << "replica " << r;
  }
}

// ---- Expiry over repair and transfer -------------------------------------

/// Writes `key` with a TTL and returns once the write is acked.
void write_ttl(SednaCluster& cluster, SednaClient& client,
               const std::string& key, SimDuration ttl = sim_sec(2)) {
  std::optional<Status> st;
  client.write_latest_ttl(key, "short-lived", ttl,
                          [&](const Status& s) { st = s; });
  ASSERT_TRUE(cluster.run_until([&] { return st.has_value(); }));
  ASSERT_TRUE(st->ok());
}

TEST(TtlRepair, HydratedReplicaKeepsTheDeadline) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  const std::string key = "session/hydrated";
  write_ttl(cluster, client, key);
  cluster.run_for(sim_ms(50));
  ASSERT_EQ(replicas_holding(cluster, key, "short-lived"), 3u);

  // No WAL: the restarted replica pulls its vnodes back from the peers.
  const std::size_t victim = node_index(
      cluster, cluster.node(0).metadata().table().replicas_for_key(key)[2]);
  cluster.crash_node(victim);
  cluster.restart_node(victim);
  ASSERT_TRUE(
      cluster.node(victim).local_store().read_latest(key).ok());

  cluster.run_for(sim_sec(3));
  EXPECT_EQ(replicas_holding(cluster, key, "short-lived"), 0u);
}

TEST(TtlRepair, ReadRepairedReplicaKeepsTheDeadline) {
  SednaClusterConfig cfg = base_config();
  cfg.node_template.hint_max_queued = 0;         // isolate read repair
  cfg.node_template.anti_entropy_interval = 0;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  const std::string key = "session/read-repaired";
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key(key);
  cluster.network().partition(replicas[2], replicas[0]);
  cluster.network().partition(replicas[2], replicas[1]);
  write_ttl(cluster, client, key);
  cluster.run_for(sim_ms(50));
  ASSERT_EQ(replicas_holding(cluster, key, "short-lived"), 2u);

  cluster.network().heal_all();
  ASSERT_TRUE(cluster.read_latest(client, key).ok());
  cluster.run_for(sim_ms(200));
  ASSERT_EQ(replicas_holding(cluster, key, "short-lived"), 3u);

  cluster.run_for(sim_sec(3));
  EXPECT_EQ(replicas_holding(cluster, key, "short-lived"), 0u);
}

TEST(TtlRepair, HintedReplicaKeepsTheDeadline) {
  SednaClusterConfig cfg = base_config();
  cfg.node_template.anti_entropy_interval = 0;  // isolate hinted handoff
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  const std::string key = "session/hinted";
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key(key);
  cluster.network().partition(replicas[2], replicas[0]);
  cluster.network().partition(replicas[2], replicas[1]);
  write_ttl(cluster, client, key, sim_sec(5));

  // The hint waits out the partition, then lands well inside the TTL.
  cluster.run_for(sim_sec(3));
  cluster.network().heal_all();
  cluster.run_for(sim_sec(1));
  ASSERT_EQ(replicas_holding(cluster, key, "short-lived"), 3u);
  EXPECT_GE(sum_counter(cluster, "coordinator.hints_delivered"), 1u);

  // The replayed copy must expire with the originals, not a hint delay
  // later.
  cluster.run_for(sim_sec(2));
  EXPECT_EQ(replicas_holding(cluster, key, "short-lived"), 0u);
}

TEST(TtlRepair, AntiEntropyCopyKeepsTheDeadline) {
  SednaClusterConfig cfg = base_config();
  cfg.node_template.hint_max_queued = 0;  // isolate the Merkle path
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  const std::string key = "session/anti-entropy";
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key(key);
  cluster.network().partition(replicas[2], replicas[0]);
  cluster.network().partition(replicas[2], replicas[1]);
  write_ttl(cluster, client, key, sim_sec(5));
  cluster.network().heal_all();
  // One full anti-entropy sweep (2 s) copies the key, well inside its
  // lifetime; the copy must expire with the originals.
  ASSERT_TRUE(cluster.run_until([&] {
    return replicas_holding(cluster, key, "short-lived") == 3;
  }));
  EXPECT_GE(sum_counter(cluster, "antientropy.keys_pushed") +
                sum_counter(cluster, "antientropy.keys_pulled"),
            1u);

  cluster.run_for(sim_sec(6));
  EXPECT_EQ(replicas_holding(cluster, key, "short-lived"), 0u);
}

// ---- Client retry backoff ----------------------------------------------

TEST(ClientBackoff, RetryWaitsAreRecordedAndBounded) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  ASSERT_TRUE(cluster.write_latest(client, "bo", "v").ok());

  const NodeId primary =
      client.metadata().table().replicas_for_key("bo")[0];
  cluster.crash_node(node_index(cluster, primary));

  auto got = cluster.read_latest(client, "bo");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v");

  const auto& hist = client.metrics().histogram("client.retry_backoff_us");
  ASSERT_GE(hist.count(), 1u);
  const auto& ccfg = cluster.config().client_template;
  EXPECT_GE(hist.min(),
            static_cast<std::uint64_t>(
                static_cast<double>(ccfg.retry_backoff_initial_us) *
                (1.0 - ccfg.retry_backoff_jitter)));
  EXPECT_LE(hist.max(),
            static_cast<std::uint64_t>(
                static_cast<double>(ccfg.retry_backoff_max_us) *
                (1.0 + ccfg.retry_backoff_jitter)) +
                1);
}

// ---- Network drop accounting -------------------------------------------

TEST(NetworkMetrics, DropsAreBrokenDownByReason) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  auto& net = cluster.network().metrics();

  // A key replicated on node 0, written while node 0 is down, guarantees
  // at least one replica RPC lands on the crashed node.
  std::string crashed_key;
  for (int i = 0; i < 100 && crashed_key.empty(); ++i) {
    const std::string candidate = "r-" + std::to_string(i);
    const auto replicas =
        cluster.node(0).metadata().table().replicas_for_key(candidate);
    for (NodeId r : replicas) {
      if (r == cluster.node(0).id() && r != replicas[0]) {
        crashed_key = candidate;  // replica but not coordinator
        break;
      }
    }
  }
  ASSERT_FALSE(crashed_key.empty());
  cluster.crash_node(0);
  (void)cluster.write_latest(client, crashed_key, "v");
  cluster.run_for(sim_ms(200));
  EXPECT_GE(net.counter("net.drops.crashed").value(), 1u);

  cluster.run_for(sim_sec(3));  // session expiry before the restart
  cluster.restart_node(0);
  const auto ids = cluster.data_ids();
  cluster.network().partition(ids[1], ids[2]);
  for (int i = 0; i < 20; ++i) {
    (void)cluster.write_latest(client, "p-" + std::to_string(i), "v");
  }
  cluster.network().heal_all();
  EXPECT_GE(net.counter("net.drops.partitioned").value(), 1u);

  cluster.network().set_loss_prob(0.2);
  for (int i = 0; i < 20; ++i) {
    (void)cluster.write_latest(client, "l-" + std::to_string(i), "v");
  }
  cluster.network().set_loss_prob(0.0);
  EXPECT_GE(net.counter("net.drops.loss").value(), 1u);

  // All three reasons surface, labeled, in the cluster metrics dump.
  ClusterInspector inspector(cluster);
  const std::string text = inspector.metrics_text();
  EXPECT_NE(text.find("sedna_net_drops_crashed{node=\"network\"}"),
            std::string::npos);
  EXPECT_NE(text.find("sedna_net_drops_partitioned{node=\"network\"}"),
            std::string::npos);
  EXPECT_NE(text.find("sedna_net_drops_loss{node=\"network\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace sedna::cluster
