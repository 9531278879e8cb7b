// Traffic-aware rebalancer tests: planner policy (hot→coldest-healthy,
// health gating, per-round caps, cooldown hysteresis, strict-improvement
// guard, isolate path), a Zipf-load convergence property, the end-to-end
// multi-phase migration protocol, and a fault-injection suite (source
// crash mid-snapshot, destination crash mid-migration, ZooKeeper
// partition during cutover, writes racing the migration), repeated for a
// join (joiner crash at every offset, traffic racing the join).
//
// The safety invariant every fault test asserts: an acked write stays
// readable at quorum after recovery, ownership never forks (no vnode
// with two believed owners once views settle), and an aborted migration
// never deletes data it is not provably allowed to delete.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/monitor.h"
#include "cluster/rebalancer.h"
#include "cluster/sedna_cluster.h"
#include "ring/imbalance.h"
#include "ring/rebalancer.h"
#include "ring/vnode_table.h"

namespace sedna::cluster {
namespace {

// ---- planner fixtures ---------------------------------------------------

ring::VnodeTable make_ring(std::uint32_t vnodes,
                           const std::vector<NodeId>& nodes) {
  ring::VnodeTable table(vnodes, 3);
  for (std::uint32_t v = 0; v < vnodes; ++v) {
    table.assign(v, nodes[v % nodes.size()]);
  }
  return table;
}

/// Builds the cluster-wide imbalance table a leader would assemble, given
/// per-vnode read traffic attributed to each vnode's current ring owner.
ring::ImbalanceTable table_from(
    const ring::VnodeTable& ring,
    const std::map<VnodeId, std::uint64_t>& traffic) {
  std::map<NodeId, ring::RealNodeLoad> rows;
  for (NodeId n : ring.nodes()) rows[n].node = n;
  for (const auto& [v, t] : traffic) {
    auto& row = rows[ring.owner(v)];
    row.reads += t;
    row.vnodes.push_back(ring::VnodeLoadRow{v, 0, t, 0, 0});
  }
  ring::ImbalanceTable out;
  for (const auto& [n, row] : rows) out.update(row);
  return out;
}

TrafficRebalancer::HealthFn all_healthy() {
  return [](NodeId) { return HealthState::kHealthy; };
}

// ---- planner policy -----------------------------------------------------

TEST(RebalancePlanner, MovesHottestVnodeToColdestHealthyNode) {
  const std::vector<NodeId> nodes = {1, 2, 3, 4};
  const auto ring = make_ring(8, nodes);  // v0,v4→1; v1,v5→2; ...
  const std::map<VnodeId, std::uint64_t> traffic = {
      {0, 600}, {4, 400}, {1, 100}, {2, 100}, {3, 100}};
  TrafficRebalancer reb;

  const auto moves =
      reb.plan(table_from(ring, traffic), ring, nodes, all_healthy(), 0);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].vnode, 0u);   // the hottest slice
  EXPECT_EQ(moves[0].from, 1u);    // off the hottest node
  EXPECT_EQ(moves[0].to, 2u);      // to the coldest (lowest-id tie-break)
  EXPECT_EQ(moves[0].reason, MigrationReason::kOffload);
  EXPECT_GT(reb.last_cv(), reb.config().cv_trigger);
}

TEST(RebalancePlanner, NeverTargetsUnhealthyNodes) {
  const std::vector<NodeId> nodes = {1, 2, 3, 4};
  const auto ring = make_ring(8, nodes);
  const std::map<VnodeId, std::uint64_t> traffic = {
      {0, 600}, {4, 400}, {1, 100}, {2, 100}, {3, 100}};
  TrafficRebalancer reb;

  // Node 2 would win on coldness, but it is degraded; node 3 is suspect.
  const auto health = [](NodeId n) {
    if (n == 2) return HealthState::kDegraded;
    if (n == 3) return HealthState::kSuspect;
    return HealthState::kHealthy;
  };
  const auto moves =
      reb.plan(table_from(ring, traffic), ring, nodes, health, 0);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].to, 4u);  // the only healthy candidate

  // With every other node unhealthy there is nowhere safe to migrate:
  // the planner must do nothing rather than dump load on a sick node.
  TrafficRebalancer reb2;
  const auto none = reb2.plan(table_from(ring, traffic), ring, nodes,
                              [](NodeId n) {
                                return n == 1 ? HealthState::kHealthy
                                              : HealthState::kDead;
                              },
                              0);
  EXPECT_TRUE(none.empty());
}

TEST(RebalancePlanner, RespectsPerRoundMoveCap) {
  const std::vector<NodeId> nodes = {1, 2, 3, 4};
  const auto ring = make_ring(12, nodes);  // node 1 owns v0, v4, v8
  const std::map<VnodeId, std::uint64_t> traffic = {
      {0, 300}, {4, 300}, {8, 300}, {1, 50}, {2, 50}, {3, 50}};

  TrafficRebalancerConfig one;
  one.max_moves_per_round = 1;
  TrafficRebalancer capped(one);
  EXPECT_EQ(capped
                .plan(table_from(ring, traffic), ring, nodes, all_healthy(),
                      0)
                .size(),
            1u);

  TrafficRebalancer def;  // default cap is 2
  EXPECT_EQ(
      def.plan(table_from(ring, traffic), ring, nodes, all_healthy(), 0)
          .size(),
      2u);
}

TEST(RebalancePlanner, CooldownPinsARecentlyMovedVnode) {
  const std::vector<NodeId> nodes = {1, 2, 3, 4};
  const auto ring = make_ring(8, nodes);
  // Node 2 is hot through v1 and v5 in equal parts (neither dominates,
  // so the isolate streak stays out of the picture); everyone else idles.
  const std::map<VnodeId, std::uint64_t> traffic = {
      {0, 100}, {1, 300}, {5, 300}, {2, 100}, {3, 100}};
  TrafficRebalancer reb;

  const auto first =
      reb.plan(table_from(ring, traffic), ring, nodes, all_healthy(), 0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].vnode, 1u);  // hottest slice moves first

  // Same (stale) telemetry one second later: v1 is pinned by its
  // cooldown, so the planner falls through to the next slice instead of
  // bouncing the same vnode again.
  const auto second = reb.plan(table_from(ring, traffic), ring, nodes,
                               all_healthy(), sim_sec(1));
  for (const MigrationPlan& m : second) EXPECT_NE(m.vnode, 1u);

  // After the cooldown expires the slice is movable again.
  const auto third = reb.plan(table_from(ring, traffic), ring, nodes,
                              all_healthy(), sim_sec(31));
  ASSERT_FALSE(third.empty());
  EXPECT_EQ(third[0].vnode, 1u);
}

TEST(RebalancePlanner, BalancedClusterIsANoOp) {
  const std::vector<NodeId> nodes = {1, 2, 3, 4};
  const auto ring = make_ring(8, nodes);
  const std::map<VnodeId, std::uint64_t> traffic = {
      {0, 100}, {1, 100}, {2, 100}, {3, 100}};
  TrafficRebalancer reb;
  EXPECT_TRUE(
      reb.plan(table_from(ring, traffic), ring, nodes, all_healthy(), 0)
          .empty());
  EXPECT_LT(reb.last_cv(), reb.config().cv_trigger);

  // Zero traffic everywhere is equally a no-op (no NaN CV, no moves).
  TrafficRebalancer reb2;
  EXPECT_TRUE(
      reb2.plan(table_from(ring, {}), ring, nodes, all_healthy(), 0)
          .empty());
  EXPECT_EQ(reb2.last_cv(), 0.0);
}

TEST(RebalancePlanner, StrictImprovementGuardRefusesPureRelocation) {
  // One slice carries all the traffic: moving it would only relocate the
  // hot spot (and seed a ping-pong), so the planner must hold still even
  // though the CV is maximal.
  const std::vector<NodeId> nodes = {1, 2};
  const auto ring = make_ring(4, nodes);
  const std::map<VnodeId, std::uint64_t> traffic = {{0, 1000}};
  TrafficRebalancer reb;
  EXPECT_TRUE(
      reb.plan(table_from(ring, traffic), ring, nodes, all_healthy(), 0)
          .empty());
  EXPECT_GT(reb.last_cv(), reb.config().cv_trigger);
}

TEST(RebalancePlanner, PersistentlyDominantVnodeFlipsToIsolatePath) {
  const std::vector<NodeId> nodes = {1, 2, 3, 4};
  const auto ring = make_ring(12, nodes);  // node 1 owns v0, v4, v8
  // v0 dominates node 1 (900 of 1000): no single move of v0 can help
  // (the guard refuses it), so after split_streak rounds the planner
  // sheds the *other* slices to dedicate node 1 to the star.
  const std::map<VnodeId, std::uint64_t> traffic = {
      {0, 900}, {4, 50}, {8, 50}, {1, 100}, {2, 100}, {3, 100}};
  TrafficRebalancerConfig cfg;
  cfg.vnode_cooldown = 0;  // isolate the streak logic from cooldowns
  TrafficRebalancer reb(cfg);

  for (std::uint32_t round = 1; round <= cfg.split_streak; ++round) {
    const auto moves = reb.plan(table_from(ring, traffic), ring, nodes,
                                all_healthy(), round * sim_sec(1));
    ASSERT_FALSE(moves.empty()) << "round " << round;
    const bool isolating = round >= cfg.split_streak;
    for (const MigrationPlan& m : moves) {
      EXPECT_NE(m.vnode, 0u) << "the star slice must never move";
      EXPECT_EQ(m.reason, isolating ? MigrationReason::kIsolate
                                    : MigrationReason::kOffload)
          << "round " << round;
    }
  }
}

// ---- convergence property ----------------------------------------------

TEST(RebalanceConvergence, ZipfLoadCvStrictlyDecreasesToAFixedPoint) {
  constexpr std::uint32_t kVnodes = 64;
  const std::vector<NodeId> nodes = {1, 2, 3, 4, 5, 6, 7, 8};
  ring::VnodeTable ring = make_ring(kVnodes, nodes);
  // Zipf-ish per-vnode traffic (exponent 1): a heavy head over a long
  // tail, the paper's hot-data scenario.
  std::map<VnodeId, std::uint64_t> traffic;
  for (std::uint32_t v = 0; v < kVnodes; ++v) {
    traffic[v] = 100000 / (v + 1);
  }

  TrafficRebalancerConfig cfg;
  cfg.vnode_cooldown = 0;
  cfg.max_moves_per_round = 4;
  TrafficRebalancer reb(cfg);

  constexpr int kMaxRounds = 64;
  std::vector<double> cv_history;
  int fixed_point_round = -1;
  for (int round = 0; round < kMaxRounds; ++round) {
    const auto moves =
        reb.plan(table_from(ring, traffic), ring, nodes, all_healthy(),
                 static_cast<SimTime>(round) * sim_sec(1));
    cv_history.push_back(reb.last_cv());
    if (round > 0) {
      // Every round that planned moves must have strictly reduced the CV
      // observed by the next round (same total, smaller variance).
      EXPECT_LE(cv_history[round], cv_history[round - 1])
          << "CV regressed at round " << round;
    }
    if (moves.empty()) {
      fixed_point_round = round;
      break;
    }
    EXPECT_LT(cv_history.back(), cv_history.front() + 1e-9);
    for (const MigrationPlan& m : moves) {
      ASSERT_EQ(ring.owner(m.vnode), m.from);
      ring.assign(m.vnode, m.to);
    }
  }
  ASSERT_GE(fixed_point_round, 1) << "never reached a fixed point";
  EXPECT_LT(cv_history.back(), cv_history.front());

  // The fixed point is stable: re-planning from it never oscillates.
  for (int extra = 0; extra < 3; ++extra) {
    const auto again = reb.plan(
        table_from(ring, traffic), ring, nodes, all_healthy(),
        static_cast<SimTime>(fixed_point_round + 1 + extra) * sim_sec(1));
    EXPECT_TRUE(again.empty()) << "ping-pong after the fixed point";
    EXPECT_DOUBLE_EQ(reb.last_cv(), cv_history.back());
  }
}

// ---- end-to-end migration protocol --------------------------------------

SednaClusterConfig migration_config(std::uint64_t seed = 2012) {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 4;
  cfg.cluster.total_vnodes = 32;
  cfg.seed = seed;
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

struct MigrationPick {
  VnodeId vnode = kInvalidVnode;
  NodeId from = kInvalidNode;
  std::size_t from_idx = SIZE_MAX;
  NodeId dst = kInvalidNode;
  std::size_t dst_idx = SIZE_MAX;
};

/// A (vnode, destination) pair where the destination is outside the
/// vnode's current replica set — a genuine data migration, not a copy
/// promotion.
MigrationPick pick_migration(SednaCluster& cluster) {
  const ring::VnodeTable table = cluster.node(0).metadata().table();
  for (VnodeId v = 0; v < table.total_vnodes(); ++v) {
    const auto reps = table.replicas_for_vnode(v);
    for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
      const NodeId cand = cluster.node(i).id();
      if (std::find(reps.begin(), reps.end(), cand) != reps.end()) continue;
      MigrationPick p;
      p.vnode = v;
      p.from = table.owner(v);
      p.from_idx = node_index(cluster, p.from);
      p.dst = cand;
      p.dst_idx = i;
      return p;
    }
  }
  ADD_FAILURE() << "no migratable (vnode, destination) pair";
  return {};
}

/// Writes `count` keys that hash into `vnode`; returns key → acked value.
std::map<std::string, std::string> write_vnode_keys(
    SednaCluster& cluster, SednaClient& client,
    const ring::VnodeTable& table, VnodeId vnode, std::size_t count,
    const std::string& tag) {
  std::map<std::string, std::string> acked;
  for (int i = 0; acked.size() < count && i < 200000; ++i) {
    const std::string key = tag + "-" + std::to_string(i);
    if (table.vnode_for_key(key) != vnode) continue;
    const std::string value = "val-" + std::to_string(i);
    if (cluster.write_latest(client, key, value).ok()) acked[key] = value;
  }
  EXPECT_EQ(acked.size(), count);
  return acked;
}

void expect_all_readable(SednaCluster& cluster, SednaClient& client,
                         const std::map<std::string, std::string>& acked,
                         const char* when) {
  for (const auto& [key, value] : acked) {
    auto got = cluster.read_latest(client, key);
    ASSERT_TRUE(got.ok()) << when << ": lost acked key " << key;
    EXPECT_EQ(got->value, value) << when << ": wrong value for " << key;
  }
}

/// Once views settle, every live node must agree on the vnode's owner —
/// the "no double owner" half of the migration safety invariant.
void expect_single_owner(SednaCluster& cluster, VnodeId vnode,
                         NodeId owner) {
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    if (!cluster.node(i).alive()) continue;
    EXPECT_EQ(cluster.node(i).metadata().table().owner(vnode), owner)
        << "node " << cluster.node(i).id() << " disagrees on the owner";
  }
}

TEST(Migration, EndToEndMoveCommitsAndKeepsEveryAckedWriteReadable) {
  SednaCluster cluster(migration_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  const MigrationPick pick = pick_migration(cluster);
  const auto acked = write_vnode_keys(
      cluster, client, cluster.node(0).metadata().table(), pick.vnode, 20,
      "mig");

  std::optional<MigrateVnodeReply> out;
  cluster.node(pick.dst_idx)
      .begin_migration(pick.vnode, pick.from,
                       [&](const MigrateVnodeReply& rep) { out = rep; });
  ASSERT_TRUE(cluster.run_until([&] { return out.has_value(); }));
  EXPECT_EQ(out->status, StatusCode::kOk);
  EXPECT_GT(out->bytes, 0u);
  EXPECT_EQ(cluster.node(pick.dst_idx).migrations_active(), 0u);

  // The destination committed the cutover; the journal propagates it to
  // everyone else within a couple of lease periods.
  EXPECT_EQ(cluster.node(pick.dst_idx).metadata().table().owner(pick.vnode),
            pick.dst);
  cluster.run_for(sim_sec(3));
  expect_single_owner(cluster, pick.vnode, pick.dst);
  expect_all_readable(cluster, client, acked, "after migration");

  auto& dst_metrics = cluster.node(pick.dst_idx).metrics();
  EXPECT_EQ(dst_metrics.counter("rebalance.migrations_completed").value(),
            1u);
  EXPECT_GE(dst_metrics.counter("rebalance.bytes_moved").value(),
            out->bytes);
  EXPECT_EQ(dst_metrics.histogram("rebalance.cutover_latency_us").count(),
            1u);
}

TEST(Migration, StalePlanIsRefusedAndThePulledCopyDropped) {
  SednaCluster cluster(migration_config(31));
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  const MigrationPick pick = pick_migration(cluster);
  const auto acked = write_vnode_keys(
      cluster, client, cluster.node(0).metadata().table(), pick.vnode, 10,
      "stale");

  // Name a replica that holds the data but is NOT the registered owner:
  // the snapshot succeeds, the cutover pre-check must refuse.
  const auto reps =
      cluster.node(0).metadata().table().replicas_for_vnode(pick.vnode);
  ASSERT_GE(reps.size(), 2u);
  const NodeId wrong_from = reps[1];

  std::optional<MigrateVnodeReply> out;
  cluster.node(pick.dst_idx)
      .begin_migration(pick.vnode, wrong_from,
                       [&](const MigrateVnodeReply& rep) { out = rep; });
  ASSERT_TRUE(cluster.run_until([&] { return out.has_value(); }));
  EXPECT_EQ(out->status, StatusCode::kRefused);

  // Ownership untouched, and the destination dropped the copy it pulled
  // under the stale plan (it is not in the replica set).
  expect_single_owner(cluster, pick.vnode, pick.from);
  for (const auto& [key, value] : acked) {
    EXPECT_FALSE(cluster.node(pick.dst_idx)
                     .local_store()
                     .read_latest(key)
                     .ok())
        << "stale-plan copy of " << key << " was kept";
  }
  expect_all_readable(cluster, client, acked, "after refused migration");
}

// ---- fault injection ----------------------------------------------------

TEST(MigrationFaults, SourceCrashMidSnapshotAbortsWithoutOwnershipChange) {
  SednaCluster cluster(migration_config(41));
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  const MigrationPick pick = pick_migration(cluster);
  const auto acked = write_vnode_keys(
      cluster, client, cluster.node(0).metadata().table(), pick.vnode, 20,
      "srccrash");

  cluster.crash_node(pick.from_idx);
  std::optional<MigrateVnodeReply> out;
  cluster.node(pick.dst_idx)
      .begin_migration(pick.vnode, pick.from,
                       [&](const MigrateVnodeReply& rep) { out = rep; });
  ASSERT_TRUE(cluster.run_until([&] { return out.has_value(); }));
  EXPECT_EQ(out->status, StatusCode::kUnavailable);
  EXPECT_EQ(cluster.node(pick.dst_idx).migrations_active(), 0u);
  EXPECT_EQ(cluster.node(pick.dst_idx)
                .metrics()
                .counter("rebalance.migrations_aborted")
                .value(),
            1u);

  // The vnode still belongs to the (dead) source: an aborted migration
  // must not have clobbered the registered owner.
  EXPECT_EQ(cluster.node(pick.dst_idx).metadata().table().owner(pick.vnode),
            pick.from);

  // After the source returns, every acked write is readable at quorum
  // (its RAM store died; the surviving replicas repair it).
  cluster.run_for(sim_sec(3));
  cluster.restart_node(pick.from_idx);
  ASSERT_TRUE(cluster.node(pick.from_idx).ready());
  cluster.run_for(sim_sec(2));
  expect_all_readable(cluster, client, acked, "after source recovery");
}

TEST(MigrationFaults, DestinationCrashMidMigrationLeavesSourceAsOwner) {
  SednaCluster cluster(migration_config(42));
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  const MigrationPick pick = pick_migration(cluster);
  const auto acked = write_vnode_keys(
      cluster, client, cluster.node(0).metadata().table(), pick.vnode, 20,
      "dstcrash");

  bool done = false;
  cluster.node(pick.dst_idx)
      .begin_migration(pick.vnode, pick.from,
                       [&](const MigrateVnodeReply&) { done = true; });
  // The destination is mid-protocol the instant the source has served the
  // snapshot: kill it there, before any cutover can happen.
  ASSERT_TRUE(cluster.run_until([&] {
    return cluster.node(pick.from_idx)
               .metrics()
               .counter("transfer.vnodes_served")
               .value() >= 1;
  }));
  ASSERT_FALSE(done);
  EXPECT_EQ(cluster.node(pick.dst_idx).migrations_active(), 1u);
  cluster.crash_node(pick.dst_idx);
  EXPECT_EQ(cluster.node(pick.dst_idx).migrations_active(), 0u);

  cluster.run_for(sim_sec(1));
  // The crash happened before the CAS: the source remains the owner on
  // every surviving view, and the acked data never left the replica set.
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    if (!cluster.node(i).alive()) continue;
    EXPECT_EQ(cluster.node(i).metadata().table().owner(pick.vnode),
              pick.from);
  }
  expect_all_readable(cluster, client, acked, "destination down");

  cluster.run_for(sim_sec(3));
  cluster.restart_node(pick.dst_idx);
  cluster.run_for(sim_sec(1));
  expect_single_owner(cluster, pick.vnode, pick.from);
  expect_all_readable(cluster, client, acked, "after destination recovery");
}

TEST(MigrationFaults, ZkPartitionAtCutoverKeepsDataAndRetryCommits) {
  SednaCluster cluster(migration_config(43));
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  const MigrationPick pick = pick_migration(cluster);
  const auto acked = write_vnode_keys(
      cluster, client, cluster.node(0).metadata().table(), pick.vnode, 15,
      "zkpart");

  // Cut the destination off from the whole ensemble: the node-to-node
  // snapshot and catch-up phases succeed, the cutover CAS cannot.
  for (NodeId z : cluster.zk_ids()) {
    cluster.network().partition(pick.dst, z);
  }
  std::optional<MigrateVnodeReply> out;
  cluster.node(pick.dst_idx)
      .begin_migration(pick.vnode, pick.from,
                       [&](const MigrateVnodeReply& rep) { out = rep; });
  ASSERT_TRUE(cluster.run_until([&] { return out.has_value(); }));
  EXPECT_EQ(out->status, StatusCode::kUnavailable);

  // The CAS outcome was UNKNOWN from the destination's point of view, so
  // it must keep the pulled copy: purging on ambiguity could orphan acked
  // writes if the CAS had in fact committed.
  std::size_t held = 0;
  for (const auto& [key, value] : acked) {
    auto got = cluster.node(pick.dst_idx).local_store().read_latest(key);
    if (got.ok() && got->value == value) ++held;
  }
  EXPECT_EQ(held, acked.size()) << "aborted cutover dropped pulled data";
  EXPECT_EQ(cluster.node(pick.from_idx).metadata().table().owner(pick.vnode),
            pick.from);

  // Heal and retry: the second attempt commits (catch-up is a cheap
  // digest match now) and the cluster converges on the new owner.
  cluster.network().heal_all();
  cluster.run_for(sim_sec(1));
  out.reset();
  cluster.node(pick.dst_idx)
      .begin_migration(pick.vnode, pick.from,
                       [&](const MigrateVnodeReply& rep) { out = rep; });
  ASSERT_TRUE(cluster.run_until([&] { return out.has_value(); }));
  EXPECT_EQ(out->status, StatusCode::kOk);
  cluster.run_for(sim_sec(3));
  expect_single_owner(cluster, pick.vnode, pick.dst);
  expect_all_readable(cluster, client, acked, "after healed retry");
}

TEST(MigrationFaults, WritesRacingTheMigrationAllSurvive) {
  SednaCluster cluster(migration_config(44));
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  const MigrationPick pick = pick_migration(cluster);
  const ring::VnodeTable table = cluster.node(0).metadata().table();

  // Pre-collect 40 keys of the migrating vnode; write the first 10 up
  // front, the rest (plus overwrites of the first ones) while the
  // migration is in flight.
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 40 && i < 400000; ++i) {
    const std::string key = "race-" + std::to_string(i);
    if (table.vnode_for_key(key) == pick.vnode) keys.push_back(key);
  }
  ASSERT_EQ(keys.size(), 40u);

  std::map<std::string, std::string> acked;
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.write_latest(client, keys[i], "before").ok());
    acked[keys[i]] = "before";
  }

  std::optional<MigrateVnodeReply> out;
  cluster.node(pick.dst_idx)
      .begin_migration(pick.vnode, pick.from,
                       [&](const MigrateVnodeReply& rep) { out = rep; });
  // Each synchronous write steps the event loop, interleaving client
  // traffic with the migration's snapshot / catch-up / cutover phases.
  for (std::size_t i = 10; i < keys.size(); ++i) {
    if (cluster.write_latest(client, keys[i], "during").ok()) {
      acked[keys[i]] = "during";
    }
  }
  for (std::size_t i = 0; i < 10; ++i) {
    if (cluster.write_latest(client, keys[i], "rewrite").ok()) {
      acked[keys[i]] = "rewrite";
    }
  }
  ASSERT_TRUE(cluster.run_until([&] { return out.has_value(); }));
  EXPECT_EQ(out->status, StatusCode::kOk);

  // Views settle (journal sync + a few anti-entropy rounds), then the
  // invariant: every acked write is readable with its last acked value.
  cluster.run_for(sim_sec(6));
  expect_single_owner(cluster, pick.vnode, pick.dst);
  ASSERT_GE(acked.size(), 40u);
  expect_all_readable(cluster, client, acked, "after racing writes");
}

// ---- join through the migration protocol --------------------------------

/// A data node started outside the harness, so a test can crash it or race
/// traffic against it mid-join (join_new_node runs the join to the end).
std::unique_ptr<SednaNode> make_joiner(SednaCluster& cluster) {
  SednaNodeConfig cfg = cluster.config().node_template;
  cfg.zk_ensemble = cluster.zk_ids();
  const NodeId id = static_cast<NodeId>(100 + cluster.data_node_count());
  return std::make_unique<SednaNode>(cluster.network(), id, cfg);
}

TEST(JoinFaults, JoinerCrashAtAnyOffsetLosesNoAckedWrite) {
  // A join on this ring takes a few ms of sim time. Sweep the crash
  // through it, from before the ZooKeeper session opens to after ready.
  std::size_t no_claims = 0, some_claims = 0, joined = 0;
  for (SimDuration offset = 0; offset <= sim_ms(6); offset += sim_us(100)) {
    SCOPED_TRACE("crash " + std::to_string(offset) + " us into the join");
    SednaCluster cluster(migration_config(51));
    ASSERT_TRUE(cluster.boot().ok());
    auto& client = cluster.make_client();
    std::map<std::string, std::string> acked;
    for (int i = 0; i < 64; ++i) {
      const std::string key = "jc-" + std::to_string(i);
      ASSERT_TRUE(cluster.write_latest(client, key, "v").ok());
      acked[key] = "v";
    }

    auto joiner = make_joiner(cluster);
    bool ready = false;
    joiner->start_and_join([&](const Status&) { ready = true; });
    cluster.run_for(offset);
    const auto claimed =
        joiner->metrics().counter("join.vnodes_claimed").value();
    if (ready) {
      ++joined;
    } else if (claimed == 0) {
      ++no_claims;
    } else {
      ++some_claims;
    }
    joiner->crash();
    cluster.run_for(sim_sec(1));
    expect_all_readable(cluster, client, acked, "joiner down");

    joiner->restart();
    std::optional<Status> back;
    joiner->start([&](const Status& st) { back = st; });
    ASSERT_TRUE(cluster.run_until([&] { return back.has_value(); }));
    ASSERT_TRUE(back->ok());
    cluster.run_for(sim_sec(1));
    expect_all_readable(cluster, client, acked, "after joiner restart");

    // Reads against the restarting joiner may have moved its vnodes on
    // through recovery; give the journal a full lease period to spread
    // that, then the cluster's nodes must agree on every owner. The
    // joiner's own view is left out: a crash while its cutover CAS is in
    // flight can commit the CAS with no journal entry (ROADMAP item 5).
    cluster.run_for(sim_sec(10));
    const ring::VnodeTable table = cluster.node(0).metadata().table();
    for (VnodeId v = 0; v < table.total_vnodes(); ++v) {
      expect_single_owner(cluster, v, table.owner(v));
    }
  }
  // The sweep really spans the join.
  EXPECT_GT(no_claims, 0u);
  EXPECT_GT(some_claims, 0u);
  EXPECT_GT(joined, 0u);
}

TEST(JoinFaults, ReadsAndWritesRacingTheJoinSeeNoStaleOrLostValue) {
  SednaCluster cluster(migration_config(52));
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  auto joiner = make_joiner(cluster);
  const ring::VnodeTable before = cluster.node(0).metadata().table();

  // Three keys on every vnode the joiner will steal, plus keys that stay.
  const auto moves = ring::Rebalancer::plan_join(before, joiner->id());
  ASSERT_FALSE(moves.empty());
  std::vector<std::string> keys;
  for (const ring::VnodeMove& move : moves) {
    int found = 0;
    for (int i = 0; found < 3 && i < 100000; ++i) {
      const std::string key = "jr-" + std::to_string(i);
      if (before.vnode_for_key(key) != move.vnode) continue;
      keys.push_back(key);
      ++found;
    }
  }
  for (int i = 0; i < 8; ++i) keys.push_back("stay-" + std::to_string(i));

  // Values are per-key sequence numbers; one write per key in flight, so
  // a later acked sequence always carries the later timestamp.
  std::map<std::string, int> acked, issued;
  std::set<std::string> writing;
  for (const auto& key : keys) {
    ASSERT_TRUE(cluster.write_latest(client, key, "0").ok());
    acked[key] = issued[key] = 0;
  }

  bool ready = false;
  joiner->start_and_join([&](const Status&) { ready = true; });
  std::size_t reads = 0, stale = 0, failed = 0, writes = 0;
  for (std::size_t tick = 0; !ready; ++tick) {
    ASSERT_LT(tick, 20000u) << "join never completed";
    const std::string wkey = keys[tick % keys.size()];
    if (!writing.contains(wkey)) {
      writing.insert(wkey);
      const int seq = ++issued[wkey];
      client.write_latest(wkey, std::to_string(seq),
                          [&, wkey, seq](const Status& st) {
                            writing.erase(wkey);
                            if (st.ok()) {
                              acked[wkey] = std::max(acked[wkey], seq);
                              ++writes;
                            }
                          });
    }
    // The floor is what was acked when the read was issued.
    const std::string rkey = keys[(tick * 7 + 3) % keys.size()];
    const int floor = acked[rkey];
    client.read_latest(rkey, [&, rkey, floor](
                                 const Result<store::VersionedValue>& got) {
      if (got.ok() && std::stoi(got->value) >= floor) {
        ++reads;
        return;
      }
      if (!got.ok() && !got.status().is(StatusCode::kNotFound)) {
        ++failed;
        return;
      }
      ++stale;
      ADD_FAILURE() << rkey << " read " << (got.ok() ? got->value : "nothing")
                    << " after sequence " << floor << " was acked";
    });
    cluster.run_for(sim_us(50));
  }
  cluster.run_for(sim_sec(1));  // in-flight operations settle
  EXPECT_EQ(stale, 0u);
  EXPECT_EQ(failed, 0u);
  EXPECT_GT(reads, 20u);
  EXPECT_GT(writes, 20u);
  EXPECT_TRUE(writing.empty());

  // The join moved every planned vnode, and no acked write was lost.
  EXPECT_EQ(joiner->metrics().counter("join.vnodes_claimed").value(),
            moves.size());
  cluster.run_for(sim_sec(2));
  for (const ring::VnodeMove& move : moves) {
    expect_single_owner(cluster, move.vnode, joiner->id());
  }
  for (const auto& key : keys) {
    auto got = cluster.read_latest(client, key);
    ASSERT_TRUE(got.ok()) << "lost acked key " << key;
    EXPECT_GE(std::stoi(got->value), acked[key]) << key;
  }
}

// ---- leader-driven convergence ------------------------------------------

double owner_count_cv(const ring::VnodeTable& table,
                      const std::vector<NodeId>& nodes) {
  const auto counts = table.counts();
  double mean = 0.0;
  for (NodeId n : nodes) {
    const auto it = counts.find(n);
    mean += it == counts.end() ? 0.0 : static_cast<double>(it->second);
  }
  mean /= static_cast<double>(nodes.size());
  double var = 0.0;
  for (NodeId n : nodes) {
    const auto it = counts.find(n);
    const double c = it == counts.end() ? 0.0 : it->second;
    var += (c - mean) * (c - mean);
  }
  var /= static_cast<double>(nodes.size());
  return mean == 0.0 ? 0.0 : std::sqrt(var) / mean;
}

SednaClusterConfig leader_config(std::uint64_t seed) {
  SednaClusterConfig cfg = migration_config(seed);
  // Skewed boot: nodes 100/101 own every vnode; 102/103 start idle.
  cfg.initial_owners = {100, 101};
  cfg.node_template.load_report_interval = sim_ms(500);
  cfg.node_template.traffic_rebalance_interval = sim_sec(2);
  cfg.node_template.traffic_rebalance.cv_trigger = 0.2;
  cfg.node_template.traffic_rebalance.vnode_cooldown = sim_sec(5);
  return cfg;
}

TEST(RebalancerE2E, LeaderSpreadsASkewedClusterUnderLoad) {
  SednaCluster cluster(leader_config(77));
  ASSERT_TRUE(cluster.boot().ok());
  cluster.enable_monitor();
  auto& client = cluster.make_client();
  const std::vector<NodeId> ids = cluster.data_ids();

  const double cv_before =
      owner_count_cv(cluster.node(0).metadata().table(), ids);
  EXPECT_GT(cv_before, 0.9);  // two nodes own everything

  // Sustained uniform traffic: per-node load mirrors the ownership skew,
  // so the telemetry loop has something real to fix.
  std::map<std::string, std::string> acked;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 120; ++i) {
      const std::string key = "lk-" + std::to_string(i);
      const std::string value = "r" + std::to_string(round);
      if (cluster.write_latest(client, key, value).ok()) acked[key] = value;
      if (i % 3 == 0) (void)cluster.read_latest(client, key);
    }
    cluster.run_for(sim_ms(500));
  }
  cluster.run_for(sim_sec(3));

  std::uint64_t completed = 0, rounds = 0;
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    completed += cluster.node(i)
                     .metrics()
                     .counter("rebalance.migrations_completed")
                     .value();
    rounds += cluster.node(i)
                  .metrics()
                  .counter("rebalance.traffic_rounds")
                  .value();
  }
  EXPECT_GE(rounds, 1u);
  EXPECT_GE(completed, 1u);

  // Ownership spread out: the idle nodes picked up slices and the
  // count CV strictly improved.
  const ring::VnodeTable after = cluster.node(0).metadata().table();
  const double cv_after = owner_count_cv(after, ids);
  EXPECT_LT(cv_after, cv_before);
  const auto counts = after.counts();
  EXPECT_GE(counts.count(102) + counts.count(103), 1u);

  // Safety survived the shuffling: every acked write still reads back.
  expect_all_readable(cluster, client, acked, "after leader rebalancing");

  // The monitor saw the migrations and nothing got stuck.
  auto* mon = cluster.monitor();
  ASSERT_NE(mon, nullptr);
  const auto& names = mon->recorder().series_names();
  const auto it = std::find(names.begin(), names.end(), "migrations_done");
  ASSERT_NE(it, names.end());
  const std::size_t idx =
      static_cast<std::size_t>(it - names.begin());
  ASSERT_GT(mon->recorder().size(), 0u);
  EXPECT_GE(mon->recorder().value_at(mon->recorder().size() - 1, idx),
            static_cast<double>(completed));
  EXPECT_NE(mon->alerts().state("stuck-migration"), AlertState::kFiring);
}

// ---- determinism --------------------------------------------------------

std::string run_rebalance_scenario(std::uint64_t seed) {
  SednaCluster cluster(leader_config(seed));
  EXPECT_TRUE(cluster.boot().ok());
  cluster.enable_monitor();
  auto& client = cluster.make_client();
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 80; ++i) {
      (void)cluster.write_latest(client, "det-" + std::to_string(i),
                                 "r" + std::to_string(round));
    }
    cluster.run_for(sim_ms(500));
  }
  cluster.run_for(sim_sec(2));

  std::string out;
  out += "time=" + std::to_string(cluster.sim().now());
  out += " msgs=" + std::to_string(cluster.network().messages_sent());
  out += " bytes=" + std::to_string(cluster.network().bytes_sent());
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    auto& node = cluster.node(i);
    out += "\nnode=" + std::to_string(node.id());
    out += " started=" +
           std::to_string(
               node.metrics().counter("rebalance.migrations_started").value());
    out += " completed=" +
           std::to_string(node.metrics()
                              .counter("rebalance.migrations_completed")
                              .value());
    out += " aborted=" +
           std::to_string(
               node.metrics().counter("rebalance.migrations_aborted").value());
    out += " bytes_moved=" +
           std::to_string(
               node.metrics().counter("rebalance.bytes_moved").value());
    out += " store=" + std::to_string(node.local_store().size());
  }
  const ring::VnodeTable table = cluster.node(0).metadata().table();
  out += "\nowners=";
  for (VnodeId v = 0; v < table.total_vnodes(); ++v) {
    out += std::to_string(table.owner(v)) + ",";
  }
  out += "\n" + cluster.monitor()->timeseries_csv();
  return out;
}

TEST(RebalancerDeterminism, MigrationScenarioIsByteIdenticalAcrossRuns) {
  const std::string a = run_rebalance_scenario(99);
  const std::string b = run_rebalance_scenario(99);
  EXPECT_EQ(a, b);
  // The scenario is non-trivial: the trace includes actual migrations.
  EXPECT_NE(a.find("completed="), std::string::npos);
  EXPECT_NE(a.find("migrations_inflight"), std::string::npos);
}

}  // namespace
}  // namespace sedna::cluster
