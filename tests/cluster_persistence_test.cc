// Persistence wired through the full cluster: nodes running the WAL
// strategy recover their pre-crash state from disk on restart — the
// paper's answer to "the power shortage of the cluster" (Section III.C:
// "we can still recover the data from lost by the periodic data
// flushing"), plus ensemble-size generality sweeps.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <optional>

#include "cluster/sedna_cluster.h"

namespace sedna::cluster {
namespace {

class PersistentClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sedna_cluster_persist_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  SednaClusterConfig config() {
    SednaClusterConfig cfg;
    cfg.zk_members = 3;
    cfg.data_nodes = 6;
    cfg.cluster.total_vnodes = 128;
    cfg.node_template.persistence.mode = wal::PersistMode::kWal;
    cfg.node_template.persistence.dir = dir_.string();
    // Durability at ack: without per-write sync, "crashing" a simulated
    // node leaves stdio-buffered records in limbo (the host process
    // survives, the simulated one does not).
    cfg.node_template.persistence.sync_each_write = true;
    return cfg;
  }

  std::filesystem::path dir_;
};

TEST_F(PersistentClusterTest, WalFilesAppearPerNode) {
  SednaCluster cluster(config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(cluster.write_latest(client, "w" + std::to_string(i),
                                     "v").ok());
  }
  std::size_t wal_files = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir_)) {
    if (entry.path().filename() == "wal.log" &&
        std::filesystem::file_size(entry.path()) > 0) {
      ++wal_files;
    }
  }
  EXPECT_EQ(wal_files, 6u);  // every node logged its replica writes
}

TEST_F(PersistentClusterTest, RestartedNodeKeepsAWritesTtl) {
  SednaCluster cluster(config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  std::optional<Status> st;
  client.write_latest_ttl("session/tok", "data", sim_sec(2),
                          [&](const Status& s) { st = s; });
  cluster.run_until([&] { return st.has_value(); });
  ASSERT_TRUE(st->ok());
  cluster.run_for(sim_ms(50));
  std::size_t holder = cluster.data_node_count();
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    if (cluster.node(i).local_store().read_latest("session/tok").ok()) {
      holder = i;
      break;
    }
  }
  ASSERT_LT(holder, cluster.data_node_count());

  cluster.crash_node(holder);
  cluster.restart_node(holder);
  auto& store = cluster.node(holder).local_store();
  EXPECT_TRUE(store.read_latest("session/tok").ok());
  // The WAL carried the write's deadline, so the replayed copy expires
  // with the others instead of living on without a TTL.
  cluster.run_for(sim_sec(3));
  EXPECT_TRUE(
      store.read_latest("session/tok").status().is(StatusCode::kNotFound));
}

TEST_F(PersistentClusterTest, RestartedNodeRecoversFromWal) {
  SednaCluster cluster(config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cluster.write_latest(client, "p" + std::to_string(i),
                                     "durable").ok());
  }
  cluster.run_for(sim_ms(50));
  const std::size_t items_before = cluster.node(4).local_store().size();
  ASSERT_GT(items_before, 0u);

  // Crash wipes the in-memory store entirely...
  cluster.crash_node(4);
  EXPECT_EQ(cluster.node(4).local_store().size(), 0u);

  // ...restart replays the local WAL before rejoining.
  cluster.restart_node(4);
  EXPECT_TRUE(cluster.node(4).ready());
  EXPECT_EQ(cluster.node(4).local_store().size(), items_before);
  EXPECT_GT(cluster.node(4)
                .metrics()
                .counter("persistence.recovered_records")
                .value(),
            0u);

  // Everything readable cluster-wide.
  for (int i = 0; i < 100; ++i) {
    auto got = cluster.read_latest(client, "p" + std::to_string(i));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->value, "durable");
  }
}

TEST_F(PersistentClusterTest, WholeClusterPowerLossRecovers) {
  // The paper's power-shortage scenario: all replicas die at once; memory
  // is gone; the WALs bring the data back.
  SednaCluster cluster(config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(cluster.write_latest(client, "b" + std::to_string(i),
                                     "survives").ok());
  }
  cluster.run_for(sim_ms(50));

  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    cluster.crash_node(i);
  }
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    cluster.restart_node(i);
  }
  cluster.run_for(sim_sec(1));

  int recovered = 0;
  for (int i = 0; i < 60; ++i) {
    auto got = cluster.read_latest(client, "b" + std::to_string(i));
    if (got.ok() && got->value == "survives") ++recovered;
  }
  EXPECT_EQ(recovered, 60);
}

TEST_F(PersistentClusterTest, WriteWhoseLogAppendFailsIsNotAcked) {
  // A directory squatting on every node's WAL path makes each log open
  // and append fail. A replica that cannot log a write must not ack it,
  // so no write quorum can form.
  SednaClusterConfig cfg = config();
  for (std::uint32_t i = 0; i < cfg.data_nodes; ++i) {
    std::filesystem::create_directories(
        dir_ / ("node-" + std::to_string(100 + i)) / "wal.log");
  }
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  EXPECT_FALSE(cluster.write_latest(client, "unlogged", "v").ok());
}

// ---- ensemble-size generality ---------------------------------------------------

class EnsembleSizeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(EnsembleSizeSweep, ClusterWorksWithAnyOddEnsemble) {
  SednaClusterConfig cfg;
  cfg.zk_members = GetParam();
  cfg.data_nodes = 6;
  cfg.cluster.total_vnodes = 64;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster.write_latest(client, "e" + std::to_string(i),
                                     "v").ok());
  }
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster.read_latest(client, "e" + std::to_string(i)).ok());
  }
  // Exactly one leader regardless of ensemble size.
  int leaders = 0;
  for (std::uint32_t m = 0; m < cfg.zk_members; ++m) {
    if (cluster.zk_member(m).is_leader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
}

TEST_P(EnsembleSizeSweep, SurvivesMinorityMemberCrashes) {
  const std::uint32_t members = GetParam();
  if (members < 3) GTEST_SKIP() << "no crash tolerance with 1 member";
  SednaClusterConfig cfg;
  cfg.zk_members = members;
  cfg.data_nodes = 6;
  cfg.cluster.total_vnodes = 64;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  ASSERT_TRUE(cluster.write_latest(client, "before", "v").ok());

  // Crash a minority (floor((m-1)/2)) including the leader.
  const std::uint32_t kill = (members - 1) / 2;
  for (std::uint32_t m = 0; m < kill; ++m) cluster.zk_member(m).crash();
  cluster.run_for(sim_sec(2));

  ASSERT_TRUE(cluster.write_latest(client, "after", "v").ok());
  EXPECT_TRUE(cluster.read_latest(client, "before").ok());
  EXPECT_TRUE(cluster.read_latest(client, "after").ok());
}

INSTANTIATE_TEST_SUITE_P(Members, EnsembleSizeSweep,
                         ::testing::Values(1, 3, 5),
                         [](const ::testing::TestParamInfo<std::uint32_t>&
                                info) {
                           return "zk" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace sedna::cluster
