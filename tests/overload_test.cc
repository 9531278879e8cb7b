// Overload-safety tests: bounded priority-classed ingress queues,
// deadline propagation and expiry shedding, client retry budgets,
// degraded (stale) reads, and a miniature retry-storm metastability
// experiment proving the defenses change the outcome, not just the
// numbers.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/sedna_cluster.h"
#include "sim/host.h"
#include "workload/open_loop.h"

namespace sedna::cluster {
namespace {

// ---- host-level admission / deadline mechanics ------------------------------

/// Records what got serviced and what got shed; priority class == the
/// message type (so tests pick the class directly).
class ToyHost : public sim::Host {
 public:
  ToyHost(sim::Network& net, NodeId id, sim::HostConfig cfg)
      : Host(net, id, cfg) {}

  std::vector<sim::MessageType> serviced;
  std::vector<sim::MessageType> shed_types;
  std::vector<sim::ShedReason> shed_reasons;

 protected:
  void on_message(const sim::Message& msg) override {
    serviced.push_back(msg.type);
  }
  [[nodiscard]] std::size_t message_priority(
      const sim::Message& msg) const override {
    return msg.type;
  }
  void on_shed(const sim::Message& msg, sim::ShedReason reason) override {
    shed_types.push_back(msg.type);
    shed_reasons.push_back(reason);
  }
};

sim::Message make_msg(sim::MessageType type, SimTime deadline = 0) {
  sim::Message msg{/*from=*/1, /*to=*/2, type, /*rpc_id=*/0,
                   /*is_response=*/false, "payload"};
  msg.deadline = deadline;
  return msg;
}

TEST(IngressQueue, AdmissionCapsShedBackgroundClassesFirst) {
  sim::Simulation simulation(7);
  sim::Network net(simulation, {});
  sim::HostConfig cfg;
  cfg.base_service_us = 100;
  cfg.service_jitter_frac = 0.0;
  cfg.max_ingress_queue = 4;  // class caps: 4, 3, 2, 1
  ToyHost host(net, 2, cfg);

  // First message goes straight into service (queue empty again).
  host.deliver(make_msg(0));
  // Class 3 (migration-like): cap 1 — one slot, then shed.
  host.deliver(make_msg(3));
  host.deliver(make_msg(3));
  EXPECT_EQ(host.shed_queue_full(), 1u);
  // Class 2: cap 2 — fits at depth 1, shed at depth 2.
  host.deliver(make_msg(2));
  host.deliver(make_msg(2));
  EXPECT_EQ(host.shed_queue_full(), 2u);
  // Class 0 (client reads) still has room up to the full cap of 4.
  host.deliver(make_msg(0));
  host.deliver(make_msg(0));
  EXPECT_EQ(host.queue_depth(), 4u);
  host.deliver(make_msg(0));  // over the full cap: even reads shed now
  EXPECT_EQ(host.shed_queue_full(), 3u);

  simulation.run_for(sim_ms(10));
  // Everything admitted was serviced, highest class first after the one
  // already on the CPU.
  const std::vector<sim::MessageType> want = {0, 0, 0, 2, 3};
  EXPECT_EQ(host.serviced, want);
  EXPECT_EQ(host.shed_types, (std::vector<sim::MessageType>{3, 2, 0}));
  for (sim::ShedReason r : host.shed_reasons) {
    EXPECT_EQ(r, sim::ShedReason::kQueueFull);
  }
}

TEST(IngressQueue, ExpiredDeadlineShedAtDequeueWithoutService) {
  sim::Simulation simulation(7);
  sim::Network net(simulation, {});
  sim::HostConfig cfg;
  cfg.base_service_us = 100;
  cfg.service_jitter_frac = 0.0;
  ToyHost host(net, 2, cfg);

  // A occupies the CPU until t=100; B's deadline (t=50) expires while it
  // waits behind A, so it is shed at dequeue and costs no CPU. C (no
  // deadline) and D (future deadline) run normally.
  host.deliver(make_msg(0));               // A
  host.deliver(make_msg(1, /*deadline=*/50));   // B: dead on dequeue
  host.deliver(make_msg(2));               // C
  host.deliver(make_msg(3, sim_sec(1)));   // D: plenty of time
  simulation.run_for(sim_ms(10));

  EXPECT_EQ(host.serviced, (std::vector<sim::MessageType>{0, 2, 3}));
  EXPECT_EQ(host.shed_deadline(), 1u);
  EXPECT_EQ(host.shed_types, (std::vector<sim::MessageType>{1}));
  EXPECT_EQ(host.shed_reasons[0], sim::ShedReason::kDeadlineExceeded);
}

TEST(IngressQueue, ExpiredOnArrivalNeverServicedEvenWhenIdle) {
  sim::Simulation simulation(7);
  sim::Network net(simulation, {});
  ToyHost host(net, 2, {});

  simulation.run_for(100);  // advance the clock past the deadline
  host.deliver(make_msg(0, /*deadline=*/50));
  simulation.run_for(sim_ms(1));

  EXPECT_TRUE(host.serviced.empty());
  EXPECT_EQ(host.shed_deadline(), 1u);
}

TEST(IngressQueue, ResponsesAreNeverShed) {
  sim::Simulation simulation(7);
  sim::Network net(simulation, {});
  sim::HostConfig cfg;
  cfg.max_ingress_queue = 1;
  ToyHost host(net, 2, cfg);

  host.deliver(make_msg(0));  // on the CPU (leaves the queue immediately)
  host.deliver(make_msg(0));  // fills the queue (cap 1)
  host.deliver(make_msg(0));  // over the cap: shed
  EXPECT_EQ(host.shed_queue_full(), 1u);
  sim::Message resp{/*from=*/1, /*to=*/2, /*type=*/9, /*rpc_id=*/77,
                    /*is_response=*/true, ""};
  host.deliver(resp);  // responses bypass admission control
  EXPECT_EQ(host.shed_queue_full(), 1u);  // still only the request shed
  EXPECT_EQ(host.queue_depth(), 2u);      // request + response queued
}

// ---- cluster-level behavior -------------------------------------------------

SednaClusterConfig small_config() {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 6;
  cfg.cluster.total_vnodes = 128;
  return cfg;
}

/// Index of the data node owning `id` (ids are assigned 100, 101, ...).
std::size_t node_index(SednaCluster& cluster, NodeId id) {
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    if (cluster.node(i).id() == id) return i;
  }
  ADD_FAILURE() << "no node with id " << id;
  return 0;
}

/// Reads and writes share one client attempt loop: both must fail fast
/// once the budget is spent. The parameter is true for writes.
class RetryBudgetOp : public ::testing::TestWithParam<bool> {};

TEST_P(RetryBudgetOp, ExhaustedBudgetFailsFastWithOverloaded) {
  SednaClusterConfig cfg = small_config();
  cfg.client_template.retry_budget_capacity = 2.0;
  cfg.client_template.retry_budget_refill = 0.0;  // no refill: finite fuse
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  ASSERT_TRUE(cluster.write_latest(client, "budgeted", "v").ok());
  cluster.run_for(sim_ms(50));

  // Crash the key's primary: every op now needs exactly one retry.
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key("budgeted");
  ASSERT_EQ(replicas.size(), 3u);
  cluster.crash_node(node_index(cluster, replicas[0]));
  const bool writes = GetParam();
  auto op = [&]() -> Status {
    if (writes) return cluster.write_latest(client, "budgeted", "v2");
    return cluster.read_latest(client, "budgeted").status();
  };

  // Two tokens → two ops ride out the dead primary...
  EXPECT_TRUE(op().ok());
  EXPECT_TRUE(op().ok());
  // ...the third wants a retry with an empty bucket and fails fast.
  const Status third = op();
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.code(), StatusCode::kOverloaded);
  const auto& counters = client.metrics().counters();
  const auto it = counters.find("node.shed.retry_budget");
  ASSERT_NE(it, counters.end());
  EXPECT_GE(it->second.value(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Ops, RetryBudgetOp, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "write" : "read");
                         });

TEST(RetryBudget, SuccessesRefillTheBucket) {
  SednaClusterConfig cfg = small_config();
  cfg.client_template.retry_budget_capacity = 1.0;
  cfg.client_template.retry_budget_refill = 0.5;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  ASSERT_TRUE(cluster.write_latest(client, "refilled", "v").ok());
  cluster.run_for(sim_ms(50));
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key("refilled");
  cluster.crash_node(node_index(cluster, replicas[0]));

  // Burn the single token.
  EXPECT_TRUE(cluster.read_latest(client, "refilled").ok());
  // Two successes elsewhere refill 2 × 0.5 = 1 token.
  ASSERT_TRUE(cluster.write_latest(client, "other-a", "v").ok());
  ASSERT_TRUE(cluster.write_latest(client, "other-b", "v").ok());
  // The refilled token funds one more retry through the dead primary.
  EXPECT_TRUE(cluster.read_latest(client, "refilled").ok());
}

TEST(DegradedReads, MinorityCoordinatorServesStaleTaggedRead) {
  SednaClusterConfig cfg = small_config();
  cfg.node_template.degraded_reads = true;
  cfg.node_template.host.rpc_timeout_us = 20'000;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  ASSERT_TRUE(cluster.write_latest(client, "stale-ok", "v1").ok());
  cluster.run_for(sim_ms(50));

  // Strand the primary away from both other replicas: below read quorum,
  // but it still holds a copy.
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key("stale-ok");
  ASSERT_EQ(replicas.size(), 3u);
  cluster.network().partition(replicas[0], replicas[1]);
  cluster.network().partition(replicas[0], replicas[2]);

  const auto got = cluster.read_latest(client, "stale-ok");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v1");
  const auto& counters = client.metrics().counters();
  const auto it = counters.find("client.stale_reads");
  ASSERT_NE(it, counters.end());
  EXPECT_GE(it->second.value(), 1u);
}

TEST(DegradedReads, BelowQuorumFallbackIsTaggedStaleEvenWhenDisabled) {
  // degraded_reads only gates the *early* settle; the long-standing
  // all-responded fallback (serve the freshest reply when a quorum is
  // impossible) must now label its answers honestly either way.
  SednaClusterConfig cfg = small_config();  // degraded_reads defaults off
  cfg.node_template.host.rpc_timeout_us = 20'000;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  ASSERT_TRUE(cluster.write_latest(client, "strict", "v1").ok());
  cluster.run_for(sim_ms(50));
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key("strict");
  // Cut every inter-replica link: no coordinator can reach a quorum.
  for (std::size_t a = 0; a < replicas.size(); ++a) {
    for (std::size_t b = a + 1; b < replicas.size(); ++b) {
      cluster.network().partition(replicas[a], replicas[b]);
    }
  }
  const auto got = cluster.read_latest(client, "strict");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v1");
  const auto& counters = client.metrics().counters();
  const auto it = counters.find("client.stale_reads");
  ASSERT_NE(it, counters.end());
  EXPECT_GE(it->second.value(), 1u);
}

// ---- retry-storm metastability (miniature) ----------------------------------

/// Mini version of bench/scenario_suite.cc's ablation: a demand pulse
/// over cluster capacity. With the defenses off, 3-attempt retry
/// amplification keeps post-pulse demand above capacity and goodput never
/// recovers; with them on, the pulse is shed and the cluster returns to
/// its pre-pulse goodput.
double late_over_pre_goodput(bool defenses_on) {
  SednaClusterConfig cfg = small_config();
  cfg.data_nodes = 3;
  cfg.cluster.total_vnodes = 64;
  cfg.node_template.host.base_service_us = 400;  // ~1.2k reads/s capacity
  cfg.client_template.host.base_service_us = 8;
  cfg.client_template.op_timeout_us = 30'000;
  cfg.client_template.max_attempts = 3;
  if (defenses_on) {
    cfg.node_template.host.max_ingress_queue = 64;
    cfg.node_template.degraded_reads = true;
    cfg.client_template.op_deadline_us = 90'000;
    cfg.client_template.retry_budget_capacity = 10.0;
    cfg.client_template.retry_budget_refill = 0.1;
  }
  SednaCluster cluster(cfg);
  EXPECT_TRUE(cluster.boot().ok());
  std::vector<SednaClient*> clients;
  for (int c = 0; c < 4; ++c) clients.push_back(&cluster.make_client());

  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back("meta-" + std::to_string(i));
    EXPECT_TRUE(cluster.write_latest(*clients[0], keys.back(), "v").ok());
  }

  workload::OpenLoopConfig wl;
  wl.curve = {{0, 800}, {sim_sec(1), 3000}, {sim_ms(1800), 800}};
  wl.duration = sim_sec(5);
  wl.window = sim_ms(100);
  workload::OpenLoopDriver driver(
      cluster.sim(), wl,
      [&](std::uint64_t seq, const std::function<void(bool)>& done) {
        const auto& key = keys[cluster.sim().rng().next_below(keys.size())];
        clients[seq % clients.size()]->read_latest(
            key,
            [done](const Result<store::VersionedValue>& r) { done(r.ok()); });
      });
  driver.start();
  cluster.run_for(sim_sec(5) + sim_ms(300));

  const double pre = driver.mean_goodput(5, 10);    // 0.5 s – 1.0 s
  const double late = driver.mean_goodput(40, 50);  // 4.0 s – 5.0 s
  return pre > 0 ? late / pre : 0.0;
}

TEST(Metastability, DefensesOnRecoversAfterPulse) {
  EXPECT_GE(late_over_pre_goodput(true), 0.8);
}

TEST(Metastability, DefensesOffStaysCollapsed) {
  EXPECT_LE(late_over_pre_goodput(false), 0.5);
}

}  // namespace
}  // namespace sedna::cluster
