#include "cluster/sedna_cluster.h"

#include <algorithm>

#include "cluster/monitor.h"
#include "ring/rebalancer.h"

namespace sedna::cluster {

namespace {

/// Minimal host that exists only to run the bootstrap ZkClient.
class BootstrapHost : public sim::Host {
 public:
  BootstrapHost(sim::Network& net, NodeId id, std::vector<NodeId> ensemble)
      : sim::Host(net, id),
        zk_(*this, [&] {
          zk::ZkClientConfig cfg;
          cfg.ensemble = std::move(ensemble);
          return cfg;
        }()) {}

  [[nodiscard]] zk::ZkClient& zk() { return zk_; }

 protected:
  void on_message(const sim::Message& msg) override {
    if (msg.type == zk::kMsgWatchEvent) zk_.on_watch_event(msg.payload);
  }

 private:
  zk::ZkClient zk_;
};

}  // namespace

SednaCluster::SednaCluster(SednaClusterConfig config)
    : config_(std::move(config)),
      sim_(config_.seed),
      net_(sim_, config_.network) {}

SednaCluster::~SednaCluster() = default;

ClusterMonitor& SednaCluster::enable_monitor(MonitorConfig config) {
  monitor_ = std::make_unique<ClusterMonitor>(*this, config);
  // The traffic rebalancer consults the monitor's health view before
  // picking migration targets (never onto a degraded/suspect/dead node).
  for (auto& node : nodes_) {
    node->set_health_provider(
        [m = monitor_.get()](NodeId n) { return m->health(n); });
  }
  return *monitor_;
}

ClusterMonitor& SednaCluster::enable_monitor() {
  return enable_monitor(MonitorConfig{});
}

std::vector<NodeId> SednaCluster::zk_ids() const {
  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < config_.zk_members; ++i) ids.push_back(i);
  return ids;
}

std::vector<NodeId> SednaCluster::data_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  for (const auto& n : nodes_) ids.push_back(n->id());
  return ids;
}

bool SednaCluster::run_until(const std::function<bool()>& pred) {
  const SimTime deadline = sim_.now() + config_.max_wait;
  while (!pred()) {
    if (sim_.pending_events() == 0) return pred();
    if (sim_.now() > deadline) return false;
    sim_.step();
  }
  return true;
}

Status SednaCluster::boot() {
  // 1. ZooKeeper ensemble.
  zk::ZkServerConfig zk_cfg;
  zk_cfg.ensemble = zk_ids();
  zk_cfg.host = config_.node_template.host;
  for (NodeId id : zk_cfg.ensemble) {
    zk_.push_back(std::make_unique<zk::ZkServer>(net_, id, zk_cfg));
    zk_.back()->start();
  }
  sim_.run_for(sim_ms(5));  // first peer pings settle leadership

  // 2. First-boot metadata layout + initial vnode assignment.
  Status st = bootstrap_metadata();
  if (!st.ok()) return st;

  // 3. Data nodes, started one after another. A simultaneous start of
  // many nodes would stampede the ensemble with bulk vnode-table reads
  // (every node fetches total_vnodes znodes at boot) and time out;
  // staggering matches how real deployments roll out anyway. Completion
  // state is heap-shared: a node's callback may fire after boot() already
  // gave up on it.
  for (std::uint32_t i = 0; i < config_.data_nodes; ++i) {
    const NodeId id = next_data_id_++;
    SednaNodeConfig cfg = config_.node_template;
    cfg.zk_ensemble = zk_ids();
    if (!cfg.persistence.dir.empty()) {
      cfg.persistence.dir += "/node-" + std::to_string(id);
    }
    nodes_.push_back(std::make_unique<SednaNode>(net_, id, cfg));
    nodes_.back()->set_flight_recorder(&flight_);
    auto outcome = std::make_shared<std::optional<Status>>();
    nodes_.back()->start(
        [outcome](const Status& node_st) { *outcome = node_st; });
    if (!run_until([&] { return outcome->has_value(); }) ||
        !(*outcome)->ok()) {
      return Status::Unavailable("data node failed to start: node " +
                                 std::to_string(id));
    }
  }
  return Status::Ok();
}

Status SednaCluster::bootstrap_metadata() {
  BootstrapHost boot_host(net_, 9000, zk_ids());
  auto& zk = boot_host.zk();

  std::optional<Status> connected;
  zk.connect([&](const Status& st) { connected = st; });
  if (!run_until([&] { return connected.has_value(); }) || !connected->ok()) {
    return Status::Unavailable("bootstrap: zk connect failed");
  }

  auto create_sync = [&](const std::string& path, const std::string& data) {
    std::optional<Status> done;
    zk.create(path, data, zk::CreateMode::kPersistent,
              [&](const Result<std::string>& r) { done = r.status(); });
    run_until([&] { return done.has_value(); });
    if (done.has_value() &&
        (done->ok() || done->is(StatusCode::kAlreadyExists))) {
      return Status::Ok();
    }
    return done.value_or(Status::Timeout("bootstrap create timed out"));
  };

  Status st = create_sync(kZkRoot, {});
  if (!st.ok()) return st;
  st = create_sync(kZkConfig, config_.cluster.encode());
  if (!st.ok()) return st;
  st = create_sync(kZkRealNodes, {});
  if (!st.ok()) return st;
  st = create_sync(kZkVnodes, {});
  if (!st.ok()) return st;
  st = create_sync(kZkChanges, {});
  if (!st.ok()) return st;

  // Initial vnode assignment over the soon-to-start data nodes.
  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < config_.data_nodes; ++i) {
    ids.push_back(next_data_id_ + i);
  }
  ring::VnodeTable table;
  if (!config_.initial_owners.empty()) {
    table = ring::VnodeTable(config_.cluster.total_vnodes,
                             config_.cluster.replicas);
    for (std::uint32_t v = 0; v < table.total_vnodes(); ++v) {
      table.assign(v, config_.initial_owners[v % config_.initial_owners
                                                     .size()]);
    }
  } else {
    table = ring::Rebalancer::initial_assignment(
        config_.cluster.total_vnodes, config_.cluster.replicas, ids);
  }

  // One znode per vnode (Section III.E situation 1), created in bounded
  // concurrent windows.
  constexpr std::uint32_t kWindow = 64;
  for (std::uint32_t base = 0; base < table.total_vnodes(); base += kWindow) {
    const std::uint32_t end =
        std::min(base + kWindow, table.total_vnodes());
    std::uint32_t pending = end - base;
    bool window_failed = false;
    for (std::uint32_t v = base; v < end; ++v) {
      zk.create(vnode_znode(v), VnodeOwner{table.owner(v)}.encode(),
                zk::CreateMode::kPersistent,
                [&pending, &window_failed](const Result<std::string>& r) {
                  if (!r.ok() &&
                      !r.status().is(StatusCode::kAlreadyExists)) {
                    window_failed = true;
                  }
                  --pending;
                });
    }
    if (!run_until([&] { return pending == 0; }) || window_failed) {
      return Status::Unavailable("bootstrap: vnode creation failed");
    }
  }
  return Status::Ok();
}

SednaClient& SednaCluster::make_client() {
  SednaClientConfig cfg = config_.client_template;
  cfg.zk_ensemble = zk_ids();
  clients_.push_back(
      std::make_unique<SednaClient>(net_, next_client_id_++, cfg));
  SednaClient& client = *clients_.back();
  await<Status>([&](auto done) { client.start(done); });
  return client;
}

Result<NodeId> SednaCluster::join_new_node() {
  const NodeId id = next_data_id_++;
  SednaNodeConfig cfg = config_.node_template;
  cfg.zk_ensemble = zk_ids();
  if (!cfg.persistence.dir.empty()) {
    cfg.persistence.dir += "/node-" + std::to_string(id);
  }
  nodes_.push_back(std::make_unique<SednaNode>(net_, id, cfg));
  nodes_.back()->set_flight_recorder(&flight_);
  if (monitor_ != nullptr) {
    nodes_.back()->set_health_provider(
        [m = monitor_.get()](NodeId n) { return m->health(n); });
  }
  std::optional<Status> done;
  nodes_.back()->start_and_join([&](const Status& st) { done = st; });
  if (!run_until([&] { return done.has_value(); })) {
    return Status::Timeout("join timed out");
  }
  if (!done->ok()) return *done;
  return id;
}

void SednaCluster::restart_node(std::size_t i) {
  nodes_[i]->restart();
  await<Status>([&](auto done) { nodes_[i]->start(done); });
}

Status SednaCluster::write_latest(SednaClient& c, const std::string& key,
                                  const std::string& value) {
  return await<Status>([&](auto done) { c.write_latest(key, value, done); });
}

Status SednaCluster::write_all(SednaClient& c, const std::string& key,
                               const std::string& value) {
  return await<Status>([&](auto done) { c.write_all(key, value, done); });
}

Result<store::VersionedValue> SednaCluster::read_latest(
    SednaClient& c, const std::string& key) {
  return await<Result<store::VersionedValue>>(
      [&](auto done) { c.read_latest(key, done); });
}

Result<std::vector<store::SourceValue>> SednaCluster::read_all(
    SednaClient& c, const std::string& key) {
  return await<Result<std::vector<store::SourceValue>>>(
      [&](auto done) { c.read_all(key, done); });
}

}  // namespace sedna::cluster
