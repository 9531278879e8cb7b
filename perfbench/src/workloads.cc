// The three benchmark workloads, run in-process from one thread on the
// paper testbed: 3 ZooKeeper + 6 data nodes, N=3, R=W=2, 80 µs per-message
// service, the 1 GbE network model and 1024 vnodes. Simulated clients are
// hosts in the one event loop, not OS threads or connections.
//
// Each run has three parts:
//   setup         boot + preload, repeated (untraced runs) so setup_s is a
//                 median; the last setup is the one measured.
//   reference     a fixed, seeded schedule. Every sim-clock metric and
//                 every count comes from here, so they repeat exactly.
//   slices        more fixed-size units of the workload until --seconds of
//                 wall time have passed; wall_ops_per_s is their median.
// A seeded sample of acked keys is then read back and checked.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "cluster/sedna_cluster.h"
#include "cluster/sedna_node.h"
#include "common/critical_path.h"
#include "common/hash.h"
#include "common/rng.h"

namespace perfbench {
namespace {

using namespace sedna;

/// Latency limit for max_rate_ops_s, in simulated µs.
constexpr double kLatencyLimitUs = 5000.0;
/// Latency recorded for a failed op: it misses every limit.
constexpr double kFailedLatencyUs = 1e12;

// ---- workload shapes ---------------------------------------------------------

struct Spec {
  std::string name;
  std::uint32_t clients = 1;
  std::uint64_t keys = 0;
  std::uint32_t value_bytes = 20;
  bool wal = false;
  /// Closed loop (paper_fig8): keys per client per round.
  std::uint64_t keys_per_client = 0;
  /// Open loop: read share, key popularity, offered rates.
  double read_frac = 0.5;
  double zipf_exponent = 0.0;  // 0 = uniform
  std::vector<double> ladder;  // ycsb_a_large reference schedule
  SimDuration rung_us = 0;
  /// The rung at `rate`, whose latencies are reported, runs longer so its
  /// p99 rests on thousands of samples.
  SimDuration latency_rung_us = 0;
  double rate = 0.0;  // slice rate (and the latency rung for the ladder)
  SimDuration slice_us = 0;
  /// durable_churn: load between crash / restart / join.
  SimDuration steady_us = 0;
  SimDuration gap_us = 0;
  std::uint32_t setups = 3;
  std::uint64_t check_sample = 0;
};

Spec spec_for(const std::string& name, bool small) {
  Spec s;
  s.name = name;
  if (name == "paper_fig8") {
    s.clients = 9;
    s.keys_per_client = small ? 200 : 2000;
    s.keys = s.clients * s.keys_per_client;
    s.value_bytes = 20;
    s.setups = 5;
    s.check_sample = small ? 200 : 1000;
  } else if (name == "ycsb_a_large") {
    s.clients = 4;
    s.keys = small ? 5000 : 100000;
    s.value_bytes = 1024;
    s.read_frac = 0.5;
    s.zipf_exponent = 0.99;
    s.ladder = {2000, 4000, 6000, 8000, 9000, 10000, 11000, 12000};
    s.rung_us = small ? sim_ms(100) : sim_sec(1);
    s.latency_rung_us = small ? sim_ms(200) : sim_sec(3);
    s.rate = 6000;
    s.slice_us = sim_ms(500);
    s.setups = 3;
    s.check_sample = small ? 200 : 1000;
  } else {  // durable_churn
    s.clients = 4;
    s.keys = small ? 5000 : 100000;
    s.value_bytes = 256;
    s.wal = true;
    s.read_frac = 0.2;
    s.rate = 5000;
    s.steady_us = small ? sim_ms(200) : sim_ms(1000);
    s.gap_us = small ? sim_ms(100) : sim_ms(500);
    s.slice_us = sim_sec(2);
    s.setups = 3;
    s.check_sample = small ? 300 : 2000;
  }
  return s;
}

cluster::SednaClusterConfig cluster_config(const Spec& spec,
                                           std::uint64_t seed,
                                           const std::string& wal_dir) {
  cluster::SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 6;
  cfg.cluster.total_vnodes = 1024;
  cfg.cluster.replicas = 3;
  cfg.cluster.read_quorum = 2;
  cfg.cluster.write_quorum = 2;
  cfg.node_template.host.base_service_us = 80;
  cfg.client_template.host.base_service_us = 80;
  cfg.seed = seed;
  if (spec.wal) {
    // Flush policy, identical on both sides of any comparison: every
    // write is appended and sync()ed before the replica acks, and a
    // snapshot truncates the log every 50k records.
    cfg.node_template.persistence.mode = wal::PersistMode::kWal;
    cfg.node_template.persistence.dir = wal_dir;
    cfg.node_template.persistence.sync_each_write = true;
    cfg.node_template.persistence.snapshot_every_records = 50000;
  }
  return cfg;
}

// ---- keyspace: seeded keys, self-describing values, acked-write history -----

class Keyspace {
 public:
  Keyspace(std::uint64_t n, std::uint32_t value_bytes, std::uint64_t seed)
      : value_bytes_(value_bytes) {
    // Paper-style 19-byte keys ("test-" + 14 digits), distinct per seed.
    std::unordered_set<std::string> seen;
    keys_.reserve(n);
    for (std::uint64_t i = 0; keys_.size() < n; ++i) {
      char buf[32];
      const std::uint64_t h = mix64(seed * 0x9e3779b97f4a7c15ULL + i);
      std::snprintf(buf, sizeof buf, "test-%014llu",
                    static_cast<unsigned long long>(h % 100000000000000ULL));
      if (seen.insert(buf).second) keys_.emplace_back(buf);
    }
    filler_.resize(value_bytes + 64);
    for (std::size_t i = 0; i < filler_.size(); ++i) {
      filler_[i] = static_cast<char>('a' + (mix64(seed + i) % 26));
    }
    reset();
  }

  void reset() {
    writes_.assign(keys_.size(), 0);
    last_ok_ack_.assign(keys_.size(), 0);
    cands_.assign(keys_.size(), {});
  }

  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] const std::string& key(std::uint64_t i) const {
    return keys_[i];
  }
  [[nodiscard]] const std::vector<std::string>& keys() const { return keys_; }

  /// Value of write `w` to key `i`: "v<i>.<w>|" then seeded filler.
  [[nodiscard]] std::string value(std::uint64_t i, std::uint32_t w) const {
    char head[32];
    const int n = std::snprintf(head, sizeof head, "v%llu.%u|",
                                static_cast<unsigned long long>(i), w);
    std::string v(head, static_cast<std::size_t>(n));
    if (v.size() < value_bytes_) {
      v.append(filler_, (i + w) % 64, value_bytes_ - v.size());
    }
    return v;
  }

  static bool parse(const std::string& v, std::uint64_t& i,
                    std::uint32_t& w) {
    unsigned long long ki = 0;
    unsigned wi = 0;
    return std::sscanf(v.c_str(), "v%llu.%u|", &ki, &wi) == 2 &&
           (i = ki, w = wi, true);
  }

  std::uint32_t next_write(std::uint64_t i) { return ++writes_[i]; }
  [[nodiscard]] std::uint32_t writes(std::uint64_t i) const {
    return writes_[i];
  }

  /// Records an acked (ok) write. A candidate acked at or before this
  /// write was issued carries an older timestamp and can never be the
  /// latest again; everything else stays a candidate.
  void on_ok(std::uint64_t i, std::uint32_t w, SimTime issued,
             SimTime acked) {
    auto& c = cands_[i];
    std::erase_if(c, [&](const Cand& x) { return x.acked <= issued; });
    c.push_back(Cand{issued, acked, w});
    last_ok_ack_[i] = std::max(last_ok_ack_[i], acked);
  }

  /// True when `v` is the value of a write that may legitimately be the
  /// latest: acked ok and not superseded by a later-issued acked write.
  [[nodiscard]] bool acceptable(std::uint64_t i, const std::string& v) const {
    for (const Cand& c : cands_[i]) {
      if (v == value(i, c.w)) return true;
    }
    return false;
  }
  /// True when `v` is a latest-acked candidate of key `i` or a newer
  /// write to it (one still in flight when a replica is inspected).
  [[nodiscard]] bool at_least_latest(std::uint64_t i,
                                     const std::string& v) const {
    std::uint64_t ki = 0;
    std::uint32_t w = 0;
    if (!parse(v, ki, w) || ki != i || v != value(i, w)) return false;
    for (const Cand& c : cands_[i]) {
      if (w >= c.w) return true;
    }
    return false;
  }
  [[nodiscard]] SimTime last_ok_ack(std::uint64_t i) const {
    return last_ok_ack_[i];
  }

 private:
  struct Cand {
    SimTime issued;
    SimTime acked;
    std::uint32_t w;
  };
  std::uint32_t value_bytes_;
  std::vector<std::string> keys_;
  std::string filler_;
  std::vector<std::uint32_t> writes_;
  std::vector<SimTime> last_ok_ack_;
  std::vector<std::vector<Cand>> cands_;
};

// ---- outcome accounting ------------------------------------------------------

/// Settled ops of one phase. Outcomes: ok; outdated (an LWW write that
/// lost to a newer timestamp, a defined result of write_latest); stale (a
/// read served below quorum and tagged so); failed (timeout, overloaded,
/// unavailable, missing or wrong value). Latencies are simulated µs from
/// the op's scheduled arrival; in sim time the generator is never late.
struct Tally {
  std::uint64_t issued = 0, settled = 0;
  std::uint64_t ok = 0, outdated = 0, stale = 0, failed = 0;
  std::uint64_t reads = 0, writes = 0;
  std::uint64_t fail_timeout = 0, fail_overloaded = 0, fail_unavailable = 0,
                fail_missing = 0, fail_wrong = 0, fail_other = 0;
  std::vector<double> read_us, write_us;

  [[nodiscard]] std::uint64_t good() const { return ok + outdated + stale; }

  void add(const Tally& o) {
    issued += o.issued;
    settled += o.settled;
    ok += o.ok;
    outdated += o.outdated;
    stale += o.stale;
    failed += o.failed;
    reads += o.reads;
    writes += o.writes;
    fail_timeout += o.fail_timeout;
    fail_overloaded += o.fail_overloaded;
    fail_unavailable += o.fail_unavailable;
    fail_missing += o.fail_missing;
    fail_wrong += o.fail_wrong;
    fail_other += o.fail_other;
  }
};

// ---- engine --------------------------------------------------------------------

class Engine {
 public:
  Engine(const Spec& spec, const Options& opt, Keyspace& ks,
         const std::string& wal_dir)
      : spec_(spec),
        opt_(opt),
        ks_(ks),
        wal_dir_(wal_dir),
        arrivals_(opt.seed ^ 0xA77Aull),
        ops_(opt.seed ^ 0x0B5ull) {
    if (spec.zipf_exponent > 0) {
      zipf_ = std::make_unique<ZipfGenerator>(
          static_cast<std::size_t>(spec.keys), spec.zipf_exponent,
          opt.seed ^ 0x21Full);
    }
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  ~Engine() {
    joined_.reset();
    cluster_.reset();
    if (!wal_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(wal_dir_, ec);
    }
  }

  cluster::SednaCluster& cluster() { return *cluster_; }
  sim::Simulation& sim() { return cluster_->sim(); }
  [[nodiscard]] SimTime now() { return sim().now(); }
  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] const std::string& wal_dir() const { return wal_dir_; }

  bool boot() {
    ScopedSpan span("setup.boot");
    cluster_ = std::make_unique<cluster::SednaCluster>(
        cluster_config(spec_, opt_.seed, wal_dir_));
    if (!cluster_->boot().ok()) return false;
    for (std::uint32_t c = 0; c < spec_.clients; ++c) {
      auto& client = cluster_->make_client();
      if (!client.ready()) return false;
      clients_.push_back(&client);
      stale_ctr_.push_back(&client.metrics().counter("client.stale_reads"));
      stale_seen_.push_back(0);
    }
    return true;
  }

  /// Writes every key once (write id 1). paper_fig8 runs its closed loops
  /// (one lane per client, own keys); the others pipeline 16 lanes per
  /// client so the preload stays below the cluster's capacity.
  bool preload(Tally& t) {
    ScopedSpan span("setup.preload");
    sink_ = &t;
    lanes_.clear();
    if (spec_.keys_per_client > 0) {
      for (std::uint32_t c = 0; c < spec_.clients; ++c) {
        lanes_.push_back(Lane{c, c * spec_.keys_per_client, 1,
                              spec_.keys_per_client, 0, false, false});
      }
    } else {
      const std::uint64_t n = spec_.clients * 16;
      for (std::uint64_t l = 0; l < n; ++l) {
        lanes_.push_back(Lane{static_cast<std::uint32_t>(l % spec_.clients),
                              l, n, (spec_.keys - l + n - 1) / n, 0, false,
                              false});
      }
    }
    const bool ok = run_lanes();
    span.set_items(t.settled);
    return ok && t.failed == 0;
  }

  /// One paper_fig8 round: every client overwrites its keys, then reads
  /// each back and requires exactly the value it just wrote.
  bool fig8_round(Tally& t) {
    sink_ = &t;
    lanes_.clear();
    for (std::uint32_t c = 0; c < spec_.clients; ++c) {
      lanes_.push_back(Lane{c, c * spec_.keys_per_client, 1,
                            spec_.keys_per_client, 0, false, true});
    }
    return run_lanes();
  }

  /// Open-loop Poisson arrivals at `rate` for `dur` of sim time, then
  /// waits for the backlog to drain. Returns ops outstanding when
  /// generation stopped.
  std::uint64_t open_loop(Tally& t, double rate, SimDuration dur) {
    sink_ = &t;
    start_arrivals(rate, now() + dur);
    pump([&] { return gen_done_; });
    const std::uint64_t backlog = outstanding_;
    drain();
    return backlog;
  }

  void start_arrivals(double rate, SimTime until) {
    gen_done_ = false;
    gen_until_ = until;
    rate_ = rate;
    next_arrival_ = static_cast<double>(now());
    schedule_arrival();
  }
  void stop_arrivals() { gen_until_ = now(); }
  bool drain() {
    return pump([&] { return outstanding_ == 0; }, sim_sec(60));
  }
  void set_sink(Tally& t) { sink_ = &t; }

  /// Steps the simulation until `pred` holds, counting events.
  template <class Pred>
  bool pump(Pred pred, SimDuration max_wait = sim_sec(600)) {
    sim::Simulation& s = sim();
    const SimTime limit = s.now() + max_wait;
    while (!pred()) {
      if (s.now() > limit || !s.step()) return pred();
      ++events_;
      if (sampling_ && (events_ & 15) == 0) sample();
    }
    return true;
  }
  void run_for(SimDuration d) {
    const SimTime end = now() + d;
    pump([&] { return now() >= end; });
  }

  // ---- churn -------------------------------------------------------------

  void crash(std::size_t i) { cluster_->crash_node(i); }

  /// Restarts node i (WAL replay + restart hydration) while the load
  /// keeps arriving; returns the sim µs until the node reports ready.
  /// `recovered` runs as soon as start() has replayed the WAL, before any
  /// event (hydration included) has run.
  template <class Fn>
  std::optional<SimDuration> restart(std::size_t i, Fn recovered) {
    cluster::SednaNode& node = cluster_->node(i);
    const SimTime t0 = now();
    std::optional<Status> done;
    node.restart();
    node.start([&](const Status& st) { done = st; });
    recovered();
    if (!pump([&] { return done.has_value(); }) || !done->ok()) {
      return std::nullopt;
    }
    return now() - t0;
  }

  /// Adds a new data node that claims its share of vnodes while the load
  /// keeps arriving; returns the sim µs until the join completes.
  std::optional<SimDuration> join() {
    cluster::SednaNodeConfig cfg = cluster_->config().node_template;
    cfg.zk_ensemble = cluster_->zk_ids();
    const NodeId id =
        static_cast<NodeId>(100 + cluster_->data_node_count());
    if (!cfg.persistence.dir.empty()) {
      cfg.persistence.dir += "/node-" + std::to_string(id);
    }
    joined_ = std::make_unique<cluster::SednaNode>(cluster_->network(), id,
                                                   cfg);
    joined_->set_flight_recorder(&cluster_->flight_recorder());
    const SimTime t0 = now();
    std::optional<Status> done;
    joined_->start_and_join([&](const Status& st) { done = st; });
    if (!pump([&] { return done.has_value(); }) || !done->ok()) {
      return std::nullopt;
    }
    return now() - t0;
  }

  /// Every data node, the joined one included.
  std::vector<cluster::SednaNode*> data_nodes() {
    std::vector<cluster::SednaNode*> out;
    for (std::size_t i = 0; i < cluster_->data_node_count(); ++i) {
      out.push_back(&cluster_->node(i));
    }
    if (joined_) out.push_back(joined_.get());
    return out;
  }
  cluster::SednaNode* joined() { return joined_.get(); }

  // ---- trace-mode sampling -------------------------------------------------

  void set_sampling(bool on) { sampling_ = on; }
  [[nodiscard]] std::size_t queue_depth_max() const { return qmax_; }
  [[nodiscard]] double mean_pending() const {
    return pending_n_ == 0 ? 0.0
                           : static_cast<double>(pending_sum_) /
                                 static_cast<double>(pending_n_);
  }
  std::vector<std::uint32_t>& op_log() { return op_log_; }

  /// Reads `sample` back through client 0, 32 at a time, and checks each
  /// against the acked-write history. Returns the number of mismatches.
  std::uint64_t read_back(const std::vector<std::uint64_t>& sample,
                          std::vector<std::string>& problems) {
    std::uint64_t bad = 0;
    std::size_t next = 0, inflight = 0;
    std::function<void()> issue = [&] {
      while (inflight < 32 && next < sample.size()) {
        const std::uint64_t k = sample[next++];
        ++inflight;
        clients_[0]->read_latest(
            ks_.key(k), [&, k](const Result<store::VersionedValue>& r) {
              --inflight;
              const bool good = r.ok() && ks_.acceptable(k, r.value().value);
              if (!good) {
                ++bad;
                if (problems.size() < 10) {
                  problems.push_back(
                      "read-back of key " + ks_.key(k) + ": " +
                      (r.ok() ? "value " + r.value().value.substr(0, 24) +
                                    " is not the latest acked write"
                              : r.status().to_string()));
                }
              }
              issue();
            });
      }
    };
    issue();
    if (!pump([&] { return inflight == 0 && next == sample.size(); })) {
      problems.push_back("read-back did not finish");
      return sample.size();
    }
    return bad;
  }

 private:
  /// A closed loop over keys first, first+stride, ... (count of them).
  struct Lane {
    std::uint32_t client;
    std::uint64_t first;
    std::uint64_t stride;
    std::uint64_t count;
    std::uint64_t pos;
    bool reading;
    bool then_read;
  };

  bool run_lanes() {
    lanes_done_ = 0;
    for (std::uint32_t l = 0; l < lanes_.size(); ++l) continue_lane(l);
    const bool ok = pump([&] { return lanes_done_ == lanes_.size(); });
    lanes_.clear();
    return ok;
  }

  void continue_lane(std::uint32_t l) {
    Lane& lane = lanes_[l];
    if (lane.pos < lane.count) {
      const std::uint64_t k = lane.first + lane.pos++ * lane.stride;
      if (lane.reading) {
        read(lane.client, k, l, ks_.writes(k));
      } else {
        write(lane.client, k, l);
      }
      return;
    }
    if (lane.then_read && !lane.reading) {
      lane.reading = true;
      lane.pos = 0;
      continue_lane(l);
      return;
    }
    ++lanes_done_;
  }

  static constexpr std::uint32_t kNoLane = UINT32_MAX;

  void write(std::uint32_t c, std::uint64_t k, std::uint32_t lane) {
    const std::uint32_t w = ks_.next_write(k);
    const SimTime t0 = now();
    ++outstanding_;
    ++sink_->issued;
    clients_[c]->write_latest(
        ks_.key(k), ks_.value(k, w),
        [this, k, w, t0, lane](const Status& st) {
          settle_write(k, w, t0, st);
          if (lane != kNoLane) continue_lane(lane);
        });
  }

  /// `expect_w` != 0 demands exactly that write's value (closed loops
  /// read back their own completed writes).
  void read(std::uint32_t c, std::uint64_t k, std::uint32_t lane,
            std::uint32_t expect_w) {
    const SimTime t0 = now();
    ++outstanding_;
    ++sink_->issued;
    clients_[c]->read_latest(
        ks_.key(k), [this, c, k, t0, lane,
                     expect_w](const Result<store::VersionedValue>& r) {
          settle_read(c, k, t0, expect_w, r);
          if (lane != kNoLane) continue_lane(lane);
        });
  }

  void settle_write(std::uint64_t k, std::uint32_t w, SimTime t0,
                    const Status& st) {
    --outstanding_;
    Tally& t = *sink_;
    ++t.settled;
    ++t.writes;
    const auto lat = static_cast<double>(now() - t0);
    if (st.ok()) {
      ++t.ok;
      ks_.on_ok(k, w, t0, now());
      t.write_us.push_back(lat);
    } else if (st.is(StatusCode::kOutdated)) {
      ++t.outdated;
      t.write_us.push_back(lat);
    } else {
      fail(t, st.code());
      t.write_us.push_back(kFailedLatencyUs);
    }
  }

  void settle_read(std::uint32_t c, std::uint64_t k, SimTime t0,
                   std::uint32_t expect_w,
                   const Result<store::VersionedValue>& r) {
    --outstanding_;
    Tally& t = *sink_;
    ++t.settled;
    ++t.reads;
    const auto lat = static_cast<double>(now() - t0);
    if (!r.ok()) {
      if (r.status().is(StatusCode::kNotFound)) {
        ++t.failed;
        ++t.fail_missing;  // every key is written before it is read
      } else {
        fail(t, r.status().code());
      }
      t.read_us.push_back(kFailedLatencyUs);
      return;
    }
    std::uint64_t ki = 0;
    std::uint32_t wi = 0;
    if (!Keyspace::parse(r.value().value, ki, wi) || ki != k ||
        wi > ks_.writes(k) || (expect_w != 0 && wi != expect_w) ||
        r.value().value != ks_.value(k, wi)) {
      ++t.failed;
      ++t.fail_wrong;
      t.read_us.push_back(kFailedLatencyUs);
      return;
    }
    const std::uint64_t stale = stale_ctr_[c]->value();
    if (stale != stale_seen_[c]) {
      stale_seen_[c] = stale;
      ++t.stale;
    } else {
      ++t.ok;
    }
    t.read_us.push_back(lat);
  }

  static void fail(Tally& t, StatusCode code) {
    ++t.failed;
    switch (code) {
      case StatusCode::kTimeout: ++t.fail_timeout; break;
      case StatusCode::kOverloaded: ++t.fail_overloaded; break;
      case StatusCode::kUnavailable:
      case StatusCode::kQuorumFailed:
      case StatusCode::kRefused: ++t.fail_unavailable; break;
      default: ++t.fail_other; break;
    }
  }

  void schedule_arrival() {
    next_arrival_ += arrivals_.next_exponential(1e6 / rate_);
    const auto at = static_cast<SimTime>(std::ceil(next_arrival_));
    if (at >= gen_until_) {
      gen_done_ = true;
      return;
    }
    sim().schedule(at - now(), [this] {
      if (now() >= gen_until_) {
        gen_done_ = true;
        return;
      }
      issue_open_op();
      schedule_arrival();
    });
  }

  void issue_open_op() {
    const auto c = static_cast<std::uint32_t>(arrival_seq_++ % clients_.size());
    const bool is_read = ops_.next_double() < spec_.read_frac;
    const std::uint64_t k =
        zipf_ ? zipf_->next() : ops_.next_below(spec_.keys);
    if (op_log_.size() < kOpLogMax) {
      op_log_.push_back(static_cast<std::uint32_t>(k));
    }
    if (is_read) {
      read(c, k, kNoLane, 0);
    } else {
      write(c, k, kNoLane);
    }
  }

  void sample() {
    for (std::size_t i = 0; i < cluster_->data_node_count(); ++i) {
      qmax_ = std::max(qmax_, cluster_->node(i).queue_depth());
    }
    if (joined_) qmax_ = std::max(qmax_, joined_->queue_depth());
    pending_sum_ += sim().pending_events();
    ++pending_n_;
  }

  static constexpr std::size_t kOpLogMax = 50000;

  const Spec& spec_;
  const Options& opt_;
  Keyspace& ks_;
  std::string wal_dir_;
  std::unique_ptr<cluster::SednaCluster> cluster_;
  std::unique_ptr<cluster::SednaNode> joined_;  // destroyed before cluster_
  std::vector<cluster::SednaClient*> clients_;
  std::vector<Counter*> stale_ctr_;
  std::vector<std::uint64_t> stale_seen_;
  Tally* sink_ = nullptr;
  std::uint64_t outstanding_ = 0;
  std::uint64_t events_ = 0;
  std::vector<Lane> lanes_;
  std::size_t lanes_done_ = 0;
  // open loop
  Rng arrivals_;
  Rng ops_;
  std::unique_ptr<ZipfGenerator> zipf_;
  double rate_ = 0.0;
  double next_arrival_ = 0.0;
  SimTime gen_until_ = 0;
  bool gen_done_ = true;
  std::uint64_t arrival_seq_ = 0;
  std::vector<std::uint32_t> op_log_;
  // sampling
  bool sampling_ = false;
  std::size_t qmax_ = 0;
  std::uint64_t pending_sum_ = 0;
  std::uint64_t pending_n_ = 0;
};

// ---- layer counters read from the cluster's public surfaces -----------------

struct Counters {
  std::uint64_t msgs = 0, bytes = 0, drops = 0, zk_commits = 0;
  std::uint64_t retries = 0, read_repairs = 0, coord_reads = 0, sheds = 0;
  std::uint64_t items_served = 0, wal_records = 0;
};

std::uint64_t counter_of(MetricRegistry& m, const char* name) {
  const auto& all = m.counters();
  const auto it = all.find(name);
  return it == all.end() ? 0 : it->second.value();
}

Counters read_counters(Engine& e, std::uint64_t snapshot_every) {
  Counters c;
  cluster::SednaCluster& cl = e.cluster();
  c.msgs = cl.network().messages_sent();
  c.bytes = cl.network().bytes_sent();
  c.drops = cl.network().messages_dropped();
  for (std::size_t i = 0; i < 3; ++i) {
    c.zk_commits += cl.zk_member(i).commits_applied();
  }
  for (std::size_t i = 0; i < cl.client_count(); ++i) {
    MetricRegistry& m = cl.client(i).metrics();
    c.retries += counter_of(m, "client.read_retries") +
                 counter_of(m, "client.write_retries");
  }
  for (cluster::SednaNode* n : e.data_nodes()) {
    MetricRegistry& m = n->metrics();
    c.read_repairs += counter_of(m, "coordinator.read_repairs");
    c.coord_reads += counter_of(m, "coordinator.reads");
    c.items_served += counter_of(m, "transfer.items_served");
    c.sheds += n->shed_queue_full() + n->shed_deadline();
    if (wal::PersistenceManager* p = n->persistence()) {
      // The log's record count restarts at every snapshot; add back the
      // records each snapshot absorbed.
      c.wal_records += p->wal_records() + p->snapshots_taken() * snapshot_every;
    }
  }
  return c;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
  d.msgs = a.msgs - b.msgs;
  d.bytes = a.bytes - b.bytes;
  d.drops = a.drops - b.drops;
  d.zk_commits = a.zk_commits - b.zk_commits;
  d.retries = a.retries - b.retries;
  d.read_repairs = a.read_repairs - b.read_repairs;
  d.coord_reads = a.coord_reads - b.coord_reads;
  d.sheds = a.sheds - b.sheds;
  d.items_served = a.items_served - b.items_served;
  d.wal_records = a.wal_records - b.wal_records;
  return d;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

void report_latency(Report& r, Tally& t) {
  r.det("read_p50_ms", quantile(t.read_us, 0.50) / 1e3, "ms");
  r.det("read_p99_ms", quantile(t.read_us, 0.99) / 1e3, "ms");
  r.det("write_p50_ms", quantile(t.write_us, 0.50) / 1e3, "ms");
  r.det("write_p99_ms", quantile(t.write_us, 0.99) / 1e3, "ms");
  r.det("read_samples", static_cast<double>(t.read_us.size()), "count");
  r.det("write_samples", static_cast<double>(t.write_us.size()), "count");
}

/// Keys to read back: the most-written keys (where concurrent writes
/// race) plus a seeded uniform sample.
std::vector<std::uint64_t> check_sample(const Spec& spec, const Keyspace& ks,
                                        std::uint64_t seed) {
  std::vector<std::uint64_t> out(ks.size());
  for (std::uint64_t k = 0; k < ks.size(); ++k) out[k] = k;
  const std::uint64_t hot = std::min<std::uint64_t>(spec.check_sample / 5,
                                                    ks.size());
  std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(hot),
                    out.end(), [&](std::uint64_t a, std::uint64_t b) {
                      return ks.writes(a) != ks.writes(b)
                                 ? ks.writes(a) > ks.writes(b)
                                 : a < b;
                    });
  out.resize(hot);
  std::unordered_set<std::uint64_t> seen(out.begin(), out.end());
  Rng pick(seed ^ 0xC4ECull);
  const std::uint64_t n = std::min<std::uint64_t>(spec.check_sample, ks.size());
  while (out.size() < n) {
    const std::uint64_t k = pick.next_below(ks.size());
    if (seen.insert(k).second) out.push_back(k);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

void run_workload(const Options& opt, Report& report, WorkloadInputs& inputs) {
  const Spec spec = spec_for(opt.workload, opt.small);
  Keyspace ks(spec.keys, spec.value_bytes, opt.seed);
  const std::string run_dir = opt.out_dir + "/" + opt.workload + "-seed" +
                              std::to_string(opt.seed) + "-pid" +
                              std::to_string(getpid());
  const std::uint64_t snap_every = spec.wal ? 50000 : 0;
  // Removes the run's WAL/snapshot directories on every exit path; it is
  // declared before the engine, so the cluster is gone first.
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } remove_run_dir{run_dir};

  if (opt.trace) {
    // Heap bytes per item of a standalone store holding every key. Taken
    // first, on the fresh heap: after the cluster has run, which freed
    // chunks malloc reuses (and so their usable sizes) depends on how many
    // wall-clock slices ran.
    ScopedSpan span("replay.store.bytes_per_item");
    const std::int64_t heap0 = live_heap_bytes();
    store::LocalStore st;
    st.enable_digests(1024, 16);
    for (std::uint64_t k = 0; k < ks.size(); ++k) {
      st.write_latest(ks.key(k), ks.value(k, 1), k + 1);
    }
    report.det("store.bytes_per_item",
               ratio(static_cast<double>(live_heap_bytes() - heap0),
                     static_cast<double>(st.size())),
               "B");
    span.set_items(st.size());
  }

  // ---- setup (boot + preload), repeated for a median ---------------------
  std::unique_ptr<Engine> eng;
  std::vector<double> setup_times;
  const std::uint32_t setups = opt.trace ? 1 : spec.setups;
  for (std::uint32_t s = 0; s < setups; ++s) {
    eng.reset();
    ks.reset();
    ScopedSpan span("setup." + std::to_string(s));
    const auto t0 = WallClock::now();
    eng = std::make_unique<Engine>(
        spec, opt, ks, spec.wal ? run_dir + "/wal-" + std::to_string(s) : "");
    if (!eng->boot()) {
      report.fail("cluster failed to boot");
      return;
    }
    const std::uint64_t rss0 = rss_bytes();
    Tally load;
    if (!eng->preload(load)) {
      report.fail("preload failed: " + std::to_string(load.failed) +
                  " of " + std::to_string(load.issued) + " writes");
      return;
    }
    setup_times.push_back(seconds_since(t0));
    if (s == 0 && !opt.trace) {
      std::uint64_t items = 0;
      for (cluster::SednaNode* n : eng->data_nodes()) {
        items += n->local_store().size();
      }
      report.wall("rss_bytes_per_item",
                  ratio(static_cast<double>(rss_bytes()) -
                            static_cast<double>(rss0),
                        static_cast<double>(items)),
                  "B");
      report.det("stored_replica_items", static_cast<double>(items), "count");
    }
  }
  if (!opt.trace) report.wall("setup_s", median(setup_times), "s");

  Engine& e = *eng;
  cluster::SednaCluster& cl = e.cluster();
  Tracer& tracer = cl.sim().tracer();
  AttributionAggregator agg;
  if (opt.trace) {
    tracer.set_on_trace_finished(
        [&agg](TraceId id, const Tracer::TraceRecord& rec) {
          if (rec.op.rfind("client.", 0) == 0) agg.observe(id, rec);
        });
    tracer.set_enabled(true);
    e.set_sampling(true);
  }

  // ---- reference phase: the seeded schedule ------------------------------
  Tally ref;          // all ops of the reference phase
  Tally lat;          // the ops whose latency is reported
  const Counters c0 = read_counters(e, snap_every);
  const std::uint64_t ev0 = e.events();
  const SimTime sim0 = cl.sim().now();
  const auto wall0 = WallClock::now();
  {
    ScopedSpan span("reference");
    if (spec.name == "paper_fig8") {
      ScopedSpan round("reference.round");
      if (!e.fig8_round(ref)) report.fail("fig8 round did not finish");
      lat = ref;
    } else if (spec.name == "ycsb_a_large") {
      // Offered-rate ladder. A rung passes when both p99s meet the limit
      // and no more than the limit's worth of arrivals is still queued
      // when generation stops (the backlog does not grow).
      double max_rate = 0.0;
      bool all_pass = true;
      double prev_rate = 0.0, prev_p99 = 0.0;
      for (const double rate : spec.ladder) {
        ScopedSpan rung("reference.rate_" +
                        std::to_string(static_cast<int>(rate)));
        Tally t;
        const std::uint64_t backlog = e.open_loop(
            t, rate, rate == spec.rate ? spec.latency_rung_us : spec.rung_us);
        rung.set_items(t.settled);
        const double rp99 = quantile(t.read_us, 0.99);
        const double wp99 = quantile(t.write_us, 0.99);
        const double p99 = std::max(rp99, wp99);
        const bool drains =
            static_cast<double>(backlog) <= rate * kLatencyLimitUs / 1e6;
        const bool pass = p99 <= kLatencyLimitUs && drains;
        char name[64];
        std::snprintf(name, sizeof name, "rate_%d.read_p99_ms",
                      static_cast<int>(rate));
        report.det(name, rp99 / 1e3, "ms");
        std::snprintf(name, sizeof name, "rate_%d.write_p99_ms",
                      static_cast<int>(rate));
        report.det(name, wp99 / 1e3, "ms");
        std::snprintf(name, sizeof name, "rate_%d.backlog",
                      static_cast<int>(rate));
        report.det(name, static_cast<double>(backlog), "count");
        if (all_pass && pass) {
          max_rate = rate;
        } else if (all_pass) {
          // First failing rung: interpolate where the p99 crosses the
          // limit between it and the last passing rung.
          if (prev_rate > 0 && p99 > prev_p99 && drains) {
            max_rate = prev_rate + (rate - prev_rate) *
                                       (kLatencyLimitUs - prev_p99) /
                                       (p99 - prev_p99);
          }
          all_pass = false;
        }
        prev_rate = rate;
        prev_p99 = p99;
        if (rate == spec.rate) lat = t;
        ref.add(t);
      }
      report.det("max_rate_ops_s", max_rate, "1/s");
      report.det("latency_limit_ms", kLatencyLimitUs / 1e3, "ms");
      report.det("latency_rate_ops_s", spec.rate, "1/s");
    } else {
      // durable_churn: steady load, crash, restart, join — all under load.
      // Durability is checked on the seeded read-back sample at three
      // moments. When the restarted node has replayed its WAL (before any
      // hydration), it must hold every key it replicated whose last write
      // was acked well before the crash, so all replicas had applied it.
      // When the restart completes, it must also hold every pre-crash key
      // it still replicates (WAL replay + restart hydration). When the
      // join completes, the new node must hold every pre-crash key of the
      // vnodes it now owns (claim transfer).
      const std::vector<std::uint64_t> sample =
          check_sample(spec, ks, opt.seed);
      std::uint64_t pre_crash = 0, local_checked = 0, local_bad = 0;
      SimTime crash_at = 0;
      SimTime acked_before = 0;
      auto check_local = [&](cluster::SednaNode& n, auto replicated) {
        pre_crash = 0;
        for (const std::uint64_t k : sample) {
          if (ks.last_ok_ack(k) == 0 || ks.last_ok_ack(k) >= acked_before) {
            continue;
          }
          ++pre_crash;
          if (!replicated(ks.key(k))) continue;
          ++local_checked;
          const auto got = n.local_store().read_latest(ks.key(k));
          if (!got.ok() || !ks.at_least_latest(k, got.value().value)) {
            ++local_bad;
            if (local_bad <= 5) {
              report.problems.push_back(
                  "node " + std::to_string(n.id()) +
                  " lacks pre-crash key " + ks.key(k) +
                  (got.ok() ? " (older value)" : " (missing)"));
            }
          }
        }
      };
      auto holds = [](const ring::VnodeTable& t, const std::string& key,
                      NodeId id) {
        const auto reps = t.replicas_for_key(key);
        return std::find(reps.begin(), reps.end(), id) != reps.end();
      };

      e.set_sink(ref);
      e.start_arrivals(spec.rate, UINT64_MAX);
      {
        ScopedSpan s("reference.steady");
        e.run_for(spec.steady_us);
      }
      const std::size_t victim = 2;
      cluster::SednaNode& vnode = cl.node(victim);
      const ring::VnodeTable before = vnode.metadata().table();
      crash_at = cl.sim().now();
      // A replica applies a write within a few ms of its quorum ack.
      acked_before = crash_at - std::min<SimTime>(crash_at, sim_ms(50));
      {
        ScopedSpan s("reference.crash");
        e.crash(victim);
        e.run_for(spec.gap_us);
      }
      {
        ScopedSpan s("reference.restart");
        const auto t0 = WallClock::now();
        const auto d = e.restart(victim, [&] {
          check_local(vnode, [&](const std::string& key) {
            return holds(before, key, vnode.id());
          });
        });
        if (!d) {
          report.fail("restart did not complete");
          return;
        }
        report.det("restart_ms", static_cast<double>(*d) / 1e3, "ms");
        report.wall("restart_wall_s", seconds_since(t0), "s");
        report.det("wal.recovered_records",
                   static_cast<double>(counter_of(
                       vnode.metrics(), "persistence.recovered_records")),
                   "count");
      }
      const ring::VnodeTable after = vnode.metadata().table();
      acked_before = crash_at;
      check_local(vnode, [&](const std::string& key) {
        return holds(before, key, vnode.id()) && holds(after, key, vnode.id());
      });
      e.run_for(spec.gap_us);
      {
        ScopedSpan s("reference.join");
        const auto t0 = WallClock::now();
        const auto d = e.join();
        if (!d) {
          report.fail("join did not complete");
          return;
        }
        report.det("join_ms", static_cast<double>(*d) / 1e3, "ms");
        report.wall("join_wall_s", seconds_since(t0), "s");
      }
      cluster::SednaNode& jn = *e.joined();
      check_local(jn, [&](const std::string& key) {
        const ring::VnodeTable& t = jn.metadata().table();
        return t.owner(t.vnode_for_key(key)) == jn.id();
      });
      e.run_for(spec.gap_us);
      e.stop_arrivals();
      if (!e.drain()) report.fail("churn backlog did not drain");
      lat = ref;
      report.det("check.pre_crash_keys", static_cast<double>(pre_crash),
                 "count");
      report.det("check.local_replicas_checked",
                 static_cast<double>(local_checked), "count");
      if (pre_crash < sample.size() / 4 || local_checked == 0) {
        report.fail("read-back sample lacks pre-crash keys");
      }
      if (local_bad != 0) {
        report.fail(std::to_string(local_bad) +
                    " pre-crash keys missing from the restarted or joined "
                    "node");
      }
    }
  }
  const double ref_wall = seconds_since(wall0);
  const Counters dc = read_counters(e, snap_every) - c0;
  const std::uint64_t ref_events = e.events() - ev0;
  const double ref_sim_s = static_cast<double>(cl.sim().now() - sim0) / 1e6;
  report.det("sim_ops_per_s", ratio(static_cast<double>(ref.good()), ref_sim_s),
             "1/s");
  report_latency(report, lat);
  report.det("reference.ops", static_cast<double>(ref.settled), "count");
  report.det("reference.sim_s", ref_sim_s, "s");
  report.wall("reference.wall_s", ref_wall, "s");

  // ---- per-layer counts over the reference phase (trace mode) ------------
  if (opt.trace) {
    tracer.set_on_trace_finished({});
    const double ops = static_cast<double>(ref.settled);
    report.det("net.messages_per_op", ratio(static_cast<double>(dc.msgs), ops),
               "count");
    report.det("net.bytes_per_op", ratio(static_cast<double>(dc.bytes), ops),
               "B");
    report.det("net.drops", static_cast<double>(dc.drops), "count");
    report.det("zk.commits_per_op",
               ratio(static_cast<double>(dc.zk_commits), ops), "count");
    report.det("client.retries_per_op",
               ratio(static_cast<double>(dc.retries), ops), "count");
    report.det("client.outdated_frac",
               ratio(static_cast<double>(ref.outdated),
                     static_cast<double>(ref.writes)),
               "ratio");
    report.det("coordinator.read_repairs_per_read",
               ratio(static_cast<double>(dc.read_repairs),
                     static_cast<double>(dc.coord_reads)),
               "count");
    report.det("node.sheds", static_cast<double>(dc.sheds), "count");
    report.det("host.queue_depth_max",
               static_cast<double>(e.queue_depth_max()), "count");
    report.det("transfer.items_served", static_cast<double>(dc.items_served),
               "count");
    const std::pair<const char*, TraceStage> stages[] = {
        {"stage.queue_p99_ms", TraceStage::kQueue},
        {"stage.net_p99_ms", TraceStage::kNet},
        {"stage.service_p99_ms", TraceStage::kService},
        {"stage.zk_p99_ms", TraceStage::kZk},
        {"stage.retry_p99_ms", TraceStage::kRetry}};
    for (const auto& [name, stage] : stages) {
      report.det(name, static_cast<double>(agg.stage_p99(stage)) / 1e3, "ms");
    }
    report.det("stage.traced_ops", static_cast<double>(agg.count()), "count");
    // On-disk WAL + snapshot bytes across all nodes per live user byte
    // (every key's key + value), 0 without persistence.
    std::uint64_t disk = 0;
    if (spec.wal) {
      std::error_code ec;
      for (const auto& f :
           std::filesystem::recursive_directory_iterator(e.wal_dir(), ec)) {
        if (f.is_regular_file(ec)) disk += f.file_size(ec);
      }
    }
    std::uint64_t user = 0;
    for (const std::string& k : ks.keys()) user += k.size() + spec.value_bytes;
    report.det("wal.bytes_per_user_byte",
               ratio(static_cast<double>(disk), static_cast<double>(user)),
               "ratio");
    report.det("stage.min_coverage", agg.min_coverage(), "ratio");
    inputs.mean_pending_events = e.mean_pending();
    inputs.mean_event_gap_us =
        ratio(ref_sim_s * 1e6, static_cast<double>(ref_events));
    inputs.mean_message_bytes =
        ratio(static_cast<double>(dc.bytes), static_cast<double>(dc.msgs));
    e.set_sampling(false);
  }

  // ---- slices: more of the workload until --seconds have passed ----------
  // Slices fill at least half of --seconds even when the reference phase
  // is long (durable_churn), so the median rests on enough wall time.
  // Untraced runs time every slice. Traced runs alternate tracer off/on;
  // the first (untraced) slice also yields the exact per-op counts.
  Tally slices;
  double sliced_s = 0.0;
  std::vector<double> rates[2];  // [traced]
  const auto measure_end = wall0 + std::chrono::duration_cast<
                                       WallClock::duration>(
                                       std::chrono::duration<double>(
                                           opt.seconds));
  const std::size_t min_slices = opt.small ? 2 : 10;
  for (std::size_t i = 0;; ++i) {
    const bool traced = opt.trace && (i % 2 == 1);
    if (opt.trace) tracer.set_enabled(traced);
    if (WallClock::now() >= measure_end && i >= min_slices &&
        sliced_s >= opt.seconds / 2) {
      break;
    }
    if (seconds_since(wall0) > 4 * opt.seconds + 30) break;  // runaway guard
    Tally t;
    const Counters sc0 = read_counters(e, snap_every);
    const std::uint64_t ev = e.events();
    const std::uint64_t al = allocations();
    ScopedSpan span(std::string(traced ? "slice.traced." : "slice.") +
                    std::to_string(i));
    const auto t0 = WallClock::now();
    if (spec.name == "paper_fig8") {
      if (!e.fig8_round(t)) report.fail("fig8 round did not finish");
    } else {
      e.open_loop(t, spec.rate, spec.slice_us);
    }
    const double wall = seconds_since(t0);
    sliced_s += wall;
    span.set_items(t.settled);
    if (opt.trace && i == 0) {
      const double ops = static_cast<double>(t.settled);
      const double evs = static_cast<double>(e.events() - ev);
      report.det("sim.events_per_op", ratio(evs, ops), "count");
      report.wall("sim.ns_per_event", ratio(wall * 1e9, evs), "ns");
      report.det("sim.allocs_per_op",
                 ratio(static_cast<double>(allocations() - al), ops), "count");
      const Counters sd = read_counters(e, snap_every) - sc0;
      report.det("wal.records_per_write",
                 ratio(static_cast<double>(sd.wal_records),
                       static_cast<double>(t.writes)),
                 "count");
    }
    rates[traced ? 1 : 0].push_back(ratio(static_cast<double>(t.settled), wall));
    slices.add(t);
  }
  if (opt.trace) tracer.set_enabled(false);
  if (!opt.trace) {
    report.wall("wall_ops_per_s", median(rates[0]), "1/s");
  } else {
    report.wall("trace.overhead_frac",
                1.0 - ratio(median(rates[1]), median(rates[0])), "ratio");
  }
  report.wall("slices", static_cast<double>(rates[0].size() + rates[1].size()),
              "count");

  // ---- outcome accounting --------------------------------------------------
  Tally all = ref;
  all.add(slices);
  report.attempted = all.issued;
  report.failed = all.failed;
  report.det("outcome.ok", static_cast<double>(ref.ok), "count");
  report.det("outcome.outdated", static_cast<double>(ref.outdated), "count");
  report.det("outcome.stale", static_cast<double>(ref.stale), "count");
  report.det("outcome.failed", static_cast<double>(ref.failed), "count");
  report.wall("failed_frac",
              ratio(static_cast<double>(all.failed),
                    static_cast<double>(all.issued)),
              "ratio");
  if (all.issued != all.settled) report.fail("ops left unsettled");
  if (all.failed != 0) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%llu ops failed (timeout %llu, overloaded %llu, "
                  "unavailable %llu, missing %llu, wrong %llu, other %llu)",
                  static_cast<unsigned long long>(all.failed),
                  static_cast<unsigned long long>(all.fail_timeout),
                  static_cast<unsigned long long>(all.fail_overloaded),
                  static_cast<unsigned long long>(all.fail_unavailable),
                  static_cast<unsigned long long>(all.fail_missing),
                  static_cast<unsigned long long>(all.fail_wrong),
                  static_cast<unsigned long long>(all.fail_other));
    // Missing or wrong values are correctness failures; the rest are
    // reported through `failed` and failed_frac.
    if (all.fail_missing + all.fail_wrong != 0) {
      report.fail(buf);
    } else {
      std::printf("note: %s\n", buf);
    }
  }

  // ---- read-back check ------------------------------------------------------
  {
    ScopedSpan span("check.read_back");
    const std::vector<std::uint64_t> sample = check_sample(spec, ks, opt.seed);
    const std::uint64_t bad = e.read_back(sample, report.problems);
    span.set_items(sample.size());
    report.det("check.keys_read_back", static_cast<double>(sample.size()),
               "count");
    if (bad != 0) {
      report.fail(std::to_string(bad) + " of " +
                  std::to_string(sample.size()) +
                  " sampled keys did not read back their latest acked value");
    }
  }

  // ---- inputs for the layer replays ----------------------------------------
  if (opt.trace) {
    inputs.keys = ks.keys();
    inputs.op_keys = std::move(e.op_log());
    if (inputs.op_keys.empty()) {
      // Closed loops touch each key in order.
      for (std::uint32_t k = 0; k < ks.size(); ++k) inputs.op_keys.push_back(k);
    }
    for (std::uint64_t k = 0; k < std::min<std::uint64_t>(ks.size(), 256); ++k) {
      inputs.values.push_back(ks.value(k, 1));
    }
    const ring::VnodeTable& table = cl.client(0).metadata().table();
    inputs.total_vnodes = table.total_vnodes();
    inputs.replicas = table.replicas();
    for (std::uint32_t v = 0; v < table.total_vnodes(); ++v) {
      inputs.owners.push_back(table.owner(v));
    }
  }
}

}  // namespace perfbench
