// Layer replays: each layer's public functions called directly on the
// workload's own keys, values and record sizes, timed from the
// benchmark's side. They run only in traced runs, after the cluster is
// torn down, so they never perturb the timed run. Every replay is cut
// into batches; a metric is the median batch.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/protocol.h"
#include "common/rng.h"
#include "ring/vnode_table.h"
#include "sim/simulation.h"
#include "store/local_store.h"
#include "wal/persistence.h"
#include "wal/wal.h"

namespace perfbench {
namespace {

using namespace sedna;

constexpr int kBatches = 5;

/// Runs `fn(batch)` kBatches times, each inside a span, and returns the
/// median of (batch wall ns / items per batch).
template <class Fn>
double median_ns_per_item(const std::string& name, std::uint64_t items,
                          Fn fn) {
  std::vector<double> per;
  for (int b = 0; b < kBatches; ++b) {
    ScopedSpan span(name + "." + std::to_string(b));
    const std::int64_t t0 = wall_ns();
    fn(b);
    per.push_back(static_cast<double>(wall_ns() - t0) /
                  static_cast<double>(items));
    span.set_items(items);
  }
  return median(per);
}

const std::string& value_for(const WorkloadInputs& in, std::uint64_t k) {
  return in.values[k % in.values.size()];
}

void store_replay(const WorkloadInputs& in, Report& r) {
  const std::uint64_t n = in.keys.size();
  store::LocalStore st;
  st.enable_digests(in.total_vnodes, 16);
  // Load every key (write_latest, the replica data path), in batches.
  const std::uint64_t per = (n + kBatches - 1) / kBatches;
  r.wall("store.set_ns",
         median_ns_per_item("replay.store.set", per,
                            [&](int b) {
                              const std::uint64_t lo = b * per;
                              const std::uint64_t hi = std::min(n, lo + per);
                              for (std::uint64_t k = lo; k < hi; ++k) {
                                st.write_latest(in.keys[k], value_for(in, k),
                                                k + 1);
                              }
                            }),
         "ns");
  // Gets follow the workload's own op key stream (zipf for ycsb_a_large).
  const std::uint64_t gets = std::max<std::uint64_t>(in.op_keys.size(), 50000);
  std::uint64_t hits = 0;
  r.wall("store.get_hit_ns",
         median_ns_per_item("replay.store.get", gets,
                            [&](int) {
                              for (std::uint64_t i = 0; i < gets; ++i) {
                                const auto k =
                                    in.op_keys[i % in.op_keys.size()];
                                hits += st.read_latest(in.keys[k]).ok();
                              }
                            }),
         "ns");
  if (hits != gets * kBatches) r.fail("store replay: get missed a loaded key");
  // One vnode's slice, found the way transfers find it today.
  ring::VnodeTable table(in.total_vnodes, in.replicas);
  std::vector<double> scan_ms;
  for (int b = 0; b < kBatches; ++b) {
    const VnodeId v = static_cast<VnodeId>(
        (static_cast<std::uint64_t>(b) * 211) % in.total_vnodes);
    ScopedSpan span("replay.store.vnode_scan." + std::to_string(b));
    std::uint64_t found = 0;
    const std::int64_t t0 = wall_ns();
    st.for_each_matching(
        [&](std::string_view key) { return table.vnode_for_key(key) == v; },
        [&](const store::Item&) { ++found; });
    scan_ms.push_back(static_cast<double>(wall_ns() - t0) / 1e6);
    span.set_items(found);
  }
  r.wall("store.vnode_scan_ms", median(scan_ms), "ms");
}

void wal_replay(const Options& opt, const WorkloadInputs& in, Report& r) {
  const std::string dir = opt.out_dir + "/replay-wal-" +
                          std::to_string(getpid());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  const std::uint64_t n = std::min<std::uint64_t>(in.keys.size(), 20000);
  const std::uint64_t per = n / kBatches;
  {
    wal::WriteAheadLog log(dir + "/wal.log");
    if (!log.open().ok()) {
      r.fail("wal replay: cannot open log in " + dir);
      return;
    }
    bool io_ok = true;
    r.wall("wal.append_sync_ns",
           median_ns_per_item("replay.wal.append_sync", per,
                              [&](int b) {
                                wal::WalRecord rec;
                                for (std::uint64_t i = 0; i < per; ++i) {
                                  const std::uint64_t k = b * per + i;
                                  rec.key = in.keys[k];
                                  rec.value = value_for(in, k);
                                  rec.ts = k + 1;
                                  io_ok &= log.append(rec).ok();
                                  io_ok &= log.sync().ok();
                                }
                              }),
           "ns");
    if (!io_ok) r.fail("wal replay: append or sync failed");
  }
  std::vector<double> rec_ms;
  for (int b = 0; b < kBatches; ++b) {
    ScopedSpan span("replay.wal.recover." + std::to_string(b));
    store::LocalStore st;
    wal::PersistenceConfig cfg;
    cfg.mode = wal::PersistMode::kWal;
    cfg.dir = dir;
    wal::PersistenceManager pm(cfg, st);
    const std::int64_t t0 = wall_ns();
    const auto got = pm.recover();
    rec_ms.push_back(static_cast<double>(wall_ns() - t0) / 1e6);
    if (!got.ok() || st.size() != per * kBatches) {
      r.fail("wal replay: recovery lost records");
    }
    span.set_items(st.size());
  }
  r.wall("wal.recover_ms", median(rec_ms), "ms");
  std::filesystem::remove_all(dir, ec);
}

void codec_replay(const WorkloadInputs& in, Report& r) {
  const std::uint64_t n = std::max<std::uint64_t>(in.op_keys.size(), 20000);
  std::uint64_t sink = 0;
  r.wall("codec.write_encode_ns",
         median_ns_per_item("replay.codec.write_encode", n,
                            [&](int) {
                              cluster::WriteRequest req;
                              for (std::uint64_t i = 0; i < n; ++i) {
                                const auto k = in.op_keys[i % in.op_keys.size()];
                                req.key = in.keys[k];
                                req.value = value_for(in, k);
                                req.ts = i + 1;
                                sink += req.encode().size();
                              }
                            }),
         "ns");
  std::vector<std::string> replies;
  for (std::size_t i = 0; i < in.values.size(); ++i) {
    cluster::ReadReply rep;
    rep.has_latest = true;
    rep.latest.value = in.values[i];
    rep.latest.ts = i + 1;
    replies.push_back(rep.encode());
  }
  bool decoded = true;
  r.wall("codec.read_reply_decode_ns",
         median_ns_per_item("replay.codec.read_reply_decode", n,
                            [&](int) {
                              for (std::uint64_t i = 0; i < n; ++i) {
                                const auto rep = cluster::ReadReply::decode(
                                    replies[i % replies.size()]);
                                decoded &= rep.ok();
                                if (rep.ok()) sink += rep->latest.value.size();
                              }
                            }),
         "ns");
  if (!decoded || sink == 0) r.fail("codec replay: decode failed");
}

void ring_replay(const WorkloadInputs& in, Report& r) {
  ring::VnodeTable table(in.total_vnodes, in.replicas);
  for (std::uint32_t v = 0; v < in.owners.size(); ++v) {
    table.assign(v, in.owners[v]);
  }
  const std::uint64_t n = std::max<std::uint64_t>(in.op_keys.size(), 50000);
  std::uint64_t sink = 0;
  r.wall("ring.lookup_ns",
         median_ns_per_item("replay.ring.lookup", n,
                            [&](int) {
                              for (std::uint64_t i = 0; i < n; ++i) {
                                const std::string& key =
                                    in.keys[in.op_keys[i % in.op_keys.size()]];
                                sink += table.vnode_for_key(key);
                                sink += table.replicas_for_key(key).size();
                              }
                            }),
         "ns");
  if (sink == 0) r.fail("ring replay: empty lookups");
}

/// Schedule+step replay: a standalone Simulation held at the workload's
/// mean queue depth, each event carrying a payload of the workload's mean
/// message size and scheduling its successor, as message deliveries do.
struct Reschedule {
  sim::Simulation* sim;
  Rng* rng;
  double mean_delay_us;
  std::uint64_t* fired;
  std::string payload;
  void operator()() const {
    ++*fired;
    const auto d = static_cast<SimDuration>(
        1.0 + rng->next_exponential(mean_delay_us));
    sim->schedule(d, Reschedule{*this});
  }
};

void sim_replay(const WorkloadInputs& in, Report& r) {
  sim::Simulation s(7);
  Rng rng(11);
  std::uint64_t fired = 0;
  const auto depth = static_cast<std::size_t>(
      std::clamp(in.mean_pending_events, 16.0, 100000.0));
  const double mean_delay =
      std::max(1.0, in.mean_event_gap_us * static_cast<double>(depth));
  const std::string payload(
      static_cast<std::size_t>(std::max(1.0, in.mean_message_bytes)), 'p');
  for (std::size_t i = 0; i < depth; ++i) {
    Reschedule ev{&s, &rng, mean_delay, &fired, payload};
    s.schedule(static_cast<SimDuration>(1.0 + rng.next_exponential(mean_delay)),
               ev);
  }
  constexpr std::uint64_t kSteps = 200000;
  r.wall("sim.kernel_ns",
         median_ns_per_item("replay.sim.schedule_step", kSteps,
                            [&](int) {
                              for (std::uint64_t i = 0; i < kSteps; ++i) {
                                s.step();
                              }
                            }),
         "ns");
  r.det("sim.replay_queue_depth", static_cast<double>(depth), "count");
  if (fired != kSteps * kBatches) r.fail("sim replay: lost events");
}

}  // namespace

void run_replays(const Options& opt, const WorkloadInputs& inputs,
                 Report& report) {
  if (inputs.keys.empty() || inputs.values.empty() ||
      inputs.op_keys.empty() || inputs.total_vnodes == 0) {
    report.fail("replays: workload produced no inputs");
    return;
  }
  store_replay(inputs, report);
  wal_replay(opt, inputs, report);
  codec_replay(inputs, report);
  ring_replay(inputs, report);
  sim_replay(inputs, report);
}

}  // namespace perfbench
