#include "cluster/sedna_node.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>

#include "cluster/quorum_call.h"
#include "common/logging.h"
#include "ring/rebalancer.h"

namespace sedna::cluster {

namespace {

/// How long a positive ZooKeeper liveness check suppresses re-checking.
constexpr SimDuration kAliveVerifyTtl = sim_ms(500);

/// Vnode transfers one node drives at once: "the data retrieving threads
/// number could be 16 or 8" (Section III.D).
constexpr std::size_t kTransferWindow = 8;

/// End-to-end deadline the leader grants one vnode migration
/// (snapshot + delta catch-up + cutover + drain).
constexpr SimDuration kMigrationTimeout = sim_sec(10);

/// Hints delivered to one target per replay round (rate bound).
constexpr std::size_t kHintReplayBatch = 32;

/// Digest buckets per vnode in the LocalStore Merkle tree.
constexpr std::uint32_t kDigestBuckets = 16;

/// Key summaries per digest reply (bounds message size per round).
constexpr std::size_t kAntiEntropyMaxKeys = 512;

/// Tracked entries in the coordinator's SpaceSaving hot-key sketch (keys
/// whose client-request frequency exceeds requests/capacity are
/// guaranteed tracked).
constexpr std::size_t kHotKeyCapacity = 64;

/// Runs `task(i, done)` for every i in [0, n) with at most kTransferWindow
/// tasks in flight, then calls `all_done`. Only a completion callback ever
/// calls `all_done`, so it runs exactly once. The window is owned by the
/// in-flight callbacks alone and is freed with the last of them.
struct TransferWindow {
  using Task = std::function<void(std::size_t, std::function<void()>)>;

  static void run(std::size_t n, Task task, std::function<void()> all_done) {
    if (n == 0) {
      all_done();
      return;
    }
    pump(std::make_shared<TransferWindow>(
        TransferWindow{n, 0, 0, std::move(task), std::move(all_done)}));
  }

  static void pump(const std::shared_ptr<TransferWindow>& w) {
    while (w->next < w->n && w->outstanding < kTransferWindow) {
      ++w->outstanding;
      w->task(w->next++, [w] {
        --w->outstanding;
        if (w->next < w->n) {
          pump(w);
        } else if (w->outstanding == 0) {
          w->all_done();
        }
      });
    }
  }

  std::size_t n = 0;
  std::size_t next = 0;
  std::size_t outstanding = 0;
  Task task;
  std::function<void()> all_done;
};

/// Node ids of the "node-<id>" children of the ephemeral live registry.
std::vector<NodeId> live_nodes(const std::vector<std::string>& kids) {
  std::vector<NodeId> live;
  for (const auto& name : kids) {
    if (name.rfind("node-", 0) != 0) continue;
    live.push_back(
        static_cast<NodeId>(std::strtoul(name.c_str() + 5, nullptr, 10)));
  }
  return live;
}

// ---- Write builders: the replica writes that recreate stored state. -----

/// The relative TTL that carries an absolute expiry `expires_at` (0 =
/// never) in a copy sent at `now`: the lifetime left, so the copy keeps
/// the original deadline; a deadline already passed still expires the
/// copy at once.
std::uint64_t ttl_left(std::uint64_t expires_at, SimTime now) {
  if (expires_at == 0) return 0;
  return expires_at > now ? expires_at - now : 1;
}

WriteRequest latest_write(const std::string& key,
                          const store::VersionedValue& v,
                          std::uint64_t expires_at, SimTime now) {
  WriteRequest w;
  w.key = key;
  w.value = v.value;
  w.ts = v.ts;  // pinned: replay is idempotent
  w.flags = v.flags;
  w.ttl = ttl_left(expires_at, now);
  return w;
}

WriteRequest list_write(const std::string& key, const store::SourceValue& sv) {
  WriteRequest w;
  w.mode = WriteMode::kAll;
  w.key = key;
  w.value = sv.value;
  w.ts = sv.ts;
  w.source = sv.source;
  return w;
}

WriteRequest causal_write(const std::string& key,
                          const store::CausalRecord& record) {
  WriteRequest w;
  w.key = key;
  w.causal_tag = WriteRequest::kCausalRecord;
  w.record = record;
  return w;
}

/// The replica write that copies a read reply's positive answer: its
/// causal record if it carries one, else its latest value.
WriteRequest copy_write(const std::string& key, const ReadReply& rep,
                        SimTime now) {
  return rep.has_causal ? causal_write(key, rep.causal)
                        : latest_write(key, rep.latest, rep.expires_at, now);
}

/// A causal item is its record (the receiver rebuilds the LWW mirror from
/// the winner); otherwise its latest value. Either way, then its list.
void append_item_writes(const TransferItem& item, SimTime now,
                        std::vector<WriteRequest>& out) {
  if (!item.causal.empty()) {
    out.push_back(causal_write(item.key, item.causal));
  } else if (item.has_latest) {
    out.push_back(latest_write(item.key, item.latest, item.expires_at, now));
  }
  for (const auto& sv : item.value_list) {
    out.push_back(list_write(item.key, sv));
  }
}

struct KeyPull {
  std::string key;
  bool want_list = false;
  bool want_causal = false;
};

struct KeyDiff {
  std::vector<WriteRequest> pushes;
  std::vector<KeyPull> pulls;
};

/// The one reconcile rule, shared by anti-entropy (pushes and pulls) and
/// migration catch-up (pulls only). `local` is this node's content of a
/// vnode's mismatched digest buckets; `peer` summarises the other
/// replica's content of the same buckets. Push what is newer here, pull
/// what is newer there. Causal keys cannot be ranked by timestamp, so
/// differing records are exchanged and joined (the DVV semilattice
/// converges from both sides). A value-list digest mismatch reconciles
/// both directions, since the per-source LWW merge makes the union
/// converge. Pushes come in summary order, then the keys the peer lacks
/// in key order; pulls in summary order.
KeyDiff diff_keys(std::vector<TransferItem> local,
                  const VnodeDigestReply& peer, SimTime now) {
  std::sort(local.begin(), local.end(),
            [](const TransferItem& a, const TransferItem& b) {
              return a.key < b.key;
            });
  std::vector<bool> listed(local.size(), false);
  KeyDiff diff;
  for (const KeySummary& ks : peer.keys) {
    const auto it = std::lower_bound(
        local.begin(), local.end(), ks.key,
        [](const TransferItem& item, const std::string& key) {
          return item.key < key;
        });
    const TransferItem* mine =
        it != local.end() && it->key == ks.key ? &*it : nullptr;
    if (mine != nullptr) listed[it - local.begin()] = true;
    const std::uint64_t my_causal =
        mine == nullptr || mine->causal.empty() ? 0 : mine->causal.digest();
    const std::uint64_t my_list =
        mine == nullptr
            ? 0
            : store::LocalStore::value_list_digest(mine->value_list);
    const bool list_diff = my_list != ks.list_digest;
    if (my_causal != 0 || ks.causal_digest != 0) {
      // Equal record digests mean converged.
      const bool causal_diff = my_causal != ks.causal_digest;
      if (causal_diff && my_causal != 0) {
        diff.pushes.push_back(causal_write(ks.key, mine->causal));
      }
      if (causal_diff && ks.causal_digest != 0) {
        diff.pulls.push_back({ks.key, list_diff, true});
      } else if (list_diff) {
        diff.pulls.push_back({ks.key, true, false});
      }
    } else {
      const bool my_has = mine != nullptr && mine->has_latest;
      const Timestamp my_ts = my_has ? mine->latest.ts : 0;
      if ((ks.has_latest && (!my_has || my_ts < ks.latest_ts)) || list_diff) {
        diff.pulls.push_back({ks.key, list_diff, false});
      }
      if (my_has && (!ks.has_latest || ks.latest_ts < my_ts)) {
        diff.pushes.push_back(
            latest_write(ks.key, mine->latest, mine->expires_at, now));
      }
    }
    if (list_diff && mine != nullptr) {
      for (const auto& sv : mine->value_list) {
        diff.pushes.push_back(list_write(ks.key, sv));
      }
    }
  }
  // Keys the peer did not list are missing there, unless its summary was
  // truncated: then absence proves nothing, and later rounds cover the
  // remainder.
  if (!peer.truncated) {
    for (std::size_t i = 0; i < local.size(); ++i) {
      if (!listed[i]) append_item_writes(local[i], now, diff.pushes);
    }
  }
  return diff;
}

}  // namespace

SednaNode::SednaNode(sim::Network& net, NodeId id, SednaNodeConfig config)
    : sim::Host(net, id, config.host),
      config_(std::move(config)),
      zk_(*this,
          [this] {
            auto zc = config_.zk_client;
            zc.ensemble = config_.zk_ensemble;
            return zc;
          }()),
      metadata_(zk_, *this),
      hot_keys_(kHotKeyCapacity),
      traffic_rebalancer_(config_.traffic_rebalance) {
  store_ = std::make_unique<store::LocalStore>(
      config_.store, [this] { return sim().now(); });
  if (config_.persistence.mode != wal::PersistMode::kNone) {
    persistence_ = std::make_unique<wal::PersistenceManager>(
        config_.persistence, *store_);
  }
  if (config_.audit.enabled) {
    auditor_ = std::make_unique<ConsistencyAuditor>(config_.audit, metrics_);
  }
}

SednaNode::~SednaNode() = default;

Timestamp SednaNode::next_ts() {
  // Writer-unique tie-break: node id in the high byte, a rolling sequence
  // in the low byte, under the microsecond clock.
  const auto seq = static_cast<std::uint16_t>(
      ((id() & 0xff) << 8) | (write_seq_++ & 0xff));
  return make_timestamp(now(), seq);
}

void SednaNode::start(ReadyCallback on_ready) {
  if (persistence_ != nullptr) {
    Status st = persistence_->start();
    if (st.ok()) {
      auto recovered = persistence_->recover();
      if (recovered.ok() && recovered.value() > 0) {
        metrics_.counter("persistence.recovered_records")
            .add(recovered.value());
      }
    }
    schedule_flush();
  }
  zk_.connect([this, on_ready = std::move(on_ready)](const Status& st) {
    if (!st.ok()) {
      on_ready(st);
      return;
    }
    metadata_.start([this, on_ready](const Status& meta_st) {
      if (!meta_st.ok()) {
        on_ready(meta_st);
        return;
      }
      // Register liveness *after* the table is loaded so other nodes never
      // route to a node that cannot serve yet.
      zk_.create(real_node_znode(id()), {}, zk::CreateMode::kEphemeral,
                 [this, on_ready](const Result<std::string>& created) {
                   if (!created.ok() &&
                       !created.status().is(StatusCode::kAlreadyExists)) {
                     on_ready(created.status());
                     return;
                   }
                   ready_ = true;
                   // Merkle leaf cells sized to the ring; rebuilt from the
                   // (possibly persistence-recovered) store content.
                   store_->enable_digests(metadata_.table().total_vnodes(),
                                          kDigestBuckets);
                   sim().schedule_periodic(config_.load_report_interval,
                                           [this] {
                                             set_trace_context({});
                                             report_load();
                                           });
                   if (config_.traffic_rebalance_interval > 0) {
                     traffic_rebalance_timer_.cancel();
                     traffic_rebalance_timer_ = sim().schedule_periodic(
                         config_.traffic_rebalance_interval, [this] {
                           set_trace_context({});
                           traffic_rebalance_tick();
                         });
                   }
                   // Repair daemons: cancel-then-reschedule so a restart
                   // does not stack duplicate timers.
                   if (config_.hint_max_queued > 0 &&
                       config_.hint_replay_interval > 0) {
                     hint_timer_.cancel();
                     hint_timer_ = sim().schedule_periodic(
                         config_.hint_replay_interval, [this] {
                           set_trace_context({});
                           hint_replay_tick();
                         });
                   }
                   if (config_.anti_entropy_interval > 0) {
                     ae_timer_.cancel();
                     ae_timer_ = sim().schedule_periodic(
                         config_.anti_entropy_interval, [this] {
                           set_trace_context({});
                           anti_entropy_tick();
                         });
                   }
                   if (config_.restart_hydration && needs_hydration_) {
                     // A crash emptied the RAM store: pull our vnode
                     // slices back from peer replicas before telling the
                     // operator we are ready — the rolling-restart
                     // contract is "ready means caught up".
                     hydrate_after_restart(
                         [on_ready] { on_ready(Status::Ok()); });
                     return;
                   }
                   on_ready(Status::Ok());
                 });
    });
  });
}

void SednaNode::start_and_join(ReadyCallback on_ready) {
  start([this, on_ready = std::move(on_ready)](const Status& st) {
    if (!st.ok()) {
      on_ready(st);
      return;
    }
    auto moves = ring::Rebalancer::plan_join(metadata_.table(), id());
    metrics_.counter("join.vnodes_planned").add(moves.size());
    // Each steal is a full migration with us as the destination, so a
    // vnode changes hands only after its data has arrived. A move that
    // fails or goes stale leaves the vnode with its current owner.
    const std::size_t n = moves.size();
    TransferWindow::run(
        n,
        [this, moves = std::move(moves)](std::size_t i,
                                         std::function<void()> done) {
          const ring::VnodeMove& move = moves[i];
          set_trace_context({});  // one trace root per migration
          begin_migration(move.vnode, move.from,
                          [this, done](const MigrateVnodeReply& rep) {
                            if (rep.status == StatusCode::kOk) {
                              metrics_.counter("join.vnodes_claimed").add(1);
                            }
                            done();
                          });
        },
        [on_ready] { on_ready(Status::Ok()); });
  });
}

void SednaNode::schedule_flush() {
  if (persistence_ == nullptr ||
      config_.persistence.mode != wal::PersistMode::kPeriodicFlush) {
    return;
  }
  sim().schedule_periodic(config_.flush_interval, [this] {
    if (!alive()) return;
    set_trace_context({});
    if (persistence_->flush_snapshot().ok()) {
      metrics_.counter("persistence.snapshots").add(1);
    }
  });
}

void SednaNode::refresh_vnode_status() {
  const auto bytes = store_->vnode_bytes_all();
  if (bytes.empty()) return;  // digests off: keep the write-volume estimate
  if (vnode_status_.size() < bytes.size()) {
    vnode_status_.resize(bytes.size());
  }
  for (std::size_t v = 0; v < bytes.size(); ++v) {
    vnode_status_[v].capacity_bytes = bytes[v];
  }
}

void SednaNode::report_load() {
  if (!alive() || !ready_) return;
  // The row is computed from the per-vnode statuses (paper III.B: "a[n]
  // imbalance table for all the real nodes computed from the virtual
  // nodes' status"), with resident bytes taken from the store. Only
  // vnodes with activity get a detail row, so the row stays compact.
  //
  // Read/write/miss counts are *per-window deltas* since the previous
  // report, not lifetime totals: the traffic rebalancer compares recent
  // load across nodes, and a lifetime counter would keep crediting a
  // migrated vnode's whole history to its old owner. Capacity stays
  // absolute (resident bytes are a level, not a rate).
  refresh_vnode_status();
  ring::RealNodeLoad row;
  row.node = id();
  row.vnode_count = 0;
  for (const auto& [node, count] : metadata_.table().counts()) {
    if (node == id()) row.vnode_count = count;
  }
  row.capacity_bytes = store_->stats().bytes;
  if (reported_status_.size() < vnode_status_.size()) {
    reported_status_.resize(vnode_status_.size());
  }
  for (std::size_t v = 0; v < vnode_status_.size(); ++v) {
    const ring::VnodeStatus& vs = vnode_status_[v];
    const ring::VnodeStatus& prev = reported_status_[v];
    const std::uint64_t reads = vs.reads - prev.reads;
    const std::uint64_t writes = vs.writes - prev.writes;
    const std::uint64_t misses = vs.misses - prev.misses;
    row.reads += reads;
    row.writes += writes;
    row.misses += misses;
    if (reads != 0 || writes != 0 || misses != 0 ||
        vs.capacity_bytes != 0) {
      row.vnodes.push_back(ring::VnodeLoadRow{
          static_cast<VnodeId>(v), vs.capacity_bytes, reads, writes,
          misses});
    }
  }
  reported_status_ = vnode_status_;
  // Replication-lag gossip rides the same row as a trailing-optional
  // section: per-vnode lag estimate plus the stale serves issued this
  // window. Nothing is appended with auditing off, so the row (and its
  // network footprint) stays byte-identical.
  if (auditor_ != nullptr) row.lags = auditor_->lag_rows(now());
  const std::string path =
      std::string(kZkRealNodes) + "/load-" + std::to_string(id());
  // Upsert: set, create on NotFound.
  zk_.set(path, row.encode(), -1,
          [this, path, row](const Result<zk::ZnodeStat>& set) {
            if (set.ok() || !set.status().is(StatusCode::kNotFound)) return;
            zk_.create(path, row.encode(), zk::CreateMode::kEphemeral,
                       [](const Result<std::string>&) {});
          });
}

void SednaNode::probe_visibility(const std::string& key, Timestamp wts,
                                 VnodeId vnode, SimTime acked_at) {
  // Snapshot the replica set at ack time: those are the copies the write
  // quorum was assembled from, so those are the copies the visibility
  // promise is about.
  auto replicas = std::make_shared<std::vector<NodeId>>(
      metadata_.table().replicas_for_vnode(vnode));
  const std::size_t offsets = config_.audit.probe_offsets.size();
  for (std::size_t i = 0; i < offsets; ++i) {
    const bool final_offset = i + 1 == offsets;
    sim().schedule(
        config_.audit.probe_offsets[i],
        [this, key, wts, acked_at, replicas, i, final_offset] {
          if (!alive() || !ready_ || auditor_ == nullptr) return;
          set_trace_context({});
          auditor_->on_probe_fire(i);
          ReadRequest probe;
          probe.mode = ReadMode::kLatest;
          probe.key = key;
          // Visibility means "this write or something newer": under LWW a
          // later overwrite legitimately shadows the probed timestamp. A
          // probe that timed out or was shed is abandonment, not evidence.
          auto check = [this, i, final_offset, wts, acked_at, key](
                           NodeId replica, const ReadReply* rep) {
            if (auditor_ == nullptr) return;
            if (rep == nullptr) {
              auditor_->on_probe_check(i, false, false);
              return;
            }
            const bool visible = rep->has_latest && rep->latest.ts >= wts;
            auditor_->on_probe_check(i, true, visible);
            if (final_offset && !visible) {
              record_visibility_violation(acked_at, key, replica);
            }
          };
          fan_out(
              *this, *replicas, kMsgReplicaRead, probe.encode(),
              config_.audit.probe_timeout, 0,
              [&] {
                const ReadReply rep = local_read(probe);
                check(id(), &rep);
              },
              [&](NodeId replica) {
                return [check, replica](const Status& st,
                                        const std::string& body) {
                  auto rep = st.ok() ? ReadReply::decode(body)
                                     : Result<ReadReply>(st);
                  const bool answered =
                      rep.ok() && rep->status != StatusCode::kOverloaded;
                  check(replica, answered ? &*rep : nullptr);
                };
              });
        });
  }
}

void SednaNode::record_visibility_violation(SimTime acked_at,
                                            const std::string& key,
                                            NodeId replica) {
  auditor_->on_violation(acked_at, now(), key, replica);
  if (flight_ != nullptr) {
    flight_->record(now(), "consistency", "node-" + std::to_string(id()),
                    "visibility-violation",
                    "key=" + key + " replica=" + std::to_string(replica) +
                        " acked_at=" + std::to_string(acked_at));
  }
}

void SednaNode::on_message(const sim::Message& msg) {
  switch (msg.type) {
    case kMsgClientWrite:
      handle_client_write(msg);
      break;
    case kMsgClientRead:
      handle_client_read(msg);
      break;
    case kMsgReplicaWrite:
      handle_replica_write(msg);
      break;
    case kMsgReplicaRead:
      handle_replica_read(msg);
      break;
    case kMsgFetchVnode:
      handle_fetch_vnode(msg);
      break;
    case kMsgTakeoverVnode:
      handle_takeover(msg);
      break;
    case kMsgPurgeVnode:
      handle_purge_vnode(msg);
      break;
    case kMsgScan:
      handle_scan(msg);
      break;
    case kMsgHintDeliver:
      handle_hint_deliver(msg);
      break;
    case kMsgVnodeDigest:
      handle_vnode_digest(msg);
      break;
    case kMsgMigrateVnode:
      handle_migrate_vnode(msg);
      break;
    case zk::kMsgWatchEvent:
      zk_.on_watch_event(msg.payload);
      break;
    default:
      break;
  }
}

std::string SednaNode::rpc_span_name(sim::MessageType type) const {
  switch (type) {
    case kMsgClientWrite: return "rpc.client_write";
    case kMsgClientRead: return "rpc.client_read";
    case kMsgReplicaWrite: return "rpc.replica_write";
    case kMsgReplicaRead: return "rpc.replica_read";
    case kMsgFetchVnode: return "rpc.fetch_vnode";
    case kMsgScan: return "rpc.scan";
    case kMsgHintDeliver: return "rpc.hint_deliver";
    case kMsgVnodeDigest: return "rpc.vnode_digest";
    case kMsgMigrateVnode: return "rpc.migrate_vnode";
    case zk::kMsgClientRequest: return "rpc.zk_request";
    case zk::kMsgSessionPing: return "rpc.zk_ping";
    default: return sim::Host::rpc_span_name(type);
  }
}

TraceStage SednaNode::rpc_span_stage(sim::MessageType type) const {
  switch (type) {
    // Replica fan-out waits: what the coordinator experiences is "time
    // until enough replicas answered" — attributed to service (the wire
    // share of an intra-cluster hop rides along; see DESIGN.md §5g).
    case kMsgReplicaWrite:
    case kMsgReplicaRead:
      return TraceStage::kService;
    case kMsgFetchVnode:
    case kMsgMigrateVnode:
      return TraceStage::kMigration;
    case kMsgScan:
    case kMsgVnodeDigest:
      return TraceStage::kRepair;
    case kMsgHintDeliver:
      return TraceStage::kHintReplay;
    case zk::kMsgClientRequest:
    case zk::kMsgSessionPing:
      return TraceStage::kZk;
    default:
      return sim::Host::rpc_span_stage(type);
  }
}

std::size_t SednaNode::message_priority(const sim::Message& msg) const {
  if (msg.is_response) return 0;  // responses finish work already paid for
  switch (msg.type) {
    case kMsgClientRead:
    case kMsgReplicaRead:
      return 0;
    case kMsgClientWrite:
    case kMsgReplicaWrite:
      return 1;
    case kMsgScan:
    case kMsgHintDeliver:
    case kMsgVnodeDigest:
      return 2;  // repair / anti-entropy
    case kMsgFetchVnode:
    case kMsgTakeoverVnode:
    case kMsgPurgeVnode:
    case kMsgMigrateVnode:
      return 3;  // migration bulk loses its queue slots first
    default:
      return 0;  // ZK watch deliveries and control traffic stay first class
  }
}

void SednaNode::on_shed(const sim::Message& msg, sim::ShedReason reason) {
  metrics_
      .counter(reason == sim::ShedReason::kQueueFull
                   ? "node.shed.queue_full"
                   : "node.shed.deadline_exceeded")
      .add(1);
  // The shed is part of the request's trace: a zero-width span whose
  // "overloaded" status the critical-path analyzer charges to retry.
  set_trace_context(TraceContext{msg.trace_id, msg.span_id});
  instant_span("node.shed", "overloaded", TraceStage::kQueue);
  switch (msg.type) {
    case kMsgClientWrite:
    case kMsgReplicaWrite:
      refuse<WriteReply>(msg, StatusCode::kOverloaded);
      break;
    case kMsgClientRead:
    case kMsgReplicaRead:
      refuse<ReadReply>(msg, StatusCode::kOverloaded);
      break;
    default:
      break;  // background daemons retry on their own cadence
  }
}

void SednaNode::on_crash() {
  // Volatile state dies with the process; the LocalStore empties (it is
  // RAM) and in-flight coordination is dropped. Persistence files remain
  // on disk for restart-time recovery.
  store_->clear();
  recovering_.clear();
  verified_alive_.clear();
  vnode_status_.clear();
  hot_keys_.clear();
  ready_ = false;
  // Hints are coordinator RAM: they die with the process. The Merkle
  // anti-entropy pass is what makes that loss survivable.
  hint_queues_.clear();
  hints_pending_ = 0;
  ae_last_synced_.clear();
  ae_in_flight_ = false;
  hint_timer_.cancel();
  ae_timer_.cancel();
  // Migration state is volatile too: a crashed destination simply never
  // reaches cutover (the source keeps serving), and a crashed leader's
  // in-flight round is forgotten (the next leader replans from fresh
  // telemetry).
  reported_status_.clear();
  migrating_in_.clear();
  migrations_dispatched_ = 0;
  traffic_rebalancer_.reset();
  traffic_rebalance_timer_.cancel();
  // The next start() finds an empty store where peers still hold data.
  needs_hydration_ = true;
}

void SednaNode::hydrate_after_restart(std::function<void()> done) {
  needs_hydration_ = false;
  std::vector<VnodeId> todo = metadata_.table().replica_vnodes_of(id());
  const std::size_t n = todo.size();
  TransferWindow::run(
      n,
      [this, todo = std::move(todo)](std::size_t i,
                                     std::function<void()> fetched) {
        const VnodeId v = todo[i];
        fetch_vnode_from(v, metadata_.table().replicas_for_vnode(v), 0,
                         [this, fetched](bool ok, std::uint64_t) {
                           metrics_
                               .counter(ok ? "restart.vnodes_hydrated"
                                           : "restart.hydration_failed")
                               .add(1);
                           fetched();
                         });
      },
      std::move(done));
}

StatusCode SednaNode::apply_write(const WriteRequest& req) {
  // Per-vnode write frequency + rough capacity delta (paper III.B).
  if (ring::VnodeStatus* traffic = vnode_traffic(req.key)) {
    ++traffic->writes;
    traffic->capacity_bytes += req.key.size() + req.value.size();
  }
  // A failed log append fails the write: the replica must not ack what
  // it could not log.
  Status st;
  if (req.causal_tag == WriteRequest::kCausalRecord) {
    bool changed = false;
    st = join_causal(req.key, req.record, &changed);
  } else if (req.mode == WriteMode::kLatest) {
    st = store_->write_latest(req.key, req.value, req.ts, req.flags,
                              req.ttl);
    if (st.ok() && persistence_ != nullptr) {
      st = persistence_->on_write_latest(
          req.key, req.value, req.ts, req.flags,
          req.ttl == 0 ? 0 : store_->clock_now() + req.ttl);
    }
  } else {
    st = store_->write_all(req.key, req.source, req.value, req.ts);
    if (st.ok() && persistence_ != nullptr) {
      st = persistence_->on_write_all(req.key, req.source, req.value, req.ts);
    }
  }
  return st.code();
}

Status SednaNode::join_causal(const std::string& key,
                              const store::CausalRecord& record,
                              bool* changed) {
  // The WAL logs the *incoming* record only when the join moved local
  // state: replay re-joins the same records, so recovery cannot lose
  // siblings that were acked.
  Status st = store_->merge_causal(key, record, changed);
  if (st.ok() && *changed && persistence_ != nullptr) {
    st = persistence_->on_write_causal(key, record);
  }
  return st;
}

bool SednaNode::apply_copy(const WriteRequest& w) {
  if (w.causal_tag != WriteRequest::kCausalRecord) {
    return apply_write(w) == StatusCode::kOk;
  }
  bool changed = false;
  return join_causal(w.key, w.record, &changed).ok() && changed;
}

ring::VnodeStatus* SednaNode::vnode_traffic(const std::string& key) {
  if (!metadata_.ready()) return nullptr;
  const auto& table = metadata_.table();
  if (vnode_status_.size() < table.total_vnodes()) {
    vnode_status_.resize(table.total_vnodes());
  }
  return &vnode_status_[table.vnode_for_key(key)];
}

ReadReply SednaNode::local_read(const ReadRequest& req) {
  ring::VnodeStatus* traffic = vnode_traffic(req.key);
  if (traffic != nullptr) ++traffic->reads;
  ReadReply rep;
  if (req.causal) {
    auto got = store_->read_causal(req.key);
    if (got.ok()) {
      rep.has_causal = true;
      rep.causal = std::move(got).value();
    } else {
      rep.status = got.status().code();
    }
  } else if (req.mode == ReadMode::kLatest) {
    auto got = store_->read_latest(req.key, &rep.expires_at);
    if (got.ok()) {
      rep.has_latest = true;
      rep.latest = std::move(got).value();
    } else {
      rep.status = got.status().code();
    }
  } else {
    auto got = store_->read_all(req.key);
    if (got.ok()) {
      rep.value_list = std::move(got).value();
    } else {
      rep.status = got.status().code();
    }
  }
  if (traffic != nullptr && rep.status != StatusCode::kOk) ++traffic->misses;
  return rep;
}

void SednaNode::handle_replica_write(const sim::Message& msg) {
  auto req = WriteRequest::decode(msg.payload);
  WriteReply rep;
  if (!req.ok()) {
    rep.status = StatusCode::kInvalidArgument;
  } else {
    rep.status = apply_write(*req);
    replica_writes_->add(1);
  }
  instant_span("replica.write", to_string(rep.status),
               TraceStage::kService);
  reply(msg, rep.encode());
}

void SednaNode::handle_replica_read(const sim::Message& msg) {
  auto req = ReadRequest::decode(msg.payload);
  if (!req.ok()) {
    refuse<ReadReply>(msg, StatusCode::kInvalidArgument);
    return;
  }
  replica_reads_->add(1);
  ReadReply rep = local_read(*req);
  instant_span("replica.read", to_string(rep.status),
               TraceStage::kService);
  reply(msg, rep.encode());
}

void SednaNode::handle_client_write(const sim::Message& msg) {
  auto decoded = WriteRequest::decode(msg.payload);
  if (!decoded.ok() || !ready_) {
    refuse<WriteReply>(msg, decoded.ok() ? StatusCode::kUnavailable
                                         : StatusCode::kInvalidArgument);
    return;
  }
  WriteRequest req = std::move(decoded).value();
  if (req.ts == 0) req.ts = next_ts();
  if (req.source == kInvalidNode) req.source = msg.from;

  // Causal put: the coordinator mints the dot locally *first* — pruning
  // the siblings covered by the client's read context and appending the
  // new value — then fans out the full post-update record, so replicas
  // join states instead of racing on timestamps. The local apply in the
  // fan-out sees the rewritten record and is an idempotent no-op join
  // that still counts as this replica's ack.
  const bool causal_put = req.causal_tag == WriteRequest::kCausalCtx;
  if (causal_put) {
    auto minted = store_->write_causal(req.key, req.ctx, req.value, req.ts,
                                       req.flags, id());
    if (!minted.ok() ||
        (persistence_ != nullptr &&
         !persistence_->on_write_causal(req.key, minted.value()).ok())) {
      refuse<WriteReply>(msg, StatusCode::kFailure);
      return;
    }
    req.causal_tag = WriteRequest::kCausalRecord;
    req.record = std::move(minted).value();
    req.ctx = {};
  }
  QuorumCall<WriteRequest>::start(*this, msg, std::move(req), causal_put);
}

void SednaNode::handle_client_read(const sim::Message& msg) {
  auto decoded = ReadRequest::decode(msg.payload);
  if (!decoded.ok() || !ready_) {
    refuse<ReadReply>(msg, decoded.ok() ? StatusCode::kUnavailable
                                        : StatusCode::kInvalidArgument);
    return;
  }
  QuorumCall<ReadRequest>::start(*this, msg, std::move(decoded).value());
}

void SednaNode::read_repair(const std::string& key, const ReadReply& answer,
                            const std::vector<NodeId>& stale) {
  metrics_.counter("coordinator.read_repairs").add(1);
  const WriteRequest req = copy_write(key, answer, now());
  // The repair span closes when the last stale replica has been pushed,
  // so its duration covers the backfill round trips.
  const SpanId span = begin_span("coord.read_repair", TraceStage::kRepair);
  const TraceContext prev = enter_span(span);
  auto remaining = std::make_shared<std::size_t>(stale.size());
  fan_out(
      *this, stale, kMsgReplicaWrite, req.encode(), config().rpc_timeout_us,
      0,
      [&] {
        apply_write(req);
        if (--*remaining == 0) end_span(span);
      },
      [&](NodeId) {
        return [this, span, remaining](const Status&, const std::string&) {
          if (--*remaining == 0) end_span(span);
        };
      });
  set_trace_context(prev);
}

void SednaNode::suspect_node(NodeId replica, VnodeId vnode) {
  // Damp repeated verification of a node we recently saw alive: a single
  // dropped packet must not stampede ZooKeeper (Section III.E: "use local
  // cache").
  const auto it = verified_alive_.find(replica);
  if (it != verified_alive_.end() &&
      now() - it->second <= kAliveVerifyTtl) {
    return;
  }
  metrics_.counter("failure.suspicions").add(1);
  const SpanId span = begin_span("failure.suspect", TraceStage::kRepair);
  const TraceContext prev = enter_span(span);
  const TraceContext span_ctx = trace_context();
  zk_.exists(real_node_znode(replica),
             [this, span, span_ctx, replica,
              vnode](const Result<zk::ZnodeStat>& st) {
               set_trace_context(span_ctx);
               if (st.ok()) {
                 verified_alive_[replica] = now();
                 end_span(span, "alive");
                 return;  // transient hiccup; node is registered
               }
               if (!st.status().is(StatusCode::kNotFound)) {
                 end_span(span, "error");
                 return;
               }
               end_span(span, "dead");
               // Ephemeral gone: the heartbeat lapsed and ZooKeeper
               // expired the session — the node is dead (Section III.D).
               // Recover every vnode the dead node owns within this key's
               // replica walk (the walk spans vnodes until N distinct live
               // owners are found; the dead node may own several of them).
               const auto& table = metadata_.table();
               const std::uint32_t n = table.total_vnodes();
               const std::uint32_t want = metadata_.config().replicas;
               std::vector<NodeId> live_seen;
               for (std::uint32_t step = 0; step < n; ++step) {
                 const VnodeId v = (vnode + step) % n;
                 const NodeId owner = table.owner(v);
                 if (owner == replica) {
                   start_recovery(v, replica);
                 } else if (owner != kInvalidNode &&
                            std::find(live_seen.begin(), live_seen.end(),
                                      owner) == live_seen.end()) {
                   live_seen.push_back(owner);
                   if (live_seen.size() >= want) break;
                 }
               }
             });
  set_trace_context(prev);
}

void SednaNode::start_recovery(VnodeId vnode, NodeId dead) {
  if (recovering_.contains(vnode)) return;
  recovering_.insert(vnode);
  metrics_.counter("failure.recoveries_started").add(1);
  instant_span("recovery.start", "ok", TraceStage::kRepair);

  // Healthy sources for the slice: the vnode's other current replicas.
  auto sources = metadata_.table().replicas_for_vnode(vnode);
  std::erase(sources, dead);

  zk_.children(
      kZkRealNodes,
      [this, vnode, dead, sources](
          const Result<std::vector<std::string>>& kids) {
        if (!kids.ok()) {
          finish_recovery(vnode);
          return;
        }
        // Candidates: live nodes not already holding this slice.
        std::vector<NodeId> candidates;
        for (NodeId n : live_nodes(kids.value())) {
          if (n != dead &&
              std::find(sources.begin(), sources.end(), n) ==
                  sources.end()) {
            candidates.push_back(n);
          }
        }
        if (candidates.empty()) {
          // Not enough distinct nodes to restore full replication; stay
          // degraded (quorum reads/writes continue on the survivors).
          metrics_.counter("failure.recovery_degraded").add(1);
          finish_recovery(vnode);
          return;
        }
        // Least-loaded candidate by our local vnode counts, tie by id.
        const auto counts = metadata_.table().counts();
        NodeId target = candidates.front();
        std::uint32_t best = UINT32_MAX;
        for (NodeId n : candidates) {
          const auto cit = counts.find(n);
          const std::uint32_t load = cit == counts.end() ? 0 : cit->second;
          if (load < best || (load == best && n < target)) {
            best = load;
            target = n;
          }
        }
        // CAS the vnode znode: first coordinator to notice wins; losers
        // observe the new owner and stand down.
        zk_.get(
            vnode_znode(vnode),
            [this, vnode, dead, target, sources](
                const Result<std::pair<std::string, zk::ZnodeStat>>& got) {
              if (!got.ok()) {
                finish_recovery(vnode);
                return;
              }
              const auto current = VnodeOwner::decode(got->first);
              if (!current.ok() || current->owner != dead) {
                // Someone already recovered it.
                if (current.ok()) metadata_.apply_local(vnode, current->owner);
                finish_recovery(vnode);
                return;
              }
              zk_.set(
                  vnode_znode(vnode), VnodeOwner{target}.encode(),
                  got->second.version,
                  [this, vnode, target, sources](
                      const Result<zk::ZnodeStat>& set) {
                    if (!set.ok()) {
                      metadata_.sync_now();
                      finish_recovery(vnode);
                      return;
                    }
                    metadata_.apply_local(vnode, target);
                    metrics_.counter("failure.recoveries_completed").add(1);
                    instant_span("recovery.reassigned", "ok",
                                 TraceStage::kRepair);
                    append_change_journal(vnode, target, [this, vnode,
                                                          target, sources] {
                      // Tell the new owner to pull the slice from the
                      // surviving replicas (async duplication task,
                      // Section III.C).
                      TakeoverRequest req;
                      req.vnode = vnode;
                      req.sources = sources;
                      send_oneway(target, kMsgTakeoverVnode, req.encode());
                      finish_recovery(vnode);
                    });
                  });
            });
      });
}

void SednaNode::finish_recovery(VnodeId vnode) { recovering_.erase(vnode); }

void SednaNode::append_change_journal(VnodeId vnode, NodeId owner,
                                      std::function<void()> done) {
  zk_.create(std::string(kZkChanges) + "/c",
             ChangeJournalEntry{vnode, owner}.encode(),
             zk::CreateMode::kPersistentSequential,
             [done = std::move(done)](const Result<std::string>&) {
               if (done) done();
             });
}

void SednaNode::handle_fetch_vnode(const sim::Message& msg) {
  auto req = FetchVnodeRequest::decode(msg.payload);
  if (!req.ok() || !ready_) {
    refuse<FetchVnodeReply>(msg, StatusCode::kUnavailable);
    return;
  }
  FetchVnodeReply rep;
  rep.items = vnode_items(req->vnode, nullptr);
  metrics_.counter("transfer.vnodes_served").add(1);
  metrics_.counter("transfer.items_served").add(rep.items.size());
  reply(msg, rep.encode());
}

void SednaNode::handle_scan(const sim::Message& msg) {
  auto req = ScanRequest::decode(msg.payload);
  if (!req.ok() || !ready_) {
    refuse<ScanReply>(msg, StatusCode::kUnavailable);
    return;
  }
  ScanReply rep;
  // Report only keys whose primary vnode we own: the client scatters to
  // every node, so replica copies must not triple the result set.
  const auto& table = metadata_.table();
  const std::string& prefix = req->prefix;
  const std::uint32_t limit = req->limit;
  store_->for_each_matching(
      [&](std::string_view key) {
        return key.substr(0, prefix.size()) == prefix &&
               table.owner(table.vnode_for_key(key)) == id();
      },
      [&rep, limit](const store::Item& item) {
        if (rep.keys.size() < limit) {
          rep.keys.push_back(item.key);
        } else {
          rep.truncated = true;
        }
      });
  metrics_.counter("coordinator.scans").add(1);
  reply(msg, rep.encode());
}

void SednaNode::handle_purge_vnode(const sim::Message& msg) {
  auto req = PurgeVnodeRequest::decode(msg.payload);
  if (!req.ok()) return;
  // Refresh the local view first: the journal entry naming the new owner
  // may not have reached us yet.
  metadata_.apply_local(req->vnode, req->new_owner);
  purge_local_vnode(req->vnode);
}

void SednaNode::purge_local_vnode(VnodeId vnode) {
  // Only purge if we are truly out of the slice's replica set now; the
  // previous owner often remains a successor replica on the walk.
  const auto replicas = metadata_.table().replicas_for_vnode(vnode);
  if (std::find(replicas.begin(), replicas.end(), id()) != replicas.end()) {
    return;
  }
  std::vector<std::string> doomed;
  for_each_vnode_item(vnode, nullptr, [&doomed](const store::Item& item) {
    doomed.push_back(item.key);
  });
  for (const auto& key : doomed) store_->del(key);
  metrics_.counter("transfer.purged_items").add(doomed.size());
}

void SednaNode::for_each_vnode_item(
    VnodeId vnode, const std::vector<std::uint32_t>* buckets,
    const std::function<void(const store::Item&)>& fn) {
  const auto& table = metadata_.table();
  const std::uint32_t per_vnode = store_->digest_buckets_per_vnode();
  store_->for_each_matching(
      [&table, vnode, buckets, per_vnode](std::string_view key) {
        if (table.vnode_for_key(key) != vnode) return false;
        if (buckets == nullptr) return true;
        const std::uint32_t b =
            store::LocalStore::digest_bucket_of(key, per_vnode);
        return std::find(buckets->begin(), buckets->end(), b) !=
               buckets->end();
      },
      fn);
}

std::vector<TransferItem> SednaNode::vnode_items(
    VnodeId vnode, const std::vector<std::uint32_t>* buckets) {
  std::vector<TransferItem> items;
  for_each_vnode_item(vnode, buckets, [&items](const store::Item& item) {
    items.push_back(TransferItem{item.key, item.has_latest, item.latest,
                                 item.value_list, item.causal,
                                 item.expires_at});
  });
  return items;
}

void SednaNode::handle_takeover(const sim::Message& msg) {
  // Recovery only: the coordinator has already CASed a dead owner's vnode
  // to us, since there is no live owner to snapshot from. Moves off a
  // live owner go through begin_migration instead.
  auto req = TakeoverRequest::decode(msg.payload);
  if (!req.ok()) return;
  const VnodeId vnode = req->vnode;
  const auto sources = req->sources;
  fetch_vnode_from(vnode, sources, 0,
                   [this, vnode, sources](bool ok, std::uint64_t) {
    metrics_.counter(ok ? "transfer.takeovers_ok" : "transfer.takeovers_failed")
        .add(1);
    if (!ok) return;
    // Invite the sources to drop their copies. Each re-checks its own
    // membership in the slice's replica set before deleting anything, so
    // a survivor that is still a replica keeps its copy.
    PurgeVnodeRequest purge{vnode, id()};
    for (NodeId source : sources) {
      if (source != id() && network().node_up(source)) {
        send_oneway(source, kMsgPurgeVnode, purge.encode());
      }
    }
  });
}

void SednaNode::fetch_vnode_from(VnodeId vnode, std::vector<NodeId> sources,
                                 std::size_t idx,
                                 std::function<void(bool, std::uint64_t)> done) {
  // Skip ourselves (we may appear in a replica walk) and exhausted lists.
  while (idx < sources.size() && sources[idx] == id()) ++idx;
  if (idx >= sources.size()) {
    done(false, 0);
    return;
  }
  FetchVnodeRequest req;
  req.vnode = vnode;
  const NodeId source = sources[idx];  // read before the capture moves it
  call(source, kMsgFetchVnode, req.encode(),
       [this, vnode, sources = std::move(sources), idx,
        done = std::move(done)](const Status& st,
                                const std::string& body) mutable {
         if (!st.ok()) {
           fetch_vnode_from(vnode, std::move(sources), idx + 1,
                            std::move(done));
           return;
         }
         auto rep = FetchVnodeReply::decode(body);
         if (!rep.ok() || rep->status != StatusCode::kOk) {
           fetch_vnode_from(vnode, std::move(sources), idx + 1,
                            std::move(done));
           return;
         }
         std::uint64_t bytes = 0;
         std::vector<WriteRequest> writes;
         for (const auto& item : rep->items) {
           bytes += item.key.size();
           if (item.has_latest) bytes += item.latest.value.size();
           for (const auto& sv : item.value_list) bytes += sv.value.size();
           writes.clear();
           append_item_writes(item, now(), writes);
           for (const WriteRequest& w : writes) apply_copy(w);
         }
         metrics_.counter("transfer.items_received").add(rep->items.size());
         done(true, bytes);
       });
}

// ---------------------------------------------------------------------------
// Hinted handoff
// ---------------------------------------------------------------------------

namespace {

/// Hints for the same (mode, key[, source]) coalesce: only the newest
/// version needs replaying under LWW, and causal records coalesce by
/// joining (the join carries every queued write's dot).
std::string hint_dedupe_key(const WriteRequest& req) {
  if (req.causal_tag == WriteRequest::kCausalRecord) return "C:" + req.key;
  if (req.mode == WriteMode::kLatest) return "L:" + req.key;
  return "A:" + std::to_string(req.source) + ":" + req.key;
}

}  // namespace

void SednaNode::queue_hint(NodeId target, const WriteRequest& req,
                           SimTime accepted_at) {
  if (config_.hint_max_queued == 0 || target == id()) return;
  const std::uint64_t expires_at = req.ttl == 0 ? 0 : accepted_at + req.ttl;
  {
    HintQueue& q = hint_queues_[target];
    auto it = q.hints.find(hint_dedupe_key(req));
    if (it != q.hints.end()) {
      // Coalesce: keep the newest write, but the original queue position
      // (age for eviction is the age of the oldest un-replayed miss).
      // Causal hints coalesce by joining records — a timestamp compare
      // could drop one of two concurrent writes.
      if (req.causal_tag == WriteRequest::kCausalRecord) {
        it->second.write.record.merge(req.record);
      } else if (req.ts > it->second.write.ts) {
        it->second.write = req;
        it->second.expires_at = expires_at;
      }
      return;
    }
  }
  // Eviction may erase `target`'s own (possibly only) queue entry, so no
  // HintQueue reference can be held across this call.
  if (hints_pending_ >= config_.hint_max_queued) evict_oldest_hint();
  PendingHint hint;
  hint.write = req;
  hint.expires_at = expires_at;
  hint.queued_at = now();
  hint.seq = hint_seq_++;
  hint_queues_[target].hints.emplace(hint_dedupe_key(req), std::move(hint));
  ++hints_pending_;
  metrics_.counter("coordinator.hints_queued").add(1);
}

void SednaNode::evict_oldest_hint() {
  NodeId victim_target = kInvalidNode;
  std::string victim_key;
  std::uint64_t oldest_seq = UINT64_MAX;
  for (const auto& [target, q] : hint_queues_) {
    for (const auto& [key, hint] : q.hints) {
      if (hint.seq < oldest_seq) {
        oldest_seq = hint.seq;
        victim_target = target;
        victim_key = key;
      }
    }
  }
  if (victim_target == kInvalidNode) return;
  auto qit = hint_queues_.find(victim_target);
  qit->second.hints.erase(victim_key);
  if (hints_pending_ > 0) --hints_pending_;
  metrics_.counter("coordinator.hints_evicted").add(1);
  if (qit->second.hints.empty() && !qit->second.in_flight) {
    hint_queues_.erase(qit);
  }
}

void SednaNode::bump_hint_backoff(HintQueue& q) {
  const SimDuration base =
      q.backoff == 0
          ? config_.hint_backoff_initial
          : std::min<SimDuration>(config_.hint_backoff_max, q.backoff * 2);
  q.backoff = base;
  // ±25% seeded jitter decorrelates coordinators hammering the same
  // recovering node.
  const double jitter = 0.75 + 0.5 * sim().rng().next_double();
  q.next_attempt =
      now() + static_cast<SimDuration>(static_cast<double>(base) * jitter);
}

void SednaNode::hint_replay_tick() {
  if (!alive() || !ready_ || hint_queues_.empty()) return;
  std::vector<NodeId> due;
  for (const auto& [target, q] : hint_queues_) {
    if (!q.in_flight && now() >= q.next_attempt) due.push_back(target);
  }
  for (NodeId target : due) {
    // Gate on the target's ephemeral znode: deliveries start only once
    // the node has re-registered (its session is back).
    hint_queues_[target].in_flight = true;
    zk_.exists(real_node_znode(target),
               [this, target](const Result<zk::ZnodeStat>& st) {
                 auto it = hint_queues_.find(target);
                 if (it == hint_queues_.end()) return;
                 if (!st.ok()) {
                   it->second.in_flight = false;
                   bump_hint_backoff(it->second);
                   return;
                 }
                 replay_hints_to(target);
               });
  }
}

void SednaNode::replay_hints_to(NodeId target) {
  auto qit = hint_queues_.find(target);
  if (qit == hint_queues_.end()) return;
  HintQueue& q = qit->second;
  q.in_flight = true;
  std::vector<std::string> batch;
  for (const auto& [key, hint] : q.hints) {
    if (batch.size() >= kHintReplayBatch) break;
    batch.push_back(key);
  }
  if (batch.empty()) {
    finish_hint_batch(target, /*failed=*/false);
    return;
  }
  // The replay daemon runs outside any request context; each batch gets
  // its own trace so replay storms are attributable (no-op when the
  // tracer is disabled). The root closes in finish_hint_batch.
  const TraceContext replay_ctx =
      begin_trace("hints.replay", TraceStage::kHintReplay);
  q.replay_span = replay_ctx.span_id;
  tracer().annotate(q.replay_span, "target=" + std::to_string(target));
  auto outstanding = std::make_shared<std::size_t>(batch.size());
  auto failures = std::make_shared<std::uint32_t>(0);
  for (const auto& key : batch) {
    const PendingHint& hint = q.hints.at(key);
    HintDeliverRequest req;
    req.write = hint.write;
    req.write.ttl = ttl_left(hint.expires_at, now());
    call(target, kMsgHintDeliver, req.encode(),
         [this, target, key, outstanding, failures](const Status& st,
                                                    const std::string& body) {
           bool delivered = false;
           if (st.ok()) {
             auto ack = HintAckReply::decode(body);
             // kOutdated means the replica already holds newer data — the
             // hint's job is done either way.
             delivered = ack.ok() && (ack->status == StatusCode::kOk ||
                                      ack->status == StatusCode::kOutdated);
           }
           auto it = hint_queues_.find(target);
           if (it != hint_queues_.end()) {
             if (delivered) {
               if (it->second.hints.erase(key) > 0) {
                 if (hints_pending_ > 0) --hints_pending_;
                 metrics_.counter("coordinator.hints_delivered").add(1);
               }
             } else {
               ++*failures;
             }
           }
           if (--*outstanding == 0) {
             finish_hint_batch(target, *failures > 0);
           }
         });
  }
  set_trace_context({});
}

void SednaNode::finish_hint_batch(NodeId target, bool failed) {
  auto it = hint_queues_.find(target);
  if (it == hint_queues_.end()) return;
  HintQueue& q = it->second;
  q.in_flight = false;
  if (q.replay_span != 0) {
    end_span(q.replay_span, failed ? "failure" : "ok");
    q.replay_span = 0;
  }
  if (failed) {
    bump_hint_backoff(q);
    return;
  }
  q.backoff = 0;
  q.next_attempt = now();  // drain the rest on the next tick
  if (q.hints.empty()) hint_queues_.erase(it);
}

void SednaNode::handle_hint_deliver(const sim::Message& msg) {
  auto req = HintDeliverRequest::decode(msg.payload);
  HintAckReply rep;
  if (!req.ok()) {
    rep.status = StatusCode::kInvalidArgument;
  } else if (!ready_) {
    // Not serving yet: refuse so the coordinator keeps the hint.
    rep.status = StatusCode::kUnavailable;
  } else {
    rep.status = apply_write(req->write);
    metrics_.counter("replica.hints_received").add(1);
  }
  instant_span("replica.hint_apply", to_string(rep.status),
               TraceStage::kHintReplay);
  reply(msg, rep.encode());
}

// ---------------------------------------------------------------------------
// Merkle anti-entropy
// ---------------------------------------------------------------------------

void SednaNode::anti_entropy_tick() {
  if (!alive() || !ready_ || ae_in_flight_ || !store_->digests_enabled()) {
    return;
  }
  auto mine = metadata_.table().replica_vnodes_of(id());
  if (mine.empty()) return;
  // Least-recently-synced first (never-synced counts as time 0), vnode id
  // as the deterministic tie-break.
  std::sort(mine.begin(), mine.end(), [this](VnodeId a, VnodeId b) {
    const auto ita = ae_last_synced_.find(a);
    const auto itb = ae_last_synced_.find(b);
    const SimTime ta = ita == ae_last_synced_.end() ? 0 : ita->second;
    const SimTime tb = itb == ae_last_synced_.end() ? 0 : itb->second;
    if (ta != tb) return ta < tb;
    return a < b;
  });
  const std::size_t take =
      std::min<std::size_t>(mine.size(),
                            std::max<std::uint32_t>(
                                1, config_.anti_entropy_vnodes_per_round));
  mine.resize(take);
  ae_in_flight_ = true;
  metrics_.counter("antientropy.rounds").add(1);
  sync_vnodes(std::make_shared<std::vector<VnodeId>>(std::move(mine)), 0);
}

void SednaNode::sync_vnodes(std::shared_ptr<std::vector<VnodeId>> vnodes,
                            std::size_t next) {
  if (!alive() || !ready_ || next >= vnodes->size()) {
    ae_in_flight_ = false;
    return;
  }
  const VnodeId v = (*vnodes)[next];
  ae_last_synced_[v] = now();
  sync_vnode(v, [this, vnodes, next] { sync_vnodes(vnodes, next + 1); });
}

void SednaNode::sync_vnode(VnodeId vnode, std::function<void()> done) {
  std::vector<NodeId> peers;
  for (NodeId n : metadata_.table().replicas_for_vnode(vnode)) {
    if (n != id()) peers.push_back(n);
  }
  if (peers.empty()) {
    done();
    return;
  }
  // The daemon runs outside any request context; open a dedicated trace
  // so repair exchanges show up in trace dumps (no-op while disabled).
  const TraceContext ctx =
      begin_trace("antientropy.sync", TraceStage::kRepair);
  auto finish = [this, root = ctx.span_id, done = std::move(done)] {
    end_span(root);
    set_trace_context({});
    done();
  };
  sync_vnode_peer(vnode, std::make_shared<std::vector<NodeId>>(peers), 0,
                  std::move(finish));
}

void SednaNode::sync_vnode_peer(VnodeId vnode,
                                std::shared_ptr<std::vector<NodeId>> peers,
                                std::size_t idx, std::function<void()> done) {
  if (!alive() || idx >= peers->size()) {
    done();
    return;
  }
  const NodeId peer = (*peers)[idx];
  auto next = [this, vnode, peers, idx, done = std::move(done)] {
    sync_vnode_peer(vnode, peers, idx + 1, done);
  };
  VnodeDigestRequest req;
  req.vnode = vnode;
  req.root = store_->digest_root(vnode);
  req.buckets = store_->digest_buckets(vnode);
  metrics_.counter("antientropy.digest_requests").add(1);
  call(peer, kMsgVnodeDigest, req.encode(),
       [this, vnode, peer, next = std::move(next)](const Status& st,
                                                   const std::string& body) {
         if (!st.ok()) {
           metrics_.counter("antientropy.peer_timeouts").add(1);
           next();
           return;
         }
         auto rep = VnodeDigestReply::decode(body);
         if (!rep.ok() || rep->status != StatusCode::kOk || rep->match) {
           next();
           return;
         }
         metrics_.counter("antientropy.digest_mismatches").add(1);
         reconcile_with_peer(vnode, peer, *rep, next);
       });
}

void SednaNode::reconcile_with_peer(VnodeId vnode, NodeId peer,
                                    const VnodeDigestReply& rep,
                                    std::function<void()> done) {
  const SpanId span = begin_span("antientropy.reconcile", TraceStage::kRepair);
  const TraceContext prev = enter_span(span);

  const KeyDiff diff =
      diff_keys(vnode_items(vnode, &rep.mismatched), rep, now());
  if (rep.truncated) metrics_.counter("antientropy.truncated_replies").add(1);

  auto outstanding = std::make_shared<std::size_t>(1);
  auto finish = [this, span, prev, outstanding,
                 done = std::move(done)] {
    if (--*outstanding == 0) {
      end_span(span);
      done();
    }
  };
  for (const WriteRequest& w : diff.pushes) {
    ++*outstanding;
    metrics_.counter("antientropy.keys_pushed").add(1);
    call(peer, kMsgReplicaWrite, w.encode(),
         [finish](const Status&, const std::string&) { finish(); });
  }
  for (const KeyPull& p : diff.pulls) {
    ++*outstanding;
    pull_key(peer, p.key, p.want_list, p.want_causal, finish);
  }
  set_trace_context(prev);
  finish();  // releases the +1 guard
}

void SednaNode::pull_key(NodeId peer, const std::string& key, bool want_list,
                         bool want_causal, std::function<void()> done) {
  ReadRequest latest_req;
  latest_req.mode = ReadMode::kLatest;
  latest_req.key = key;
  latest_req.causal = want_causal;
  call(peer, kMsgReplicaRead, latest_req.encode(),
       [this, peer, key, want_list, want_causal, done = std::move(done)](
           const Status& st, const std::string& body) {
         auto rep = st.ok() ? ReadReply::decode(body) : Result<ReadReply>(st);
         if (rep.ok() && (want_causal ? rep->has_causal : rep->has_latest) &&
             apply_copy(copy_write(key, *rep, now()))) {
           metrics_.counter("antientropy.keys_pulled").add(1);
         }
         if (!want_list) {
           done();
           return;
         }
         ReadRequest list_req;
         list_req.mode = ReadMode::kAll;
         list_req.key = key;
         call(peer, kMsgReplicaRead, list_req.encode(),
              [this, key, done](const Status& st2, const std::string& body2) {
                auto rep2 = st2.ok() ? ReadReply::decode(body2)
                                     : Result<ReadReply>(st2);
                if (rep2.ok()) {
                  for (const auto& sv : rep2->value_list) {
                    apply_copy(list_write(key, sv));
                  }
                }
                done();
              });
       });
}

// ---------------------------------------------------------------------------
// Traffic-aware rebalancing
// ---------------------------------------------------------------------------

void SednaNode::traffic_rebalance_tick() {
  if (!alive() || !ready_) return;
  // One round at a time: a new plan over telemetry that predates the
  // previous round's cutovers would double-move the same slices.
  if (migrations_dispatched_ > 0) return;
  zk_.children(
      kZkRealNodes, [this](const Result<std::vector<std::string>>& kids) {
        if (!kids.ok() || !alive() || !ready_) return;
        std::vector<NodeId> live = live_nodes(kids.value());
        // Single deterministic actor: the lowest live node id.
        if (live.empty() ||
            *std::min_element(live.begin(), live.end()) != id()) {
          return;
        }
        std::sort(live.begin(), live.end());
        // Assemble the cluster-wide imbalance table from each live node's
        // reported row (missing rows — a node that has not reported yet —
        // simply count as zero traffic).
        auto table = std::make_shared<ring::ImbalanceTable>();
        auto pending = std::make_shared<std::size_t>(live.size());
        auto live_shared =
            std::make_shared<std::vector<NodeId>>(std::move(live));
        for (NodeId n : *live_shared) {
          const std::string path =
              std::string(kZkRealNodes) + "/load-" + std::to_string(n);
          zk_.get(path,
                  [this, table, pending, live_shared](
                      const Result<std::pair<std::string, zk::ZnodeStat>>&
                          got) {
                    if (got.ok()) {
                      auto row = ring::RealNodeLoad::decode(got->first);
                      if (row.ok()) table->update(*row);
                    }
                    if (--*pending == 0) {
                      run_traffic_plan(*table, std::move(*live_shared));
                    }
                  });
        }
      });
}

void SednaNode::run_traffic_plan(const ring::ImbalanceTable& table,
                                 std::vector<NodeId> live) {
  if (!alive() || !ready_ || migrations_dispatched_ > 0) return;
  TrafficRebalancer::HealthFn health = health_provider_;
  if (!health) health = [](NodeId) { return HealthState::kHealthy; };
  const auto moves =
      traffic_rebalancer_.plan(table, metadata_.table(), live, health, now());
  metrics_.counter("rebalance.traffic_rounds").add(1);
  for (const MigrationPlan& m : moves) {
    ++migrations_dispatched_;
    metrics_.counter("rebalance.migrations_started").add(1);
    // One trace per move, rooted at the leader: the destination continues
    // the context carried by the dispatch RPC, so the whole protocol
    // (snapshot → catch-up → cutover → drain) is one span tree.
    const TraceContext mroot =
        begin_trace("rebalance.migration", TraceStage::kMigration);
    tracer().annotate(mroot.span_id,
                      "vnode=" + std::to_string(m.vnode) +
                          " from=" + std::to_string(m.from) +
                          " to=" + std::to_string(m.to));
    MigrateVnodeRequest req{m.vnode, m.from};
    call_with_timeout(
        m.to, kMsgMigrateVnode, req.encode(), kMigrationTimeout,
        [this, root = mroot.span_id](const Status& st,
                                     const std::string& body) {
          if (migrations_dispatched_ > 0) --migrations_dispatched_;
          auto rep = st.ok() ? MigrateVnodeReply::decode(body)
                             : Result<MigrateVnodeReply>(st);
          if (!rep.ok() || rep->status != StatusCode::kOk) {
            // Completion metrics live on the destination; the leader only
            // tracks dispatches that came back without a commit.
            metrics_.counter("rebalance.migrations_failed").add(1);
            end_span(root, "failure");
          } else {
            end_span(root, "ok");
          }
          set_trace_context({});
        });
  }
  set_trace_context({});
}

void SednaNode::handle_migrate_vnode(const sim::Message& msg) {
  auto req = MigrateVnodeRequest::decode(msg.payload);
  if (!req.ok()) return;
  begin_migration(req->vnode, req->from,
                  [this, msg](const MigrateVnodeReply& rep) {
                    reply(msg, rep.encode());
                  });
}

void SednaNode::begin_migration(
    VnodeId vnode, NodeId from,
    std::function<void(const MigrateVnodeReply&)> done) {
  auto state = std::make_shared<MigrateVnodeReply>();
  if (!ready_ || from == id() || migrating_in_.contains(vnode) ||
      metadata_.table().owner(vnode) == id()) {
    state->status = StatusCode::kRefused;
    done(*state);
    return;
  }
  migrating_in_.insert(vnode);
  metrics_.counter("rebalance.migrations_accepted").add(1);
  if (flight_ != nullptr) {
    flight_->record(now(), "migration", "node-" + std::to_string(id()),
                    "migration-start",
                    "vnode=" + std::to_string(vnode) +
                        " from=" + std::to_string(from));
  }
  // Trace continuation: a leader-dispatched migration arrives with the
  // leader's context stamped on the RPC — run as a child span so the
  // whole protocol is one tree rooted at the leader. Direct invocations
  // (tests, joins) open their own root. No-op while the tracer is off.
  SpanId root = 0;
  if (trace_context().active()) {
    root = begin_span("migration.run", TraceStage::kMigration);
    enter_span(root);
  } else {
    root = begin_trace("rebalance.migration", TraceStage::kMigration).span_id;
  }
  tracer().annotate(root, "vnode=" + std::to_string(vnode) +
                              " from=" + std::to_string(from));
  const TraceContext mctx = trace_context();
  // Opens a protocol-phase span under the migration root and makes it
  // current, so each phase's RPCs parent beneath it.
  auto enter_phase = [this, mctx](const char* name) {
    const SpanId s =
        tracer().begin(mctx, name, id(), now(), TraceStage::kMigration);
    if (s != 0) set_trace_context(TraceContext{mctx.trace_id, s});
    return s;
  };
  // `migrating_in_` doubles as the liveness token: on_crash clears it, so
  // any continuation that still fires afterwards (stale RPC callbacks
  // delivered post-restart) must bail out instead of touching the store.
  auto finish = [this, vnode, root, state,
                 done = std::move(done)](bool committed) {
    migrating_in_.erase(vnode);
    if (!committed) metrics_.counter("rebalance.migrations_aborted").add(1);
    if (flight_ != nullptr) {
      flight_->record(now(), "migration", "node-" + std::to_string(id()),
                      committed ? "migration-commit" : "migration-abort",
                      "vnode=" + std::to_string(vnode));
    }
    end_span(root, committed ? "ok" : "failure");
    set_trace_context({});
    done(*state);
  };
  // Phase 1: bulk snapshot pull from the current owner.
  const SpanId snap = enter_phase("migrate.snapshot");
  fetch_vnode_from(
      vnode, {from}, 0,
      [this, vnode, from, state, finish, enter_phase,
       snap](bool fetched, std::uint64_t bytes) {
        if (!migrating_in_.contains(vnode)) return;
        end_span(snap, fetched ? "ok" : "failure");
        if (!fetched) {
          state->status = StatusCode::kUnavailable;
          finish(false);
          return;
        }
        state->bytes += bytes;
        // Phase 2: delta catch-up — writes that landed at the source while
        // the snapshot was in flight.
        const SpanId catchup = enter_phase("migrate.catchup");
        migration_catchup(vnode, from, [this, vnode, from, state, finish,
                                        enter_phase, catchup](
                                           bool caught, std::size_t keys) {
          if (!migrating_in_.contains(vnode)) return;
          end_span(catchup, caught ? "ok" : "failure");
          if (!caught) {
            state->status = StatusCode::kUnavailable;
            finish(false);
            return;
          }
          state->items += keys;
          // Phase 3: atomic cutover — re-verify the owner, then CAS the
          // vnode znode to us under its version.
          const SimTime cut_start = now();
          const SpanId cutover = enter_phase("migrate.cutover");
          zk_.get(
              vnode_znode(vnode),
              [this, vnode, from, state, finish, cut_start, enter_phase,
               cutover](
                  const Result<std::pair<std::string, zk::ZnodeStat>>& got) {
                if (!migrating_in_.contains(vnode)) return;
                if (!got.ok()) {
                  end_span(cutover, "failure");
                  // Unknown outcome territory (ZK unreachable): keep the
                  // pulled data — it is never wrong to hold extra
                  // replicas — and let the leader retry later.
                  state->status = StatusCode::kUnavailable;
                  finish(false);
                  return;
                }
                const auto current = VnodeOwner::decode(got->first);
                if (!current.ok() || current->owner != from) {
                  // Plan went stale: the slice moved under the leader's
                  // feet. Definite no-go — drop the pulled copy (unless
                  // the walk keeps us as a successor replica).
                  end_span(cutover, "stale");
                  state->status = StatusCode::kRefused;
                  purge_local_vnode(vnode);
                  finish(false);
                  return;
                }
                zk_.set(
                    vnode_znode(vnode), VnodeOwner{id()}.encode(),
                    got->second.version,
                    [this, vnode, from, state, finish, cut_start,
                     enter_phase, cutover](const Result<zk::ZnodeStat>& set) {
                      if (!migrating_in_.contains(vnode)) return;
                      if (!set.ok()) {
                        end_span(cutover,
                                 set.status().is(StatusCode::kTimeout)
                                     ? "timeout"
                                     : "failure");
                        if (set.status().is(StatusCode::kFailure) ||
                            set.status().is(StatusCode::kNotFound)) {
                          // Definite CAS loss: the version moved, so
                          // ownership is provably elsewhere.
                          state->status = StatusCode::kRefused;
                          purge_local_vnode(vnode);
                        } else {
                          // Timeout / partition: the CAS may have
                          // committed on the other side. KEEP the data —
                          // purging here could orphan acked writes if we
                          // are in fact the new owner — and resync the
                          // table so a committed cutover surfaces.
                          state->status = StatusCode::kUnavailable;
                          metadata_.sync_now();
                        }
                        finish(false);
                        return;
                      }
                      metadata_.apply_local(vnode, id());
                      state->cutover_us = now() - cut_start;
                      metrics_.histogram("rebalance.cutover_latency_us")
                          .record(state->cutover_us,
                                  trace_context().trace_id);
                      end_span(cutover, "ok");
                      append_change_journal(vnode, id(), [this, vnode, from,
                                                          state, finish,
                                                          enter_phase] {
                        if (!migrating_in_.contains(vnode)) return;
                        // Phase 4: drain catch-up — writes the old owner
                        // acked between phase 2 and the cutover landing.
                        // Best-effort: a miss here is converged later by
                        // anti-entropy against the surviving replicas.
                        const SpanId drain = enter_phase("migrate.drain");
                        migration_catchup(
                            vnode, from,
                            [this, vnode, from, state, finish, drain](
                                bool, std::size_t keys) {
                              if (!migrating_in_.contains(vnode)) return;
                              end_span(drain);
                              state->items += keys;
                              // Phase 5: invite the old owner to drop its
                              // copy (it re-checks replica membership
                              // before deleting anything).
                              PurgeVnodeRequest purge{vnode, id()};
                              send_oneway(from, kMsgPurgeVnode,
                                          purge.encode());
                              state->status = StatusCode::kOk;
                              metrics_
                                  .counter("rebalance.migrations_completed")
                                  .add(1);
                              metrics_.counter("rebalance.bytes_moved")
                                  .add(state->bytes);
                              finish(true);
                            });
                      });
                    });
              });
        });
      });
}

void SednaNode::migration_catchup(VnodeId vnode, NodeId from,
                                  std::function<void(bool, std::size_t)> done) {
  VnodeDigestRequest req;
  req.vnode = vnode;
  req.root = store_->digest_root(vnode);
  req.buckets = store_->digest_buckets(vnode);
  call(from, kMsgVnodeDigest, req.encode(), [this, vnode, from,
                                             done = std::move(done)](
                                                const Status& st,
                                                const std::string& body) {
    if (!st.ok()) {
      done(false, 0);
      return;
    }
    auto rep = VnodeDigestReply::decode(body);
    if (!rep.ok() || rep->status != StatusCode::kOk) {
      done(false, 0);
      return;
    }
    if (rep->match) {
      done(true, 0);
      return;
    }
    // The pull half of the anti-entropy diff: the source stays
    // authoritative until cutover, so nothing is pushed back. A truncated
    // digest reply leaves a remainder for the post-cutover drain pass (and
    // ultimately anti-entropy) to cover.
    const KeyDiff diff =
        diff_keys(vnode_items(vnode, &rep->mismatched), *rep, now());
    const std::size_t pulled = diff.pulls.size();
    metrics_.counter("rebalance.catchup_keys").add(pulled);
    auto outstanding = std::make_shared<std::size_t>(1);
    auto finish = [outstanding, pulled, done = std::move(done)] {
      if (--*outstanding == 0) done(true, pulled);
    };
    for (const KeyPull& p : diff.pulls) {
      ++*outstanding;
      pull_key(from, p.key, p.want_list, p.want_causal, finish);
    }
    finish();  // releases the +1 guard
  });
}

void SednaNode::handle_vnode_digest(const sim::Message& msg) {
  auto req = VnodeDigestRequest::decode(msg.payload);
  if (!req.ok() || !ready_ || !store_->digests_enabled()) {
    refuse<VnodeDigestReply>(msg, StatusCode::kUnavailable);
    return;
  }
  VnodeDigestReply rep;
  metrics_.counter("antientropy.digest_serves").add(1);
  const auto local = store_->digest_buckets(req->vnode);
  if (local.size() == req->buckets.size() &&
      store_->digest_root(req->vnode) == req->root) {
    rep.match = true;
    instant_span("antientropy.digest_match", "ok", TraceStage::kRepair);
    reply(msg, rep.encode());
    return;
  }
  for (std::uint32_t b = 0; b < local.size(); ++b) {
    // A bucket-count mismatch (config drift) makes every bucket divergent.
    if (local.size() != req->buckets.size() || local[b] != req->buckets[b]) {
      rep.mismatched.push_back(b);
    }
  }
  for_each_vnode_item(
      req->vnode, &rep.mismatched,
      [this, &rep](const store::Item& item) {
        if (rep.keys.size() >= kAntiEntropyMaxKeys) {
          rep.truncated = true;
          return;
        }
        KeySummary ks;
        ks.key = item.key;
        ks.has_latest = item.has_latest;
        ks.latest_ts = item.has_latest ? item.latest.ts : 0;
        ks.list_digest = store::LocalStore::value_list_digest(item.value_list);
        if (!item.causal.empty()) ks.causal_digest = item.causal.digest();
        rep.keys.push_back(std::move(ks));
      });
  instant_span("antientropy.digest_mismatch", "ok", TraceStage::kRepair);
  reply(msg, rep.encode());
}

}  // namespace sedna::cluster
