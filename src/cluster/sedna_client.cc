#include "cluster/sedna_client.h"

#include <algorithm>
#include <optional>
#include <type_traits>

namespace sedna::cluster {

SednaClient::SednaClient(sim::Network& net, NodeId id,
                         SednaClientConfig config)
    : sim::Host(net, id, config.host),
      config_(std::move(config)),
      zk_(*this,
          [this] {
            auto zc = config_.zk_client;
            zc.ensemble = config_.zk_ensemble;
            return zc;
          }()),
      metadata_(zk_, *this) {
  retry_tokens_ = config_.retry_budget_capacity;
}

bool SednaClient::spend_retry_token() {
  if (config_.retry_budget_capacity <= 0) return true;  // budget disabled
  if (retry_tokens_ < 1.0) {
    // Exhausted: this retry would have exceeded the allowed fraction of
    // fresh traffic. Counted under the shed family — it is load the
    // budget refused to send.
    metrics_.counter("node.shed.retry_budget").add(1);
    return false;
  }
  retry_tokens_ -= 1.0;
  return true;
}

void SednaClient::refill_retry_budget() {
  if (config_.retry_budget_capacity <= 0) return;
  retry_tokens_ = std::min(config_.retry_budget_capacity,
                           retry_tokens_ + config_.retry_budget_refill);
}

Timestamp SednaClient::next_ts() {
  const auto seq = static_cast<std::uint16_t>(
      ((id() & 0xff) << 8) | (write_seq_++ & 0xff));
  return make_timestamp(now(), seq);
}

void SednaClient::start(ReadyCallback on_ready) {
  zk_.connect([this, on_ready = std::move(on_ready)](const Status& st) {
    if (!st.ok()) {
      on_ready(st);
      return;
    }
    metadata_.start([this, on_ready](const Status& meta_st) {
      ready_ = meta_st.ok();
      on_ready(meta_st);
    });
  });
}

void SednaClient::on_message(const sim::Message& msg) {
  if (msg.type == zk::kMsgWatchEvent) zk_.on_watch_event(msg.payload);
}

std::string SednaClient::rpc_span_name(sim::MessageType type) const {
  switch (type) {
    case kMsgClientWrite: return "rpc.client_write";
    case kMsgClientRead: return "rpc.client_read";
    case kMsgScan: return "rpc.scan";
    case zk::kMsgClientRequest: return "rpc.zk_request";
    case zk::kMsgSessionPing: return "rpc.zk_ping";
    default: return sim::Host::rpc_span_name(type);
  }
}

TraceStage SednaClient::rpc_span_stage(sim::MessageType type) const {
  switch (type) {
    // The client-to-coordinator hop is the one true "network" stage of a
    // request: the coordinator decomposes its own share into queue /
    // service / replica waits under this span.
    case kMsgClientWrite:
    case kMsgClientRead:
    case kMsgScan:
      return TraceStage::kNet;
    case zk::kMsgClientRequest:
    case zk::kMsgSessionPing:
      return TraceStage::kZk;
    default:
      return sim::Host::rpc_span_stage(type);
  }
}

SimDuration SednaClient::retry_backoff(int next_attempt) {
  if (config_.retry_backoff_initial_us == 0) return 0;
  SimDuration base = config_.retry_backoff_initial_us;
  for (int i = 1; i < next_attempt && base < config_.retry_backoff_max_us;
       ++i) {
    base *= 2;
  }
  base = std::min(base, config_.retry_backoff_max_us);
  const double spread =
      1.0 + config_.retry_backoff_jitter *
                (2.0 * sim().rng().next_double() - 1.0);
  auto wait = static_cast<SimDuration>(static_cast<double>(base) * spread);
  if (wait == 0) wait = 1;
  metrics_.histogram("client.retry_backoff_us").record(wait);
  return wait;
}

NodeId SednaClient::coordinator_for(const std::string& key,
                                    int attempt) const {
  const auto replicas = metadata_.table().replicas_for_key(key);
  if (replicas.empty()) return kInvalidNode;
  return replicas[static_cast<std::size_t>(attempt) % replicas.size()];
}

template <class Request, class Done>
void SednaClient::run(std::string_view op, Request req, Done done) {
  const TraceContext root = begin_trace(op, TraceStage::kService);
  const SimTime started = now();
  attempt<Request>(
      std::move(req), 0, op_deadline(),
      [this, root, started,
       done = std::move(done)](const Result<ReplyOf<Request>>& rep) {
        (std::is_same_v<Request, WriteRequest> ? write_latency_
                                               : read_latency_)
            ->record(now() - started, root.trace_id);
        end_span(root.span_id,
                 to_string(rep.ok() ? rep->status : rep.status().code()));
        done(rep);
      });
}

template <class Request>
void SednaClient::attempt(Request req, int n, SimTime deadline,
                          ReplyCallback<Request> cb) {
  constexpr bool kWrite = std::is_same_v<Request, WriteRequest>;
  using Reply = ReplyOf<Request>;
  const char* const failures =
      kWrite ? "client.write_failures" : "client.read_failures";
  const NodeId coordinator = coordinator_for(req.key, n);
  if (coordinator == kInvalidNode) {
    cb(Status::Unavailable("no replicas for key"));
    return;
  }
  // The whole-op deadline may have lapsed during a backoff sleep; give up
  // here rather than launch an attempt whose answer nobody wants.
  if (deadline != 0 && now() >= deadline) {
    metrics_.counter(failures).add(1);
    cb(Status::Timeout("op deadline exceeded"));
    return;
  }
  // Attempt span: one per coordinator tried. Siblings under the op root,
  // so a retried op reads as attempt#0 (timeout) then attempt#1 (ok). Its
  // name costs an allocation, so it is built only while tracing.
  const SpanId span =
      tracer().enabled()
          ? begin_span(std::string(kWrite ? "client.write.attempt#"
                                          : "client.read.attempt#") +
                           std::to_string(n),
                       TraceStage::kService)
          : 0;
  const TraceContext parent = enter_span(span);
  // Encode before the lambda capture moves `req` (argument evaluation
  // order is unspecified).
  std::string payload = req.encode();
  call_with_timeout(
      coordinator, kWrite ? kMsgClientWrite : kMsgClientRead,
      std::move(payload), attempt_timeout(deadline),
      [this, req = std::move(req), n, deadline, span, parent, failures,
       cb = std::move(cb)](const Status& st,
                           const std::string& body) mutable {
        std::optional<StatusCode> answered;
        if (st.ok()) {
          auto rep = Reply::decode(body);
          // kUnavailable (node not ready), kFailure (quorum broken, often
          // stale routing at the coordinator while recovery is in flight)
          // and kOverloaded (explicit shed) are retryable. A write's
          // timestamp is pinned at the first attempt, so a replayed write
          // is idempotent under LWW; a causal replay re-sends the same
          // context, and the coordinator mints a fresh dot, but the earlier
          // attempt's ack never reached the client, so the client's next
          // contextual put prunes the extra sibling.
          if (rep.ok() && rep->status != StatusCode::kUnavailable &&
              rep->status != StatusCode::kFailure &&
              rep->status != StatusCode::kOverloaded) {
            if constexpr (kWrite) {
              writes_->add(1);
            } else {
              reads_->add(1);
              if (rep->stale) {
                metrics_.counter("client.stale_reads").add(1);
                // The coordinator's staleness bound rides the reply when
                // auditing is on; a stale read *without* one is exactly
                // the unlabeled-staleness hole the auditor exists to
                // close, so count the two cases apart.
                if (rep->staleness_us > 0) {
                  metrics_.histogram("client.staleness_bound_us")
                      .record(rep->staleness_us);
                } else {
                  metrics_.counter("client.stale_unbounded").add(1);
                }
              }
            }
            refill_retry_budget();
            end_span(span, to_string(rep->status));
            cb(std::move(rep));
            return;
          }
          if (rep.ok()) answered = rep->status;
        }
        if (n + 1 >= config_.max_attempts) {
          metrics_.counter(failures).add(1);
          end_span(span, "failure");
          cb(answered ? Status(*answered)
                      : Status::Failure(kWrite ? "write attempts exhausted"
                                               : "read attempts exhausted"));
          return;
        }
        if (!spend_retry_token()) {
          metrics_.counter(failures).add(1);
          end_span(span, "overloaded");
          cb(Status::Overloaded("retry budget exhausted"));
          return;
        }
        // Refresh routing state, wait out the jittered backoff, then
        // retry via the next replica.
        metrics_
            .counter(kWrite ? "client.write_retries" : "client.read_retries")
            .add(1);
        end_span(span, st.ok() ? "retry" : "timeout");
        const SimDuration backoff = retry_backoff(n + 1);
        // The metadata re-sync + backoff sleep before the next attempt is
        // real client-visible latency: span it as retry time.
        const SpanId wait = tracer().begin(parent, "client.retry_wait", id(),
                                           now(), TraceStage::kRetry);
        metadata_.sync_now([this, req = std::move(req), n, deadline, parent,
                            backoff, wait, cb = std::move(cb)]() mutable {
          sim().schedule(backoff, [this, req = std::move(req), n, deadline,
                                   parent, wait,
                                   cb = std::move(cb)]() mutable {
            tracer().end(wait, now());
            set_trace_context(parent);
            attempt(std::move(req), n + 1, deadline, std::move(cb));
          });
        });
      },
      deadline);
  set_trace_context(parent);
}

WriteRequest SednaClient::new_write(WriteMode mode, const std::string& key,
                                    const std::string& value) {
  WriteRequest req;
  req.mode = mode;
  req.key = key;
  req.value = value;
  req.ts = next_ts();
  req.source = id();
  return req;
}

void SednaClient::write(std::string_view op, WriteRequest req,
                        WriteCallback cb) {
  run(op, std::move(req),
      [cb = std::move(cb)](const Result<WriteReply>& rep) {
        cb(rep.ok() ? Status(rep->status) : rep.status());
      });
}

void SednaClient::put_causal(const std::string& key, const std::string& value,
                             const store::VersionVector& ctx,
                             PutCausalCallback cb) {
  WriteRequest req = new_write(WriteMode::kLatest, key, value);
  req.causal_tag = WriteRequest::kCausalCtx;
  req.ctx = ctx;
  run("client.put_causal", std::move(req),
      [cb = std::move(cb)](const Result<WriteReply>& rep) {
        if (!rep.ok()) {
          cb(rep.status(), {});
          return;
        }
        cb(Status(rep->status),
           rep->has_ctx ? rep->ctx : store::VersionVector{});
      });
}

void SednaClient::get_causal(const std::string& key, GetCausalCallback cb) {
  ReadRequest req;
  req.key = key;
  req.causal = true;
  run("client.get_causal", std::move(req),
      [this, cb = std::move(cb)](const Result<ReadReply>& rep) {
        if (!rep.ok()) {
          cb(rep.status());
          return;
        }
        if (rep->status != StatusCode::kOk || !rep->has_causal) {
          cb(Status(rep->status == StatusCode::kOk ? StatusCode::kNotFound
                                                   : rep->status));
          return;
        }
        CausalRead out;
        out.siblings = rep->causal.siblings;
        out.ctx = rep->causal.clock;
        out.stale = rep->stale;
        if (out.siblings.size() > 1) {
          metrics_.counter("client.sibling_reads").add(1);
        }
        cb(out);
      });
}

store::Sibling SednaClient::resolve(const CausalRead& read) {
  if (read.siblings.empty()) return {};
  if (read.siblings.size() > 1) {
    metrics_.counter("client.conflicts_resolved").add(1);
    if (resolver_) {
      const std::size_t idx = resolver_(read.siblings);
      return read.siblings[idx % read.siblings.size()];
    }
  }
  // Default LWW resolver: the record's deterministic winner.
  store::CausalRecord rec;
  rec.siblings = read.siblings;
  const store::Sibling* w = rec.winner();
  return w != nullptr ? *w : store::Sibling{};
}

void SednaClient::write_latest(const std::string& key,
                               const std::string& value, WriteCallback cb) {
  write("client.write_latest", new_write(WriteMode::kLatest, key, value),
        std::move(cb));
}

void SednaClient::write_latest_ttl(const std::string& key,
                                   const std::string& value,
                                   std::uint64_t ttl_us, WriteCallback cb) {
  WriteRequest req = new_write(WriteMode::kLatest, key, value);
  req.ttl = ttl_us;
  write("client.write_latest_ttl", std::move(req), std::move(cb));
}

void SednaClient::scan(const std::string& prefix, ScanCallback cb,
                       std::uint32_t per_node_limit) {
  const auto nodes = metadata_.table().nodes();
  if (nodes.empty()) {
    cb(Status::Unavailable("no data nodes"));
    return;
  }
  ScanRequest req;
  req.prefix = prefix;
  req.limit = per_node_limit;
  const std::string payload = req.encode();

  auto result = std::make_shared<ScanResult>();
  auto remaining = std::make_shared<std::size_t>(nodes.size());
  auto failures = std::make_shared<std::size_t>(0);
  auto shared_cb = std::make_shared<ScanCallback>(std::move(cb));
  for (NodeId node : nodes) {
    call(node, kMsgScan, payload,
         [result, remaining, failures, shared_cb, total = nodes.size()](
             const Status& st, const std::string& body) {
           if (st.ok()) {
             auto rep = ScanReply::decode(body);
             if (rep.ok() && rep->status == StatusCode::kOk) {
               result->keys.insert(result->keys.end(), rep->keys.begin(),
                                   rep->keys.end());
               result->truncated |= rep->truncated;
             } else {
               ++*failures;
             }
           } else {
             ++*failures;
           }
           if (--*remaining != 0) return;
           if (*failures == total) {
             (*shared_cb)(Status::Unavailable("scan reached no node"));
             return;
           }
           std::sort(result->keys.begin(), result->keys.end());
           (*shared_cb)(*result);
         });
  }
}

void SednaClient::write_all(const std::string& key, const std::string& value,
                            WriteCallback cb) {
  write("client.write_all", new_write(WriteMode::kAll, key, value),
        std::move(cb));
}

void SednaClient::write_latest_batch(
    const std::vector<std::pair<std::string, std::string>>& entries,
    BatchWriteCallback cb) {
  if (entries.empty()) {
    cb({});
    return;
  }
  auto results = std::make_shared<std::vector<Status>>(entries.size());
  auto remaining = std::make_shared<std::size_t>(entries.size());
  auto shared_cb = std::make_shared<BatchWriteCallback>(std::move(cb));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    write_latest(entries[i].first, entries[i].second,
                 [results, remaining, shared_cb, i](const Status& st) {
                   (*results)[i] = st;
                   if (--*remaining == 0) (*shared_cb)(*results);
                 });
  }
}

void SednaClient::read_latest_batch(const std::vector<std::string>& keys,
                                    BatchReadCallback cb) {
  if (keys.empty()) {
    cb({});
    return;
  }
  auto results =
      std::make_shared<std::vector<Result<store::VersionedValue>>>();
  results->resize(keys.size(), Status::Unavailable("pending"));
  auto remaining = std::make_shared<std::size_t>(keys.size());
  auto shared_cb = std::make_shared<BatchReadCallback>(std::move(cb));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    read_latest(keys[i],
                [results, remaining, shared_cb,
                 i](const Result<store::VersionedValue>& r) {
                  (*results)[i] = r;
                  if (--*remaining == 0) (*shared_cb)(*results);
                });
  }
}

void SednaClient::read_latest(const std::string& key, ReadLatestCallback cb) {
  ReadRequest req;
  req.key = key;
  run("client.read_latest", std::move(req),
      [cb = std::move(cb)](const Result<ReadReply>& rep) {
        if (!rep.ok()) {
          cb(rep.status());
          return;
        }
        if (rep->status != StatusCode::kOk || !rep->has_latest) {
          cb(Status(rep->status == StatusCode::kOk ? StatusCode::kNotFound
                                                   : rep->status));
          return;
        }
        cb(rep->latest);
      });
}

void SednaClient::read_all(const std::string& key, ReadAllCallback cb) {
  ReadRequest req;
  req.mode = ReadMode::kAll;
  req.key = key;
  run("client.read_all", std::move(req),
      [cb = std::move(cb)](const Result<ReadReply>& rep) {
        if (!rep.ok()) {
          cb(rep.status());
          return;
        }
        if (rep->status != StatusCode::kOk && rep->value_list.empty()) {
          cb(Status(rep->status));
          return;
        }
        cb(rep->value_list);
      });
}

}  // namespace sedna::cluster
