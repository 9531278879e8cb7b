// QuorumCall: the coordinator's one request path (paper §III.C, §III.F).
//
// A client read or write reaches the coordinator of its key, which asks
// the N replicas of the key's replica walk and answers once enough of
// them agree. That is one rule for every mode: wait for R (or W) agreeing
// replies. The modes differ only in what counts as agreeing and how the
// answer is built, so each is a pure settle rule over the replies in
// hand, and one QuorumCall runs them all: the fan-out, reply
// classification, the settle-once guard, the latency/span/reply
// epilogue, late-reply read repair and the auditor's final sample.
//
// The four settle rules:
//   write      OK once W replicas acked. Otherwise, once all N answered,
//              kOutdated if any replica held newer data, else kFailure.
//   latest     R positive replies with one timestamp settle at once.
//              Otherwise, once all N answered (or, under degraded_reads,
//              once a positive reply is in hand and failures + R > N),
//              the freshest positive reply, tagged stale.
//   causal     Once R positive replies are in hand or all N answered: the
//              join of the positive replies (PAPERS.md, arXiv 1011.5808),
//              tagged stale below R.
//   value list Once R replies succeeded or all N answered: the lists
//              merged, newest value per source. Never stale, never
//              repaired.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/protocol.h"
#include "cluster/sedna_node.h"

namespace sedna::cluster {

/// What the replicas of one quorum call have answered so far.
template <class Reply>
struct Replies {
  std::uint32_t total = 0;      ///< N: replicas asked
  std::uint32_t quorum = 0;     ///< R for reads, W for writes
  std::uint32_t responses = 0;  ///< answers and timeouts so far
  /// Timeouts, kOverloaded sheds and undecodable answers.
  std::uint32_t failures = 0;
  /// Every other answer, in arrival order.
  std::vector<std::pair<NodeId, Reply>> in_hand;
};

/// A settle rule's decision on the replies in hand.
template <class Reply>
struct Verdict {
  bool settled = false;  ///< false: wait for more replies
  Reply answer;          ///< the client's reply
  /// Replicas in hand that are behind the answer: push it to them.
  std::vector<NodeId> repair;
  /// The R-agreeing latest read answers the client before it repairs;
  /// every other serve repairs first.
  bool repair_after_reply = false;
  /// Served early by degraded_reads (below quorum, before all answered).
  bool degraded = false;
};

Verdict<WriteReply> settle_write(const Replies<WriteReply>& r);
Verdict<ReadReply> settle_latest(const Replies<ReadReply>& r,
                                 bool degraded_reads);
Verdict<ReadReply> settle_causal(const Replies<ReadReply>& r);
Verdict<ReadReply> settle_value_list(const Replies<ReadReply>& r);

/// Whether replica reply `rep` misses a served positive `answer`: it
/// lacks the key, holds an older timestamp, or (causal) a record other
/// than the join.
bool behind(const ReadReply& answer, const ReadReply& rep);

/// The one replica fan-out, shared by QuorumCall, read repair and the
/// visibility probes. Visits `targets` in order: `local()` runs in place
/// of an RPC to `host` itself, and every other target is sent `payload`,
/// its answer or timeout going to the callback `reply_to(target)`. The
/// last remote target gets `payload` itself, the others a copy.
template <class Local, class ReplyTo>
void fan_out(sim::Host& host, const std::vector<NodeId>& targets,
             sim::MessageType type, std::string payload, SimDuration timeout,
             SimTime deadline, Local&& local, ReplyTo&& reply_to) {
  auto remotes = std::count_if(targets.begin(), targets.end(),
                               [&](NodeId t) { return t != host.id(); });
  for (NodeId target : targets) {
    if (target == host.id()) {
      local();
      continue;
    }
    std::string body = --remotes == 0 ? std::move(payload) : payload;
    host.call_with_timeout(target, type, std::move(body), timeout,
                           reply_to(target), deadline);
  }
}

/// One coordinator read or write, from fan-out to the client's answer.
/// The call is shared by its RPC callbacks, so it outlives the settle
/// for the replies that arrive after it.
template <class Request>
class QuorumCall {
 public:
  static constexpr bool kWrite = std::is_same_v<Request, WriteRequest>;
  using Reply = ReplyOf<Request>;

  /// Fans `req` out to its key's replicas and answers `msg` once the
  /// mode's settle rule does. `causal_put`: hand the minted clock back on
  /// success (writes only).
  static void start(SednaNode& node, const sim::Message& msg, Request req,
                    bool causal_put = false) {
    auto call =
        std::make_shared<QuorumCall>(node, msg, std::move(req), causal_put);
    const TraceContext prev = node.enter_span(call->span_);
    const auto replicas =
        node.metadata_.table().replicas_for_vnode(call->vnode_);
    call->replies_.total = static_cast<std::uint32_t>(replicas.size());
    call->replies_.quorum = kWrite ? node.metadata_.config().write_quorum
                                   : node.metadata_.config().read_quorum;
    call->replies_.in_hand.reserve(replicas.size());
    fan_out(
        node, replicas, kWrite ? kMsgReplicaWrite : kMsgReplicaRead,
        call->req_.encode(), call->timeout_, msg.deadline,
        [&] { call->answer_locally(); },
        [&call](NodeId replica) {
          return [call, replica](const Status& st, const std::string& body) {
            call->on_reply(replica, st, body);
          };
        });
    node.set_trace_context(prev);
  }

  QuorumCall(SednaNode& node, const sim::Message& msg, Request req,
             bool causal_put)
      : node_(node),
        origin_(msg.header()),
        req_(std::move(req)),
        vnode_(node.metadata_.table().vnode_for_key(req_.key)),
        started_(node.now()),
        trace_(node.trace_context().trace_id),
        span_(node.begin_span(kWrite ? "coord.write" : "coord.read",
                              TraceStage::kService)),
        // Replica RPCs never outlast the client's deadline: waiting
        // longer can only produce an answer nobody wants.
        timeout_(msg.deadline > node.now()
                     ? std::min<SimDuration>(node.config().rpc_timeout_us,
                                             msg.deadline - node.now())
                     : node.config().rpc_timeout_us),
        causal_put_(causal_put) {
    (kWrite ? node.coordinator_writes_ : node.coordinator_reads_)->add(1);
    node.hot_keys_.record(req_.key);
  }

 private:
  void answer_locally() {
    Reply rep;
    if constexpr (kWrite) {
      rep.status = node_.apply_write(req_);
    } else {
      rep = node_.local_read(req_);
    }
    node_.instant_span(kWrite ? "coord.local_write" : "coord.local_read",
                       to_string(rep.status), TraceStage::kService);
    ++replies_.responses;
    replies_.in_hand.emplace_back(node_.id(), std::move(rep));
    settle();
    audit();
  }

  void on_reply(NodeId replica, const Status& st, const std::string& body) {
    ++replies_.responses;
    if (!st.ok()) {
      ++replies_.failures;
      // A timeout the deadline cut short is abandonment, not failure
      // evidence: it must not feed the failure detector or queue hints
      // (suspecting healthy nodes and replaying hints during overload
      // would amplify the overload).
      if (timeout_ == node_.config().rpc_timeout_us) {
        // The replica missed a write the quorum may still ack: remember
        // it and replay once the replica re-registers (hinted handoff).
        if constexpr (kWrite) node_.queue_hint(replica, req_, started_);
        node_.suspect_node(replica, vnode_);
      }
    } else if (auto rep = Reply::decode(body);
               !rep.ok() || rep->status == StatusCode::kOverloaded) {
      // A shedding replica is alive: a failure for quorum purposes, but
      // neither suspected nor repaired (pushing writes at it would deepen
      // the overload).
      ++replies_.failures;
    } else {
      // A reply after the settle still feeds read repair: a replica that
      // is behind (or new, after a membership change) gets the answer.
      if constexpr (!kWrite) {
        if (settled_ && (answer_.has_latest || answer_.has_causal) &&
            behind(answer_, *rep)) {
          node_.read_repair(req_.key, answer_, {replica});
        }
      }
      replies_.in_hand.emplace_back(replica, std::move(rep).value());
    }
    settle();
    audit();
  }

  Verdict<Reply> rule() const {
    if constexpr (kWrite) {
      return settle_write(replies_);
    } else if (req_.causal) {
      return settle_causal(replies_);
    } else if (req_.mode == ReadMode::kLatest) {
      return settle_latest(replies_, node_.config_.degraded_reads);
    } else {
      return settle_value_list(replies_);
    }
  }

  void settle() {
    if (settled_) return;
    Verdict<Reply> v = rule();
    if (!v.settled) return;
    settled_ = true;
    settled_at_ = node_.now();
    answer_ = std::move(v.answer);
    ConsistencyAuditor* auditor = node_.auditor_.get();
    if constexpr (kWrite) {
      if (answer_.status == StatusCode::kOk && causal_put_) {
        // The post-write clock is the client's next context.
        answer_.has_ctx = true;
        answer_.ctx = req_.record.clock;
      } else if (answer_.status == StatusCode::kOk) {
        // t-visibility probe (PBS-style) of a sampled acked LWW write.
        // Causal puts converge by clock joins, so "ts >= wts" is not
        // their visibility predicate.
        if (auditor != nullptr && auditor->should_probe()) {
          node_.probe_visibility(req_.key, req_.ts, vnode_, settled_at_);
        }
      } else if (answer_.status == StatusCode::kFailure) {
        node_.metrics_.counter("coordinator.write_quorum_failures").add(1);
      }
      node_.write_latency_->record(settled_at_ - started_, trace_);
    } else {
      if (auditor != nullptr && answer_.stale) {
        // Bounded staleness: no older than the time since this vnode
        // last confirmed a full read quorum.
        answer_.staleness_us = auditor->on_stale_serve(vnode_, settled_at_);
      } else if (auditor != nullptr &&
                 (answer_.has_latest || answer_.has_causal)) {
        auditor->on_full_quorum(vnode_, settled_at_);
      }
      if (v.degraded) {
        node_.metrics_.counter("coordinator.degraded_reads").add(1);
      }
      node_.read_latency_->record(settled_at_ - started_, trace_);
    }
    if (!v.repair_after_reply) repair(v.repair);
    node_.end_span(span_, to_string(answer_.status));
    node_.reply(origin_, answer_.encode());
    if (v.repair_after_reply) repair(v.repair);
  }

  void repair(const std::vector<NodeId>& stale) {
    if constexpr (!kWrite) {
      if (!stale.empty()) node_.read_repair(req_.key, answer_, stale);
    }
  }

  /// Staleness sample of a served latest value, once every replica has
  /// answered (an RPC always answers or times out, so each call gets
  /// here): the gap between the served timestamp and the freshest any
  /// replica reported is measured staleness, not a bound.
  void audit() {
    if constexpr (!kWrite) {
      if (node_.auditor_ == nullptr || audited_ ||
          replies_.responses < replies_.total || !answer_.has_latest) {
        return;
      }
      audited_ = true;
      ReadAuditSample s;
      s.vnode = vnode_;
      s.served_ts = answer_.latest.ts;
      s.stale = answer_.stale;
      s.confirm_lag_us =
          node_.now() > settled_at_ ? node_.now() - settled_at_ : 0;
      for (const auto& [replica, rep] : replies_.in_hand) {
        if (!rep.has_latest) continue;
        if (++s.positives == 1) {
          s.freshest_ts = s.oldest_ts = rep.latest.ts;
        } else {
          s.freshest_ts = std::max(s.freshest_ts, rep.latest.ts);
          s.oldest_ts = std::min(s.oldest_ts, rep.latest.ts);
        }
        if (rep.latest.ts > answer_.latest.ts) ++s.newer;
      }
      node_.auditor_->on_read_final(s);
    }
  }

  SednaNode& node_;
  sim::Message origin_;  ///< the client request's header, to reply to
  Request req_;
  VnodeId vnode_;
  SimTime started_;
  TraceId trace_;
  SpanId span_;
  SimDuration timeout_;  ///< replica RPC timeout
  bool causal_put_;
  Replies<Reply> replies_;
  bool settled_ = false;
  SimTime settled_at_ = 0;
  Reply answer_;  ///< what the client was sent, once settled
  bool audited_ = false;
};

}  // namespace sedna::cluster
