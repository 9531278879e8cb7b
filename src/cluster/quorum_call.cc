#include "cluster/quorum_call.h"

#include <map>

namespace sedna::cluster {

namespace {

template <class Reply>
Verdict<Reply> serve(Reply answer) {
  Verdict<Reply> v;
  v.settled = true;
  v.answer = std::move(answer);
  return v;
}

/// The answer when no replica holds the key: a failure if any replica
/// could not say so.
ReadReply missing(const Replies<ReadReply>& r) {
  ReadReply answer;
  answer.status =
      r.failures > 0 ? StatusCode::kFailure : StatusCode::kNotFound;
  return answer;
}

/// Serves `answer` and repairs the replies in hand that are behind it.
Verdict<ReadReply> serve_and_repair(const Replies<ReadReply>& r,
                                    ReadReply answer) {
  Verdict<ReadReply> v = serve(std::move(answer));
  for (const auto& [node, rep] : r.in_hand) {
    if (behind(v.answer, rep)) v.repair.push_back(node);
  }
  return v;
}

}  // namespace

bool behind(const ReadReply& answer, const ReadReply& rep) {
  if (answer.has_causal) {
    return !rep.has_causal || !(rep.causal == answer.causal);
  }
  return !rep.has_latest || rep.latest.ts < answer.latest.ts;
}

Verdict<WriteReply> settle_write(const Replies<WriteReply>& r) {
  std::uint32_t acks = 0;
  std::uint32_t outdated = 0;
  for (const auto& [node, rep] : r.in_hand) {
    if (rep.status == StatusCode::kOk) ++acks;
    if (rep.status == StatusCode::kOutdated) ++outdated;
  }
  if (acks < r.quorum && r.responses < r.total) return {};
  // Below W with everyone heard from: recovery is already under way for
  // any replica that timed out.
  WriteReply answer;
  answer.status = acks >= r.quorum ? StatusCode::kOk
                  : outdated > 0   ? StatusCode::kOutdated
                                   : StatusCode::kFailure;
  return serve(std::move(answer));
}

Verdict<ReadReply> settle_latest(const Replies<ReadReply>& r,
                                 bool degraded_reads) {
  // R replies carrying the same timestamp settle the read. Only positive
  // replies may: concluding "not found" from R misses while a replica
  // that holds the value has yet to answer would lose data during
  // membership changes (a fresh replica-set member lacks the key until
  // read repair backfills it).
  for (const auto& [node, rep] : r.in_hand) {
    if (!rep.has_latest) continue;
    std::uint32_t agree = 0;
    for (const auto& [other_node, other] : r.in_hand) {
      if (other.has_latest && other.latest.ts == rep.latest.ts) ++agree;
    }
    if (agree >= r.quorum) {
      ReadReply answer = rep;
      answer.status = StatusCode::kOk;
      Verdict<ReadReply> v = serve_and_repair(r, std::move(answer));
      v.repair_after_reply = true;
      return v;
    }
  }
  // No R-sized agreeing set. Serve the freshest positive reply, tagged
  // stale, once every replica has answered, or, under degraded_reads, as
  // soon as enough replicas failed (timed out, shed, partitioned) that
  // such a set is impossible: availability bought with labeled staleness
  // instead of riding out every timeout.
  const ReadReply* freshest = nullptr;
  for (const auto& [node, rep] : r.in_hand) {
    if (rep.has_latest &&
        (freshest == nullptr || rep.latest.ts > freshest->latest.ts)) {
      freshest = &rep;
    }
  }
  const bool degraded = freshest != nullptr && degraded_reads &&
                        r.failures + r.quorum > r.total;
  if (!degraded && r.responses < r.total) return {};
  if (freshest == nullptr) return serve(missing(r));
  ReadReply answer = *freshest;
  answer.status = StatusCode::kOk;
  answer.stale = true;
  Verdict<ReadReply> v = degraded ? serve(std::move(answer))
                                  : serve_and_repair(r, std::move(answer));
  v.degraded = degraded;
  return v;
}

Verdict<ReadReply> settle_causal(const Replies<ReadReply>& r) {
  // With R + W > N the R positive replies intersect every write quorum,
  // so their join covers every acked write: concurrent writes surface as
  // siblings instead of one silently shadowing the other.
  std::uint32_t positives = 0;
  for (const auto& [node, rep] : r.in_hand) {
    if (rep.has_causal) ++positives;
  }
  if (positives < r.quorum && r.responses < r.total) return {};
  ReadReply answer;
  for (const auto& [node, rep] : r.in_hand) {
    if (rep.has_causal) answer.causal.merge(rep.causal);
  }
  if (answer.causal.empty()) return serve(missing(r));
  answer.has_causal = true;
  answer.stale = positives < r.quorum;
  return serve_and_repair(r, std::move(answer));
}

Verdict<ReadReply> settle_value_list(const Replies<ReadReply>& r) {
  std::uint32_t successes = 0;
  for (const auto& [node, rep] : r.in_hand) {
    if (rep.status == StatusCode::kOk || !rep.value_list.empty()) {
      ++successes;
    }
  }
  if (successes < r.quorum && r.responses < r.total) return {};
  std::map<NodeId, store::SourceValue> merged;
  for (const auto& [node, rep] : r.in_hand) {
    for (const auto& sv : rep.value_list) {
      auto [it, inserted] = merged.try_emplace(sv.source, sv);
      if (!inserted && sv.ts > it->second.ts) it->second = sv;
    }
  }
  ReadReply answer;
  for (auto& [source, sv] : merged) answer.value_list.push_back(std::move(sv));
  if (answer.value_list.empty()) {
    answer.status = r.failures > 0 && successes == 0 ? StatusCode::kFailure
                                                     : StatusCode::kNotFound;
  }
  return serve(std::move(answer));
}

}  // namespace sedna::cluster
