// Settle-rule table: the four pure rules QuorumCall settles every
// coordinator read and write with, driven without a cluster. Value-list
// reads run on no seeded surface, so this table is their guard.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cluster/quorum_call.h"

namespace sedna::cluster {
namespace {

constexpr std::uint32_t kN = 3;
constexpr std::uint32_t kQuorum = 2;

/// N = 3, R = W = 2 unless a test says otherwise. `responses` counts the
/// replies in hand plus `failures`.
template <class Reply>
Replies<Reply> replies(std::vector<std::pair<NodeId, Reply>> in_hand,
                       std::uint32_t failures = 0, std::uint32_t total = kN,
                       std::uint32_t quorum = kQuorum) {
  Replies<Reply> r;
  r.total = total;
  r.quorum = quorum;
  r.failures = failures;
  r.responses = static_cast<std::uint32_t>(in_hand.size()) + failures;
  r.in_hand = std::move(in_hand);
  return r;
}

WriteReply write_reply(StatusCode status) {
  WriteReply rep;
  rep.status = status;
  return rep;
}

ReadReply latest(Timestamp ts) {
  ReadReply rep;
  rep.has_latest = true;
  rep.latest.value = "v" + std::to_string(ts);
  rep.latest.ts = ts;
  return rep;
}

ReadReply not_found() {
  ReadReply rep;
  rep.status = StatusCode::kNotFound;
  return rep;
}

/// A causal reply holding one sibling minted by `writer`.
ReadReply causal(NodeId writer, const std::string& value) {
  ReadReply rep;
  rep.has_causal = true;
  rep.causal.update({}, value, 100 + writer, 0, writer);
  return rep;
}

store::SourceValue source_value(NodeId source, Timestamp ts) {
  store::SourceValue sv;
  sv.source = source;
  sv.ts = ts;
  sv.value = "s" + std::to_string(source) + "@" + std::to_string(ts);
  return sv;
}

/// All N replicas answered that they lack the key.
Replies<ReadReply> none_hold() {
  return replies<ReadReply>(
      {{1, not_found()}, {2, not_found()}, {3, not_found()}});
}

ReadReply list(std::vector<store::SourceValue> values) {
  ReadReply rep;
  rep.value_list = std::move(values);
  return rep;
}

// ---- write ----------------------------------------------------------------

TEST(SettleWrite, OkOnceWAcked) {
  const auto v = settle_write(replies<WriteReply>(
      {{1, write_reply(StatusCode::kOk)}, {2, write_reply(StatusCode::kOk)}}));
  ASSERT_TRUE(v.settled);
  EXPECT_EQ(v.answer.status, StatusCode::kOk);
  EXPECT_TRUE(v.repair.empty());
}

TEST(SettleWrite, BelowWWaitsUntilAllNAnswered) {
  EXPECT_FALSE(settle_write(replies<WriteReply>(
                                {{1, write_reply(StatusCode::kOk)}}, 1))
                   .settled);
  EXPECT_FALSE(settle_write(replies<WriteReply>(
                                {{1, write_reply(StatusCode::kOk)},
                                 {2, write_reply(StatusCode::kOutdated)}}))
                   .settled);
}

TEST(SettleWrite, OutdatedWhenAnyReplicaHeldNewerData) {
  const auto v = settle_write(replies<WriteReply>(
      {{1, write_reply(StatusCode::kOk)},
       {2, write_reply(StatusCode::kOutdated)}},
      1));
  ASSERT_TRUE(v.settled);
  EXPECT_EQ(v.answer.status, StatusCode::kOutdated);
}

TEST(SettleWrite, FailureWhenNoneOutdated) {
  // A replica that answered with an error is neither an ack nor outdated.
  const auto v = settle_write(replies<WriteReply>(
      {{1, write_reply(StatusCode::kOk)},
       {2, write_reply(StatusCode::kIoError)}},
      1));
  ASSERT_TRUE(v.settled);
  EXPECT_EQ(v.answer.status, StatusCode::kFailure);
}

// ---- latest -----------------------------------------------------------------

TEST(SettleLatest, RAgreeingTimestampsServeUntaggedAndRepairBehind) {
  const auto v = settle_latest(
      replies<ReadReply>({{1, latest(5)}, {2, not_found()}, {3, latest(5)}}),
      false);
  ASSERT_TRUE(v.settled);
  EXPECT_EQ(v.answer.status, StatusCode::kOk);
  EXPECT_EQ(v.answer.latest.ts, 5u);
  EXPECT_FALSE(v.answer.stale);
  EXPECT_FALSE(v.degraded);
  EXPECT_EQ(v.repair, (std::vector<NodeId>{2}));
  EXPECT_TRUE(v.repair_after_reply);
}

TEST(SettleLatest, RAgreeingSetSettlesBeforeAllAnswered) {
  const auto v =
      settle_latest(replies<ReadReply>({{1, latest(5)}, {2, latest(5)}}),
                    false);
  ASSERT_TRUE(v.settled);
  EXPECT_FALSE(v.answer.stale);
  EXPECT_TRUE(v.repair.empty());
}

TEST(SettleLatest, NewerMinorityIsNotRepairedBehindTheAgreedValue) {
  const auto v = settle_latest(
      replies<ReadReply>({{1, latest(9)}, {2, latest(5)}, {3, latest(5)}}),
      false);
  ASSERT_TRUE(v.settled);
  EXPECT_EQ(v.answer.latest.ts, 5u);
  EXPECT_TRUE(v.repair.empty());
}

TEST(SettleLatest, RNotFoundRepliesDoNotSettleEarly) {
  EXPECT_FALSE(
      settle_latest(replies<ReadReply>({{1, not_found()}, {2, not_found()}}),
                    false)
          .settled);
  const auto v = settle_latest(
      replies<ReadReply>({{1, not_found()}, {2, not_found()}, {3, latest(4)}}),
      false);
  ASSERT_TRUE(v.settled);
  EXPECT_EQ(v.answer.latest.ts, 4u);
  EXPECT_TRUE(v.answer.stale);
  EXPECT_EQ(v.repair, (std::vector<NodeId>{1, 2}));
}

TEST(SettleLatest, RPositivesWithDifferentTimestampsDoNotSettle) {
  EXPECT_FALSE(
      settle_latest(replies<ReadReply>({{1, latest(5)}, {2, latest(7)}}),
                    false)
          .settled);
  const auto v = settle_latest(
      replies<ReadReply>({{1, latest(5)}, {2, latest(7)}, {3, not_found()}}),
      false);
  ASSERT_TRUE(v.settled);
  EXPECT_EQ(v.answer.status, StatusCode::kOk);
  EXPECT_EQ(v.answer.latest.ts, 7u);
  EXPECT_TRUE(v.answer.stale);
  EXPECT_FALSE(v.repair_after_reply);
  EXPECT_EQ(v.repair, (std::vector<NodeId>{1, 3}));
}

TEST(SettleLatest, DegradedServeSettlesEarlyOnlyWhenEnabled) {
  // N = 5, R = 3: three failures leave no room for three agreeing replies.
  auto r = replies<ReadReply>({{1, latest(5)}}, 3, 5, 3);
  EXPECT_FALSE(settle_latest(r, false).settled);
  const auto v = settle_latest(r, true);
  ASSERT_TRUE(v.settled);
  EXPECT_TRUE(v.degraded);
  EXPECT_TRUE(v.answer.stale);
  EXPECT_EQ(v.answer.latest.ts, 5u);
  // Not while failures + R <= N, and not without a positive reply.
  EXPECT_FALSE(
      settle_latest(replies<ReadReply>({{1, latest(5)}}, 2, 5, 3), true)
          .settled);
  EXPECT_FALSE(
      settle_latest(replies<ReadReply>({{1, not_found()}}, 3, 5, 3), true)
          .settled);
}

TEST(SettleLatest, DegradedServeDoesNotRepair) {
  const auto r = replies<ReadReply>({{1, latest(5)}, {2, latest(3)}}, 3, 5, 3);
  const auto degraded = settle_latest(r, true);
  ASSERT_TRUE(degraded.settled);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_TRUE(degraded.repair.empty());
  const auto strict = settle_latest(r, false);
  ASSERT_TRUE(strict.settled);
  EXPECT_FALSE(strict.degraded);
  EXPECT_TRUE(strict.answer.stale);
  EXPECT_EQ(strict.repair, (std::vector<NodeId>{2}));
}

TEST(SettleLatest, NoPositiveReplyIsFailureOnlyIfAReplicaFailed) {
  const auto failed =
      settle_latest(replies<ReadReply>({{1, not_found()}, {2, not_found()}}, 1),
                    false);
  ASSERT_TRUE(failed.settled);
  EXPECT_EQ(failed.answer.status, StatusCode::kFailure);
  const auto missing = settle_latest(none_hold(), false);
  ASSERT_TRUE(missing.settled);
  EXPECT_EQ(missing.answer.status, StatusCode::kNotFound);
  EXPECT_FALSE(missing.answer.has_latest);
  EXPECT_TRUE(missing.repair.empty());
}

// ---- causal -----------------------------------------------------------------

TEST(SettleCausal, JoinsOneSiblingPerReplica) {
  const auto v = settle_causal(
      replies<ReadReply>({{1, causal(1, "a")}, {2, causal(2, "b")}}));
  ASSERT_TRUE(v.settled);
  EXPECT_EQ(v.answer.status, StatusCode::kOk);
  ASSERT_TRUE(v.answer.has_causal);
  EXPECT_EQ(v.answer.causal.siblings.size(), 2u);
  EXPECT_FALSE(v.answer.stale);
  // Neither replica holds the join yet.
  EXPECT_EQ(v.repair, (std::vector<NodeId>{1, 2}));
  EXPECT_FALSE(v.repair_after_reply);
}

TEST(SettleCausal, RepairsOnlyRepliesThatDifferFromTheJoin) {
  ReadReply both = causal(1, "a");
  both.causal.merge(causal(2, "b").causal);
  const auto v = settle_causal(replies<ReadReply>(
      {{1, both}, {2, causal(2, "b")}, {3, not_found()}}));
  ASSERT_TRUE(v.settled);
  EXPECT_EQ(v.answer.causal, both.causal);
  EXPECT_EQ(v.repair, (std::vector<NodeId>{2, 3}));
}

TEST(SettleCausal, BelowRWaitsThenServesTheJoinStale) {
  EXPECT_FALSE(settle_causal(replies<ReadReply>(
                                 {{1, causal(1, "a")}, {2, not_found()}}))
                   .settled);
  const auto v = settle_causal(
      replies<ReadReply>({{1, causal(1, "a")}, {2, not_found()}}, 1));
  ASSERT_TRUE(v.settled);
  EXPECT_TRUE(v.answer.stale);
  EXPECT_EQ(v.answer.causal.siblings.size(), 1u);
  EXPECT_EQ(v.repair, (std::vector<NodeId>{2}));
}

TEST(SettleCausal, NoPositiveReplyIsFailureOnlyIfAReplicaFailed) {
  const auto failed = settle_causal(
      replies<ReadReply>({{1, not_found()}, {2, not_found()}}, 1));
  ASSERT_TRUE(failed.settled);
  EXPECT_EQ(failed.answer.status, StatusCode::kFailure);
  EXPECT_FALSE(failed.answer.has_causal);
  const auto missing = settle_causal(none_hold());
  ASSERT_TRUE(missing.settled);
  EXPECT_EQ(missing.answer.status, StatusCode::kNotFound);
  EXPECT_TRUE(missing.repair.empty());
}

// ---- value list -------------------------------------------------------------

TEST(SettleValueList, MergesNewestValuePerSourceOnceRSucceeded) {
  const auto v = settle_value_list(replies<ReadReply>(
      {{1, list({source_value(7, 10), source_value(8, 30)})},
       {2, list({source_value(7, 20)})}}));
  ASSERT_TRUE(v.settled);
  EXPECT_EQ(v.answer.status, StatusCode::kOk);
  ASSERT_EQ(v.answer.value_list.size(), 2u);
  EXPECT_EQ(v.answer.value_list[0].source, 7u);
  EXPECT_EQ(v.answer.value_list[0].ts, 20u);
  EXPECT_EQ(v.answer.value_list[1].source, 8u);
  EXPECT_EQ(v.answer.value_list[1].ts, 30u);
  EXPECT_FALSE(v.answer.stale);
  EXPECT_TRUE(v.repair.empty());
}

TEST(SettleValueList, NotFoundRepliesAreNotSuccesses) {
  EXPECT_FALSE(settle_value_list(replies<ReadReply>(
                                     {{1, list({source_value(7, 10)})},
                                      {2, not_found()}}))
                   .settled);
  // An OK reply with an empty list is a success.
  ReadReply empty_ok;
  EXPECT_TRUE(settle_value_list(replies<ReadReply>(
                                    {{1, list({source_value(7, 10)})},
                                     {2, empty_ok}}))
                  .settled);
}

TEST(SettleValueList, EmptyResultIsFailureOnlyWithoutAnySuccess) {
  const auto failed =
      settle_value_list(replies<ReadReply>({{1, not_found()}}, 2));
  ASSERT_TRUE(failed.settled);
  EXPECT_EQ(failed.answer.status, StatusCode::kFailure);
  // One success (OK, empty list) and a failure: not found, not failure.
  ReadReply empty_ok;
  const auto missing = settle_value_list(
      replies<ReadReply>({{1, empty_ok}, {2, not_found()}}, 1));
  ASSERT_TRUE(missing.settled);
  EXPECT_EQ(missing.answer.status, StatusCode::kNotFound);
  const auto none = settle_value_list(none_hold());
  ASSERT_TRUE(none.settled);
  EXPECT_EQ(none.answer.status, StatusCode::kNotFound);
  EXPECT_FALSE(none.answer.stale);
  EXPECT_TRUE(none.repair.empty());
}

// ---- late replies ---------------------------------------------------------

TEST(LateReply, BehindComparesTimestampOrJoinedRecord) {
  const ReadReply answer = latest(5);
  EXPECT_TRUE(behind(answer, latest(4)));
  EXPECT_TRUE(behind(answer, not_found()));
  EXPECT_FALSE(behind(answer, latest(5)));
  EXPECT_FALSE(behind(answer, latest(6)));

  ReadReply joined = causal(1, "a");
  joined.causal.merge(causal(2, "b").causal);
  EXPECT_TRUE(behind(joined, causal(1, "a")));
  EXPECT_TRUE(behind(joined, not_found()));
  EXPECT_FALSE(behind(joined, joined));
}

}  // namespace
}  // namespace sedna::cluster
