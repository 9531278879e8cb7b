// Unit tests for src/common: status/result, hashing, codec, crc32, rng,
// keypath hierarchy, metrics.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/codec.h"
#include "common/crc32.h"
#include "common/hash.h"
#include "common/keypath.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/types.h"

namespace sedna {
namespace {

// ---- Status / Result ------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  const Status st = Status::Outdated("stale write");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.is(StatusCode::kOutdated));
  EXPECT_EQ(st.message(), "stale write");
  EXPECT_EQ(st.to_string(), "outdated: stale write");
}

TEST(Status, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::Timeout("a"), Status::Timeout("b"));
  EXPECT_FALSE(Status::Timeout() == Status::Refused());
}

TEST(Status, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
    EXPECT_NE(to_string(static_cast<StatusCode>(c)), "unknown");
  }
}

TEST(ResultT, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultT, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultT, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  const std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "payload");
}

// ---- Hashing ---------------------------------------------------------------

TEST(Hash, Fnv1aKnownVector) {
  // FNV-1a 64 of empty string is the offset basis.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  // And is stable for a known input.
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(Hash, DeterministicAcrossCalls) {
  EXPECT_EQ(ring_hash("test-000001"), ring_hash("test-000001"));
  EXPECT_EQ(bucket_hash("k"), bucket_hash("k"));
}

TEST(Hash, RingAndBucketAreDecorrelated) {
  // The two hash layers must not agree, or shard choice correlates with
  // vnode choice.
  int same_low_bits = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    if ((ring_hash(key) & 0xff) == (bucket_hash(key) & 0xff)) {
      ++same_low_bits;
    }
  }
  EXPECT_LT(same_low_bits, 30);  // ~1000/256 expected by chance
}

TEST(Hash, RingHashSpreadsUniformly) {
  // Chi-square-ish sanity over 64 buckets.
  std::vector<int> buckets(64, 0);
  const int n = 64000;
  for (int i = 0; i < n; ++i) {
    ++buckets[ring_hash("test-" + std::to_string(i)) % 64];
  }
  for (int count : buckets) {
    EXPECT_GT(count, n / 64 / 2);
    EXPECT_LT(count, n / 64 * 2);
  }
}

TEST(Hash, Mix64Avalanche) {
  // Flipping one input bit flips roughly half the output bits.
  int total_flips = 0;
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t a = mix64(0x123456789abcdefULL);
    const std::uint64_t b = mix64(0x123456789abcdefULL ^ (1ULL << bit));
    total_flips += __builtin_popcountll(a ^ b);
  }
  const double mean_flips = total_flips / 64.0;
  EXPECT_GT(mean_flips, 24.0);
  EXPECT_LT(mean_flips, 40.0);
}

// ---- Timestamps -------------------------------------------------------------

TEST(Timestamp, ClockDominatesSequence) {
  EXPECT_LT(make_timestamp(100, 0xffff), make_timestamp(101, 0));
  EXPECT_LT(make_timestamp(100, 1), make_timestamp(100, 2));
}

TEST(Timestamp, ClockRecoverable) {
  EXPECT_EQ(timestamp_clock(make_timestamp(123456, 42)), 123456u);
}

// ---- Codec ------------------------------------------------------------------

TEST(Codec, ScalarRoundTrip) {
  BinaryWriter w;
  w.put_u8(0xab);
  w.put_bool(true);
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  w.put_i64(-42);
  w.put_double(3.25);
  BinaryReader r(w.data());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_TRUE(r.get_bool());
  EXPECT_EQ(r.get_u16(), 0x1234);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_double(), 3.25);
  EXPECT_TRUE(r.exhausted());
  EXPECT_FALSE(r.failed());
}

TEST(Codec, StringRoundTripIncludingEmbeddedNul) {
  BinaryWriter w;
  const std::string s("a\0b\0c", 5);
  w.put_string(s);
  w.put_string("");
  BinaryReader r(w.data());
  EXPECT_EQ(r.get_string(), s);
  EXPECT_EQ(r.get_string(), "");
  EXPECT_FALSE(r.failed());
}

TEST(Codec, VectorRoundTrip) {
  BinaryWriter w;
  const std::vector<std::string> items = {"x", "yy", "zzz"};
  w(items);
  BinaryReader r(w.data());
  std::vector<std::string> back;
  r(back);
  EXPECT_EQ(back, items);
}

TEST(Codec, TruncatedBufferFailsGracefully) {
  BinaryWriter w;
  w.put_u64(7);
  BinaryReader r(std::string_view(w.data()).substr(0, 3));
  EXPECT_EQ(r.get_u64(), 0u);
  EXPECT_TRUE(r.failed());
  EXPECT_FALSE(r.status().ok());
}

TEST(Codec, CorruptStringLengthFails) {
  BinaryWriter w;
  w.put_u32(1000000);  // claims a megabyte that is not there
  BinaryReader r(w.data());
  EXPECT_EQ(r.get_string(), "");
  EXPECT_TRUE(r.failed());
}

TEST(Codec, CorruptVectorCountFails) {
  BinaryWriter w;
  w.put_u32(0xffffffff);
  BinaryReader r(w.data());
  std::vector<std::string> items;
  r(items);
  EXPECT_TRUE(items.empty());
  EXPECT_TRUE(r.failed());
}

TEST(Codec, ReaderStopsAtFirstFailure) {
  BinaryReader r("ab");
  (void)r.get_u64();
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.get_u32(), 0u);  // still failed, still safe
  EXPECT_EQ(r.remaining(), 0u);
}

// ---- CRC32 ------------------------------------------------------------------

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);  // standard check value
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::string data = "the quick brown fox";
  const std::uint32_t before = crc32(data);
  data[3] ^= 0x01;
  EXPECT_NE(crc32(data), before);
}

// ---- RNG --------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(2);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(4);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(Rng, StringHasRequestedLengthAndAlphabet) {
  Rng rng(5);
  const std::string s = rng.next_string(32);
  EXPECT_EQ(s.size(), 32u);
  for (char c : s) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'));
  }
}

TEST(Zipf, FirstRankDominates) {
  ZipfGenerator zipf(1000, 1.2, 9);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[zipf.next()];
  EXPECT_GT(counts[0], counts[10] * 2);
  EXPECT_GT(counts[0], 1000);
}

TEST(Zipf, CoversUniverse) {
  ZipfGenerator zipf(4, 0.5, 10);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(zipf.next());
  EXPECT_EQ(seen.size(), 4u);
}

// ---- KeyPath ----------------------------------------------------------------

TEST(KeyPath, ParsesThreeLevels) {
  const KeyPath p = KeyPath::parse("ds/table/key");
  EXPECT_EQ(p.dataset(), "ds");
  EXPECT_EQ(p.table(), "table");
  EXPECT_EQ(p.key(), "key");
  EXPECT_TRUE(p.is_pair());
  EXPECT_FALSE(p.is_table());
}

TEST(KeyPath, ParsesPartialLevels) {
  EXPECT_TRUE(KeyPath::parse("ds").is_dataset());
  EXPECT_TRUE(KeyPath::parse("ds/t").is_table());
}

TEST(KeyPath, KeyMayContainSlashes) {
  const KeyPath p = KeyPath::parse("ds/t/a/b/c");
  EXPECT_EQ(p.key(), "a/b/c");
}

TEST(KeyPath, FlatRoundTrip) {
  for (const char* s : {"ds", "ds/t", "ds/t/k", "ds/t/k/with/slashes"}) {
    EXPECT_EQ(KeyPath::parse(s).flat(), s);
  }
}

TEST(KeyPath, ContainmentHierarchy) {
  const KeyPath dataset = KeyPath::parse("ds");
  const KeyPath table = KeyPath::parse("ds/t");
  const KeyPath pair = KeyPath::parse("ds/t/k");
  EXPECT_TRUE(dataset.contains(pair));
  EXPECT_TRUE(dataset.contains(table));
  EXPECT_TRUE(table.contains(pair));
  EXPECT_TRUE(pair.contains(pair));
  EXPECT_FALSE(pair.contains(table));
  EXPECT_FALSE(table.contains(KeyPath::parse("ds/other/k")));
  EXPECT_FALSE(dataset.contains(KeyPath::parse("other/t/k")));
}

TEST(KeyPath, MakeKeyComposes) {
  EXPECT_EQ(make_key("a", "b", "c"), "a/b/c");
}

// ---- Metrics ----------------------------------------------------------------

TEST(Metrics, CounterAccumulates) {
  Counter c;
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, HistogramBasicStats) {
  Histogram h;
  for (std::uint64_t v : {1, 2, 3, 4, 100}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 22.0);
}

TEST(Metrics, HistogramQuantilesAreMonotone) {
  Histogram h;
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) h.record(rng.next_below(100000));
  double prev = 0;
  for (double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
  // Uniform distribution: the median falls within its log2 bucket.
  const double median = h.quantile(0.5);
  EXPECT_GT(median, 25000.0);
  EXPECT_LT(median, 100000.0);
}

TEST(Metrics, HistogramMerge) {
  Histogram a, b;
  a.record(10);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(Metrics, RegistryIsNameKeyed) {
  MetricRegistry reg;
  reg.counter("x").add(3);
  reg.counter("x").add(2);
  reg.histogram("lat").record(5);
  EXPECT_EQ(reg.counter("x").value(), 5u);
  EXPECT_EQ(reg.histogram("lat").count(), 1u);
  EXPECT_EQ(reg.counters().size(), 1u);
}

// Exact pinned quantile values. Bucket i covers [2^i, 2^(i+1)); the
// estimate interpolates target rank within the bucket and clamps to the
// observed [min, max]. In particular bucket 0's lower bound is 1.0, not
// 0.0 — a histogram of all-equal small values must not report a quantile
// below the smallest recorded value.
TEST(Metrics, HistogramQuantilePinnedValues) {
  Histogram ones;
  for (int i = 0; i < 4; ++i) ones.record(1);
  EXPECT_DOUBLE_EQ(ones.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(ones.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(ones.quantile(1.0), 1.0);

  Histogram tens;  // 16..25: all land in bucket [16, 32)
  for (std::uint64_t v = 16; v <= 25; ++v) tens.record(v);
  EXPECT_DOUBLE_EQ(tens.quantile(0.0), 16.0);
  // target rank 4 of 10 in-bucket → 16 + 0.4 * 16.
  EXPECT_DOUBLE_EQ(tens.quantile(0.5), 22.4);
  // Interpolation would reach 30.4; clamped to the observed max.
  EXPECT_DOUBLE_EQ(tens.quantile(1.0), 25.0);

  Histogram skewed;  // {1, 1, 100}: median interpolates inside bucket 0
  skewed.record(1);
  skewed.record(1);
  skewed.record(100);
  EXPECT_DOUBLE_EQ(skewed.quantile(0.5), 1.5);

  Histogram spread;  // {2, 2, 4, 8}: rank 1 of 2 in bucket [2, 4)
  for (std::uint64_t v : {2, 2, 4, 8}) spread.record(v);
  EXPECT_DOUBLE_EQ(spread.quantile(0.5), 3.0);

  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(Metrics, MetricsRegistryMergesAndRendersPrometheusText) {
  MetricRegistry a, b;
  a.counter("ops").add(3);
  b.counter("ops").add(4);
  b.counter("client.write_retries").add(1);
  for (std::uint64_t v = 16; v <= 25; ++v) a.histogram("lat").record(v);

  MetricsRegistry registry;
  registry.attach("node-1", a);
  registry.attach("node-2", b);

  const MetricRegistry merged = registry.merged();
  EXPECT_EQ(merged.counters().at("ops").value(), 7u);
  EXPECT_EQ(merged.counters().at("client.write_retries").value(), 1u);
  EXPECT_EQ(merged.histograms().at("lat").count(), 10u);

  const std::string text = registry.prometheus_text();
  // Counters: one TYPE header, one labeled sample per member, and metric
  // names sanitized to the Prometheus charset.
  EXPECT_NE(text.find("# TYPE sedna_ops counter\n"
                      "sedna_ops{node=\"node-1\"} 3\n"
                      "sedna_ops{node=\"node-2\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("sedna_client_write_retries{node=\"node-2\"} 1\n"),
            std::string::npos);
  // Histograms render as summaries: pinned quantiles plus sum/count.
  EXPECT_NE(text.find("# TYPE sedna_lat summary\n"), std::string::npos);
  EXPECT_NE(text.find("sedna_lat{node=\"node-1\",quantile=\"0.5\"} 22.4\n"),
            std::string::npos);
  EXPECT_NE(text.find("sedna_lat{node=\"node-1\",quantile=\"0.99\"} 25\n"),
            std::string::npos);
  EXPECT_NE(text.find("sedna_lat_sum{node=\"node-1\"} 205\n"),
            std::string::npos);
  EXPECT_NE(text.find("sedna_lat_count{node=\"node-1\"} 10\n"),
            std::string::npos);
}

// ---- Tracing ----------------------------------------------------------------

TEST(Trace, DisabledTracerIsFreeAndRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  const TraceContext root = t.start_trace("op", 1, 10);
  EXPECT_FALSE(root.active());
  EXPECT_EQ(t.begin(root, "child", 1, 11), 0u);
  t.end(0, 12);  // safe no-op
  EXPECT_TRUE(t.spans().empty());
}

TEST(Trace, SpanTreeRecordsParentageAndOutcomes) {
  Tracer t;
  t.set_enabled(true);
  const TraceContext root = t.start_trace("client.op", 1000, 100);
  ASSERT_TRUE(root.active());
  const SpanId rpc = t.begin(root, "rpc.call", 1000, 105);
  const SpanId remote =
      t.begin(TraceContext{root.trace_id, rpc}, "server.work", 100, 120);
  t.end(remote, 140);
  t.end(rpc, 150, "ok");
  t.instant(root, "note", 1000, 155, "dropped");
  t.end(root.span_id, 160);

  ASSERT_EQ(t.spans().size(), 4u);
  const auto& spans = t.spans();
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, root.span_id);
  EXPECT_EQ(spans[2].parent, rpc);
  EXPECT_EQ(spans[2].node, 100u);
  EXPECT_EQ(spans[3].status, "dropped");
  EXPECT_EQ(spans[3].start_us, spans[3].end_us);

  // First close wins: a raced second close must not overwrite.
  t.end(rpc, 999, "timeout");
  EXPECT_EQ(spans[1].status, "ok");
  EXPECT_EQ(spans[1].end_us, 150u);

  const std::string tree = t.render_tree(root.trace_id);
  EXPECT_NE(tree.find("client.op @1000 [+0 us, 60 us] ok"),
            std::string::npos);
  EXPECT_NE(tree.find("  rpc.call @1000 [+5 us, 45 us] ok"),
            std::string::npos);
  EXPECT_NE(tree.find("    server.work @100 [+20 us, 20 us] ok"),
            std::string::npos);

  const std::string json = t.dump_json();
  EXPECT_NE(json.find("\"name\":\"rpc.call\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"dropped\""), std::string::npos);
}

TEST(Trace, OpenSpansRenderAsOpen) {
  Tracer t;
  t.set_enabled(true);
  const TraceContext root = t.start_trace("op", 1, 10);
  (void)t.begin(root, "stuck", 1, 12);
  EXPECT_NE(t.render_tree(root.trace_id).find("stuck @1 [+2 us] open"),
            std::string::npos);
  EXPECT_NE(t.dump_json().find("\"status\":\"open\""), std::string::npos);
}

}  // namespace
}  // namespace sedna
