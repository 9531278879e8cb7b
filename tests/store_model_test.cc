// Model-based property testing: LocalStore against a trivially-correct
// in-memory oracle under long random operation sequences, parameterized
// by seed. Catches interaction bugs no example-based test enumerates.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "common/hash.h"
#include "common/rng.h"
#include "store/local_store.h"
#include "store/slab.h"

namespace sedna::store {
namespace {

/// The oracle: straightforward maps with the documented semantics.
class OracleStore {
 public:
  struct Entry {
    std::optional<VersionedValue> latest;
    std::map<NodeId, SourceValue> list;
  };

  /// The store's deterministic equal-timestamp tie-break: higher value
  /// hash wins, then the lexicographically larger value — never arrival
  /// order (see value_wins_tie in store/local_store.cc).
  static bool value_wins_tie(const std::string& incoming,
                             const std::string& stored) {
    const std::uint64_t ih = fnv1a64(incoming);
    const std::uint64_t sh = fnv1a64(stored);
    if (ih != sh) return ih > sh;
    return incoming > stored;
  }

  StatusCode write_latest(const std::string& key, const std::string& value,
                          Timestamp ts) {
    auto& e = entries_[key];
    if (e.latest.has_value() && e.latest->ts >= ts) {
      if (e.latest->ts == ts && e.latest->value == value) {
        return StatusCode::kOk;  // idempotent replay
      }
      if (e.latest->ts > ts || !value_wins_tie(value, e.latest->value)) {
        return StatusCode::kOutdated;
      }
    }
    e.latest = VersionedValue{value, ts, 0};
    return StatusCode::kOk;
  }

  StatusCode write_all(const std::string& key, NodeId source,
                       const std::string& value, Timestamp ts) {
    auto& e = entries_[key];
    auto it = e.list.find(source);
    if (it != e.list.end() && it->second.ts >= ts) {
      if (it->second.ts == ts && it->second.value == value) {
        return StatusCode::kOk;
      }
      if (it->second.ts > ts || !value_wins_tie(value, it->second.value)) {
        return StatusCode::kOutdated;
      }
    }
    e.list[source] = SourceValue{source, value, ts};
    return StatusCode::kOk;
  }

  [[nodiscard]] std::optional<VersionedValue> read_latest(
      const std::string& key) const {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second.latest;
  }

  [[nodiscard]] std::size_t list_size(const std::string& key) const {
    const auto it = entries_.find(key);
    return it == entries_.end() ? 0 : it->second.list.size();
  }

  StatusCode del(const std::string& key) {
    return entries_.erase(key) > 0 ? StatusCode::kOk
                                   : StatusCode::kNotFound;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::map<std::string, Entry>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, Entry> entries_;
};

class ModelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelSweep, RandomOpsAgreeWithOracle) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  LocalStoreConfig cfg;
  cfg.shards = 1 + rng.next_below(8);
  LocalStore store(cfg);
  OracleStore oracle;

  constexpr int kOps = 5000;
  constexpr int kKeySpace = 60;  // small: forces heavy interaction
  for (int i = 0; i < kOps; ++i) {
    const std::string key = "k" + std::to_string(rng.next_below(kKeySpace));
    const auto ts = static_cast<Timestamp>(1 + rng.next_below(500));
    const std::string value = "v" + std::to_string(rng.next_below(1000));
    switch (rng.next_below(5)) {
      case 0:
      case 1: {  // write_latest
        const Status got = store.write_latest(key, value, ts);
        const StatusCode want = oracle.write_latest(key, value, ts);
        ASSERT_EQ(got.code(), want)
            << "op " << i << " write_latest " << key << " ts " << ts;
        break;
      }
      case 2: {  // write_all
        const auto source = static_cast<NodeId>(rng.next_below(4));
        const Status got = store.write_all(key, source, value, ts);
        const StatusCode want = oracle.write_all(key, source, value, ts);
        ASSERT_EQ(got.code(), want)
            << "op " << i << " write_all " << key << " src " << source;
        break;
      }
      case 3: {  // read_latest
        const auto got = store.read_latest(key);
        const auto want = oracle.read_latest(key);
        if (want.has_value()) {
          ASSERT_TRUE(got.ok()) << "op " << i << " read " << key;
          EXPECT_EQ(got->value, want->value);
          EXPECT_EQ(got->ts, want->ts);
        } else {
          EXPECT_FALSE(got.ok()) << "op " << i << " read " << key;
        }
        break;
      }
      case 4: {  // delete (occasionally)
        if (rng.next_below(4) == 0) {
          const Status got = store.del(key);
          const StatusCode want = oracle.del(key);
          ASSERT_EQ(got.code(), want) << "op " << i << " del " << key;
        }
        break;
      }
    }
  }

  // Full final-state audit.
  for (const auto& [key, entry] : oracle.entries()) {
    if (entry.latest.has_value()) {
      auto got = store.read_latest(key);
      ASSERT_TRUE(got.ok()) << key;
      EXPECT_EQ(got->value, entry.latest->value) << key;
      EXPECT_EQ(got->ts, entry.latest->ts) << key;
    }
    auto list = store.read_all(key);
    if (entry.list.empty()) {
      EXPECT_FALSE(list.ok()) << key;
    } else {
      ASSERT_TRUE(list.ok()) << key;
      ASSERT_EQ(list->size(), entry.list.size()) << key;
      for (const auto& sv : list.value()) {
        const auto it = entry.list.find(sv.source);
        ASSERT_NE(it, entry.list.end()) << key;
        EXPECT_EQ(sv.value, it->second.value) << key;
        EXPECT_EQ(sv.ts, it->second.ts) << key;
      }
    }
  }
}

TEST_P(ModelSweep, AccountingNeverGoesNegativeAndTracksContent) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0xacc);
  LocalStore store;
  std::map<std::string, std::size_t> live_value_sizes;

  for (int i = 0; i < 3000; ++i) {
    const std::string key = "a" + std::to_string(rng.next_below(40));
    if (rng.next_below(4) == 0) {
      if (store.del(key).ok()) live_value_sizes.erase(key);
    } else {
      const std::size_t len = rng.next_below(300);
      store.set(key, std::string(len, 'x'));
      live_value_sizes[key] = len;
    }
    // bytes >= sum of live payload bytes, and slab charge >= bytes.
    std::size_t payload = 0;
    for (const auto& [k, n] : live_value_sizes) payload += n;
    EXPECT_GE(store.stats().bytes, payload);
    EXPECT_GE(store.slab_charged_bytes(), store.stats().bytes);
  }
  EXPECT_EQ(store.size(), live_value_sizes.size());
  store.clear();
  EXPECT_EQ(store.stats().bytes, 0u);
  EXPECT_EQ(store.slab_charged_bytes(), 0u);
}

/// Recomputes every accounting figure the store keeps incrementally from
/// a fresh walk over its items, and compares: resident bytes, slab
/// charge, the sibling gauge, and each vnode's digest cells and bytes.
void expect_accounting_matches_content(const LocalStore& store,
                                       std::uint32_t vnodes,
                                       std::uint32_t buckets,
                                       const std::string& where) {
  std::uint64_t bytes = 0;
  std::uint64_t siblings = 0;
  SlabAccounting slabs;
  std::vector<std::uint64_t> cells(static_cast<std::size_t>(vnodes) * buckets);
  std::vector<std::uint64_t> vbytes(vnodes);
  store.for_each([&](const Item& it) {
    const std::size_t n = it.total_bytes();
    bytes += n;
    slabs.charge(n);
    const std::size_t sibs = it.causal.siblings.size();
    if (sibs > 1) siblings += sibs - 1;
    const auto vnode = static_cast<std::size_t>(ring_hash(it.key) % vnodes);
    cells[vnode * buckets + LocalStore::digest_bucket_of(it.key, buckets)] ^=
        LocalStore::item_digest(it);
    vbytes[vnode] += n;
  });
  const StoreStats st = store.stats();
  ASSERT_EQ(st.bytes, bytes) << where;
  ASSERT_EQ(store.slab_charged_bytes(), slabs.charged_bytes()) << where;
  ASSERT_EQ(st.siblings, siblings) << where;
  for (std::uint32_t v = 0; v < vnodes; ++v) {
    const std::vector<std::uint64_t> want(
        cells.begin() + static_cast<std::ptrdiff_t>(v) * buckets,
        cells.begin() + static_cast<std::ptrdiff_t>(v + 1) * buckets);
    ASSERT_EQ(store.digest_buckets(v), want) << where << " vnode " << v;
    ASSERT_EQ(store.vnode_bytes(v), vbytes[v]) << where << " vnode " << v;
  }
}

TEST_P(ModelSweep, EveryMutatorKeepsAccountingExact) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0x5eed);
  std::uint64_t now = 1;
  LocalStoreConfig cfg;
  cfg.shards = std::size_t{1} << rng.next_below(4);
  // Half the seeds run under a budget, so eviction's removals are checked
  // too. 3 KiB a shard is below what the keys hold but above any one item
  // here, so a write never evicts its own item.
  if (rng.next_below(2) == 0) cfg.memory_budget_bytes = cfg.shards * 3072;
  LocalStore store(cfg, [&now] { return now; });
  constexpr std::uint32_t kVnodes = 8;
  constexpr std::uint32_t kBuckets = 4;
  store.enable_digests(kVnodes, kBuckets);

  constexpr int kOps = 4000;
  constexpr int kKeySpace = 40;
  for (int i = 0; i < kOps; ++i) {
    ++now;
    const std::string key = "m" + std::to_string(rng.next_below(kKeySpace));
    const auto ts = static_cast<Timestamp>(1 + rng.next_below(500));
    const std::string value =
        rng.next_below(3) == 0 ? std::to_string(rng.next_below(100000))
                               : std::string(1 + rng.next_below(120), 'v');
    const char* op = "";
    switch (rng.next_below(16)) {
      case 0:
        op = "write_latest";
        store.write_latest(key, value, ts, 0, rng.next_below(4) == 0 ? 50 : 0);
        break;
      case 1:
        op = "write_all";
        store.write_all(key, static_cast<NodeId>(rng.next_below(4)), value,
                        ts);
        break;
      case 2: {
        op = "write_causal";
        VersionVector ctx;
        if (rng.next_below(2) == 0) {
          if (auto rec = store.read_causal(key); rec.ok()) ctx = rec->clock;
        }
        store.write_causal(key, ctx, value, ts, 0,
                           static_cast<NodeId>(rng.next_below(3)));
        break;
      }
      case 3: {
        op = "merge_causal";
        // A record minted elsewhere: a concurrent sibling or a re-delivery.
        CausalRecord incoming;
        if (rng.next_below(3) == 0) {
          if (auto rec = store.read_causal(key); rec.ok()) incoming = *rec;
        }
        incoming.update({}, value, ts, 0,
                        static_cast<NodeId>(3 + rng.next_below(2)));
        store.merge_causal(key, incoming);
        break;
      }
      case 4:
        op = "set";
        store.set(key, value, 0, rng.next_below(4) == 0 ? 30 : 0);
        break;
      case 5:
        op = "add";
        store.add(key, value);
        break;
      case 6:
        op = "replace";
        store.replace(key, value);
        break;
      case 7:
        op = "append";
        store.append(key, value.substr(0, 8));
        break;
      case 8:
        op = "prepend";
        store.prepend(key, value.substr(0, 8));
        break;
      case 9: {
        op = "cas";
        const auto got = store.gets(key);
        const std::uint64_t token =
            got.ok() && rng.next_below(4) != 0 ? got->second : 12345;
        store.cas(key, value, token);
        break;
      }
      case 10:
        op = "incr";
        store.incr(key, rng.next_below(1000000));
        break;
      case 11:
        op = "decr";
        store.decr(key, rng.next_below(1000));
        break;
      case 12:
        op = "del";
        store.del(key);
        break;
      case 13:
        op = "touch";
        store.touch(key, rng.next_below(2) == 0 ? 20 : 0);
        break;
      case 14:
        op = "read";
        (void)store.read_latest(key);
        (void)store.read_all(key);
        break;
      case 15:
        op = "expire_sweep";
        now += rng.next_below(10);
        store.expire_sweep(1 + rng.next_below(4));
        break;
    }
    expect_accounting_matches_content(
        store, kVnodes, kBuckets,
        "op " + std::to_string(i) + " " + op + " " + key);
    if (HasFatalFailure()) return;
  }
  store.clear();
  expect_accounting_matches_content(store, kVnodes, kBuckets, "after clear");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelSweep,
                         ::testing::Values(1, 7, 42, 1337, 99991, 2012),
                         [](const ::testing::TestParamInfo<std::uint64_t>&
                                info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace sedna::store
