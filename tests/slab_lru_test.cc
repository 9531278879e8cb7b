// Focused tests for the slab size-class accounting and exact LRU
// ordering/eviction behaviour of the LocalStore.
#include <gtest/gtest.h>

#include "store/local_store.h"
#include "store/slab.h"

namespace sedna::store {
namespace {

// ---- SlabAccounting --------------------------------------------------------

TEST(Slab, ClassSizesGrowByFactor) {
  SlabAccounting slabs;
  std::size_t prev = 0;
  for (std::size_t c = 0; c < SlabAccounting::kNumClasses; ++c) {
    const std::size_t size = slabs.chunk_size(c);
    EXPECT_GT(size, prev);
    if (c > 0) {
      // growth factor 1.25, allowing for integer truncation
      EXPECT_LE(size, prev + prev / 3);
    }
    prev = size;
  }
  EXPECT_EQ(slabs.chunk_size(0), SlabAccounting::kMinChunk);
}

TEST(Slab, ClassForPicksSmallestFit) {
  SlabAccounting slabs;
  EXPECT_EQ(slabs.class_for(1), 0u);
  EXPECT_EQ(slabs.class_for(SlabAccounting::kMinChunk), 0u);
  EXPECT_EQ(slabs.class_for(SlabAccounting::kMinChunk + 1), 1u);
  for (std::size_t c = 0; c + 1 < SlabAccounting::kNumClasses; ++c) {
    // A chunk-sized request maps exactly to its class; one byte more
    // spills into the next.
    EXPECT_EQ(slabs.class_for(slabs.chunk_size(c)), c);
    EXPECT_EQ(slabs.class_for(slabs.chunk_size(c) + 1), c + 1);
  }
}

TEST(Slab, OversizedLandsInLastClass) {
  SlabAccounting slabs;
  EXPECT_EQ(slabs.class_for(1u << 30),
            SlabAccounting::kNumClasses - 1);
}

TEST(Slab, ChargeReleaseBalances) {
  SlabAccounting slabs;
  slabs.charge(100);
  slabs.charge(100);
  slabs.charge(5000);
  const auto cls_small = slabs.class_for(100);
  const auto cls_big = slabs.class_for(5000);
  EXPECT_EQ(slabs.used_chunks(cls_small), 2u);
  EXPECT_EQ(slabs.used_chunks(cls_big), 1u);
  EXPECT_GT(slabs.charged_bytes(), 5200u);  // chunk >= payload

  slabs.release(100);
  slabs.release(5000);
  EXPECT_EQ(slabs.used_chunks(cls_small), 1u);
  EXPECT_EQ(slabs.used_chunks(cls_big), 0u);
  slabs.release(100);
  EXPECT_EQ(slabs.charged_bytes(), 0u);
}

TEST(Slab, ReleaseOfUnchargedIsSafe) {
  SlabAccounting slabs;
  slabs.release(100);  // must not underflow
  EXPECT_EQ(slabs.charged_bytes(), 0u);
  EXPECT_EQ(slabs.used_chunks(slabs.class_for(100)), 0u);
}

TEST(Slab, ChargedBytesReflectInternalFragmentation) {
  SlabAccounting slabs;
  // A 65-byte item occupies an 80-byte chunk (64 * 1.25): the accounting
  // must capture that overhead, as real memcached's does.
  slabs.charge(65);
  EXPECT_GE(slabs.charged_bytes(), 65u);
  EXPECT_EQ(slabs.charged_bytes(),
            slabs.chunk_size(slabs.class_for(65)));
}

// ---- exact LRU behaviour ------------------------------------------------------

LocalStoreConfig one_shard() {
  LocalStoreConfig cfg;
  cfg.shards = 1;  // deterministic LRU order needs a single list
  return cfg;
}

TEST(Lru, EvictionFollowsExactAccessOrder) {
  LocalStoreConfig cfg = one_shard();
  LocalStore probe(cfg);
  // Measure per-item cost to size a budget for exactly ~4 items.
  probe.set("sample-0", std::string(100, 'v'));
  const std::size_t per_item = probe.stats().bytes;
  cfg.memory_budget_bytes = per_item * 4 + per_item / 2;

  LocalStore store(cfg);
  for (int i = 0; i < 4; ++i) {
    store.set("sample-" + std::to_string(i), std::string(100, 'v'));
  }
  ASSERT_EQ(store.size(), 4u);
  // Touch 0 and 1 so 2 becomes the coldest.
  store.get("sample-0");
  store.get("sample-1");
  store.set("sample-4", std::string(100, 'v'));  // forces one eviction
  EXPECT_FALSE(store.get("sample-2").ok());  // the coldest went
  EXPECT_TRUE(store.get("sample-0").ok());
  EXPECT_TRUE(store.get("sample-1").ok());
  EXPECT_TRUE(store.get("sample-3").ok());
  EXPECT_TRUE(store.get("sample-4").ok());
}

TEST(Lru, WritesAlsoRefreshRecency) {
  LocalStoreConfig cfg = one_shard();
  LocalStore probe(cfg);
  probe.set("sample-0", std::string(100, 'v'));
  const std::size_t per_item = probe.stats().bytes;
  cfg.memory_budget_bytes = per_item * 3 + per_item / 2;

  LocalStore store(cfg);
  store.set("a", std::string(100, 'v'));
  store.set("b", std::string(100, 'v'));
  store.set("c", std::string(100, 'v'));
  store.set("a", std::string(100, 'w'));  // rewrite refreshes 'a'
  store.set("d", std::string(100, 'v'));  // evicts 'b', the coldest
  EXPECT_TRUE(store.get("a").ok());
  EXPECT_FALSE(store.get("b").ok());
}

TEST(Lru, MultiEvictionWhenOversizedItemArrives) {
  LocalStoreConfig cfg = one_shard();
  LocalStore probe(cfg);
  probe.set("sample-0", std::string(100, 'v'));
  const std::size_t per_item = probe.stats().bytes;
  cfg.memory_budget_bytes = per_item * 5;

  LocalStore store(cfg);
  for (int i = 0; i < 5; ++i) {
    store.set("small-" + std::to_string(i), std::string(100, 'v'));
  }
  // One item worth three slots of budget evicts several cold entries.
  store.set("jumbo", std::string(300, 'v'));
  EXPECT_TRUE(store.get("jumbo").ok());
  EXPECT_GE(store.stats().evictions, 2u);
  EXPECT_LE(store.stats().bytes, cfg.memory_budget_bytes);
}

TEST(Lru, GetsAndReadAllAlsoTouch) {
  LocalStoreConfig cfg = one_shard();
  LocalStore probe(cfg);
  probe.write_all("sample", 1, std::string(100, 'v'), 1);
  const std::size_t per_item = probe.stats().bytes;
  cfg.memory_budget_bytes = per_item * 3 + per_item / 2;

  LocalStore store(cfg);
  store.write_all("x", 1, std::string(100, 'v'), 1);
  store.write_all("y", 1, std::string(100, 'v'), 2);
  store.write_all("z", 1, std::string(100, 'v'), 3);
  ASSERT_TRUE(store.read_all("x").ok());  // refresh x
  store.write_all("w", 1, std::string(100, 'v'), 4);
  EXPECT_TRUE(store.read_all("x").ok());
  EXPECT_FALSE(store.read_all("y").ok());  // y was the coldest
}

TEST(Lru, IncrAndDecrStayUnderBudget) {
  // Budget for exactly two 9-digit counters: incr growing one to ten
  // digits must evict, like every other write that grows an item.
  LocalStoreConfig cfg = one_shard();
  LocalStore probe(cfg);
  probe.set("a", "999999999");
  cfg.memory_budget_bytes = probe.stats().bytes * 2;

  LocalStore store(cfg);
  const auto under_budget = [&](const char* op) {
    EXPECT_LE(store.stats().bytes, cfg.memory_budget_bytes) << op;
  };
  store.set("a", "999999999");
  under_budget("set a");
  store.set("b", "999999999");
  under_budget("set b");
  ASSERT_EQ(store.size(), 2u);
  ASSERT_EQ(store.incr("a", 1).value(), 1000000000u);
  under_budget("incr a");
  EXPECT_FALSE(store.get("b").ok());  // b was the coldest
  EXPECT_EQ(store.get("a")->value, "1000000000");
  EXPECT_EQ(store.stats().evictions, 1u);
  store.set("b", "999999999");
  under_budget("set b again");
  ASSERT_EQ(store.decr("b", 1).value(), 999999998u);
  under_budget("decr b");
}

TEST(Lru, BudgetSplitsAcrossShards) {
  LocalStoreConfig cfg;
  cfg.shards = 4;
  cfg.memory_budget_bytes = 64 * 1024;
  LocalStore store(cfg);
  for (int i = 0; i < 4000; ++i) {
    store.set("spread-" + std::to_string(i), std::string(64, 'v'));
  }
  // Total stays under budget even though eviction decisions are per-shard.
  EXPECT_LE(store.stats().bytes, 64u * 1024u);
  EXPECT_GT(store.size(), 100u);
}

}  // namespace
}  // namespace sedna::store
