#include "store/local_store.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <charconv>
#include <chrono>

#include "common/hash.h"

namespace sedna::store {

namespace {

/// The default clock: microseconds of the process's monotonic clock.
std::uint64_t monotonic_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Deterministic equal-timestamp tie-break: higher value hash wins, then
/// the lexicographically larger value. Writer identity is not carried on
/// every replication path (read repair, pulls, transfers), so the value
/// itself is the only tie-break input all replicas are guaranteed to
/// share — what matters is that *arrival order never decides*, or
/// replicas that saw two equal-ts writes in different orders would
/// permanently diverge.
bool value_wins_tie(std::string_view incoming, std::string_view stored) {
  const std::uint64_t ih = fnv1a64(incoming);
  const std::uint64_t sh = fnv1a64(stored);
  if (ih != sh) return ih > sh;
  return incoming > stored;
}

/// Siblings beyond the first on a causal item: the store-wide sum is the
/// `store.siblings` conflict gauge (0 while no true conflicts are
/// retained).
std::uint64_t sibling_excess(const Item& it) {
  const std::size_t n = it.causal.siblings.size();
  return n > 1 ? n - 1 : 0;
}

/// Points the item's LWW mirror at the causal record's deterministic
/// winner so legacy reads/scans/digests see causal keys.
void refresh_causal_mirror(Item& it) {
  const Sibling* w = it.causal.winner();
  if (w != nullptr) {
    it.latest = VersionedValue{w->value, w->ts, w->flags};
    it.has_latest = true;
  }
}

bool has_latest(const Item& it) { return it.has_latest; }

}  // namespace

/// Store-wide Merkle leaf cells: vnodes × buckets 64-bit accumulators.
/// Every insert/remove/mutation XOR-toggles the owning cell with the
/// item's content digest under the owning shard's lock, so a cell is the
/// XOR of the digests of the items currently in that (vnode, bucket)
/// slice — identical cells ⇒ identical replicated content.
struct LocalStore::DigestTree {
  DigestTree(std::uint32_t v, std::uint32_t b)
      : vnodes(v),
        buckets(b),
        cells(std::make_unique<std::atomic<std::uint64_t>[]>(
            static_cast<std::size_t>(v) * b)),
        vbytes(std::make_unique<std::atomic<std::uint64_t>[]>(v)) {
    const std::size_t n = static_cast<std::size_t>(v) * b;
    for (std::size_t i = 0; i < n; ++i) {
      cells[i].store(0, std::memory_order_relaxed);
    }
    for (std::uint32_t i = 0; i < v; ++i) {
      vbytes[i].store(0, std::memory_order_relaxed);
    }
  }

  /// Toggles `digest` in the key's cell and charges (or releases) `n`
  /// bytes to its vnode. The per-vnode resident-byte tallies move on the
  /// same paths as the digest cells, so they track the replicated content
  /// exactly; they feed the imbalance row's per-vnode capacity column.
  void account(std::string_view key, std::uint64_t digest, std::uint64_t n,
               bool charge) {
    const auto vnode = static_cast<std::size_t>(ring_hash(key) % vnodes);
    const std::size_t bucket = digest_bucket_of(key, buckets);
    cells[vnode * buckets + bucket].fetch_xor(digest,
                                              std::memory_order_relaxed);
    if (charge) {
      vbytes[vnode].fetch_add(n, std::memory_order_relaxed);
    } else {
      vbytes[vnode].fetch_sub(n, std::memory_order_relaxed);
    }
  }

  std::uint32_t vnodes;
  std::uint32_t buckets;
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells;
  std::unique_ptr<std::atomic<std::uint64_t>[]> vbytes;
};

struct LocalStore::Shard {
  mutable std::mutex mu;
  std::vector<Item*> buckets;
  std::size_t item_count = 0;
  std::size_t bytes = 0;
  std::size_t budget = 0;  // 0 = unlimited
  Item* lru_head = nullptr;  // most recently used
  Item* lru_tail = nullptr;  // least recently used
  SlabAccounting slabs;
  StoreStats stats;
  std::unordered_map<std::string, ChangeRecord> dirty;
  bool track_changes = false;
  MonitoredPredicate monitored_pred;
  /// Borrowed from the owning store's digests_; null while digests are off.
  DigestTree* digests = nullptr;

  ~Shard() {
    for (Item* head : buckets) {
      while (head != nullptr) {
        Item* next = head->hash_next;
        delete head;
        head = next;
      }
    }
  }

  [[nodiscard]] std::size_t bucket_index(std::uint64_t hash) const {
    return hash & (buckets.size() - 1);
  }

  Item* find(std::string_view key, std::uint64_t hash) {
    for (Item* it = buckets[bucket_index(hash)]; it != nullptr;
         it = it->hash_next) {
      if (it->key == key) return it;
    }
    return nullptr;
  }

  void lru_unlink(Item* it) {
    if (it->lru_prev != nullptr) {
      it->lru_prev->lru_next = it->lru_next;
    } else {
      lru_head = it->lru_next;
    }
    if (it->lru_next != nullptr) {
      it->lru_next->lru_prev = it->lru_prev;
    } else {
      lru_tail = it->lru_prev;
    }
    it->lru_prev = it->lru_next = nullptr;
  }

  void lru_push_front(Item* it) {
    it->lru_prev = nullptr;
    it->lru_next = lru_head;
    if (lru_head != nullptr) lru_head->lru_prev = it;
    lru_head = it;
    if (lru_tail == nullptr) lru_tail = it;
  }

  void lru_touch(Item* it) {
    if (lru_head == it) return;
    lru_unlink(it);
    lru_push_front(it);
  }

  /// What an item is charged for: its resident bytes (and their slab
  /// chunk) and its content digest (0 while digests are off).
  struct Footprint {
    std::size_t bytes;
    std::uint64_t digest;
  };

  [[nodiscard]] Footprint footprint(const Item& it) const {
    return {it.total_bytes(),
            digests != nullptr ? LocalStore::item_digest(it) : 0};
  }

  /// The one accounting path: charges (or releases) a footprint to the
  /// shard's bytes, its slab class and the key's digest cell.
  void account(std::string_view key, const Footprint& f, bool charge) {
    if (charge) {
      bytes += f.bytes;
      slabs.charge(f.bytes);
    } else {
      bytes -= std::min(bytes, f.bytes);
      slabs.release(f.bytes);
    }
    if (digests != nullptr) digests->account(key, f.digest, f.bytes, charge);
  }

  void unlink_from_bucket(Item* it, std::uint64_t hash) {
    Item** slot = &buckets[bucket_index(hash)];
    while (*slot != nullptr && *slot != it) slot = &(*slot)->hash_next;
    if (*slot == it) *slot = it->hash_next;
    it->hash_next = nullptr;
  }

  /// Fully removes and frees the item.
  void erase(Item* it) {
    unlink_from_bucket(it, bucket_hash(it->key));
    lru_unlink(it);
    account(it->key, footprint(*it), /*charge=*/false);
    stats.siblings -= sibling_excess(*it);
    --item_count;
    delete it;
  }

  void maybe_grow() {
    if (item_count <= buckets.size() + buckets.size() / 4) return;
    std::vector<Item*> grown(buckets.size() * 2, nullptr);
    for (Item* head : buckets) {
      while (head != nullptr) {
        Item* next = head->hash_next;
        const std::size_t idx =
            bucket_hash(head->key) & (grown.size() - 1);
        head->hash_next = grown[idx];
        grown[idx] = head;
        head = next;
      }
    }
    buckets.swap(grown);
  }


  [[nodiscard]] bool should_capture(const Item& it) const {
    if (!track_changes) return false;
    if (!monitored_pred) return true;
    return it.monitored;
  }

  /// Records (coalescing) a change for the dirty table. `old_val` is the
  /// value before this shard-level mutation; records merge so a burst of
  /// writes yields one record spanning first-old to last-new.
  void record_change(Item& it, bool had_old, VersionedValue old_val,
                     bool deleted) {
    it.dirty = true;
    ++stats.dirty_events;
    auto [pos, inserted] = dirty.try_emplace(it.key);
    ChangeRecord& rec = pos->second;
    if (inserted) {
      rec.key = it.key;
      rec.had_old = had_old;
      rec.old_value = std::move(old_val);
    }
    rec.deleted = deleted;
    if (!deleted && it.has_latest) rec.new_value = it.latest;
  }

  void evict_to_budget() {
    if (budget == 0) return;
    while (bytes > budget && lru_tail != nullptr) {
      Item* victim = lru_tail;
      ++stats.evictions;
      erase(victim);
    }
  }

  [[nodiscard]] static bool is_expired(const Item& it, std::uint64_t now) {
    return it.expires_at != 0 && now >= it.expires_at;
  }

  /// find() plus lazy expiry.
  Item* find_live(std::string_view key, std::uint64_t hash,
                  std::uint64_t now) {
    Item* it = find(key, hash);
    if (it == nullptr) return nullptr;
    if (is_expired(*it, now)) {
      ++stats.expired;
      erase(it);
      return nullptr;
    }
    return it;
  }

  /// The writers' lookup: find_live(), creating an empty item when the
  /// key is absent.
  Item* find_or_insert(std::string_view key, std::uint64_t now) {
    const std::uint64_t hash = bucket_hash(key);
    if (Item* found = find_live(key, hash, now)) return found;
    auto* it = new Item();
    it->key.assign(key);
    if (monitored_pred) it->monitored = monitored_pred(key);
    const std::size_t idx = bucket_index(hash);
    it->hash_next = buckets[idx];
    buckets[idx] = it;
    lru_push_front(it);
    ++item_count;
    ++stats.total_items;
    account(it->key, footprint(*it), /*charge=*/true);
    maybe_grow();
    return it;
  }

  /// The readers' lookup: a live item for which `has` holds is a hit (and
  /// moves to the LRU head); anything else is a miss and yields null.
  template <typename Has>
  const Item* lookup(std::string_view key, std::uint64_t now, Has has) {
    Item* it = find_live(key, bucket_hash(key), now);
    if (it == nullptr || !has(*it)) {
      ++stats.get_misses;
      return nullptr;
    }
    lru_touch(it);
    ++stats.get_hits;
    return it;
  }

  /// The one mutation tail every writer goes through. `change` edits the
  /// item in place and returns whether anything moved; if it did, the
  /// item is re-charged, its CAS token bumped, it moves to the LRU head,
  /// the change is recorded for the dirty table, and the shard is brought
  /// back under budget — which may evict `it` itself, so callers must not
  /// touch the item after this returns. Returns what `change` returned.
  template <typename Change>
  bool mutate(Item* it, Change&& change) {
    const bool capture = should_capture(*it);
    const bool had_old = it->has_latest;
    VersionedValue old_val = capture && had_old ? it->latest : VersionedValue{};
    const Footprint before = footprint(*it);
    const std::uint64_t old_excess = sibling_excess(*it);
    if (!change(*it)) return false;
    ++it->cas;
    stats.siblings += sibling_excess(*it);
    stats.siblings -= old_excess;
    account(it->key, before, /*charge=*/false);
    account(it->key, footprint(*it), /*charge=*/true);
    lru_touch(it);
    ++stats.sets;
    if (capture) record_change(*it, had_old, std::move(old_val), false);
    evict_to_budget();
    return true;
  }
};

LocalStore::LocalStore(LocalStoreConfig config, ClockFn clock)
    : config_(config), clock_(clock ? std::move(clock) : monotonic_us) {
  const std::size_t n = round_up_pow2(std::max<std::size_t>(1, config_.shards));
  shard_mask_ = n - 1;
  shards_.reserve(n);
  const std::size_t per_shard_budget =
      config_.memory_budget_bytes == 0 ? 0 : config_.memory_budget_bytes / n;
  for (std::size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->buckets.assign(
        round_up_pow2(std::max<std::size_t>(
            8, config_.initial_buckets_per_shard)),
        nullptr);
    shard->budget = per_shard_budget;
    shard->track_changes = config_.track_changes;
    shards_.push_back(std::move(shard));
  }
}

LocalStore::~LocalStore() = default;

LocalStore::Shard& LocalStore::shard_for(std::string_view key) {
  return *shards_[mix64(bucket_hash(key)) & shard_mask_];
}
const LocalStore::Shard& LocalStore::shard_for(std::string_view key) const {
  return *shards_[mix64(bucket_hash(key)) & shard_mask_];
}

std::uint64_t LocalStore::clock_now() const {
  return clock_();
}

Timestamp LocalStore::next_timestamp() {
  const auto seq = static_cast<std::uint16_t>(
      ts_seq_.fetch_add(1, std::memory_order_relaxed));
  Timestamp candidate = make_timestamp(clock_now(), seq);
  // Strictly monotone even without a clock (or across a clock stall):
  // never hand out a timestamp at or below the previous one.
  Timestamp last = last_ts_.load(std::memory_order_relaxed);
  for (;;) {
    if (candidate <= last) candidate = last + 1;
    if (last_ts_.compare_exchange_weak(last, candidate,
                                       std::memory_order_relaxed)) {
      return candidate;
    }
  }
}

Status LocalStore::write_latest(std::string_view key, std::string_view value,
                                Timestamp ts, std::uint32_t flags,
                                std::uint64_t ttl) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  const std::uint64_t now = clock_now();
  Item* it = s.find_or_insert(key, now);

  if (it->has_latest && it->latest.ts >= ts) {
    // Idempotent replay: the identical write (same ts, same value) is a
    // success, not a conflict — coordinators and clients retry writes
    // with a pinned timestamp after partial failures.
    if (it->latest.ts == ts && it->latest.value == value) {
      return Status::Ok();
    }
    // Equal timestamps from different writers resolve by the
    // deterministic value tie-break, never by arrival order.
    if (it->latest.ts > ts || !value_wins_tie(value, it->latest.value)) {
      ++s.stats.set_outdated;
      return Status::Outdated();
    }
  }

  s.mutate(it, [&](Item& item) {
    item.latest = VersionedValue{std::string(value), ts, flags};
    item.has_latest = true;
    if (ttl != 0) item.expires_at = now + ttl;
    return true;
  });
  return Status::Ok();
}

Status LocalStore::write_all(std::string_view key, NodeId source,
                             std::string_view value, Timestamp ts) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  Item* it = s.find_or_insert(key, clock_now());

  auto elem = std::find_if(
      it->value_list.begin(), it->value_list.end(),
      [source](const SourceValue& sv) { return sv.source == source; });

  if (elem != it->value_list.end() && elem->ts >= ts) {
    if (elem->ts == ts && elem->value == value) {
      return Status::Ok();  // idempotent replay (see write_latest)
    }
    // Same deterministic equal-ts tie-break as write_latest.
    if (elem->ts > ts || !value_wins_tie(value, elem->value)) {
      ++s.stats.set_outdated;
      return Status::Outdated();
    }
  }

  s.mutate(it, [&](Item& item) {
    if (elem == item.value_list.end()) {
      item.value_list.push_back(SourceValue{source, std::string(value), ts});
    } else {
      elem->value.assign(value);
      elem->ts = ts;
    }
    return true;
  });
  return Status::Ok();
}

Result<VersionedValue> LocalStore::read_latest(std::string_view key,
                                               std::uint64_t* expires_at) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  const Item* it = s.lookup(key, clock_now(), has_latest);
  if (it == nullptr) return Status::NotFound();
  if (expires_at != nullptr) *expires_at = it->expires_at;
  return it->latest;
}

Result<std::vector<SourceValue>> LocalStore::read_all(std::string_view key) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  const Item* it = s.lookup(key, clock_now(), [](const Item& item) {
    return !item.value_list.empty();
  });
  if (it == nullptr) return Status::NotFound();
  return it->value_list;
}

Result<CausalRecord> LocalStore::write_causal(std::string_view key,
                                              const VersionVector& ctx,
                                              std::string_view value,
                                              Timestamp ts,
                                              std::uint32_t flags,
                                              NodeId coordinator) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  Item* it = s.find_or_insert(key, clock_now());
  CausalRecord out;
  s.mutate(it, [&](Item& item) {
    item.causal.update(ctx, std::string(value), ts, flags, coordinator);
    refresh_causal_mirror(item);
    // Copied here: the budget check that ends the write may evict the item.
    out = item.causal;
    return true;
  });
  return out;
}

Status LocalStore::merge_causal(std::string_view key,
                                const CausalRecord& incoming,
                                bool* changed_out) {
  if (changed_out != nullptr) *changed_out = false;
  if (incoming.empty()) return Status::Ok();
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  Item* it = s.find_or_insert(key, clock_now());
  const bool changed = s.mutate(it, [&](Item& item) {
    // Idempotent re-delivery (retries, hint replay, anti-entropy pushes):
    // nothing moved, charge nothing.
    if (!item.causal.merge(incoming)) return false;
    refresh_causal_mirror(item);
    return true;
  });
  if (changed) ++s.stats.dvv_merges;
  if (changed_out != nullptr) *changed_out = changed;
  return Status::Ok();
}

Result<CausalRecord> LocalStore::read_causal(std::string_view key) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  const Item* it = s.lookup(key, clock_now(), [](const Item& item) {
    return !item.causal.empty();
  });
  if (it == nullptr) return Status::NotFound();
  return it->causal;
}

Status LocalStore::set(std::string_view key, std::string_view value,
                       std::uint32_t flags, std::uint64_t ttl) {
  return set_impl(key, value, flags, ttl, SetMode::kUnconditional);
}

/// Shared body of set/add/replace: one critical section so add/replace
/// preconditions are atomic with the store (memcached semantics).
Status LocalStore::set_impl(std::string_view key, std::string_view value,
                            std::uint32_t flags, std::uint64_t ttl,
                            SetMode mode) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  const std::uint64_t now = clock_now();
  if (mode != SetMode::kUnconditional) {
    const Item* cur = s.find_live(key, bucket_hash(key), now);
    const bool exists = cur != nullptr && cur->has_latest;
    if (mode == SetMode::kAddOnly && exists) return Status::AlreadyExists();
    if (mode == SetMode::kReplaceOnly && !exists) return Status::NotFound();
  }
  s.mutate(s.find_or_insert(key, now), [&](Item& item) {
    item.latest = VersionedValue{std::string(value), next_timestamp(), flags};
    item.has_latest = true;
    item.expires_at = ttl == 0 ? 0 : now + ttl;
    return true;
  });
  return Status::Ok();
}

Status LocalStore::add(std::string_view key, std::string_view value,
                       std::uint32_t flags, std::uint64_t ttl) {
  return set_impl(key, value, flags, ttl, SetMode::kAddOnly);
}

Status LocalStore::replace(std::string_view key, std::string_view value,
                           std::uint32_t flags, std::uint64_t ttl) {
  return set_impl(key, value, flags, ttl, SetMode::kReplaceOnly);
}

Result<VersionedValue> LocalStore::get(std::string_view key) {
  return read_latest(key);
}

Result<std::pair<VersionedValue, std::uint64_t>> LocalStore::gets(
    std::string_view key) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  const Item* it = s.lookup(key, clock_now(), has_latest);
  if (it == nullptr) return Status::NotFound();
  return std::make_pair(it->latest, it->cas);
}

/// The one edit of an existing latest value, shared by append, prepend,
/// cas, incr and decr (memcached semantics: kNotFound when the key holds
/// none). `edit` rewrites the item's value in place, or returns an error
/// and leaves it untouched; an edited value takes a fresh local
/// timestamp. cas counts its hits and misses in the same critical section.
template <typename Edit>
Status LocalStore::edit_latest(std::string_view key, bool count_cas,
                               Edit edit) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  Item* it = s.find_live(key, bucket_hash(key), clock_now());
  Status st = Status::NotFound();
  if (it != nullptr && it->has_latest) {
    s.mutate(it, [&](Item& item) {
      st = edit(item);
      if (!st.ok()) return false;
      item.latest.ts = next_timestamp();
      return true;
    });
  }
  if (count_cas) ++(st.ok() ? s.stats.cas_hits : s.stats.cas_misses);
  return st;
}

Status LocalStore::append(std::string_view key, std::string_view suffix) {
  return edit_latest(key, false, [&](Item& it) {
    it.latest.value.append(suffix);
    return Status::Ok();
  });
}

Status LocalStore::prepend(std::string_view key, std::string_view prefix) {
  return edit_latest(key, false, [&](Item& it) {
    it.latest.value.insert(0, prefix);
    return Status::Ok();
  });
}

Status LocalStore::cas(std::string_view key, std::string_view value,
                       std::uint64_t cas_token) {
  return edit_latest(key, true, [&](Item& it) {
    if (it.cas != cas_token) return Status::Failure("cas mismatch");
    it.latest.value.assign(value);
    return Status::Ok();
  });
}

Result<std::uint64_t> LocalStore::incr(std::string_view key,
                                       std::uint64_t delta) {
  return step_counter(key, delta, /*up=*/true);
}

Result<std::uint64_t> LocalStore::decr(std::string_view key,
                                       std::uint64_t delta) {
  return step_counter(key, delta, /*up=*/false);
}

Result<std::uint64_t> LocalStore::step_counter(std::string_view key,
                                               std::uint64_t delta, bool up) {
  std::uint64_t current = 0;
  const Status st = edit_latest(key, false, [&](Item& it) {
    std::string& v = it.latest.value;
    auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), current);
    if (ec != std::errc{} || ptr != v.data() + v.size()) {
      return Status::InvalidArgument("value is not a number");
    }
    // memcached saturates a decrement at 0.
    current = up ? current + delta : current > delta ? current - delta : 0;
    v = std::to_string(current);
    return Status::Ok();
  });
  if (!st.ok()) return st;
  return current;
}

Status LocalStore::del(std::string_view key) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  Item* it = s.find_live(key, bucket_hash(key), clock_now());
  if (it == nullptr) return Status::NotFound();
  if (s.should_capture(*it)) {
    s.record_change(*it, it->has_latest, it->latest, /*deleted=*/true);
  }
  ++s.stats.deletes;
  s.erase(it);
  return Status::Ok();
}

Status LocalStore::touch(std::string_view key, std::uint64_t ttl) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  const std::uint64_t now = clock_now();
  Item* it = s.find_live(key, bucket_hash(key), now);
  if (it == nullptr) return Status::NotFound();
  it->expires_at = ttl == 0 ? 0 : now + ttl;
  s.lru_touch(it);
  return Status::Ok();
}

Status LocalStore::expire_at(std::string_view key, std::uint64_t at) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  Item* it = s.find_live(key, bucket_hash(key), clock_now());
  if (it == nullptr) return Status::NotFound();
  it->expires_at = at;
  return Status::Ok();
}

void LocalStore::set_track_changes(bool on) {
  for (auto& s : shards_) {
    std::lock_guard lock(s->mu);
    s->track_changes = on;
  }
}

void LocalStore::set_monitored_predicate(MonitoredPredicate pred) {
  for (auto& s : shards_) {
    std::lock_guard lock(s->mu);
    s->monitored_pred = pred;
    // Re-evaluate existing items against the new predicate.
    for (Item* head : s->buckets) {
      for (Item* it = head; it != nullptr; it = it->hash_next) {
        it->monitored = pred ? pred(it->key) : false;
      }
    }
  }
}

std::vector<ChangeRecord> LocalStore::drain_changes() {
  std::vector<ChangeRecord> out;
  for (auto& s : shards_) {
    std::unordered_map<std::string, ChangeRecord> taken;
    {
      std::lock_guard lock(s->mu);
      taken.swap(s->dirty);
      // Clear the Dirty column for swept items.
      for (auto& [key, rec] : taken) {
        Item* it = s->find(key, bucket_hash(key));
        if (it != nullptr) it->dirty = false;
      }
    }
    out.reserve(out.size() + taken.size());
    for (auto& [key, rec] : taken) out.push_back(std::move(rec));
  }
  return out;
}

std::size_t LocalStore::pending_changes() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard lock(s->mu);
    n += s->dirty.size();
  }
  return n;
}

std::size_t LocalStore::expire_sweep(std::size_t max_items) {
  const std::uint64_t now = clock_now();
  std::size_t removed = 0;
  for (auto& s : shards_) {
    std::lock_guard lock(s->mu);
    for (std::size_t b = 0; b < s->buckets.size() && removed < max_items;
         ++b) {
      Item* it = s->buckets[b];
      while (it != nullptr && removed < max_items) {
        Item* next = it->hash_next;
        if (Shard::is_expired(*it, now)) {
          ++s->stats.expired;
          s->erase(it);
          ++removed;
        }
        it = next;
      }
    }
  }
  return removed;
}

StoreStats LocalStore::stats() const {
  StoreStats total;
  for (const auto& s : shards_) {
    std::lock_guard lock(s->mu);
    StoreStats shard_stats = s->stats;
    shard_stats.curr_items = s->item_count;
    shard_stats.bytes = s->bytes;
    total += shard_stats;
  }
  return total;
}

std::size_t LocalStore::size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard lock(s->mu);
    n += s->item_count;
  }
  return n;
}

std::uint64_t LocalStore::slab_charged_bytes() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard lock(s->mu);
    n += s->slabs.charged_bytes();
  }
  return n;
}

void LocalStore::clear() {
  for (auto& s : shards_) {
    std::lock_guard lock(s->mu);
    // erase() unlinks the chain head, so each slot drains in place.
    for (Item*& head : s->buckets) {
      while (head != nullptr) s->erase(head);
    }
    s->dirty.clear();
  }
}

void LocalStore::for_each(const std::function<void(const Item&)>& fn) const {
  for (const auto& s : shards_) {
    std::lock_guard lock(s->mu);
    for (Item* head : s->buckets) {
      for (Item* it = head; it != nullptr; it = it->hash_next) fn(*it);
    }
  }
}

void LocalStore::enable_digests(std::uint32_t vnodes,
                                std::uint32_t buckets_per_vnode) {
  auto tree = std::make_shared<DigestTree>(
      std::max<std::uint32_t>(1, vnodes),
      std::max<std::uint32_t>(1, buckets_per_vnode));
  // Rebuild from current content (idempotent across node restarts: a
  // fresh tree starts at zero and existing items toggle in exactly once).
  for (auto& s : shards_) {
    std::lock_guard lock(s->mu);
    s->digests = tree.get();
    for (Item* head : s->buckets) {
      for (Item* it = head; it != nullptr; it = it->hash_next) {
        tree->account(it->key, item_digest(*it), it->total_bytes(), true);
      }
    }
  }
  digests_ = std::move(tree);
}

std::uint64_t LocalStore::vnode_bytes(VnodeId vnode) const {
  if (!digests_ || vnode >= digests_->vnodes) return 0;
  return digests_->vbytes[vnode].load(std::memory_order_relaxed);
}

std::vector<std::uint64_t> LocalStore::vnode_bytes_all() const {
  std::vector<std::uint64_t> out;
  if (!digests_) return out;
  out.reserve(digests_->vnodes);
  for (std::uint32_t v = 0; v < digests_->vnodes; ++v) {
    out.push_back(digests_->vbytes[v].load(std::memory_order_relaxed));
  }
  return out;
}

bool LocalStore::digests_enabled() const { return digests_ != nullptr; }

std::uint32_t LocalStore::digest_buckets_per_vnode() const {
  return digests_ ? digests_->buckets : 0;
}

std::uint64_t LocalStore::digest_root(VnodeId vnode) const {
  if (!digests_ || vnode >= digests_->vnodes) return 0;
  // hash_combine chain (not a plain XOR) so bucket position matters and
  // coincidentally-cancelling buckets cannot fake a match.
  std::uint64_t root = mix64(static_cast<std::uint64_t>(vnode) + 1);
  const std::size_t base =
      static_cast<std::size_t>(vnode) * digests_->buckets;
  for (std::uint32_t b = 0; b < digests_->buckets; ++b) {
    root = hash_combine(
        root, digests_->cells[base + b].load(std::memory_order_relaxed));
  }
  return root;
}

std::vector<std::uint64_t> LocalStore::digest_buckets(VnodeId vnode) const {
  std::vector<std::uint64_t> out;
  if (!digests_ || vnode >= digests_->vnodes) return out;
  const std::size_t base =
      static_cast<std::size_t>(vnode) * digests_->buckets;
  out.reserve(digests_->buckets);
  for (std::uint32_t b = 0; b < digests_->buckets; ++b) {
    out.push_back(digests_->cells[base + b].load(std::memory_order_relaxed));
  }
  return out;
}

std::uint32_t LocalStore::digest_bucket_of(std::string_view key,
                                           std::uint32_t buckets) {
  // Salted + remixed so the digest-bucket split is decorrelated from both
  // ring placement (ring_hash) and shard/bucket selection (bucket_hash).
  return static_cast<std::uint32_t>(
      mix64(bucket_hash(key) ^ 0xa24baed4963ee407ULL) % buckets);
}

std::uint64_t LocalStore::item_digest(const Item& it) {
  // Covers only replicated content: key, latest (value, ts, flags) and
  // the per-source value list. LRU/cas/expiry bookkeeping legitimately
  // differs between healthy replicas and must not perturb the digest.
  std::uint64_t d = mix64(fnv1a64(it.key) ^ 0x2545f4914f6cdd1dULL);
  if (it.has_latest) {
    d = hash_combine(d, fnv1a64(it.latest.value));
    d = hash_combine(d, it.latest.ts);
    d = hash_combine(d, it.latest.flags);
  }
  d = hash_combine(d, value_list_digest(it.value_list));
  // Causal record folded only when present, so purely-LWW content keeps
  // its pre-causal digests (anti-entropy stays byte-compatible).
  if (!it.causal.empty()) d = hash_combine(d, it.causal.digest());
  return d;
}

std::uint64_t LocalStore::value_list_digest(
    const std::vector<SourceValue>& list) {
  // XOR of per-source entry digests: order-independent, because replicas
  // may have applied write_all updates from different sources in any
  // interleaving. Sources are unique within a list, so entries cannot
  // cancel each other.
  std::uint64_t acc = 0;
  for (const SourceValue& sv : list) {
    std::uint64_t e =
        mix64(static_cast<std::uint64_t>(sv.source) + 0x9e3779b97f4a7c15ULL);
    e = hash_combine(e, fnv1a64(sv.value));
    e = hash_combine(e, sv.ts);
    acc ^= e;
  }
  return acc;
}

void LocalStore::for_each_matching(
    const std::function<bool(std::string_view)>& pred,
    const std::function<void(const Item&)>& fn) const {
  for (const auto& s : shards_) {
    std::lock_guard lock(s->mu);
    for (Item* head : s->buckets) {
      for (Item* it = head; it != nullptr; it = it->hash_next) {
        if (pred(it->key)) fn(*it);
      }
    }
  }
}

}  // namespace sedna::store
