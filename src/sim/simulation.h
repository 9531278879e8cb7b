// Deterministic discrete-event simulation core.
//
// Substitutes for the paper's 9-server physical testbed (DESIGN.md §2):
// a single virtual clock in microseconds, a seeded RNG, and an event queue
// with stable FIFO ordering among same-time events so runs replay
// bit-identically.
//
// Kernel layout: every scheduled event owns one *slot* of an arena that
// holds its callable; the time-ordered heap holds only 24-byte
// {at, seq, slot, gen} entries. Firing moves the callable out of its slot,
// so no event is ever copied, and the slots are recycled through a free
// list, so a steady-state event costs no allocation. Cancellation bumps
// the slot's generation: the heap entry stays where it is and is skipped
// when popped, exactly like a fired-but-cancelled event.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/trace.h"
#include "common/types.h"

namespace sedna::sim {

/// Move-only `void()` callable for event closures. A closure of up to
/// kInlineBytes lives inside the object itself; that covers the kernel's
/// own closures (a network delivery carrying its Message, a CPU
/// completion, an RPC timeout). Larger closures fall back to one heap
/// allocation.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 96;

  EventFn() = default;

  template <class F, class D = std::decay_t<F>>
    requires(!std::is_same_v<D, EventFn> && std::is_invocable_r_v<void, D&>)
  EventFn(F&& f) {  // NOLINT: implicit, so a closure converts
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(other.buf_, buf_);
    other.ops_ = nullptr;
  }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }

 private:
  /// `relocate(from, to)` move-constructs the closure at `to` and destroys
  /// the one at `from`; with `to == nullptr` it only destroys.
  struct Ops {
    void (*invoke)(void* self);
    void (*relocate)(void* from, void* to) noexcept;
  };

  template <class D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineBytes &&
      alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <class D>
  static D& inline_ref(void* p) {
    return *std::launder(static_cast<D*>(p));
  }
  template <class D>
  static D*& heap_ptr(void* p) {
    return *std::launder(static_cast<D**>(p));
  }

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* self) { inline_ref<D>(self)(); },
      [](void* from, void* to) noexcept {
        if (to != nullptr) ::new (to) D(std::move(inline_ref<D>(from)));
        inline_ref<D>(from).~D();
      }};
  template <class D>
  static constexpr Ops kHeapOps{
      [](void* self) { (*heap_ptr<D>(self))(); },
      [](void* from, void* to) noexcept {
        if (to != nullptr) {
          ::new (to) D*(heap_ptr<D>(from));
        } else {
          delete heap_ptr<D>(from);
        }
      }};

  void reset() {
    if (ops_ != nullptr) ops_->relocate(buf_, nullptr);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class Simulation;

/// Handle for a scheduled event; cancel() prevents execution. A copy
/// refers to the same event. Once the event has fired (a one-shot) or been
/// cancelled, the handle is inert: its slot may carry a later event, but
/// under a newer generation that this handle can never touch.
///
/// Lifetime: a handle holds a plain pointer to its simulation and must
/// not outlive it. Declare the Simulation before any object holding a
/// handle (hosts, clients, caches, monitors) so it is destroyed after
/// them.
class TimerHandle {
 public:
  TimerHandle() = default;

  void cancel();
  [[nodiscard]] bool active() const;

 private:
  friend class Simulation;
  TimerHandle(Simulation* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulation* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 2012) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  /// Per-simulation span collector (disabled by default; see trace.h).
  [[nodiscard]] Tracer& tracer() { return tracer_; }

  /// Schedules fn to run `delay` microseconds from now. Returns a handle
  /// that can cancel the event before it fires.
  TimerHandle schedule(SimDuration delay, EventFn fn) {
    return arm(now_ + delay, kOneShot, std::move(fn));
  }

  /// Schedules fn to run every `interval`, first firing after `interval`.
  /// Cancel via the returned handle (cancels all future firings, also from
  /// inside fn). The event keeps its slot across firings.
  TimerHandle schedule_periodic(SimDuration interval, EventFn fn) {
    return arm(now_ + interval, interval, std::move(fn));
  }

  /// Runs a single event. Returns false when the queue is empty.
  bool step() {
    while (!heap_.empty()) {
      if (fire(pop())) return true;
    }
    return false;
  }

  /// Runs until the queue drains or `max_events` fire (runaway guard).
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX) {
    std::uint64_t n = 0;
    while (n < max_events && step()) ++n;
    return n;
  }

  /// Runs events with timestamps <= deadline; clock lands on `deadline`
  /// afterwards (even if the queue drained earlier).
  void run_until(SimTime deadline) {
    while (!heap_.empty() && heap_.front().at <= deadline) fire(pop());
    if (now_ < deadline) now_ = deadline;
  }

  void run_for(SimDuration d) { run_until(now_ + d); }

  /// Runs until `pred()` turns true or the queue drains. Returns pred().
  bool run_while_pending(const std::function<bool()>& pred) {
    while (!pred()) {
      if (!step()) break;
    }
    return pred();
  }

  /// Heap entries, cancelled ones included until their time comes.
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }

 private:
  friend class TimerHandle;

  static constexpr SimDuration kOneShot = ~SimDuration{0};
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct Entry {
    SimTime at;
    std::uint64_t seq;  // FIFO tiebreak for same-time events
    std::uint32_t slot;
    std::uint32_t gen;  // the slot's generation when this entry was pushed
  };
  static_assert(sizeof(Entry) == 24);

  /// Heap order: the std:: heap algorithms keep the "largest" element at
  /// the front, so "larger" means earlier (at, seq).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  struct Slot {
    EventFn fn;
    SimDuration interval = kOneShot;
    /// Bumped whenever the slot's event ends (fired one-shot or cancel),
    /// which invalidates every handle and heap entry naming it.
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoSlot;
  };

  TimerHandle arm(SimTime at, SimDuration interval, EventFn fn) {
    std::uint32_t slot = free_head_;
    if (slot != kNoSlot) {
      free_head_ = slots_[slot].next_free;
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.interval = interval;
    push(Entry{at, next_seq_++, slot, s.gen});
    return TimerHandle{this, slot, s.gen};
  }

  void push(const Entry& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  Entry pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry e = heap_.back();
    heap_.pop_back();
    return e;
  }

  /// Advances the clock to `e` and runs it unless cancelled. A cancelled
  /// entry still moves the clock, as it always has.
  bool fire(const Entry& e) {
    now_ = e.at;
    if (slots_[e.slot].gen != e.gen) return false;
    // The callable leaves the arena before it runs: it may schedule
    // (growing the arena) or cancel its own handle.
    EventFn fn = std::move(slots_[e.slot].fn);
    const SimDuration interval = slots_[e.slot].interval;
    if (interval == kOneShot) release(e.slot);
    fn();
    if (interval != kOneShot && slots_[e.slot].gen == e.gen) {
      slots_[e.slot].fn = std::move(fn);
      push(Entry{now_ + interval, next_seq_++, e.slot, e.gen});
    }
    return true;
  }

  void cancel(std::uint32_t slot, std::uint32_t gen) {
    if (slots_[slot].gen == gen) release(slot);
  }

  [[nodiscard]] bool live(std::uint32_t slot, std::uint32_t gen) const {
    return slots_[slot].gen == gen;
  }

  /// Ends the slot's event and returns the slot to the free list. The
  /// closure is destroyed last, once the arena is consistent again: its
  /// destructor may schedule or cancel.
  void release(std::uint32_t slot) {
    EventFn doomed = std::move(slots_[slot].fn);
    Slot& s = slots_[slot];
    ++s.gen;
    s.next_free = free_head_;
    free_head_ = slot;
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  Rng rng_;
  Tracer tracer_;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
};

inline void TimerHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel(slot_, gen_);
}

inline bool TimerHandle::active() const {
  return sim_ != nullptr && sim_->live(slot_, gen_);
}

}  // namespace sedna::sim
