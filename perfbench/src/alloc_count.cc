// Counting allocator: replaces the global operator new/delete for the
// whole benchmark binary (library code included), so allocations per
// client operation and heap bytes per stored item can be read as exact
// counts. The simulation is single-threaded; relaxed atomics keep the
// counters well-defined should any library code allocate from a thread.
#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "bench.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align > alignof(std::max_align_t)) {
    if (posix_memalign(&p, align, n) != 0) p = nullptr;
  } else {
    p = std::malloc(n);
  }
  if (p == nullptr) throw std::bad_alloc();
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_live.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace perfbench {

std::uint64_t allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}
std::int64_t live_heap_bytes() {
  return g_live.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
