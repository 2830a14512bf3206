// Global operator new/delete replacements that count allocations for the
// traced run's alloc.count_per_op / alloc.bytes_per_op. Counts land on
// per-thread cache lines so worker threads do not contend; counting is
// switched on only around the traced window.
#include <atomic>
#include <cstdlib>
#include <new>

#include "host.hpp"

namespace perfbench {
namespace {

constexpr unsigned kSlots = 64;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> bytes{0};
};

Slot g_slots[kSlots];
std::atomic<bool> g_counting{false};
std::atomic<unsigned> g_next_slot{0};

Slot& my_slot() {
  thread_local const unsigned slot =
      g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  return g_slots[slot];
}

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    Slot& s = my_slot();
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.bytes.fetch_add(n, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void set_alloc_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

AllocCount alloc_count() {
  AllocCount c;
  for (const Slot& s : g_slots) {
    c.count += s.count.load(std::memory_order_relaxed);
    c.bytes += s.bytes.load(std::memory_order_relaxed);
  }
  return c;
}

}  // namespace perfbench

// GCC inlines the replaced operators and then pairs the malloc in `new`
// with the free in `delete[]` at call sites -- a known false positive.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) { return perfbench::counted_alloc(n); }
void* operator new[](std::size_t n) { return perfbench::counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
