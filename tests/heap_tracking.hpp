// Heap accounting for tests that bound what a call allocates.
//
// Replaces the global operator new/delete with malloc-backed versions
// that, while a HeapTracking object is alive, record the largest single
// request and the total bytes requested. The replacements are
// definitions, so include this header from exactly one translation unit
// of a test binary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace earthred::test {

inline std::atomic<bool> g_heap_tracking{false};
inline std::atomic<std::size_t> g_heap_largest{0};
inline std::atomic<std::size_t> g_heap_total{0};

/// Records heap requests, from zeroed counters, for its lifetime.
struct HeapTracking {
  HeapTracking() {
    g_heap_largest = 0;
    g_heap_total = 0;
    g_heap_tracking = true;
  }
  ~HeapTracking() { g_heap_tracking = false; }
  HeapTracking(const HeapTracking&) = delete;
  HeapTracking& operator=(const HeapTracking&) = delete;

  std::size_t largest() const { return g_heap_largest.load(); }
  std::size_t total() const { return g_heap_total.load(); }
};

}  // namespace earthred::test

// GCC inlines these pairs and flags free() on memory from operator new,
// which is exactly what a malloc-backed replacement does.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  using namespace earthred::test;
  if (g_heap_tracking.load(std::memory_order_relaxed)) {
    g_heap_total.fetch_add(n, std::memory_order_relaxed);
    std::size_t seen = g_heap_largest.load(std::memory_order_relaxed);
    while (n > seen && !g_heap_largest.compare_exchange_weak(seen, n)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
