// The traced driver's counting allocator: replaces the global operator new
// and delete so every allocation in the process (the engine's included) is
// counted. Linked only into perfbench_traced, so the untraced driver that
// produces the end-to-end figures pays nothing for it.

#include <atomic>
#include <cstdlib>
#include <new>

#include "util.h"

namespace {

std::atomic<uint64_t> g_bytes{0};
std::atomic<uint64_t> g_calls{0};

void* Allocate(std::size_t n) {
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  g_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t n, std::align_val_t al) {
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  g_calls.fetch_add(1, std::memory_order_relaxed);
  std::size_t a = static_cast<std::size_t>(al);
  std::size_t size = (n + a - 1) / a * a;
  void* p = std::aligned_alloc(a, size == 0 ? a : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return AllocateAligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return AllocateAligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

AllocTally ReadAllocTally() {
  return {g_bytes.load(std::memory_order_relaxed),
          g_calls.load(std::memory_order_relaxed)};
}
bool AllocCountingLinked() { return true; }

}  // namespace perfbench
