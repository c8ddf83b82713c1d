// Global operator new/delete override feeding obs/prof/heap_stats.h.
//
// Built as a CMake OBJECT library (alicoco_alloc_hook) and added to the
// source list of binaries that opt in; an ordinary static library would
// let the linker dead-strip this TU because nothing references it by
// name. Binaries without these objects get the default operators and the
// counters stay at zero.
//
// Replacement rules honored here (C++17 [new.delete]):
//  - the nothrow forms forward to the throwing form and translate
//    bad_alloc to nullptr, so counting lives in exactly two functions;
//  - sized delete records freed bytes, unsized delete only the count;
//  - aligned variants are separate signatures and must all be replaced
//    once any of them is.
//
// The counting path is a relaxed flag test plus relaxed fetch_adds —
// malloc itself dwarfs it. No alicoco headers beyond heap_stats.h: this
// TU runs before main and inside every allocation, including ones made
// by static initializers of other TUs.

#include <cstdlib>
#include <new>

#include "obs/prof/heap_stats.h"

namespace {

using alicoco::obs::prof::internal::g_heap_alloc_bytes;
using alicoco::obs::prof::internal::g_heap_allocs;
using alicoco::obs::prof::internal::g_heap_free_bytes;
using alicoco::obs::prof::internal::g_heap_frees;
using alicoco::obs::prof::internal::g_heap_hook_linked;
using alicoco::obs::prof::internal::g_heap_tracking;

struct HookLinkedMarker {
  HookLinkedMarker() {
    g_heap_hook_linked.store(true, std::memory_order_relaxed);
  }
};
HookLinkedMarker g_marker;

inline void CountAlloc(std::size_t size) {
  if (!g_heap_tracking.load(std::memory_order_relaxed)) return;
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
}

inline void CountFree(std::size_t size) {
  if (!g_heap_tracking.load(std::memory_order_relaxed)) return;
  g_heap_frees.fetch_add(1, std::memory_order_relaxed);
  if (size != 0) {
    g_heap_free_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

void* AllocateOrThrow(std::size_t size) {
  if (size == 0) size = 1;
  for (;;) {
    void* ptr = std::malloc(size);
    if (ptr != nullptr) {
      CountAlloc(size);
      return ptr;
    }
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* AllocateAlignedOrThrow(std::size_t size, std::align_val_t align) {
  if (size == 0) size = 1;
  // C11 aligned_alloc wants size to be a multiple of the alignment.
  const std::size_t a = static_cast<std::size_t>(align);
  size = (size + a - 1) / a * a;
  for (;;) {
    void* ptr = std::aligned_alloc(a, size);
    if (ptr != nullptr) {
      CountAlloc(size);
      return ptr;
    }
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void* operator new(std::size_t size) { return AllocateOrThrow(size); }

void* operator new[](std::size_t size) { return AllocateOrThrow(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return AllocateOrThrow(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return AllocateOrThrow(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAlignedOrThrow(size, align);
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAlignedOrThrow(size, align);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return AllocateAlignedOrThrow(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return AllocateAlignedOrThrow(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void operator delete(void* ptr) noexcept {
  if (ptr != nullptr) CountFree(0);
  std::free(ptr);
}

void operator delete[](void* ptr) noexcept {
  if (ptr != nullptr) CountFree(0);
  std::free(ptr);
}

void operator delete(void* ptr, std::size_t size) noexcept {
  if (ptr != nullptr) CountFree(size);
  std::free(ptr);
}

void operator delete[](void* ptr, std::size_t size) noexcept {
  if (ptr != nullptr) CountFree(size);
  std::free(ptr);
}

void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  if (ptr != nullptr) CountFree(0);
  std::free(ptr);
}

void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  if (ptr != nullptr) CountFree(0);
  std::free(ptr);
}

void operator delete(void* ptr, std::align_val_t) noexcept {
  if (ptr != nullptr) CountFree(0);
  std::free(ptr);
}

void operator delete[](void* ptr, std::align_val_t) noexcept {
  if (ptr != nullptr) CountFree(0);
  std::free(ptr);
}

void operator delete(void* ptr, std::size_t size, std::align_val_t) noexcept {
  if (ptr != nullptr) CountFree(size);
  std::free(ptr);
}

void operator delete[](void* ptr, std::size_t size, std::align_val_t) noexcept {
  if (ptr != nullptr) CountFree(size);
  std::free(ptr);
}

void operator delete(void* ptr, const std::nothrow_t&,
                     std::align_val_t) noexcept {
  if (ptr != nullptr) CountFree(0);
  std::free(ptr);
}

void operator delete[](void* ptr, const std::nothrow_t&,
                       std::align_val_t) noexcept {
  if (ptr != nullptr) CountFree(0);
  std::free(ptr);
}

namespace alicoco::obs::prof {

// Observable allocation probes for tests. They live in this TU — the one
// sanctioned home of raw new/delete expressions — so callers stay
// RAII-clean, and they are out-of-line with volatile pointers so no
// optimizer may elide the allocation (new/delete pairs are legally
// removable since C++14).

void HeapProbeAlloc(std::size_t bytes) {
  char* volatile p = new char[bytes];
  delete[] p;
}

void HeapProbeAllocAligned(std::size_t bytes) {
  struct alignas(64) Wide {
    char data[64];
  };
  std::size_t count = (bytes + sizeof(Wide) - 1) / sizeof(Wide);
  if (count == 0) count = 1;
  Wide* volatile p = new Wide[count];
  delete[] p;
}

}  // namespace alicoco::obs::prof
