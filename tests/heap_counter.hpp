// A replaced global operator new that counts the heap blocks each thread
// allocates, for tests that pin how many blocks a path allocates. It
// defines the replacement operators, so include it from exactly one
// source file of a test binary.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
thread_local std::uint64_t t_heap_blocks = 0;
}  // namespace

// Both directions out of line, so the compiler never sees malloc() or
// free() meet the other side's pointer (GCC's -Wmismatched-new-delete
// would flag every inlined pair).
[[gnu::noinline]] void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  ++t_heap_blocks;
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
