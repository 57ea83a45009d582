// The replacement global operator new/delete behind alloc_counter.hpp. It
// is its own source file so that no test's inlined `new` meets these
// definitions. The matching deletes free with std::free.
#include "alloc_counter.hpp"

#include <cstdlib>
#include <new>

std::atomic<std::uint64_t> nisc::test::g_allocations{0};

void* operator new(std::size_t size) {
  nisc::test::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
