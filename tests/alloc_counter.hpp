// Counts every heap allocation of a test binary: alloc_counter.cpp replaces
// the global operator new/delete. Link it into the binaries that count.
#pragma once

#include <atomic>
#include <cstdint>

namespace nisc::test {

/// Scalar and array allocations made so far, by any thread.
extern std::atomic<std::uint64_t> g_allocations;

}  // namespace nisc::test
