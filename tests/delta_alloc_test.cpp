// Allocation guard for a router unit at the Figure 7 set-up, where the
// kernel's own per-delta cost is most of the run. It counts heap
// allocations with the global operator new/delete overrides, so it lives in
// a binary of its own: the observability guard (obs_overhead_test) keeps
// the router libraries out of its binary.
//
//   * A delta with no packet in flight allocates nothing, under both
//     budget-metered schemes.
//   * A whole drain, packets and warm-up included, stays under 0.02
//     allocations per delta: what remains comes from the wires (RSP
//     strings, §4.2 message vectors).
#include <gtest/gtest.h>

#include <string>

#include "alloc_counter.hpp"
#include "router/testbench.hpp"

namespace nisc::router {
namespace {

using sysc::sc_time;
using test::g_allocations;

/// cosimbench's `sparse.*` unit: four producers of 5 packets at a 160 us
/// delay, a 30 cycles/us CPU, and RTOS costs for the Driver-Kernel guest.
TestbenchConfig sparse_config(Scheme scheme) {
  TestbenchConfig config;
  config.scheme = scheme;
  config.seed = 1;
  config.num_producers = 4;
  config.packets_per_producer = 5;
  config.fifo_capacity = 4;
  config.inter_packet_delay = sc_time(160, sysc::SC_US);
  config.instructions_per_us = 30;
  config.rtos.syscall_overhead_cycles = 100;
  config.rtos.context_switch_cycles = 120;
  config.rtos.isr_entry_cycles = 80;
  return config;
}

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

class DeltaAllocTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(DeltaAllocTest, QuietWindowAllocatesNothing) {
  Testbench bench(sparse_config(GetParam()));
  bench.run_for(sc_time(100, sysc::SC_US));  // the first packets, and every queue grown
  const TestbenchReport warm = bench.report();
  ASSERT_EQ(warm.produced, 4u);
  ASSERT_EQ(warm.received, warm.produced) << "a packet is still in flight";

  const std::uint64_t before = allocations();
  bench.run_for(sc_time(10, sysc::SC_US));
  const std::uint64_t made = allocations() - before;
  const TestbenchReport quiet = bench.report();
  EXPECT_EQ(quiet.produced, warm.produced);
  EXPECT_EQ(quiet.received, warm.received);
  EXPECT_GE(quiet.kernel_delta_cycles - warm.kernel_delta_cycles, 1000u);
  EXPECT_EQ(made, 0u) << "a delta with no packet in flight must not allocate";
}

TEST_P(DeltaAllocTest, DrainStaysUnderOneAllocationPerFiftyDeltas) {
  Testbench bench(sparse_config(GetParam()));
  const std::uint64_t before = allocations();
  bench.run_until_drained(sc_time(400, sysc::SC_MS));
  const std::uint64_t made = allocations() - before;
  const TestbenchReport report = bench.report();
  EXPECT_EQ(report.received, 20u);
  ASSERT_GT(report.kernel_delta_cycles, 0u);
  EXPECT_LT(static_cast<double>(made) / static_cast<double>(report.kernel_delta_cycles), 0.02)
      << made << " allocations over " << report.kernel_delta_cycles << " deltas";
}

std::string scheme_tag(const ::testing::TestParamInfo<Scheme>& info) {
  return info.param == Scheme::GdbKernel ? "GdbKernel" : "DriverKernel";
}

INSTANTIATE_TEST_SUITE_P(BudgetMetered, DeltaAllocTest,
                         ::testing::Values(Scheme::GdbKernel, Scheme::DriverKernel), scheme_tag);

}  // namespace
}  // namespace nisc::router
