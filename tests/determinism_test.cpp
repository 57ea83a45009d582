// Determinism: the same TestbenchConfig gives the same TestbenchReport on
// every run. The in-process ISS is stepped on the kernel thread, so neither
// host load nor how a caller slices run() may change what is simulated.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <tuple>

#include "router/testbench.hpp"

namespace nisc::router {
namespace {

using namespace nisc::sysc::time_literals;

enum class Case { Table1Window, SparseDrained, TwoCpus };

/// Table 1 traffic: four unbounded producers at 2 us and a fast CPU.
TestbenchConfig table1_config(Scheme scheme) {
  TestbenchConfig config;
  config.scheme = scheme;
  config.packets_per_producer = 0;
  config.num_producers = 4;
  config.inter_packet_delay = 2_us;
  config.instructions_per_us = 400000;
  return config;
}

/// The sparse Figure 7 set-up: a slow CPU, RTOS costs, a packet every
/// 160 us.
TestbenchConfig sparse_config(Scheme scheme) {
  TestbenchConfig config;
  config.scheme = scheme;
  config.packets_per_producer = 3;
  config.num_producers = 4;
  config.fifo_capacity = 4;
  config.inter_packet_delay = 160_us;
  config.instructions_per_us = 30;
  config.rtos.syscall_overhead_cycles = 100;
  config.rtos.context_switch_cycles = 120;
  config.rtos.isr_entry_cycles = 80;
  return config;
}

TestbenchReport run_case(Scheme scheme, Case c) {
  switch (c) {
    case Case::Table1Window: {
      Testbench bench(table1_config(scheme));
      bench.run_for(200_us);
      return bench.report();
    }
    case Case::SparseDrained: {
      Testbench bench(sparse_config(scheme));
      bench.run_until_drained(sysc::sc_time(10, sysc::SC_MS));
      return bench.report();
    }
    case Case::TwoCpus: {
      TestbenchConfig config = table1_config(scheme);
      config.num_cpus = 2;
      Testbench bench(config);
      bench.run_for(200_us);
      return bench.report();
    }
  }
  return {};
}

/// Every field but wall_seconds; `extra_deltas` is what the second run's
/// extra run() calls add (one entry delta each).
void expect_same_report(const TestbenchReport& a, const TestbenchReport& b,
                        std::uint64_t extra_deltas = 0) {
  EXPECT_EQ(a.produced, b.produced);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.forwarded, b.forwarded);
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.checksum_ok, b.checksum_ok);
  EXPECT_EQ(a.checksum_bad, b.checksum_bad);
  EXPECT_EQ(a.dropped_input, b.dropped_input);
  EXPECT_EQ(a.dropped_no_route, b.dropped_no_route);
  EXPECT_EQ(a.dropped_output, b.dropped_output);
  EXPECT_EQ(a.forwarded_pct, b.forwarded_pct);
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.rsp_transactions, b.rsp_transactions);
  EXPECT_EQ(a.breakpoint_events, b.breakpoint_events);
  EXPECT_EQ(a.lockstep_steps, b.lockstep_steps);
  EXPECT_EQ(a.driver_messages, b.driver_messages);
  EXPECT_EQ(a.kernel_delta_cycles + extra_deltas, b.kernel_delta_cycles);
}

std::string scheme_tag(Scheme scheme) {
  switch (scheme) {
    case Scheme::GdbWrapper: return "GdbWrapper";
    case Scheme::GdbKernel: return "GdbKernel";
    case Scheme::DriverKernel: return "DriverKernel";
  }
  return "unknown";
}

std::string case_tag(Case c) {
  switch (c) {
    case Case::Table1Window: return "Table1Window";
    case Case::SparseDrained: return "SparseDrained";
    case Case::TwoCpus: return "TwoCpus";
  }
  return "unknown";
}

class Determinism : public ::testing::TestWithParam<std::tuple<Scheme, Case>> {};

TEST_P(Determinism, RepeatsExactlyNextToABusyThread) {
  const auto [scheme, c] = GetParam();
  const TestbenchReport quiet = run_case(scheme, c);
  ASSERT_GT(quiet.received, 0u);

  // The second run shares the host with a thread that never yields.
  std::atomic<bool> stop{false};
  std::thread hog([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
    }
  });
  const TestbenchReport loaded = run_case(scheme, c);
  stop.store(true, std::memory_order_relaxed);
  hog.join();

  expect_same_report(quiet, loaded);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, Determinism,
    ::testing::Combine(::testing::Values(Scheme::GdbWrapper, Scheme::GdbKernel,
                                         Scheme::DriverKernel),
                       ::testing::Values(Case::Table1Window, Case::SparseDrained,
                                         Case::TwoCpus)),
    [](const auto& info) {
      return scheme_tag(std::get<0>(info.param)) + "_" + case_tag(std::get<1>(info.param));
    });

class DeterminismSlicing : public ::testing::TestWithParam<Scheme> {};

TEST_P(DeterminismSlicing, SparseRunDoesNotDependOnRunSlicing) {
  // The drained run fixes the duration T; then one run_for(T) and ten
  // run_for(T/10) must simulate the same thing.
  const TestbenchReport drained = run_case(GetParam(), Case::SparseDrained);
  const sysc::sc_time total = drained.sim_time;
  ASSERT_EQ(total.ps() % 10, 0u);

  Testbench whole_bench(sparse_config(GetParam()));
  whole_bench.run_for(total);
  const TestbenchReport whole = whole_bench.report();

  Testbench split_bench(sparse_config(GetParam()));
  for (int i = 0; i < 10; ++i) split_bench.run_for(sysc::sc_time::from_ps(total.ps() / 10));
  const TestbenchReport split = split_bench.report();

  EXPECT_EQ(whole.received, whole.produced);
  expect_same_report(whole, split, /*extra_deltas=*/9);
}

INSTANTIATE_TEST_SUITE_P(Schemes, DeterminismSlicing,
                         ::testing::Values(Scheme::GdbWrapper, Scheme::GdbKernel,
                                           Scheme::DriverKernel),
                         [](const auto& info) { return scheme_tag(info.param); });

}  // namespace
}  // namespace nisc::router
