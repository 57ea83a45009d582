// Tests for the router case study: packet/checksum, routing table, the
// router module in isolation, and end-to-end runs under all three
// co-simulation schemes.
#include <gtest/gtest.h>

#include "iss/assembler.hpp"
#include "iss/cpu.hpp"
#include "obs/metrics.hpp"
#include "router/guest_programs.hpp"
#include "router/testbench.hpp"
#include "rtos/rtos.hpp"
#include "util/checksum.hpp"

namespace nisc::router {
namespace {

using namespace nisc::sysc::time_literals;

// ---------------------------------------------------------------- packet

TEST(PacketTest, WireWordsLayout) {
  Packet p;
  p.src = 2;
  p.dst = 3;
  p.id = 77;
  p.payload = {10, 20, 30, 40};
  auto words = p.wire_words();
  EXPECT_EQ(words[0], 2u | (3u << 8));
  EXPECT_EQ(words[1], 77u);
  EXPECT_EQ(words[2], 10u);
  EXPECT_EQ(words[5], 40u);
}

TEST(PacketTest, GoldenChecksumMatchesWordSum) {
  Packet p;
  p.src = 1;
  p.dst = 2;
  p.id = 3;
  p.payload = {0xDEADBEEF, 0x12345678, 0, 0xFFFFFFFF};
  std::uint32_t expected = 0;
  for (std::uint32_t w : p.wire_words()) expected += w;
  EXPECT_EQ(p.golden_checksum(), expected);
  EXPECT_EQ(p.golden_checksum(), util::word_sum32(p.checksum_bytes()));
}

TEST(PacketTest, ChecksumBytesAreLittleEndian) {
  Packet p;
  p.src = 0xAB;
  auto bytes = p.checksum_bytes();
  ASSERT_EQ(bytes.size(), static_cast<std::size_t>(kWireWords) * 4);
  EXPECT_EQ(bytes[0], 0xAB);
  EXPECT_EQ(bytes[1], 0x00);
}

TEST(PacketTest, ToWireRoundTrip) {
  Packet p;
  p.src = 9;
  p.dst = 1;
  p.id = 42;
  p.payload = {1, 2, 3, 4};
  PacketWire wire = to_wire(p);
  auto words = p.wire_words();
  for (int i = 0; i < kWireWords; ++i) EXPECT_EQ(wire.words[i], words[static_cast<std::size_t>(i)]);
}

// ---------------------------------------------------------------- routing table

TEST(RoutingTableTest, LookupAndMiss) {
  RoutingTable table;
  table.add_route(5, 2);
  EXPECT_EQ(table.lookup(5), 2);
  EXPECT_FALSE(table.lookup(6).has_value());
  EXPECT_EQ(table.size(), 1u);
}

TEST(RoutingTableTest, UniformModRouting) {
  RoutingTable table = RoutingTable::uniform(4, 16);
  EXPECT_EQ(table.size(), 16u);
  EXPECT_EQ(table.lookup(0), 0);
  EXPECT_EQ(table.lookup(5), 1);
  EXPECT_EQ(table.lookup(15), 3);
  EXPECT_FALSE(table.lookup(16).has_value());
}

TEST(RoutingTableTest, OverwriteRoute) {
  RoutingTable table;
  table.add_route(1, 0);
  table.add_route(1, 3);
  EXPECT_EQ(table.lookup(1), 3);
}

// ---------------------------------------------------------------- guest programs

TEST(GuestProgramTest, WordStreamSourceAssembles) {
  auto filtered = cosim::filter_pragmas(word_stream_checksum_source("r.to_cpu", "r.from_cpu"));
  iss::Program prog = iss::assemble(filtered.source);
  EXPECT_EQ(filtered.bindings.size(), 2u);
  EXPECT_TRUE(prog.has_symbol("word_in"));
  EXPECT_TRUE(prog.has_symbol("csum_out"));
}

TEST(GuestProgramTest, BulkSourceAssembles) {
  iss::Program prog = iss::assemble(rtos::guest_abi_prelude() + bulk_checksum_source());
  EXPECT_TRUE(prog.has_symbol("buf"));
  EXPECT_TRUE(prog.has_symbol("out"));
}

TEST(GuestProgramTest, BulkChecksumSemanticsMatchGolden) {
  // Execute just the summation kernel of the bulk guest against a packet
  // image and compare with the host reference.
  Packet p;
  p.src = 3;
  p.dst = 1;
  p.id = 9;
  p.payload = {0x01020304, 0xA0B0C0D0, 7, 0x80000001};
  iss::Cpu cpu(1 << 16);
  iss::Program prog = iss::assemble(R"(
  _start:
      la t1, buf
      li s1, 6
      li s2, 0
  sum_loop:
      lw t0, 0(t1)
      add s2, s2, t0
      addi t1, t1, 4
      addi s1, s1, -1
      bnez s1, sum_loop
      mv a0, s2
      ebreak
  buf: .space 24
  )");
  prog.load_into(cpu.mem());
  auto bytes = p.checksum_bytes();
  cpu.mem().write_block(prog.symbol("buf"), bytes);
  cpu.run(10000);
  EXPECT_EQ(cpu.reg(10), p.golden_checksum());
}

// ---------------------------------------------------------------- router module (no cosim)

/// A host-side "CPU" standing in for the ISS: consumes words from the
/// to_cpu port and delivers the word-sum to from_cpu, via the same port API
/// the kernel extensions use.
struct FakeCpu {
  explicit FakeCpu(sysc::sc_simcontext& ctx, Router& router) {
    to_cpu = dynamic_cast<sysc::iss_out<std::uint32_t>*>(
        ctx.find_iss_port(router.to_cpu_port_name()));
    from_cpu = dynamic_cast<sysc::iss_in<std::uint32_t>*>(
        ctx.find_iss_port(router.from_cpu_port_name()));
    auto& p = ctx.create_method("fake_cpu", [this] { step(); }, sysc::process_kind::IssMethod);
    p.make_sensitive(to_cpu->written_event());
    p.dont_initialize();
  }
  void step() {
    sum += to_cpu->read();
    to_cpu->consume_fresh();
    if (++words == kWireWords) {
      from_cpu->deliver(sum);
      sum = 0;
      words = 0;
      ++packets;
    }
  }
  sysc::iss_out<std::uint32_t>* to_cpu = nullptr;
  sysc::iss_in<std::uint32_t>* from_cpu = nullptr;
  std::uint32_t sum = 0;
  int words = 0;
  int packets = 0;
};

TEST(RouterModuleTest, ForwardsWithFakeCpu) {
  sysc::sc_simcontext ctx;
  auto& router = ctx.create<Router>("router", RoutingTable::uniform(kNumPorts, 16),
                                    OffloadMode::WordStream);
  FakeCpu cpu(ctx, router);
  ASSERT_NE(cpu.to_cpu, nullptr);
  ASSERT_NE(cpu.from_cpu, nullptr);

  Packet p;
  p.src = 0;
  p.dst = 6;  // -> output port 2
  p.id = 1;
  p.payload = {11, 22, 33, 44};
  ASSERT_TRUE(router.input(0).nb_write(p));
  router.enqueue_event().notify_delta();

  ctx.run(1_us);
  EXPECT_EQ(router.stats().accepted, 1u);
  EXPECT_EQ(router.stats().forwarded, 1u);
  EXPECT_EQ(cpu.packets, 1);
  Packet out;
  ASSERT_TRUE(router.output(2).nb_read(out));
  EXPECT_EQ(out.checksum, p.golden_checksum());
  EXPECT_EQ(out.id, 1u);
}

TEST(RouterModuleTest, DropsUnroutedDestinations) {
  sysc::sc_simcontext ctx;
  RoutingTable table;  // empty: nothing routed
  auto& router = ctx.create<Router>("router", table, OffloadMode::WordStream);
  FakeCpu cpu(ctx, router);

  Packet p;
  p.dst = 9;
  ASSERT_TRUE(router.input(1).nb_write(p));
  router.enqueue_event().notify_delta();
  ctx.run(1_us);
  EXPECT_EQ(router.stats().dropped_no_route, 1u);
  EXPECT_EQ(router.stats().forwarded, 0u);
}

TEST(RouterModuleTest, RoundRobinAcrossInputs) {
  sysc::sc_simcontext ctx;
  auto& router = ctx.create<Router>("router", RoutingTable::uniform(kNumPorts, 4),
                                    OffloadMode::WordStream);
  FakeCpu cpu(ctx, router);
  for (int port = 0; port < kNumPorts; ++port) {
    Packet p;
    p.src = static_cast<std::uint8_t>(port);
    p.dst = 0;
    p.id = static_cast<std::uint32_t>(port);
    ASSERT_TRUE(router.input(port).nb_write(p));
  }
  router.enqueue_event().notify_delta();
  ctx.run(10_us);
  EXPECT_EQ(router.stats().accepted, 4u);
  EXPECT_EQ(router.stats().forwarded, 4u);
  // All went to output 0; ids must appear in round-robin order 0,1,2,3.
  for (std::uint32_t expected = 0; expected < 4; ++expected) {
    Packet out;
    ASSERT_TRUE(router.output(0).nb_read(out));
    EXPECT_EQ(out.id, expected);
  }
}

TEST(RouterModuleTest, BulkModeUsesPacketWirePort) {
  sysc::sc_simcontext ctx;
  auto& router = ctx.create<Router>("router", RoutingTable::uniform(kNumPorts, 4),
                                    OffloadMode::BulkPacket);
  auto* bulk = dynamic_cast<sysc::iss_out<PacketWire>*>(
      ctx.find_iss_port(router.to_cpu_port_name()));
  ASSERT_NE(bulk, nullptr);
  EXPECT_EQ(bulk->width_bytes(), static_cast<std::size_t>(kWireWords) * 4);
}

// ---------------------------------------------------------------- end-to-end schemes

class SchemeEndToEnd : public ::testing::TestWithParam<Scheme> {};

TEST_P(SchemeEndToEnd, AllPacketsForwardedAtLowRate) {
  TestbenchConfig config;
  config.scheme = GetParam();
  config.packets_per_producer = 3;
  config.num_producers = 4;
  config.inter_packet_delay = 5_us;
  config.instructions_per_us = 400000;
  Testbench bench(config);
  bench.run_until_drained(sysc::sc_time(50, sysc::SC_MS));
  TestbenchReport r = bench.report();

  EXPECT_EQ(r.produced, 12u);
  EXPECT_EQ(r.received, 12u) << "scheme " << scheme_name(GetParam());
  EXPECT_EQ(r.checksum_ok, 12u);
  EXPECT_EQ(r.checksum_bad, 0u);
  EXPECT_EQ(r.dropped_input, 0u);
  EXPECT_DOUBLE_EQ(r.forwarded_pct, 100.0);
}

TEST_P(SchemeEndToEnd, OverloadDropsPackets) {
  TestbenchConfig config;
  config.scheme = GetParam();
  config.packets_per_producer = 40;
  config.num_producers = 4;
  config.fifo_capacity = 2;
  config.inter_packet_delay = 10_ns;       // flood
  config.instructions_per_us = 50000;      // slow CPU
  Testbench bench(config);
  bench.run_until_drained(sysc::sc_time(50, sysc::SC_MS));
  TestbenchReport r = bench.report();

  EXPECT_EQ(r.produced, 160u);
  EXPECT_GT(r.dropped_input, 0u) << "scheme " << scheme_name(GetParam());
  EXPECT_LT(r.forwarded_pct, 100.0);
  EXPECT_EQ(r.checksum_bad, 0u);  // whatever arrives is intact
  // Exact goldens, per scheme: the run is a function of its configuration.
  struct Golden {
    std::uint64_t dropped_input;
    std::uint64_t received;
    std::uint64_t kernel_delta_cycles;
  };
  Golden golden{};
  switch (GetParam()) {
    case Scheme::GdbWrapper: golden = {146, 14, 3114}; break;
    case Scheme::GdbKernel: golden = {139, 21, 2149}; break;
    case Scheme::DriverKernel: golden = {100, 60, 2182}; break;
  }
  EXPECT_EQ(r.dropped_input, golden.dropped_input);
  EXPECT_EQ(r.received, golden.received);
  EXPECT_EQ(r.kernel_delta_cycles, golden.kernel_delta_cycles);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeEndToEnd,
                         ::testing::Values(Scheme::GdbWrapper, Scheme::GdbKernel,
                                           Scheme::DriverKernel),
                         [](const auto& info) {
                           switch (info.param) {
                             case Scheme::GdbWrapper: return "GdbWrapper";
                             case Scheme::GdbKernel: return "GdbKernel";
                             case Scheme::DriverKernel: return "DriverKernel";
                           }
                           return "unknown";
                         });

TEST(TestbenchTest, ReportAccountsForEveryPacket) {
  TestbenchConfig config;
  config.scheme = Scheme::GdbKernel;
  config.packets_per_producer = 5;
  config.inter_packet_delay = 2_us;
  Testbench bench(config);
  bench.run_until_drained(sysc::sc_time(50, sysc::SC_MS));
  TestbenchReport r = bench.report();
  EXPECT_EQ(r.produced,
            r.received + r.dropped_input + r.dropped_no_route + r.dropped_output);
  EXPECT_GT(r.kernel_delta_cycles, 0u);
  // Exact goldens.
  EXPECT_EQ(r.produced, 20u);
  EXPECT_EQ(r.received, 20u);
  EXPECT_EQ(r.kernel_delta_cycles, 2146u);
}

TEST(TestbenchTest, ConstructionRunsNoGuestCode) {
  // A target runs only when the kernel steps it: building a testbench
  // executes no guest instruction and moves no byte over the wire.
  for (Scheme scheme : {Scheme::GdbWrapper, Scheme::GdbKernel, Scheme::DriverKernel}) {
    TestbenchConfig config;
    config.scheme = scheme;
    config.packets_per_producer = 1;
    obs::Counter& instructions = obs::counter("iss.instructions");
    obs::Counter& sends = obs::counter("ipc.sends");
    const std::uint64_t instructions_before = instructions.value();
    const std::uint64_t sends_before = sends.value();
    Testbench bench(config);
    EXPECT_EQ(instructions.value(), instructions_before) << scheme_name(scheme);
    EXPECT_EQ(sends.value(), sends_before) << scheme_name(scheme);
    bench.run_for(1_us);
    EXPECT_GT(instructions.value(), instructions_before) << scheme_name(scheme);
  }
}

TEST(TestbenchTest, DriverSchemeUsesMessages) {
  TestbenchConfig config;
  config.scheme = Scheme::DriverKernel;
  config.packets_per_producer = 2;
  config.num_producers = 1;
  config.inter_packet_delay = 2_us;
  Testbench bench(config);
  bench.run_until_drained(sysc::sc_time(50, sysc::SC_MS));
  TestbenchReport r = bench.report();
  EXPECT_GE(r.driver_messages, 4u);  // >= one push + one write per packet
  EXPECT_EQ(r.driver_messages, 4u);  // exact golden
  EXPECT_EQ(r.lockstep_steps, 0u);
  EXPECT_EQ(r.received, 2u);
}

// The paper's Figure 7 claim at test scale: at the same inter-packet delay
// the Driver-Kernel scheme forwards fewer packets, because the RTOS charges
// guest cycles for syscalls/context switches and the cycle-metered time
// budget turns that into real simulated slowdown.
TEST(Figure7Shape, OsOverheadLowersForwardingRate) {
  auto run = [](Scheme scheme) {
    TestbenchConfig config;
    config.scheme = scheme;
    config.packets_per_producer = 15;
    config.num_producers = 4;
    config.fifo_capacity = 4;
    config.inter_packet_delay = 10_us;
    config.instructions_per_us = 30;  // slow CPU: checksum-bound
    config.rtos.syscall_overhead_cycles = 100;
    config.rtos.context_switch_cycles = 120;
    Testbench bench(config);
    bench.run_until_drained(sysc::sc_time(100, sysc::SC_MS));
    return bench.report();
  };
  const TestbenchReport gdb = run(Scheme::GdbKernel);
  const TestbenchReport drv = run(Scheme::DriverKernel);
  EXPECT_GT(gdb.forwarded_pct, 90.0);
  EXPECT_LT(drv.forwarded_pct, gdb.forwarded_pct - 10.0);  // the OS overhead is visible
  // Exact goldens: the run is a function of its configuration alone.
  EXPECT_EQ(gdb.produced, 60u);
  EXPECT_EQ(gdb.received, 60u);
  EXPECT_EQ(gdb.kernel_delta_cycles, 30510u);
  EXPECT_EQ(drv.produced, 60u);
  EXPECT_EQ(drv.received, 28u);
  EXPECT_EQ(drv.dropped_input, 32u);
  EXPECT_EQ(drv.kernel_delta_cycles, 72121u);
}

// The Figure 7 set-up at its sparsest point, as the benchmark's
// sparse.driver_kernel unit runs it: about 160k delta cycles, each with the
// Fig. 5 "message to exchange?" check per CPU. The session wires are linked,
// so a check costs a poll(2) only after the guest wrote: the count is pinned
// exactly, and grows with the guest's traffic, not with deltas x CPUs (a
// poll per delta per CPU would come to about 160k and 320k here).
TEST(WirePolls, SparseDriverKernelPollsOnlyAfterTheGuestWrote) {
  auto polls_with_cpus = [](int cpus) {
    TestbenchConfig config;
    config.scheme = Scheme::DriverKernel;
    config.seed = 1;
    config.num_cpus = cpus;
    config.num_producers = 4;
    config.packets_per_producer = 5;
    config.fifo_capacity = 4;
    config.inter_packet_delay = 160_us;
    config.instructions_per_us = 30;
    config.rtos.syscall_overhead_cycles = 100;
    config.rtos.context_switch_cycles = 120;
    config.rtos.isr_entry_cycles = 80;
    const obs::Counter& polls = obs::counter("ipc.polls");
    const std::uint64_t before = polls.value();
    Testbench bench(config);
    bench.run_until_drained(sysc::sc_time(400, sysc::SC_MS));
    EXPECT_EQ(bench.report().received, 20u);
    return polls.value() - before;
  };
  EXPECT_EQ(polls_with_cpus(1), 124u);
  EXPECT_EQ(polls_with_cpus(2), 128u);
}

// ---------------------------------------------------------------- MPSoC

TEST(MultiCpuTest, RouterNamesPortsPerEngine) {
  sysc::sc_simcontext ctx;
  auto& router = ctx.create<Router>("router", RoutingTable::uniform(kNumPorts, 4),
                                    OffloadMode::WordStream, 8, /*engines=*/2);
  EXPECT_EQ(router.to_cpu_port_name(0), "router.to_cpu0");
  EXPECT_EQ(router.from_cpu_port_name(1), "router.from_cpu1");
  EXPECT_NE(ctx.find_iss_port("router.to_cpu0"), nullptr);
  EXPECT_NE(ctx.find_iss_port("router.from_cpu1"), nullptr);
  EXPECT_THROW(router.to_cpu_port_name(2), util::LogicError);
}

TEST(MultiCpuTest, SingleEngineKeepsLegacyNames) {
  sysc::sc_simcontext ctx;
  auto& router = ctx.create<Router>("router", RoutingTable::uniform(kNumPorts, 4),
                                    OffloadMode::WordStream, 8, 1);
  EXPECT_EQ(router.to_cpu_port_name(), "router.to_cpu");
}

TEST(MultiCpuTest, TwoGdbCpusShareTheLoad) {
  TestbenchConfig config;
  config.scheme = Scheme::GdbKernel;
  config.num_cpus = 2;
  config.packets_per_producer = 8;
  config.num_producers = 4;
  config.inter_packet_delay = 1_us;
  config.instructions_per_us = 400000;
  Testbench bench(config);
  bench.run_until_drained(sysc::sc_time(100, sysc::SC_MS));
  TestbenchReport r = bench.report();
  EXPECT_EQ(r.received, 32u);
  EXPECT_EQ(r.checksum_ok, 32u);
  const RouterStats& rs = bench.router().stats();
  ASSERT_EQ(rs.per_engine.size(), 2u);
  EXPECT_GT(rs.per_engine[0], 0u);
  EXPECT_GT(rs.per_engine[1], 0u);
  EXPECT_EQ(rs.per_engine[0] + rs.per_engine[1], 32u);
  EXPECT_EQ(rs.per_engine[0], 16u);  // exact goldens
  EXPECT_EQ(rs.per_engine[1], 16u);
}

TEST(MultiCpuTest, TwoDriverCpusShareTheLoad) {
  TestbenchConfig config;
  config.scheme = Scheme::DriverKernel;
  config.num_cpus = 2;
  config.packets_per_producer = 6;
  config.num_producers = 4;
  config.inter_packet_delay = 1_us;
  config.instructions_per_us = 400000;
  Testbench bench(config);
  bench.run_until_drained(sysc::sc_time(100, sysc::SC_MS));
  TestbenchReport r = bench.report();
  EXPECT_EQ(r.received, 24u);
  EXPECT_EQ(r.checksum_ok, 24u);
  const RouterStats& rs = bench.router().stats();
  ASSERT_EQ(rs.per_engine.size(), 2u);
  EXPECT_GT(rs.per_engine[0], 0u);
  EXPECT_GT(rs.per_engine[1], 0u);
  EXPECT_EQ(rs.per_engine[0], 12u);  // exact goldens
  EXPECT_EQ(rs.per_engine[1], 12u);
}

TEST(MultiCpuTest, SecondCpuRaisesSaturationThroughput) {
  auto forwarded_with_cpus = [](int cpus) {
    TestbenchConfig config;
    config.scheme = Scheme::GdbKernel;
    config.num_cpus = cpus;
    config.packets_per_producer = 25;
    config.num_producers = 4;
    config.fifo_capacity = 2;
    config.inter_packet_delay = 4_us;
    config.instructions_per_us = 15;  // slow CPUs: checksum is the bottleneck
    Testbench bench(config);
    bench.run_until_drained(sysc::sc_time(200, sysc::SC_MS));
    return bench.report();
  };
  const TestbenchReport one = forwarded_with_cpus(1);
  const TestbenchReport two = forwarded_with_cpus(2);
  EXPECT_LT(one.forwarded_pct, 99.0);  // single CPU saturates and drops packets
  EXPECT_GT(two.forwarded_pct, one.forwarded_pct + 5.0);  // a second CPU visibly raises throughput
  // Exact goldens.
  EXPECT_EQ(one.produced, 100u);
  EXPECT_EQ(one.received, 40u);
  EXPECT_EQ(one.kernel_delta_cycles, 26334u);
  EXPECT_EQ(two.produced, 100u);
  EXPECT_EQ(two.received, 72u);
  EXPECT_EQ(two.kernel_delta_cycles, 22300u);
}

TEST(TestbenchTest, WrapperSchemeCountsLockstepSteps) {
  TestbenchConfig config;
  config.scheme = Scheme::GdbWrapper;
  config.packets_per_producer = 1;
  config.num_producers = 1;
  config.inter_packet_delay = 2_us;
  Testbench bench(config);
  bench.run_until_drained(sysc::sc_time(50, sysc::SC_MS));
  TestbenchReport r = bench.report();
  // One quantum round trip per stop at least: 6 word injections + 1 result
  // delivery for the single packet.
  EXPECT_GE(r.lockstep_steps, 7u);
  EXPECT_EQ(r.lockstep_steps, 1001u);  // exact golden
  EXPECT_EQ(r.breakpoint_events, 7u);
  EXPECT_EQ(r.received, 1u);
}

}  // namespace
}  // namespace nisc::router
