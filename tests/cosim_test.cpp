// Tests for the co-simulation layer: time budget, pragma filter, and
// end-to-end runs of the GDB-Kernel, GDB-Wrapper and Driver-Kernel schemes.
#include <gtest/gtest.h>

#include "cosim/driver_kernel.hpp"
#include "cosim/gdb_kernel.hpp"
#include "cosim/gdb_wrapper.hpp"
#include "cosim/pragma.hpp"
#include "cosim/session.hpp"
#include "cosim/time_budget.hpp"
#include "iss/assembler.hpp"
#include "obs/trace.hpp"
#include "sysc/sysc.hpp"
#include "util/error.hpp"

namespace nisc::cosim {
namespace {

using namespace nisc::sysc::time_literals;

// ---------------------------------------------------------------- TimeBudget

TEST(TimeBudgetTest, ChargePaysFromTheAllowanceAndBooksTheRestAsDebt) {
  TimeBudget budget;
  budget.deposit(100);
  EXPECT_TRUE(budget.ready());
  budget.charge(60);
  EXPECT_EQ(budget.available(), 40u);
  EXPECT_TRUE(budget.ready());
  budget.charge(60);  // 40 paid now, 20 owed
  EXPECT_EQ(budget.available(), 0u);
  EXPECT_EQ(budget.debt(), 20u);
  EXPECT_FALSE(budget.ready());
  budget.deposit(30);  // pays the 20, banks 10
  EXPECT_EQ(budget.debt(), 0u);
  EXPECT_EQ(budget.available(), 10u);
  EXPECT_TRUE(budget.ready());
}

TEST(TimeBudgetTest, DepositPaysTheDebtBeforeAnIdleCpuBurnsItsSurplus) {
  // A stub halts at a breakpoint in the middle of a slice and still owes
  // for it: while it idles, deposits pay that debt, and only what is left
  // over burns.
  TimeBudget budget;
  budget.charge(100);
  budget.set_idle(true);
  budget.deposit(60);
  EXPECT_EQ(budget.debt(), 40u);
  EXPECT_FALSE(budget.ready());
  budget.deposit(60);  // 40 pays the debt, 20 burns
  EXPECT_EQ(budget.debt(), 0u);
  EXPECT_EQ(budget.available(), 0u);
  EXPECT_TRUE(budget.ready());
}

TEST(TimeBudgetTest, AdvanceToCarriesFractionalInstructions) {
  TimeBudget budget;
  budget.advance_to(500000, 3);  // 1.5 cycles: 1 now, 0.5 carried
  EXPECT_EQ(budget.available(), 1u);
  budget.advance_to(1000000, 3);  // 1.5 + 0.5
  EXPECT_EQ(budget.available(), 3u);
}

TEST(TimeBudgetTest, ClosedBudgetGrantsNothing) {
  TimeBudget budget;
  budget.deposit(10);
  budget.close();
  EXPECT_TRUE(budget.closed());
  EXPECT_FALSE(budget.ready());  // no slice runs on a closed budget
  budget.deposit(10);            // ignored once closed
  EXPECT_EQ(budget.available(), 10u);
}

TEST(TimeBudgetTest, DepositRunsConsumerUntilClosed) {
  // The consumer is the in-process target: every deposit steps it at once,
  // an idle one included (its allowance burns, but pending input may wake
  // it), and a closed budget steps it no more.
  TimeBudget budget;
  std::vector<std::uint64_t> seen;
  budget.set_consumer([&] {
    seen.push_back(budget.available());
    budget.charge(5);
  });
  budget.deposit(8);              // 8 banked, 3 left after the charge
  budget.advance_to(1000000, 4);  // 1 us at 4 cycles/us: 7 banked, 2 left
  budget.set_idle(true);          // burns the 2
  budget.deposit(8);              // idle: banks nothing, the charge is debt
  budget.set_idle(false);
  budget.close();
  budget.deposit(8);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{8, 7, 0}));
  EXPECT_EQ(budget.available(), 0u);
  EXPECT_EQ(budget.debt(), 5u);
}

// ---------------------------------------------------------------- pragma filter

TEST(PragmaTest, IssOutLabelLandsOnSameLine) {
  auto filtered = filter_pragmas(R"(
_start:
    #pragma iss_out("hw.to_cpu", in_var)
    lw t0, 0(t1)
    ebreak
in_var: .word 0
)");
  ASSERT_EQ(filtered.bindings.size(), 1u);
  EXPECT_EQ(filtered.bindings[0].direction, BindDirection::ScToIss);
  EXPECT_EQ(filtered.bindings[0].port, "hw.to_cpu");
  EXPECT_EQ(filtered.bindings[0].variable, "in_var");
  // Label must directly precede the lw.
  std::size_t label = filtered.source.find("__bp_0:");
  std::size_t lw = filtered.source.find("lw t0");
  ASSERT_NE(label, std::string::npos);
  EXPECT_LT(label, lw);
  EXPECT_EQ(filtered.source.find("#pragma"), std::string::npos);  // stripped
}

TEST(PragmaTest, IssInLabelLandsOnFollowingLine) {
  auto filtered = filter_pragmas(R"(
    #pragma iss_in("hw.from_cpu", out_var)
    sw t0, 0(t2)
    nop
    ebreak
out_var: .word 0
)");
  ASSERT_EQ(filtered.bindings.size(), 1u);
  std::size_t sw_pos = filtered.source.find("sw t0");
  std::size_t label = filtered.source.find("__bp_0:");
  std::size_t nop = filtered.source.find("nop");
  ASSERT_NE(label, std::string::npos);
  EXPECT_LT(sw_pos, label);  // label is after the annotated statement...
  EXPECT_LT(label, nop);     // ...and before the next one
}

TEST(PragmaTest, ResolvedBindingsCarryAddresses) {
  auto filtered = filter_pragmas(R"(
_start:
    #pragma iss_out("p", var)
    lw t0, 0(t1)
    ebreak
var: .word 0
)");
  iss::Program prog = iss::assemble(filtered.source);
  auto bindings = resolve_bindings(filtered.bindings, prog);
  ASSERT_EQ(bindings.size(), 1u);
  EXPECT_EQ(bindings[0].breakpoint_addr, prog.symbol("__bp_0"));
  EXPECT_EQ(bindings[0].variable_addr, prog.symbol("var"));
  EXPECT_EQ(bindings[0].width, 4u);
}

TEST(PragmaTest, ConsecutivePragmas) {
  auto filtered = filter_pragmas(R"(
    #pragma iss_out("a", v1)
    lw t0, 0(t1)
    #pragma iss_out("b", v2)
    lw t2, 0(t3)
    ebreak
v1: .word 0
v2: .word 0
)");
  ASSERT_EQ(filtered.bindings.size(), 2u);
  iss::Program prog = iss::assemble(filtered.source);
  auto bindings = resolve_bindings(filtered.bindings, prog);
  EXPECT_NE(bindings[0].breakpoint_addr, bindings[1].breakpoint_addr);
}

TEST(PragmaTest, PassesThroughPlainSource) {
  std::string source = "_start:\n  nop\n  ebreak\n";
  auto filtered = filter_pragmas(source);
  EXPECT_TRUE(filtered.bindings.empty());
  EXPECT_EQ(filtered.source, source);
}

TEST(PragmaTest, RejectsMalformedPragma) {
  EXPECT_THROW(filter_pragmas("#pragma iss_in(noquotes, v)\nnop\n"), util::RuntimeError);
  EXPECT_THROW(filter_pragmas("#pragma bogus(\"p\", v)\nnop\n"), util::RuntimeError);
  EXPECT_THROW(filter_pragmas("#pragma iss_in(\"p\")\nnop\n"), util::RuntimeError);
}

TEST(PragmaTest, RejectsPragmaWithoutStatement) {
  EXPECT_THROW(filter_pragmas("nop\n#pragma iss_out(\"p\", v)\n"), util::RuntimeError);
  EXPECT_THROW(filter_pragmas("#pragma iss_in(\"p\", v)\nnop\n"), util::RuntimeError);
}

TEST(PragmaTest, ResolveFailsOnUnknownVariable) {
  auto filtered = filter_pragmas("#pragma iss_out(\"p\", ghost)\nlw t0, 0(t1)\nebreak\n");
  iss::Program prog = iss::assemble(filtered.source);
  EXPECT_THROW(resolve_bindings(filtered.bindings, prog), util::RuntimeError);
}

// ---------------------------------------------------------------- GDB-Kernel

/// Guest: read in_var (injected from SystemC), double it, publish out_var.
constexpr const char* kDoublerGuest = R"(
_start:
    la t1, in_var
    #pragma iss_out("hw.to_cpu", in_var)
    lw t0, 0(t1)
    slli t0, t0, 1
    la t2, out_var
    #pragma iss_in("hw.from_cpu", out_var)
    sw t0, 0(t2)
    nop
    ebreak
in_var: .word 0
out_var: .word 0
)";

TEST(GdbKernelTest, SingleShotRoundTrip) {
  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  sysc::iss_out<std::uint32_t> to_cpu("hw.to_cpu");
  sysc::iss_in<std::uint32_t> from_cpu("hw.from_cpu");
  to_cpu.write(21);

  GdbTarget target(kDoublerGuest);
  GdbKernelOptions options;
  options.instructions_per_us = 1000000;
  GdbKernelExtension ext(target.client(), &target.budget(), target.bindings(), options);
  ctx.register_extension(&ext);

  while (!ext.target_finished() && ctx.time_stamp() < 1_ms) ctx.run(100_ns);
  EXPECT_TRUE(ext.target_finished());
  EXPECT_EQ(ctx.time_stamp().ps(), 100000u);
  EXPECT_EQ(from_cpu.read(), 42u);
  EXPECT_EQ(ext.stats().values_from_sc, 1u);
  EXPECT_EQ(ext.stats().values_to_sc, 1u);
  EXPECT_GT(ext.stats().polls, 0u);
  target.shutdown();
}

TEST(GdbKernelTest, IssProcessWakesOnDelivery) {
  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  sysc::iss_out<std::uint32_t> to_cpu("hw.to_cpu");
  sysc::iss_in<std::uint32_t> from_cpu("hw.from_cpu");
  to_cpu.write(5);

  std::vector<std::uint32_t> results;
  auto& proc = ctx.create_method("collect", [&] { results.push_back(from_cpu.read()); },
                                 sysc::process_kind::IssMethod);
  proc.make_sensitive(from_cpu.written_event());
  proc.dont_initialize();

  GdbTarget target(kDoublerGuest);
  GdbKernelOptions options;
  options.instructions_per_us = 1000000;
  GdbKernelExtension ext(target.client(), &target.budget(), target.bindings(), options);
  ctx.register_extension(&ext);

  while (!ext.target_finished() && ctx.time_stamp() < 1_ms) ctx.run(100_ns);
  ASSERT_TRUE(ext.target_finished());
  EXPECT_EQ(ctx.time_stamp().ps(), 100000u);
  // The iss_process ran exactly once: when data actually crossed the
  // boundary (paper §3.1).
  EXPECT_EQ(results, (std::vector<std::uint32_t>{10}));
  EXPECT_EQ(proc.run_count(), 1u);
  target.shutdown();
}

TEST(GdbKernelTest, LoopedTransfersPreserveOrder) {
  // Guest echoes (value + index accumulator) for 5 handshakes: SystemC
  // writes a fresh value only after consuming the previous result.
  constexpr const char* kEchoGuest = R"(
_start:
    li s0, 5
    la t1, in_var
    la t2, out_var
loop:
    #pragma iss_out("hw.to_cpu", in_var)
    lw t0, 0(t1)
    addi t0, t0, 100
    #pragma iss_in("hw.from_cpu", out_var)
    sw t0, 0(t2)
    nop
    addi s0, s0, -1
    bnez s0, loop
    ebreak
in_var: .word 0
out_var: .word 0
)";
  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  sysc::iss_out<std::uint32_t> to_cpu("hw.to_cpu");
  sysc::iss_in<std::uint32_t> from_cpu("hw.from_cpu");

  std::vector<std::uint32_t> results;
  auto& proc = ctx.create_method(
      "collect",
      [&] {
        results.push_back(from_cpu.read());
        to_cpu.write(static_cast<std::uint32_t>(results.size() + 1));  // next input
      },
      sysc::process_kind::IssMethod);
  proc.make_sensitive(from_cpu.written_event());
  proc.dont_initialize();
  to_cpu.write(1);

  GdbTarget target(kEchoGuest);
  GdbKernelOptions options;
  options.instructions_per_us = 1000000;
  GdbKernelExtension ext(target.client(), &target.budget(), target.bindings(), options);
  ctx.register_extension(&ext);

  while (!ext.target_finished() && ctx.time_stamp() < 1_ms) ctx.run(100_ns);
  ASSERT_TRUE(ext.target_finished());
  EXPECT_EQ(ctx.time_stamp().ps(), 100000u);
  // The freshness gate makes the handshake lossless and deterministic: each
  // injected input is consumed exactly once.
  EXPECT_EQ(results, (std::vector<std::uint32_t>{101, 102, 103, 104, 105}));
  target.shutdown();
}

TEST(GdbKernelTest, ElaborationRejectsUnknownPort) {
  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  // No iss ports registered at all.
  GdbTarget target(kDoublerGuest);
  GdbKernelExtension ext(target.client(), &target.budget(), target.bindings());
  ctx.register_extension(&ext);
  EXPECT_THROW(ctx.run(10_ns), util::LogicError);
  target.shutdown();
}

TEST(GdbKernelTest, AWaitingStopIsOneRoundTripSpan) {
  // The guest stops at its iss_out breakpoint at once, but the hardware
  // writes the value only at 50 ns: the stop waits for several cycles, and
  // only the two round trips that happen are timed.
  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  sysc::iss_out<std::uint32_t> to_cpu("hw.to_cpu");
  sysc::iss_in<std::uint32_t> from_cpu("hw.from_cpu");
  ctx.create_thread("late_writer", [&] {
    sysc::wait(50_ns);
    to_cpu.write(21);
  });

  GdbTarget target(kDoublerGuest);
  GdbKernelOptions options;
  options.instructions_per_us = 1000000;
  GdbKernelExtension ext(target.client(), &target.budget(), target.bindings(), options);
  ctx.register_extension(&ext);

  obs::clear_trace();
  obs::enable_tracing();
  while (!ext.target_finished() && ctx.time_stamp() < 1_ms) ctx.run(100_ns);
  obs::disable_tracing();
  std::size_t spans = 0;
  for (const auto& thread : obs::take_trace_snapshot().threads) {
    for (const auto& event : thread.events) {
      if (event.phase == 'B' && event.name == "cosim.rdi_roundtrip") ++spans;
    }
  }
  obs::clear_trace();

  EXPECT_TRUE(ext.target_finished());
  EXPECT_EQ(from_cpu.read(), 42u);
  EXPECT_EQ(ext.stats().breakpoint_events, 2u);
  EXPECT_GT(ext.stats().polls, 10u);  // the iss_out stop waited
  EXPECT_EQ(ext.stats().polls, 13u);  // exact golden
  EXPECT_EQ(spans, 2u);
  target.shutdown();
}

struct SpinResult {
  std::uint64_t cycles;
  std::uint64_t instructions;
};

/// What a spinning GDB-Kernel guest retires when the kernel runs `windows`
/// back-to-back windows of `window` each, at `cycles_per_us`.
SpinResult gdb_spin(const std::string& guest, std::uint64_t cycles_per_us, int windows,
                    sysc::sc_time window) {
  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  GdbTarget target(guest);
  GdbKernelOptions options;
  options.instructions_per_us = cycles_per_us;
  GdbKernelExtension ext(target.client(), &target.budget(), target.bindings(), options);
  ctx.register_extension(&ext);
  for (int i = 0; i < windows; ++i) ctx.run(window);
  target.shutdown();
  ctx.unregister_extension(&ext);
  return {target.cpu().cycles(), target.cpu().instret()};
}

TEST(GdbTargetTest, AllowanceDoesNotDependOnRunSlicing) {
  // As for DriverTarget: the guest's simulated speed is a function of
  // simulated time only.
  const std::string guest = "_start:\nspin:\n  j spin\n";
  const std::uint64_t whole = gdb_spin(guest, 10000, 1, 100_us).cycles;
  const std::uint64_t split = gdb_spin(guest, 10000, 10, 10_us).cycles;
  EXPECT_GE(whole, 99u * 10000u);  // the guest ran at its nominal speed
  EXPECT_EQ(whole, 1003520u);      // exact golden
  EXPECT_EQ(split, whole);
}

TEST(GdbTargetTest, AllowanceIsMeteredInCycles) {
  // Both loops are four instructions long. The ALU loop costs 5 cycles
  // (three addi at 1, the taken j at 2), the load/store loop 8 (each memory
  // op and the j at 2). 100 us at 2048 cycles/us deposits 204,800 cycles,
  // a whole number of slices of either loop, so the deposits buy exactly
  // 204,800 cycles of guest time; one more slice ran, and is still owed.
  constexpr const char* kAluLoop = R"(
_start:
spin:
    addi t0, t0, 1
    addi t0, t0, 1
    addi t0, t0, 1
    j spin
)";
  constexpr const char* kLoadStoreLoop = R"(
_start:
spin:
    lw t0, 256(zero)
    sw t0, 256(zero)
    lw t0, 256(zero)
    j spin
)";
  const SpinResult alu = gdb_spin(kAluLoop, 2048, 1, 100_us);
  const SpinResult ls = gdb_spin(kLoadStoreLoop, 2048, 1, 100_us);
  EXPECT_EQ(alu.cycles, 204800u + 5u * TimeBudget::kSlice / 4u);
  EXPECT_EQ(ls.cycles, 204800u + 8u * TimeBudget::kSlice / 4u);
  // Equal cycles buy 8/5 as many ALU instructions as load/store ones.
  EXPECT_EQ(alu.instructions, 204800u / 5u * 4u + TimeBudget::kSlice);
  EXPECT_EQ(ls.instructions, 204800u / 8u * 4u + TimeBudget::kSlice);
}

// ---------------------------------------------------------------- GDB-Wrapper

TEST(GdbWrapperTest, SingleShotRoundTrip) {
  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  sysc::iss_out<std::uint32_t> to_cpu("hw.to_cpu");
  sysc::iss_in<std::uint32_t> from_cpu("hw.from_cpu");
  to_cpu.write(21);

  GdbTarget target(kDoublerGuest);
  GdbWrapperOptions options;
  options.instructions_per_cycle = 4;
  auto& wrapper = ctx.create<GdbWrapperModule>("wrapper", target.client(), target.bindings(),
                                               options);
  wrapper.clk.bind(clk.signal());

  while (!wrapper.target_finished() && ctx.time_stamp() < 1_ms) ctx.run(100_ns);
  EXPECT_TRUE(wrapper.target_finished());
  EXPECT_EQ(ctx.time_stamp().ps(), 100000u);
  EXPECT_EQ(from_cpu.read(), 42u);
  EXPECT_EQ(wrapper.stats().values_from_sc, 1u);
  EXPECT_EQ(wrapper.stats().values_to_sc, 1u);
  // Lock-step: one blocking quantum round trip per clock cycle; the guest
  // needs several cycles at 4 instructions each.
  EXPECT_GE(wrapper.stats().steps, 3u);
  EXPECT_EQ(wrapper.stats().steps, 4u);  // exact golden
  EXPECT_EQ(wrapper.stats().breakpoint_events, 2u);
  target.shutdown();
}

struct EchoRun {
  std::uint64_t round_trips;
  std::uint64_t echoes;
};

/// bench_sync's lock-step micro-run: a guest echoes 200 values through the
/// wrapper at 8 instructions per cycle.
EchoRun wrapper_echo(LockstepMode mode) {
  constexpr const char* kEchoGuest = R"(
_start:
    li s0, 200
    la t1, in_var
    la t2, out_var
loop:
    #pragma iss_out("hw.to_cpu", in_var)
    lw t0, 0(t1)
    addi t0, t0, 1
    #pragma iss_in("hw.from_cpu", out_var)
    sw t0, 0(t2)
    nop
    addi s0, s0, -1
    bnez s0, loop
    ebreak
in_var: .word 0
out_var: .word 0
)";
  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  sysc::iss_out<std::uint32_t> to_cpu("hw.to_cpu");
  sysc::iss_in<std::uint32_t> from_cpu("hw.from_cpu");
  std::uint64_t echoes = 0;
  auto& proc = ctx.create_method(
      "echo",
      [&] {
        ++echoes;
        to_cpu.write(static_cast<std::uint32_t>(echoes));
      },
      sysc::process_kind::IssMethod);
  proc.make_sensitive(from_cpu.written_event());
  proc.dont_initialize();
  to_cpu.write(0);

  GdbTarget target(kEchoGuest);
  GdbWrapperOptions options;
  options.instructions_per_cycle = 8;
  options.mode = mode;
  auto& wrapper = ctx.create<GdbWrapperModule>("wrapper", target.client(), target.bindings(),
                                               options);
  wrapper.clk.bind(clk.signal());
  while (!wrapper.target_finished() && ctx.time_stamp() < 1_ms) ctx.run(10_us);
  EXPECT_TRUE(wrapper.target_finished());
  target.shutdown();
  return {wrapper.stats().steps, echoes};
}

TEST(GdbWrapperTest, LockstepModesPayExactRoundTrips) {
  // One blocking round trip per clock cycle in Quantum mode, one per
  // instruction in SingleStep mode (ablation A4).
  const EchoRun quantum = wrapper_echo(LockstepMode::Quantum);
  EXPECT_EQ(quantum.round_trips, 401u);
  EXPECT_EQ(quantum.echoes, 200u);
  const EchoRun single = wrapper_echo(LockstepMode::SingleStep);
  EXPECT_EQ(single.round_trips, 1206u);
  EXPECT_EQ(single.echoes, 200u);
}

TEST(GdbWrapperTest, ElaborationRejectsUnknownOrWrongDirectionPort) {
  for (const bool swapped : {false, true}) {
    sysc::sc_simcontext ctx;
    sysc::sc_clock clk("clk", 10_ns);
    if (swapped) {
      // Both ports exist, each with the direction the other binding needs.
      ctx.create<sysc::iss_in<std::uint32_t>>("hw.to_cpu");
      ctx.create<sysc::iss_out<std::uint32_t>>("hw.from_cpu");
    }
    GdbTarget target(kDoublerGuest);
    auto& wrapper = ctx.create<GdbWrapperModule>("wrapper", target.client(), target.bindings());
    wrapper.clk.bind(clk.signal());
    EXPECT_THROW(ctx.run(10_ns), util::LogicError) << "swapped=" << swapped;
    target.shutdown();
  }
}

// ---------------------------------------------------------------- Driver-Kernel

/// Guest: blocking dev_read of one word, add one, dev_write it back, exit.
constexpr const char* kIncrementGuest = R"(
_start:
    li a0, 0
    la a1, buf
    li a2, 4
    li a7, SYS_DEV_READ
    ecall
    la t0, buf
    lw t1, 0(t0)
    addi t1, t1, 1
    sw t1, 0(t0)
    li a0, 0
    la a1, buf
    li a2, 4
    li a7, SYS_DEV_WRITE
    ecall
    li a7, SYS_EXIT
    ecall
buf: .word 0
)";

struct DriverFixture : ::testing::Test {
  void boot(const std::string& guest, DriverKernelOptions ext_options = {}) {
    ctx = std::make_unique<sysc::sc_simcontext>();
    clk = &ctx->create<sysc::sc_clock>("clk", 10_ns);
    to_cpu = &ctx->create<sysc::iss_out<std::uint32_t>>("hw.to_cpu");
    from_cpu = &ctx->create<sysc::iss_in<std::uint32_t>>("hw.from_cpu");

    DriverTargetConfig config;
    config.write_port = "hw.from_cpu";
    config.read_port = "hw.to_cpu";
    target = std::make_unique<DriverTarget>(guest, config);
    ext_options.instructions_per_us = 1000000;
    ext = std::make_unique<DriverKernelExtension>(target->take_data_endpoint(),
                                                  target->take_interrupt_endpoint(),
                                                  &target->budget(), ext_options);
    ctx->register_extension(ext.get());
  }

  /// Runs until the guest finished, for at most 1 ms of simulated time: a
  /// session that never finishes fails the test instead of hanging it.
  void run_until_finished() {
    while (!target->finished() && ctx->time_stamp() < 1_ms) ctx->run(100_ns);
  }

  void TearDown() override {
    if (target) target->shutdown();
    if (ctx && ext) ctx->unregister_extension(ext.get());
  }

  std::unique_ptr<sysc::sc_simcontext> ctx;
  sysc::sc_clock* clk = nullptr;
  sysc::iss_out<std::uint32_t>* to_cpu = nullptr;
  sysc::iss_in<std::uint32_t>* from_cpu = nullptr;
  std::unique_ptr<DriverTarget> target;
  std::unique_ptr<DriverKernelExtension> ext;
};

TEST_F(DriverFixture, ReadIncrementWriteRoundTrip) {
  boot(kIncrementGuest);
  to_cpu->write(41);  // pushed to the driver at the end of the first cycle
  run_until_finished();
  ASSERT_TRUE(target->finished());
  EXPECT_EQ(ctx->time_stamp().ps(), 100000u);
  EXPECT_EQ(target->last_status(), rtos::RunStatus::AllDone);
  EXPECT_EQ(from_cpu->read(), 42u);
  EXPECT_GE(ext->stats().messages_in, 1u);   // the guest's WRITE
  EXPECT_GE(ext->stats().messages_out, 1u);  // the pushed input value
  EXPECT_EQ(ext->stats().messages_in, 1u);   // exact goldens
  EXPECT_EQ(ext->stats().messages_out, 1u);
}

TEST_F(DriverFixture, ElaborationRejectsAnUnknownOwnedPort) {
  DriverKernelOptions options;
  options.owned_ports = {"hw.ghost"};
  boot(kIncrementGuest, options);
  EXPECT_THROW(ctx->run(10_ns), util::LogicError);
}

TEST_F(DriverFixture, ElaborationRejectsAnOwnedPortThatIsAnInput) {
  DriverKernelOptions options;
  options.owned_ports = {"hw.to_cpu", "hw.from_cpu"};  // hw.from_cpu is an iss_in
  boot(kIncrementGuest, options);
  EXPECT_THROW(ctx->run(10_ns), util::LogicError);
}

TEST_F(DriverFixture, InterruptReachesGuestIsr) {
  constexpr const char* kIsrGuest = R"(
_start:
    la a1, isr
    li a0, 5
    li a7, SYS_IRQ_ATTACH
    ecall
spin:
    la t0, flag
    lw t1, 0(t0)
    beqz t1, spin
    li a7, SYS_PUTC
    li a0, 68          # 'D'
    ecall
    li a7, SYS_EXIT
    ecall
isr:
    li a7, SYS_PUTC
    li a0, 73          # 'I'
    ecall
    la t0, flag
    li t1, 1
    sw t1, 0(t0)
    ret
flag: .word 0
)";
  boot(kIsrGuest);
  // Let the guest attach its handler, then raise the device interrupt.
  ctx->run(1_us);
  ext->post_interrupt(5);
  run_until_finished();
  ASSERT_TRUE(target->finished());
  EXPECT_EQ(ctx->time_stamp().ps(), 1100000u);
  EXPECT_EQ(target->kernel().console(), "ID");
  EXPECT_EQ(ext->stats().interrupts_sent, 1u);
  EXPECT_EQ(target->kernel().stats().isr_dispatches, 1u);
}

TEST_F(DriverFixture, MultipleTransfersKeepOrder) {
  // Guest loops 4 times: read word, add 100, write back.
  constexpr const char* kLoopGuest = R"(
_start:
    li s0, 4
loop:
    li a0, 0
    la a1, buf
    li a2, 4
    li a7, SYS_DEV_READ
    ecall
    la t0, buf
    lw t1, 0(t0)
    addi t1, t1, 100
    sw t1, 0(t0)
    li a0, 0
    la a1, buf
    li a2, 4
    li a7, SYS_DEV_WRITE
    ecall
    addi s0, s0, -1
    bnez s0, loop
    li a7, SYS_EXIT
    ecall
buf: .word 0
)";
  boot(kLoopGuest);

  std::vector<std::uint32_t> results;
  auto& proc = ctx->create_method(
      "collect",
      [&] {
        results.push_back(from_cpu->read());
        to_cpu->write(static_cast<std::uint32_t>(results.size() + 1));
      },
      sysc::process_kind::IssMethod);
  proc.make_sensitive(from_cpu->written_event());
  proc.dont_initialize();

  to_cpu->write(1);
  run_until_finished();
  ASSERT_TRUE(target->finished());
  EXPECT_EQ(ctx->time_stamp().ps(), 100000u);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0], 101u);
  EXPECT_EQ(results[1], 102u);
  EXPECT_EQ(results[2], 103u);
  EXPECT_EQ(results[3], 104u);
}

TEST_F(DriverFixture, GuestFaultEndsSession) {
  boot("_start:\n  .word 0xffffffff\n");
  run_until_finished();
  EXPECT_TRUE(target->finished());
  EXPECT_EQ(ctx->time_stamp().ps(), 100000u);
  EXPECT_EQ(target->last_status(), rtos::RunStatus::Fault);
}

/// Cycles a spinning Driver-Kernel guest retires when the kernel runs
/// `windows` back-to-back windows of `window` each.
std::uint64_t spin_cycles(int windows, sysc::sc_time window) {
  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  DriverTargetConfig config;
  config.write_port = "a";
  config.read_port = "b";
  DriverTarget target("_start:\nspin:\n  j spin\n", config);
  DriverKernelOptions options;
  options.instructions_per_us = 10000;
  DriverKernelExtension ext(target.take_data_endpoint(), target.take_interrupt_endpoint(),
                            &target.budget(), options);
  ctx.register_extension(&ext);
  for (int i = 0; i < windows; ++i) ctx.run(window);
  target.shutdown();
  ctx.unregister_extension(&ext);
  return target.cpu().cycles();
}

TEST(DriverTargetTest, AllowanceDoesNotDependOnRunSlicing) {
  // The guest's simulated speed is a function of simulated time only: how
  // the caller slices run() must not change what it retires.
  const std::uint64_t whole = spin_cycles(1, 100_us);
  const std::uint64_t split = spin_cycles(10, 10_us);
  EXPECT_GE(whole, 99u * 10000u);  // the guest ran at its nominal speed
  EXPECT_EQ(whole, 1003670u);      // exact golden
  EXPECT_EQ(split, whole);
}

TEST(DriverTargetTest, EndpointsCanOnlyBeTakenOnce) {
  DriverTargetConfig config;
  config.write_port = "a";
  config.read_port = "b";
  DriverTarget target("_start:\n li a7, SYS_EXIT\n ecall\n", config);
  (void)target.take_data_endpoint();
  EXPECT_THROW(target.take_data_endpoint(), util::LogicError);
}

}  // namespace
}  // namespace nisc::cosim
