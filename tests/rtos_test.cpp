// Tests for the eCos-like RTOS model: scheduling, syscalls, device drivers,
// interrupts, and the OS cycle-overhead accounting.
#include <gtest/gtest.h>

#include <deque>

#include "iss/assembler.hpp"
#include "iss/cpu.hpp"
#include "rtos/rtos.hpp"

namespace nisc::rtos {
namespace {

/// In-memory loopback driver for tests: read() serves a host-fed queue,
/// write() records everything.
class TestDriver : public Driver {
 public:
  std::string_view name() const noexcept override { return "testdev"; }

  std::size_t write(std::span<const std::uint8_t> data) override {
    written.insert(written.end(), data.begin(), data.end());
    return data.size();
  }

  std::size_t read(std::span<std::uint8_t> out) override {
    std::size_t n = 0;
    while (n < out.size() && !rx.empty()) {
      out[n++] = rx.front();
      rx.pop_front();
    }
    return n;
  }

  void feed(std::initializer_list<std::uint8_t> bytes) {
    rx.insert(rx.end(), bytes.begin(), bytes.end());
  }

  std::deque<std::uint8_t> rx;
  std::vector<std::uint8_t> written;
};

struct RtosFixture : ::testing::Test {
  void boot(const std::string& body, RtosConfig config = {}) {
    cpu = std::make_unique<iss::Cpu>(1 << 16);
    kernel = std::make_unique<Kernel>(*cpu, config);
    program = iss::assemble(guest_abi_prelude() + body);
    kernel->load(program);
    auto drv = std::make_unique<TestDriver>();
    driver = drv.get();
    ASSERT_EQ(kernel->register_driver(std::move(drv)), 0);
  }

  std::unique_ptr<iss::Cpu> cpu;
  std::unique_ptr<Kernel> kernel;
  iss::Program program;
  TestDriver* driver = nullptr;
};

TEST_F(RtosFixture, SingleThreadRunsAndExits) {
  boot(R"(
  _start:
      li a7, SYS_PUTC
      li a0, 72        # 'H'
      ecall
      li a0, 105       # 'i'
      ecall
      li a7, SYS_EXIT
      ecall
  )");
  EXPECT_EQ(kernel->run(100000), RunStatus::AllDone);
  EXPECT_EQ(kernel->console(), "Hi");
  EXPECT_EQ(kernel->live_threads(), 0);
}

TEST_F(RtosFixture, EbreakTerminatesThread) {
  boot("_start:\n  ebreak\n");
  EXPECT_EQ(kernel->run(1000), RunStatus::AllDone);
}

TEST_F(RtosFixture, BudgetExhaustionReturnsBudget) {
  boot("_start:\nspin:\n  j spin\n");
  EXPECT_EQ(kernel->run(5000), RunStatus::Budget);
  EXPECT_GE(cpu->instret(), 5000u);
}

TEST_F(RtosFixture, GuestFaultSurfaces) {
  boot("_start:\n  .word 0xffffffff\n");
  EXPECT_EQ(kernel->run(1000), RunStatus::Fault);
  EXPECT_EQ(kernel->last_fault(), iss::Halt::IllegalInstruction);
}

TEST_F(RtosFixture, GetTidReturnsZeroForMain) {
  boot(R"(
  _start:
      li a7, SYS_GETTID
      ecall
      addi a0, a0, 48   # '0' + tid
      li a7, SYS_PUTC
      ecall
      li a7, SYS_EXIT
      ecall
  )");
  EXPECT_EQ(kernel->run(100000), RunStatus::AllDone);
  EXPECT_EQ(kernel->console(), "0");
}

TEST_F(RtosFixture, TwoThreadsInterleaveOnYield) {
  boot(R"(
  _start:
      la a0, worker
      li a1, 0
      li a7, SYS_THREAD_CREATE
      ecall
      li t0, 3
  main_loop:
      li a7, SYS_PUTC
      li a0, 65        # 'A'
      ecall
      li a7, SYS_YIELD
      ecall
      addi t0, t0, -1
      bnez t0, main_loop
      li a7, SYS_EXIT
      ecall
  worker:
      li t0, 3
  w_loop:
      li a7, SYS_PUTC
      li a0, 66        # 'B'
      ecall
      li a7, SYS_YIELD
      ecall
      addi t0, t0, -1
      bnez t0, w_loop
      li a7, SYS_EXIT
      ecall
  )");
  EXPECT_EQ(kernel->run(1000000), RunStatus::AllDone);
  EXPECT_EQ(kernel->console(), "ABABAB");
  EXPECT_EQ(kernel->thread_count(), 2);
}

TEST_F(RtosFixture, ThreadFunctionReturnIsExit) {
  boot(R"(
  _start:
      la a0, worker
      li a1, 0
      li a7, SYS_THREAD_CREATE
      ecall
      li a7, SYS_YIELD
      ecall
      li a7, SYS_EXIT
      ecall
  worker:
      li a7, SYS_PUTC
      li a0, 87        # 'W'
      ecall
      ret              # returns into the kernel's exit stub
  )");
  EXPECT_EQ(kernel->run(1000000), RunStatus::AllDone);
  EXPECT_EQ(kernel->console(), "W");
}

TEST_F(RtosFixture, ThreadCreateFailsPastLimit) {
  RtosConfig config;
  config.max_threads = 2;
  boot(R"(
  _start:
      la a0, noop
      li a1, 0
      li a7, SYS_THREAD_CREATE
      ecall              # tid 1: ok
      la a0, noop
      li a7, SYS_THREAD_CREATE
      ecall              # fails: limit reached
      bltz a0, good
      li a7, SYS_EXIT
      ecall
  good:
      li a7, SYS_PUTC
      li a0, 71          # 'G'
      ecall
      li a7, SYS_EXIT
      ecall
  noop:
      ret
  )", config);
  EXPECT_EQ(kernel->run(1000000), RunStatus::AllDone);
  EXPECT_EQ(kernel->console(), "G");
}

TEST_F(RtosFixture, SleepAdvancesCyclesWhenIdle) {
  boot(R"(
  _start:
      li a0, 50000
      li a7, SYS_SLEEP
      ecall
      li a7, SYS_PUTC
      li a0, 90        # 'Z'
      ecall
      li a7, SYS_EXIT
      ecall
  )");
  EXPECT_EQ(kernel->run(100000), RunStatus::AllDone);
  EXPECT_EQ(kernel->console(), "Z");
  EXPECT_GE(cpu->cycles(), 50000u);
  EXPECT_GT(kernel->stats().idle_wakeups, 0u);
}

TEST_F(RtosFixture, DevWriteReachesDriver) {
  boot(R"(
  _start:
      li a0, 0         # dev 0
      la a1, msg
      li a2, 3
      li a7, SYS_DEV_WRITE
      ecall
      li a7, SYS_EXIT
      ecall
  msg: .byte 1, 2, 3
  )");
  EXPECT_EQ(kernel->run(100000), RunStatus::AllDone);
  EXPECT_EQ(driver->written, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST_F(RtosFixture, DevWriteBadDeviceReturnsError) {
  boot(R"(
  _start:
      li a0, 9         # no such device
      la a1, msg
      li a2, 1
      li a7, SYS_DEV_WRITE
      ecall
      bltz a0, good
      li a7, SYS_EXIT
      ecall
  good:
      li a7, SYS_PUTC
      li a0, 69        # 'E'
      ecall
      li a7, SYS_EXIT
      ecall
  msg: .byte 5
  )");
  EXPECT_EQ(kernel->run(100000), RunStatus::AllDone);
  EXPECT_EQ(kernel->console(), "E");
}

TEST_F(RtosFixture, DevReadBlocksUntilDataArrives) {
  boot(R"(
  _start:
      li a0, 0
      la a1, buf
      li a2, 4
      li a7, SYS_DEV_READ
      ecall
      la t0, buf
      lbu a0, 0(t0)
      li a7, SYS_PUTC
      ecall
      li a7, SYS_EXIT
      ecall
  buf: .space 4
  )");
  EXPECT_EQ(kernel->run(100000), RunStatus::Idle);  // blocked, nothing to read
  driver->feed({'X'});
  EXPECT_EQ(kernel->run(100000), RunStatus::AllDone);
  EXPECT_EQ(kernel->console(), "X");
}

TEST_F(RtosFixture, DevReadImmediateWhenDataPresent) {
  boot(R"(
  _start:
      li a0, 0
      la a1, buf
      li a2, 2
      li a7, SYS_DEV_READ
      ecall
      addi a0, a0, 48   # '0' + bytes read
      li a7, SYS_PUTC
      ecall
      li a7, SYS_EXIT
      ecall
  buf: .space 4
  )");
  driver->feed({0xAA, 0xBB});
  EXPECT_EQ(kernel->run(100000), RunStatus::AllDone);
  EXPECT_EQ(kernel->console(), "2");
}

TEST_F(RtosFixture, BlockedReaderDoesNotStarveOtherThreads) {
  boot(R"(
  _start:
      la a0, reader
      li a1, 0
      li a7, SYS_THREAD_CREATE
      ecall
      li a7, SYS_YIELD
      ecall               # give the reader a chance to block
      li a7, SYS_PUTC
      li a0, 77           # 'M': main still runs while reader blocks
      ecall
      li a7, SYS_EXIT
      ecall
  reader:
      li a0, 0
      la a1, buf
      li a2, 1
      li a7, SYS_DEV_READ
      ecall
      li a7, SYS_PUTC
      li a0, 82           # 'R'
      ecall
      li a7, SYS_EXIT
      ecall
  buf: .space 4
  )");
  EXPECT_EQ(kernel->run(100000), RunStatus::Idle);
  EXPECT_EQ(kernel->console(), "M");
  driver->feed({1});
  EXPECT_EQ(kernel->run(100000), RunStatus::AllDone);
  EXPECT_EQ(kernel->console(), "MR");
}

TEST_F(RtosFixture, IrqDispatchesAttachedHandler) {
  boot(R"(
  _start:
      la a1, isr
      li a0, 7
      li a7, SYS_IRQ_ATTACH
      ecall
  wait_loop:
      la t0, flag
      lw t1, 0(t0)
      bnez t1, done
      li a7, SYS_YIELD
      ecall
      j wait_loop
  done:
      li a7, SYS_PUTC
      li a0, 68        # 'D'
      ecall
      li a7, SYS_EXIT
      ecall
  isr:
      li a7, SYS_PUTC
      li a0, 73        # 'I'
      ecall
      la t0, flag
      li t1, 1
      sw t1, 0(t0)
      ret              # returns into the kernel's iret stub
  flag: .word 0
  )");
  EXPECT_EQ(kernel->run(5000), RunStatus::Budget);  // spinning on the flag
  EXPECT_EQ(kernel->console(), "");
  kernel->raise_irq(7);
  EXPECT_EQ(kernel->run(100000), RunStatus::AllDone);
  EXPECT_EQ(kernel->console(), "ID");
  EXPECT_EQ(kernel->stats().isr_dispatches, 1u);
}

TEST_F(RtosFixture, IsrReceivesIrqNumberInA0) {
  boot(R"(
  _start:
      la a1, isr
      li a0, 3
      li a7, SYS_IRQ_ATTACH
      ecall
  spin:
      la t0, flag
      lw t1, 0(t0)
      beqz t1, spin
      li a7, SYS_EXIT
      ecall
  isr:
      addi a0, a0, 48   # '0' + irq
      li a7, SYS_PUTC
      ecall
      la t0, flag
      li t1, 1
      sw t1, 0(t0)
      ret
  flag: .word 0
  )");
  EXPECT_EQ(kernel->run(2000), RunStatus::Budget);  // handler now attached
  kernel->raise_irq(3);
  EXPECT_EQ(kernel->run(1000000), RunStatus::AllDone);
  EXPECT_EQ(kernel->console(), "3");
}

TEST_F(RtosFixture, UnattachedIrqDispatchesNothing) {
  boot("_start:\n  li a7, SYS_EXIT\n  ecall\n");
  kernel->raise_irq(42);
  EXPECT_EQ(kernel->run(100000), RunStatus::AllDone);
  EXPECT_EQ(kernel->stats().isr_dispatches, 0u);
}

// Level-triggered: a line raised several times before its handler attaches
// is held once and fires once on attach.
TEST_F(RtosFixture, IrqRaisedRepeatedlyBeforeAttachFiresOnceOnAttach) {
  boot(R"(
  _start:
      li t0, 0
      li t1, 20000
  wait:
      addi t0, t0, 1
      blt t0, t1, wait
      la a1, isr
      li a0, 1
      li a7, SYS_IRQ_ATTACH
      ecall
      li t0, 0
  spin:
      addi t0, t0, 1
      blt t0, t1, spin
      li a7, SYS_EXIT
      ecall
  isr:
      la t2, hits
      lw t3, 0(t2)
      addi t3, t3, 1
      sw t3, 0(t2)
      ret
  hits: .word 0
  )");
  for (int i = 0; i < 3; ++i) kernel->raise_irq(1);
  // Each run() looks at one pending irq first; the guest is still waiting.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(kernel->run(100), RunStatus::Budget);
  EXPECT_FALSE(kernel->irq_pending());
  EXPECT_EQ(kernel->stats().isr_dispatches, 0u);
  EXPECT_EQ(kernel->run(1000000), RunStatus::AllDone);
  EXPECT_EQ(kernel->stats().isr_dispatches, 1u);
  EXPECT_EQ(cpu->mem().read32(program.symbol("hits")), 1u);
}

TEST_F(RtosFixture, IrqInterruptsRunningThreadAndResumesIt) {
  boot(R"(
  _start:
      la a1, isr
      li a0, 1
      li a7, SYS_IRQ_ATTACH
      ecall
      li t0, 0
      li t1, 300000
  spin:
      addi t0, t0, 1
      blt t0, t1, spin
      li a7, SYS_EXIT
      ecall
  isr:
      la t2, hits        # t2 is caller-saved; ISR runs on its own context
      lw t3, 0(t2)
      addi t3, t3, 1
      sw t3, 0(t2)
      ret
  hits: .word 0
  )");
  EXPECT_EQ(kernel->run(1000), RunStatus::Budget);
  kernel->raise_irq(1);
  EXPECT_EQ(kernel->run(2000), RunStatus::Budget);
  EXPECT_EQ(cpu->mem().read32(program.symbol("hits")), 1u);
  // The interrupted spin loop keeps its registers (t0 advanced, not reset).
  EXPECT_EQ(kernel->run(2000000), RunStatus::AllDone);
}

TEST_F(RtosFixture, PreemptionSharesCpuBetweenSpinners) {
  boot(R"(
  _start:
      la a0, spinner2
      li a1, 0
      li a7, SYS_THREAD_CREATE
      ecall
      la t0, c1
  spin1:
      lw t1, 0(t0)
      addi t1, t1, 1
      sw t1, 0(t0)
      j spin1
  spinner2:
      la t0, c2
  spin2:
      lw t1, 0(t0)
      addi t1, t1, 1
      sw t1, 0(t0)
      j spin2
  c1: .word 0
  c2: .word 0
  )");
  EXPECT_EQ(kernel->run(200000), RunStatus::Budget);
  EXPECT_GT(cpu->mem().read32(program.symbol("c1")), 1000u);
  EXPECT_GT(cpu->mem().read32(program.symbol("c2")), 1000u);
  EXPECT_GT(kernel->stats().context_switches, 10u);
}

TEST_F(RtosFixture, SyscallsChargeOverheadCycles) {
  RtosConfig config;
  config.syscall_overhead_cycles = 1000;
  boot(R"(
  _start:
      li a7, SYS_PUTC
      li a0, 46        # '.'
      ecall
      li a7, SYS_EXIT
      ecall
  )", config);
  EXPECT_EQ(kernel->run(100000), RunStatus::AllDone);
  // Two syscalls at 1000 cycles each dominate the handful of instructions.
  EXPECT_GE(cpu->cycles(), 2000u);
  EXPECT_LT(cpu->instret(), 20u);
  EXPECT_EQ(kernel->stats().syscalls, 2u);
}

TEST_F(RtosFixture, ContextSwitchChargesCycles) {
  RtosConfig fat;
  fat.context_switch_cycles = 5000;
  boot("_start:\n  li a7, SYS_EXIT\n  ecall\n", fat);
  EXPECT_EQ(kernel->run(100000), RunStatus::AllDone);
  EXPECT_GE(cpu->cycles(), 5000u);  // at least the initial dispatch
}

TEST_F(RtosFixture, GuestAbiPreludeDefinesAllSyscalls) {
  // The prelude must assemble standalone and define every SYS_ constant.
  iss::Program prog = iss::assemble(guest_abi_prelude() +
                                    "li a0, SYS_IRET\nli a1, SYS_EXIT\nebreak\n");
  EXPECT_EQ(prog.symbols.count("SYS_DEV_READ"), 1u);
  EXPECT_EQ(prog.symbols.at("SYS_IRET"), 9u);
}

}  // namespace
}  // namespace nisc::rtos
