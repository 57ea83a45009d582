// An eCos-like RTOS model running on the ISS.
//
// The paper's Driver-Kernel scheme assumes an operating system on the
// simulated CPU (eCos on the i386 synthetic target) exposing device-driver
// APIs and interrupt service routines. This module models that OS at the
// syscall boundary: guest code executes natively on the RV32 ISS and enters
// the kernel through `ecall`; the kernel itself (scheduler, driver registry,
// ISR dispatch) runs host-side but charges configurable *guest cycles* for
// every OS service, so OS overhead is visible to the co-simulated timing —
// exactly the effect the paper measures in Figure 7.
//
// Guest ABI (all syscalls: number in a7, args in a0..a2, result in a0):
//
//   0 SYS_EXIT                      terminate calling thread
//   1 SYS_YIELD                     round-robin reschedule
//   2 SYS_SLEEP   (a0=cycles)       sleep for a0 CPU cycles
//   3 SYS_DEV_WRITE (a0=dev, a1=buf, a2=len)  -> bytes written
//   4 SYS_DEV_READ  (a0=dev, a1=buf, a2=len)  -> bytes read (blocks if none)
//   5 SYS_IRQ_ATTACH (a0=irq, a1=handler)     register an ISR
//   6 SYS_THREAD_CREATE (a0=entry, a1=arg)    -> new tid
//   7 SYS_GETTID                              -> tid
//   8 SYS_PUTC    (a0=char)        debug console
//   9 SYS_IRET                     return from ISR (emitted by the kernel stub)
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "iss/cpu.hpp"
#include "iss/program.hpp"

namespace nisc::rtos {

/// Syscall numbers of the guest ABI.
enum class Sys : std::uint32_t {
  Exit = 0,
  Yield = 1,
  Sleep = 2,
  DevWrite = 3,
  DevRead = 4,
  IrqAttach = 5,
  ThreadCreate = 6,
  GetTid = 7,
  Putc = 8,
  Iret = 9,
};

/// Assembly prelude defining SYS_* constants; prepend to guest sources.
std::string guest_abi_prelude();

/// A device driver registered with the kernel. read()/write() are called
/// from run(), while guest code executes.
class Driver {
 public:
  virtual ~Driver() = default;
  virtual std::string_view name() const noexcept = 0;
  /// Consumes `data` from the guest; returns bytes accepted.
  virtual std::size_t write(std::span<const std::uint8_t> data) = 0;
  /// Produces bytes for the guest; returns bytes copied (0 = would block).
  virtual std::size_t read(std::span<std::uint8_t> out) = 0;
};

/// OS cost model and memory layout knobs.
struct RtosConfig {
  std::uint32_t max_threads = 8;
  std::uint32_t stack_size = 0x800;
  /// Guest cycles charged per OS service (the Figure 7 overheads).
  std::uint32_t context_switch_cycles = 150;
  std::uint32_t syscall_overhead_cycles = 80;
  std::uint32_t isr_entry_cycles = 120;
  std::uint32_t isr_exit_cycles = 60;
  /// Round-robin timeslice in instructions.
  std::uint64_t timeslice = 1024;
  /// Instructions per inner run slice (bounds ISR dispatch latency).
  std::uint64_t slice = 256;
};

/// Why Kernel::run returned.
enum class RunStatus : std::uint8_t {
  Budget,   ///< instruction budget exhausted
  Idle,     ///< every live thread is blocked on device I/O
  AllDone,  ///< every thread exited
  Fault,    ///< a guest thread faulted (illegal instruction, bad memory, ...)
};

const char* run_status_name(RunStatus status) noexcept;

struct RtosStats {
  std::uint64_t syscalls = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t isr_dispatches = 0;
  std::uint64_t idle_wakeups = 0;
};

class Kernel {
 public:
  explicit Kernel(iss::Cpu& cpu, RtosConfig config = {});

  /// Loads the program image, installs kernel stubs and creates the main
  /// thread (tid 0) at the program entry.
  void load(const iss::Program& program);

  /// Registers a driver; returns its device id for SYS_DEV_* calls.
  int register_driver(std::unique_ptr<Driver> driver);
  Driver& driver(int dev_id);

  /// Queues an interrupt for dispatch at the next run().
  void raise_irq(std::uint32_t irq) { pending_irqs_.push_back(irq); }

  /// True while a raised interrupt waits for dispatch.
  bool irq_pending() const noexcept { return !pending_irqs_.empty(); }

  /// Runs guest threads for up to `max_instructions`.
  RunStatus run(std::uint64_t max_instructions);

  // -- inspection --------------------------------------------------------

  int thread_count() const noexcept { return static_cast<int>(threads_.size()); }
  int live_threads() const noexcept;
  int current_tid() const noexcept { return current_; }
  bool in_isr() const noexcept { return in_isr_; }
  const std::string& console() const noexcept { return console_; }
  const RtosStats& stats() const noexcept { return stats_; }
  iss::Halt last_fault() const noexcept { return last_fault_; }

 private:
  enum class ThreadState : std::uint8_t { Ready, Blocked, Sleeping, Done };

  struct Thread {
    std::array<std::uint32_t, 32> regs{};
    std::uint32_t pc = 0;
    ThreadState state = ThreadState::Ready;
    std::uint64_t wake_cycle = 0;       // Sleeping
    int blocked_dev = -1;               // Blocked on SYS_DEV_READ
    std::uint32_t pending_buf = 0;      // guest buffer of the blocked read
    std::uint32_t pending_len = 0;
  };

  /// What the last ecall asked the scheduler to do.
  enum class Pending : std::uint8_t { None, Exit, Yield, Sleep, BlockRead, Iret };

  iss::Cpu::EcallResult handle_ecall();
  void save_context(Thread& t);
  void restore_context(const Thread& t);
  void switch_to(int tid);
  bool retry_blocked_reads();
  bool wake_due_sleepers();
  std::optional<int> pick_ready(int after) const;
  bool dispatch_irq();
  int create_thread(std::uint32_t entry, std::uint32_t arg);

  iss::Cpu& cpu_;
  RtosConfig config_;
  std::vector<Thread> threads_;
  std::vector<std::unique_ptr<Driver>> drivers_;
  int current_ = -1;

  // ISR state: one interrupt level (nested irqs queue up). A line raised
  // before a handler is attached is held (level-triggered semantics: held
  // once, however often it was raised) and fires once on attach.
  std::map<std::uint32_t, std::uint32_t> irq_handlers_;
  std::deque<std::uint32_t> pending_irqs_;
  std::set<std::uint32_t> held_irqs_;
  bool in_isr_ = false;
  Thread interrupted_;  // context saved across the ISR
  int interrupted_tid_ = -1;

  Pending pending_ = Pending::None;
  std::uint64_t pending_sleep_ = 0;
  int pending_dev_ = -1;
  std::uint32_t pending_read_buf_ = 0;
  std::uint32_t pending_read_len_ = 0;
  std::uint64_t timeslice_used_ = 0;
  int last_scheduled_ = -1;

  std::uint32_t exit_stub_ = 0;
  std::uint32_t iret_stub_ = 0;
  std::uint32_t stack_top_ = 0;
  std::uint32_t isr_stack_ = 0;

  std::string console_;
  RtosStats stats_;
  iss::Halt last_fault_ = iss::Halt::None;
};

}  // namespace nisc::rtos
