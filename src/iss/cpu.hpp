// The RV32IM instruction-set simulator core.
//
// Execution model: step() runs exactly one instruction; run(max) executes
// until a halt condition (breakpoint, watchpoint, ebreak, unhandled ecall,
// fault) or until `max` instructions have retired (Halt::Quantum), which is
// how the co-simulation layer meters guest execution against SystemC time.
//
// Breakpoint semantics follow GDB: execution stops with pc *at* the
// breakpointed instruction, before executing it; continuing from a
// breakpoint first steps over it.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "iss/isa.hpp"
#include "iss/memory.hpp"

namespace nisc::iss {

/// Why the CPU stopped (or didn't).
enum class Halt : std::uint8_t {
  None,         ///< still running (only returned by step())
  Breakpoint,   ///< pc reached a breakpoint
  Watchpoint,   ///< a write watchpoint fired
  Ebreak,       ///< EBREAK executed
  Ecall,        ///< ECALL executed and no handler claimed it
  Quantum,      ///< instruction budget exhausted (run(max) only)
  IllegalInstruction,
  MemoryFault,
};

const char* halt_name(Halt halt) noexcept;

/// Synthetic per-instruction cycle costs (documented in DESIGN.md). They
/// give guest code a plausible, configurable notion of CPU time for the
/// paper's Figure 7 experiment.
struct CycleModel {
  std::uint32_t base = 1;          ///< every instruction
  std::uint32_t load_store = 1;    ///< extra for memory ops
  std::uint32_t branch_taken = 1;  ///< extra for taken branches/jumps
  std::uint32_t mul = 3;           ///< extra for MUL*
  std::uint32_t div = 16;          ///< extra for DIV*/REM*
};

class Cpu {
 public:
  /// Result of an ecall handler.
  enum class EcallResult : std::uint8_t {
    Handled,  ///< syscall serviced; execution continues
    Halt,     ///< surface Halt::Ecall to the run loop
  };
  using EcallHandler = std::function<EcallResult(Cpu&)>;

  explicit Cpu(std::size_t mem_size = 1 << 20) : mem_(mem_size) { reset(); }

  /// Resets registers, pc and counters (memory is preserved).
  void reset(std::uint32_t pc = 0) noexcept;

  // -- architectural state --------------------------------------------------

  std::uint32_t reg(std::uint8_t index) const { return regs_.at(index); }
  void set_reg(std::uint8_t index, std::uint32_t value) {
    if (index != 0) regs_.at(index) = value;
  }
  std::uint32_t pc() const noexcept { return pc_; }
  void set_pc(std::uint32_t pc) noexcept { pc_ = pc; }

  Memory& mem() noexcept { return mem_; }
  const Memory& mem() const noexcept { return mem_; }

  std::uint64_t instret() const noexcept { return instret_; }
  std::uint64_t cycles() const noexcept { return cycles_; }
  /// Charges extra cycles (used by the RTOS model for OS overhead).
  void add_cycles(std::uint64_t n) noexcept { cycles_ += n; }

  // -- checkpoint interface (cosim/checkpoint.hpp) ---------------------------

  /// Overwrites the retirement/cycle counters with snapshot values. Only the
  /// checkpoint restore path may call this: the counters otherwise advance
  /// solely through execution.
  void restore_counters(std::uint64_t instret, std::uint64_t cycles) noexcept {
    instret_ = instret;
    cycles_ = cycles;
  }
  /// Overwrites the last-halt reason with a snapshot value.
  void restore_halt(Halt halt) noexcept { last_halt_ = halt; }

  CycleModel& cycle_model() noexcept { return cycle_model_; }
  const CycleModel& cycle_model() const noexcept { return cycle_model_; }

  // -- debug interface (GDB stub) --------------------------------------------

  void add_breakpoint(std::uint32_t addr) { breakpoints_.insert(addr); }
  void remove_breakpoint(std::uint32_t addr) noexcept { breakpoints_.erase(addr); }
  bool has_breakpoint(std::uint32_t addr) const noexcept { return breakpoints_.count(addr) > 0; }
  std::size_t breakpoint_count() const noexcept { return breakpoints_.size(); }
  const std::set<std::uint32_t>& breakpoints() const noexcept { return breakpoints_; }

  /// Write watchpoint over [addr, addr+len).
  void add_watchpoint(std::uint32_t addr, std::uint32_t len) { watchpoints_[addr] = len; }
  void remove_watchpoint(std::uint32_t addr) noexcept { watchpoints_.erase(addr); }
  const std::map<std::uint32_t, std::uint32_t>& watchpoints() const noexcept {
    return watchpoints_;
  }

  /// Address whose watchpoint fired last (valid after Halt::Watchpoint).
  std::uint32_t watch_hit_addr() const noexcept { return watch_hit_addr_; }

  // -- execution --------------------------------------------------------------

  void set_ecall_handler(EcallHandler handler) { ecall_handler_ = std::move(handler); }

  /// Optional per-instruction trace hook, invoked with (pc, raw word) just
  /// before each decoded instruction executes. Costs one branch when unset.
  using TraceHook = std::function<void(std::uint32_t pc, std::uint32_t word)>;
  void set_trace_hook(TraceHook hook) { trace_hook_ = std::move(hook); }

  /// Executes one instruction. Returns Halt::None while running.
  Halt step();

  /// Runs until a halt condition or `max_instructions` retirements.
  Halt run(std::uint64_t max_instructions);

  /// Last halt reason returned by run().
  Halt last_halt() const noexcept { return last_halt_; }

 private:
  Halt execute(const Instr& instr);
  bool check_watch(std::uint32_t addr, std::uint32_t len) noexcept;

  Memory mem_;
  std::array<std::uint32_t, 32> regs_{};
  std::uint32_t pc_ = 0;
  std::uint64_t instret_ = 0;
  std::uint64_t cycles_ = 0;
  CycleModel cycle_model_;
  std::set<std::uint32_t> breakpoints_;
  std::map<std::uint32_t, std::uint32_t> watchpoints_;
  std::uint32_t watch_hit_addr_ = 0;
  bool watch_pending_ = false;
  Halt last_halt_ = Halt::None;
  EcallHandler ecall_handler_;
  TraceHook trace_hook_;
};

}  // namespace nisc::iss
