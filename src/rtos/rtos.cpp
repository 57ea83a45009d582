#include "rtos/rtos.hpp"

#include <algorithm>

#include "iss/isa.hpp"
#include "util/log.hpp"

namespace nisc::rtos {

namespace {
constexpr std::uint8_t kA0 = 10;
constexpr std::uint8_t kA1 = 11;
constexpr std::uint8_t kA2 = 12;
constexpr std::uint8_t kA7 = 17;
constexpr std::uint8_t kSp = 2;
constexpr std::uint8_t kRa = 1;
}  // namespace

std::string guest_abi_prelude() {
  return R"(.equ SYS_EXIT, 0
.equ SYS_YIELD, 1
.equ SYS_SLEEP, 2
.equ SYS_DEV_WRITE, 3
.equ SYS_DEV_READ, 4
.equ SYS_IRQ_ATTACH, 5
.equ SYS_THREAD_CREATE, 6
.equ SYS_GETTID, 7
.equ SYS_PUTC, 8
.equ SYS_IRET, 9
)";
}

const char* run_status_name(RunStatus status) noexcept {
  switch (status) {
    case RunStatus::Budget: return "budget";
    case RunStatus::Idle: return "idle";
    case RunStatus::AllDone: return "all-done";
    case RunStatus::Fault: return "fault";
  }
  return "?";
}

Kernel::Kernel(iss::Cpu& cpu, RtosConfig config) : cpu_(cpu), config_(config) {}

void Kernel::load(const iss::Program& program) {
  program.load_into(cpu_.mem());

  // Kernel stubs at the top of memory: tiny guest shims that re-enter the
  // kernel. Thread functions return into exit_stub_; ISRs return into
  // iret_stub_.
  const std::uint32_t top = static_cast<std::uint32_t>(cpu_.mem().size());
  exit_stub_ = top - 16;
  iret_stub_ = top - 8;
  cpu_.mem().write32(exit_stub_, iss::encode({iss::Op::Addi, kA7, 0, 0,
                                              static_cast<std::int32_t>(Sys::Exit)}));
  cpu_.mem().write32(exit_stub_ + 4, iss::encode({iss::Op::Ecall, 0, 0, 0, 0}));
  cpu_.mem().write32(iret_stub_, iss::encode({iss::Op::Addi, kA7, 0, 0,
                                              static_cast<std::int32_t>(Sys::Iret)}));
  cpu_.mem().write32(iret_stub_ + 4, iss::encode({iss::Op::Ecall, 0, 0, 0, 0}));

  isr_stack_ = exit_stub_;                      // ISR stack grows down from the stubs
  stack_top_ = isr_stack_ - config_.stack_size;  // thread 0 stack below the ISR's

  threads_.clear();
  current_ = -1;
  last_scheduled_ = -1;
  in_isr_ = false;
  pending_ = Pending::None;

  int main_tid = create_thread(program.entry, 0);
  util::require(main_tid == 0, "Kernel::load: main thread creation failed");

  cpu_.set_ecall_handler([this](iss::Cpu&) { return handle_ecall(); });
}

int Kernel::create_thread(std::uint32_t entry, std::uint32_t arg) {
  if (threads_.size() >= config_.max_threads) return -1;
  int tid = static_cast<int>(threads_.size());
  Thread t;
  t.pc = entry;
  t.regs[kSp] = stack_top_ - config_.stack_size * static_cast<std::uint32_t>(tid);
  t.regs[kRa] = exit_stub_;
  t.regs[kA0] = arg;
  t.state = ThreadState::Ready;
  threads_.push_back(t);
  return tid;
}

int Kernel::register_driver(std::unique_ptr<Driver> driver) {
  util::require(driver != nullptr, "register_driver: null");
  drivers_.push_back(std::move(driver));
  return static_cast<int>(drivers_.size()) - 1;
}

Driver& Kernel::driver(int dev_id) {
  util::require(dev_id >= 0 && dev_id < static_cast<int>(drivers_.size()),
                "driver: bad device id");
  return *drivers_[static_cast<std::size_t>(dev_id)];
}

int Kernel::live_threads() const noexcept {
  int n = 0;
  for (const Thread& t : threads_) {
    if (t.state != ThreadState::Done) ++n;
  }
  return n;
}

void Kernel::save_context(Thread& t) {
  for (std::uint8_t i = 0; i < 32; ++i) t.regs[i] = cpu_.reg(i);
  t.pc = cpu_.pc();
}

void Kernel::restore_context(const Thread& t) {
  for (std::uint8_t i = 1; i < 32; ++i) cpu_.set_reg(i, t.regs[i]);
  cpu_.set_pc(t.pc);
}

void Kernel::switch_to(int tid) {
  cpu_.add_cycles(config_.context_switch_cycles);
  ++stats_.context_switches;
  restore_context(threads_[static_cast<std::size_t>(tid)]);
  current_ = tid;
  last_scheduled_ = tid;
  timeslice_used_ = 0;
}

bool Kernel::retry_blocked_reads() {
  bool progressed = false;
  for (Thread& t : threads_) {
    if (t.state != ThreadState::Blocked) continue;
    Driver& drv = driver(t.blocked_dev);
    std::vector<std::uint8_t> buf(t.pending_len);
    std::size_t n = drv.read(buf);
    if (n == 0) continue;
    cpu_.mem().write_block(t.pending_buf, std::span<const std::uint8_t>(buf.data(), n));
    t.regs[kA0] = static_cast<std::uint32_t>(n);
    t.state = ThreadState::Ready;
    t.blocked_dev = -1;
    progressed = true;
  }
  return progressed;
}

bool Kernel::wake_due_sleepers() {
  bool woke = false;
  for (Thread& t : threads_) {
    if (t.state == ThreadState::Sleeping && t.wake_cycle <= cpu_.cycles()) {
      t.state = ThreadState::Ready;
      woke = true;
    }
  }
  return woke;
}

std::optional<int> Kernel::pick_ready(int after) const {
  const int n = static_cast<int>(threads_.size());
  for (int step = 1; step <= n; ++step) {
    int tid = (after + step) % n;
    if (tid < 0) tid += n;
    if (threads_[static_cast<std::size_t>(tid)].state == ThreadState::Ready) return tid;
  }
  return std::nullopt;
}

bool Kernel::dispatch_irq() {
  if (in_isr_) return false;
  if (pending_irqs_.empty()) return false;
  const std::uint32_t irq = pending_irqs_.front();
  pending_irqs_.pop_front();
  auto it = irq_handlers_.find(irq);
  if (it == irq_handlers_.end()) {
    // No handler yet: hold the interrupt until one attaches.
    unclaimed_irqs_.push_back(irq);
    return false;
  }
  if (current_ >= 0) {
    save_context(threads_[static_cast<std::size_t>(current_)]);
  }
  interrupted_tid_ = current_;
  in_isr_ = true;
  current_ = -1;
  ++stats_.isr_dispatches;
  cpu_.add_cycles(config_.isr_entry_cycles);
  // Build the ISR execution context directly on the CPU.
  for (std::uint8_t i = 1; i < 32; ++i) cpu_.set_reg(i, 0);
  cpu_.set_reg(kSp, isr_stack_);
  cpu_.set_reg(kRa, iret_stub_);
  cpu_.set_reg(kA0, irq);
  cpu_.set_pc(it->second);
  return true;
}

iss::Cpu::EcallResult Kernel::handle_ecall() {
  ++stats_.syscalls;
  cpu_.add_cycles(config_.syscall_overhead_cycles);
  const std::uint32_t num = cpu_.reg(kA7);
  const std::uint32_t a0 = cpu_.reg(kA0);
  const std::uint32_t a1 = cpu_.reg(kA1);
  const std::uint32_t a2 = cpu_.reg(kA2);
  switch (static_cast<Sys>(num)) {
    case Sys::Exit:
      pending_ = Pending::Exit;
      return iss::Cpu::EcallResult::Halt;
    case Sys::Yield:
      pending_ = Pending::Yield;
      return iss::Cpu::EcallResult::Halt;
    case Sys::Sleep:
      pending_ = Pending::Sleep;
      pending_sleep_ = a0;
      return iss::Cpu::EcallResult::Halt;
    case Sys::DevWrite: {
      if (a0 >= drivers_.size()) {
        cpu_.set_reg(kA0, ~0u);
        return iss::Cpu::EcallResult::Handled;
      }
      auto data = cpu_.mem().read_block(a1, a2);
      std::size_t n = drivers_[a0]->write(data);
      cpu_.set_reg(kA0, static_cast<std::uint32_t>(n));
      return iss::Cpu::EcallResult::Handled;
    }
    case Sys::DevRead: {
      if (a0 >= drivers_.size()) {
        cpu_.set_reg(kA0, ~0u);
        return iss::Cpu::EcallResult::Handled;
      }
      std::vector<std::uint8_t> buf(a2);
      std::size_t n = drivers_[a0]->read(buf);
      if (n > 0) {
        cpu_.mem().write_block(a1, std::span<const std::uint8_t>(buf.data(), n));
        cpu_.set_reg(kA0, static_cast<std::uint32_t>(n));
        return iss::Cpu::EcallResult::Handled;
      }
      pending_ = Pending::BlockRead;
      pending_dev_ = static_cast<int>(a0);
      pending_read_buf_ = a1;
      pending_read_len_ = a2;
      return iss::Cpu::EcallResult::Halt;
    }
    case Sys::IrqAttach: {
      irq_handlers_[a0] = a1;
      // Re-arm any interrupt that arrived before the handler existed.
      auto held = std::partition(unclaimed_irqs_.begin(), unclaimed_irqs_.end(),
                                 [&](std::uint32_t irq) { return irq != a0; });
      pending_irqs_.insert(pending_irqs_.end(), held, unclaimed_irqs_.end());
      unclaimed_irqs_.erase(held, unclaimed_irqs_.end());
      cpu_.set_reg(kA0, 0);
      return iss::Cpu::EcallResult::Handled;
    }
    case Sys::ThreadCreate: {
      int tid = create_thread(a0, a1);
      cpu_.set_reg(kA0, static_cast<std::uint32_t>(tid));
      return iss::Cpu::EcallResult::Handled;
    }
    case Sys::GetTid:
      cpu_.set_reg(kA0, static_cast<std::uint32_t>(current_));
      return iss::Cpu::EcallResult::Handled;
    case Sys::Putc:
      console_.push_back(static_cast<char>(a0));
      return iss::Cpu::EcallResult::Handled;
    case Sys::Iret:
      pending_ = Pending::Iret;
      return iss::Cpu::EcallResult::Halt;
    default:
      cpu_.set_reg(kA0, ~0u);
      return iss::Cpu::EcallResult::Handled;
  }
}

RunStatus Kernel::run(std::uint64_t max_instructions) {
  util::require(!threads_.empty(), "Kernel::run before load");
  const std::uint64_t start = cpu_.instret();
  auto used = [&] { return cpu_.instret() - start; };

  while (used() < max_instructions) {
    dispatch_irq();

    if (current_ < 0 && !in_isr_) {
      retry_blocked_reads();
      wake_due_sleepers();
      auto next = pick_ready(last_scheduled_);
      if (!next) {
        if (live_threads() == 0) return RunStatus::AllDone;
        // Fast-forward to the earliest sleeper if one exists.
        std::uint64_t earliest = ~0ULL;
        for (const Thread& t : threads_) {
          if (t.state == ThreadState::Sleeping) earliest = std::min(earliest, t.wake_cycle);
        }
        if (earliest != ~0ULL) {
          if (earliest > cpu_.cycles()) cpu_.add_cycles(earliest - cpu_.cycles());
          ++stats_.idle_wakeups;
          wake_due_sleepers();
          continue;
        }
        return RunStatus::Idle;  // everything blocked on device I/O
      }
      switch_to(*next);
    }

    const std::uint64_t slice = std::min(config_.slice, max_instructions - used());
    if (slice == 0) break;
    iss::Halt halt = cpu_.run(slice);

    if (halt == iss::Halt::Quantum) {
      timeslice_used_ += slice;
      if (!in_isr_ && timeslice_used_ >= config_.timeslice) {
        // Round-robin preemption when someone else is ready.
        if (pick_ready(current_).value_or(current_) != current_) {
          save_context(threads_[static_cast<std::size_t>(current_)]);
          threads_[static_cast<std::size_t>(current_)].state = ThreadState::Ready;
          current_ = -1;
        } else {
          timeslice_used_ = 0;
        }
      }
      continue;
    }

    if (halt == iss::Halt::Ecall) {
      Pending pending = pending_;
      pending_ = Pending::None;
      if (in_isr_) {
        if (pending == Pending::Iret) {
          in_isr_ = false;
          cpu_.add_cycles(config_.isr_exit_cycles);
          if (interrupted_tid_ >= 0) {
            restore_context(threads_[static_cast<std::size_t>(interrupted_tid_)]);
            current_ = interrupted_tid_;
          }
          interrupted_tid_ = -1;
          continue;
        }
        // Blocking syscalls inside an ISR are a guest bug.
        last_fault_ = iss::Halt::Ecall;
        return RunStatus::Fault;
      }
      Thread& t = threads_[static_cast<std::size_t>(current_)];
      switch (pending) {
        case Pending::Exit:
          t.state = ThreadState::Done;
          break;
        case Pending::Yield:
          save_context(t);
          t.state = ThreadState::Ready;
          break;
        case Pending::Sleep:
          save_context(t);
          t.state = ThreadState::Sleeping;
          t.wake_cycle = cpu_.cycles() + pending_sleep_;
          break;
        case Pending::BlockRead:
          save_context(t);
          t.state = ThreadState::Blocked;
          t.blocked_dev = pending_dev_;
          t.pending_buf = pending_read_buf_;
          t.pending_len = pending_read_len_;
          break;
        case Pending::Iret:
          last_fault_ = iss::Halt::Ecall;  // iret outside ISR: guest bug
          return RunStatus::Fault;
        case Pending::None:
          break;  // handler returned Halt without setting pending: ignore
      }
      current_ = -1;
      continue;
    }

    if (halt == iss::Halt::Ebreak) {
      // Treat ebreak as thread exit: lets bare test programs terminate.
      if (in_isr_) {
        last_fault_ = halt;
        return RunStatus::Fault;
      }
      threads_[static_cast<std::size_t>(current_)].state = ThreadState::Done;
      current_ = -1;
      continue;
    }

    last_fault_ = halt;
    return RunStatus::Fault;
  }
  return RunStatus::Budget;
}

}  // namespace nisc::rtos
