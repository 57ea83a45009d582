// Target-side session orchestration for the three co-simulation schemes.
//
// The paper runs the ISS as a separate host process wired to the SystemC
// simulator over pipes/sockets. We host it in-process as a passive target
// that the SystemC kernel thread steps, over the same kind of file
// descriptors (see DESIGN.md, substitutions): GdbTarget hosts an ISS + GDB
// stub (for the GDB-Wrapper and GDB-Kernel schemes), DriverTarget hosts an
// ISS + eCos-like RTOS + device driver (for the Driver-Kernel scheme).
//
// A target has one entry point, step(), run on the kernel thread after each
// TimeBudget deposit and whenever a kernel-side endpoint sends to it or
// waits for its reply (the endpoint's inline-peer hook), so no guest code
// runs before the first deposit or send. It does work only when the guest
// runs or the target's wire end has news (ipc::Channel::has_news). Both
// targets spend CPU time by the budget's one rule: while the guest runs and
// the budget is ready, run a slice of TimeBudget::kSlice instructions, then
// charge the cycles it cost. A slice therefore runs as soon as the target
// is stepped (for the GDB target, at the 'c' that resumes it), and later
// deposits pay for it.
//
// No wait on a session wire keeps a clock: a reply that is not on the wire
// once the target's step goes idle never comes, so the wait fails at once,
// and every endpoint has I/O timeout 0 (a cut frame or a full pipe fails on
// the spot). Every session captures its kernel-side wire traffic for
// post-mortems.
#pragma once

#include <memory>
#include <string>

#include "cosim/pragma.hpp"
#include "cosim/sc_port_driver.hpp"
#include "cosim/time_budget.hpp"
#include "ipc/capture.hpp"
#include "ipc/channel.hpp"
#include "ipc/fault.hpp"
#include "iss/cpu.hpp"
#include "rsp/client.hpp"
#include "rsp/stub.hpp"
#include "rtos/rtos.hpp"

namespace nisc::cosim {

// ---------------------------------------------------------------------------
// GdbTarget: ISS + GDB stub (GDB-Wrapper / GDB-Kernel).

struct GdbTargetConfig {
  std::size_t mem_size = 1 << 20;
  /// Paper: the GDB-Kernel IPC mechanism is a pipe.
  ipc::Transport transport = ipc::Transport::Pipe;
  /// Fault-injection plan installed on the stub-side endpoint (empty =
  /// healthy transport, zero overhead).
  ipc::FaultPlan fault_plan;
  /// Live wire tap on the client-side endpoint (e.g. an
  /// analysis::LiveConformanceMonitor); null = none.
  std::shared_ptr<ipc::WireObserver> wire_observer;
};

class GdbTarget {
 public:
  /// Assembles `guest_source` (pragmas are filtered per §3.2) and prepares
  /// the stub/client pair; the stub runs only when stepped.
  explicit GdbTarget(const std::string& guest_source, GdbTargetConfig config = {});
  ~GdbTarget();

  GdbTarget(const GdbTarget&) = delete;
  GdbTarget& operator=(const GdbTarget&) = delete;

  const std::vector<BreakpointBinding>& bindings() const noexcept { return bindings_; }
  rsp::GdbClient& client() noexcept { return *client_; }
  TimeBudget& budget() noexcept { return budget_; }
  const rsp::GdbStub& stub() const noexcept { return *stub_; }

  /// Fault-injection stats handle (null without a fault_plan).
  const std::shared_ptr<ipc::FaultState>& fault_state() const noexcept {
    return stub_->channel().faults();
  }

  iss::Cpu& cpu() noexcept { return *cpu_; }

  /// Polls the stub once: it handles pending packets and, while the guest
  /// runs and the budget is ready, runs slices and charges their cycles. A
  /// halted stub whose wire end has no news has nothing to do and is
  /// skipped. A stub that ended closes the budget. Called by budget deposits
  /// and by the client's inline-peer hook. Returns false when the stub is
  /// idle: it did nothing and no request waits on its wire end.
  bool step();

  /// Halts and kills the stub over RSP, then closes the budget (idempotent).
  void shutdown();

 private:
  std::vector<BreakpointBinding> bindings_;
  std::unique_ptr<iss::Cpu> cpu_;
  TimeBudget budget_;
  std::unique_ptr<rsp::GdbStub> stub_;
  std::unique_ptr<rsp::GdbClient> client_;
  bool shut_down_ = false;
};

// ---------------------------------------------------------------------------
// DriverTarget: ISS + RTOS + device driver (Driver-Kernel).

struct DriverTargetConfig {
  std::size_t mem_size = 1 << 20;
  /// Paper: Driver-Kernel uses sockets (data port 4444, interrupt 4445).
  ipc::Transport transport = ipc::Transport::SocketPair;
  rtos::RtosConfig rtos;
  /// iss_in port fed by guest dev_write / iss_out port serving dev_read.
  std::string write_port;
  std::string read_port;
  /// Fault-injection plan installed on the driver-side data endpoint.
  ipc::FaultPlan fault_plan;
  /// Live wire tap on the kernel-side data endpoint (e.g. an
  /// analysis::LiveConformanceMonitor); null = none.
  std::shared_ptr<ipc::WireObserver> wire_observer;
  /// Live wire tap on the target-side interrupt endpoint. Sees every
  /// INTERRUPT as an Rx transfer plus the "ack" wire event reported once the
  /// RTOS took the irq, i.e. exactly the DriverIrq automaton's alphabet (no
  /// flip_direction needed).
  std::shared_ptr<ipc::WireObserver> irq_observer;
};

class DriverTarget {
 public:
  /// Assembles `guest_source` (the RTOS ABI prelude is prepended) and
  /// boots the RTOS with an ScPortDriver as device 0.
  explicit DriverTarget(const std::string& guest_source, DriverTargetConfig config);

  DriverTarget(const DriverTarget&) = delete;
  DriverTarget& operator=(const DriverTarget&) = delete;

  /// Kernel-side endpoints to hand to DriverKernelExtension (call once
  /// each). Sending on them steps this target, which must outlive them.
  ipc::Channel take_data_endpoint();
  ipc::Channel take_interrupt_endpoint();

  rtos::Kernel& kernel() noexcept { return *kernel_; }
  TimeBudget& budget() noexcept { return budget_; }
  iss::Cpu& cpu() noexcept { return *cpu_; }
  const ScPortDriver& driver() const noexcept { return *driver_; }

  /// Fault-injection stats handle (null without a fault_plan).
  const std::shared_ptr<ipc::FaultState>& fault_state() const noexcept {
    return driver_->channel().faults();
  }

  /// Queues the irqs waiting on the interrupt socket, then runs the guest as
  /// far as the allowance reaches, by the budget's pay-after rule. OS
  /// overhead (syscalls, context switches, ISR entry) is charged as cycles
  /// by the RTOS model and slows the guest down in simulated time: the
  /// paper's Figure 7 effect. A guest whose threads all wait on device reads
  /// runs again only for a pending irq or for bytes on the driver's wire
  /// end. Called by budget deposits and by both kernel-side endpoints'
  /// inline-peer hooks. Returns true when it ran the guest.
  bool step();

  /// Ends stepping by closing the budget (idempotent).
  void shutdown() { budget_.close(); }

  /// True once every guest thread exited or the guest faulted.
  bool finished() const noexcept { return finished_; }
  rtos::RunStatus last_status() const noexcept { return last_status_; }

 private:
  std::unique_ptr<iss::Cpu> cpu_;
  std::unique_ptr<rtos::Kernel> kernel_;
  ScPortDriver* driver_ = nullptr;  // owned by kernel_
  TimeBudget budget_;
  ipc::Channel data_kernel_side_;
  ipc::Channel irq_kernel_side_;
  ipc::Channel irq_target_side_;
  bool finished_ = false;
  rtos::RunStatus last_status_ = rtos::RunStatus::Budget;
};

}  // namespace nisc::cosim
