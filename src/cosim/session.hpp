// Target-side session orchestration for the three co-simulation schemes.
//
// The paper runs the ISS as a separate host process wired to the SystemC
// simulator over pipes/sockets. We run it on a dedicated host *thread* over
// the same kind of file descriptors (see DESIGN.md, substitutions): GdbTarget
// hosts an ISS + GDB stub (for the GDB-Wrapper and GDB-Kernel schemes),
// DriverTarget hosts an ISS + eCos-like RTOS + device driver (for the
// Driver-Kernel scheme).
//
// The target thread closes its TimeBudget on every exit, so a SystemC side
// waiting on the reverse throttle is released the moment the ISS side ends.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "cosim/driver_kernel.hpp"
#include "cosim/pragma.hpp"
#include "cosim/time_budget.hpp"
#include "ipc/capture.hpp"
#include "ipc/channel.hpp"
#include "ipc/fault.hpp"
#include "iss/cpu.hpp"
#include "iss/program.hpp"
#include "rsp/client.hpp"
#include "rsp/stub.hpp"
#include "rtos/rtos.hpp"

namespace nisc::cosim {

// ---------------------------------------------------------------------------
// GdbTarget: ISS + GDB stub on a target thread (GDB-Wrapper / GDB-Kernel).

struct GdbTargetConfig {
  std::size_t mem_size = 1 << 20;
  /// Paper: the GDB-Kernel IPC mechanism is a pipe.
  ipc::Transport transport = ipc::Transport::Pipe;
  /// Meter ISS execution against a TimeBudget fed by the SystemC side.
  bool throttled = true;
  /// Fault-injection plan installed on the stub-side endpoint (empty =
  /// healthy transport, zero overhead).
  ipc::FaultPlan fault_plan;
  /// Ring-buffer the client-side wire traffic for post-mortems.
  bool capture_wire = true;
  /// Live wire tap on the client-side endpoint (e.g. an
  /// analysis::LiveConformanceMonitor); null = none.
  std::shared_ptr<ipc::WireObserver> wire_observer;
  /// Client reply deadline (see rsp::ClientOptions).
  int reply_timeout_ms = 10000;
  /// Hard deadline on every blocking channel send/recv.
  int io_timeout_ms = 30000;
};

class GdbTarget {
 public:
  /// Assembles `guest_source` (pragmas are filtered per §3.2) and prepares
  /// the stub/client pair. Call start() to launch the target thread.
  explicit GdbTarget(const std::string& guest_source, GdbTargetConfig config = {});
  ~GdbTarget();

  GdbTarget(const GdbTarget&) = delete;
  GdbTarget& operator=(const GdbTarget&) = delete;

  const iss::Program& program() const noexcept { return program_; }
  const std::vector<BreakpointBinding>& bindings() const noexcept { return bindings_; }
  rsp::GdbClient& client() noexcept { return *client_; }
  TimeBudget& budget() noexcept { return budget_; }
  const rsp::GdbStub& stub() const noexcept { return *stub_; }

  /// Fault-injection stats handle (null without a fault_plan).
  const std::shared_ptr<ipc::FaultState>& fault_state() const noexcept { return fault_state_; }
  /// Client-side wire capture (null when capture_wire is off).
  const std::shared_ptr<ipc::WireCapture>& capture() const noexcept { return capture_; }

  /// The CPU is owned by the target thread while running; inspect it only
  /// before start() or after shutdown().
  iss::Cpu& cpu() noexcept { return *cpu_; }

  /// Launches the stub on the target thread.
  void start();

  /// Stops the target and joins the thread (idempotent).
  void shutdown();

 private:
  GdbTargetConfig config_;
  iss::Program program_;
  std::vector<BreakpointBinding> bindings_;
  std::unique_ptr<iss::Cpu> cpu_;
  TimeBudget budget_;
  std::unique_ptr<rsp::GdbStub> stub_;
  std::unique_ptr<rsp::GdbClient> client_;
  std::shared_ptr<ipc::FaultState> fault_state_;
  std::shared_ptr<ipc::WireCapture> capture_;
  std::thread thread_;
  bool started_ = false;
  bool shut_down_ = false;
};

// ---------------------------------------------------------------------------
// DriverTarget: ISS + RTOS + device driver on a target thread (Driver-Kernel).

struct DriverTargetConfig {
  std::size_t mem_size = 1 << 20;
  /// Paper: Driver-Kernel uses sockets (data port 4444, interrupt 4445).
  ipc::Transport transport = ipc::Transport::SocketPair;
  rtos::RtosConfig rtos;
  /// iss_in port fed by guest dev_write / iss_out port serving dev_read.
  std::string write_port;
  std::string read_port;
  bool throttled = true;
  /// Fault-injection plan installed on the driver-side data endpoint.
  ipc::FaultPlan fault_plan;
  /// Ring-buffer the kernel-side data traffic for post-mortems.
  bool capture_wire = true;
  /// Live wire tap on the kernel-side data endpoint (e.g. an
  /// analysis::LiveConformanceMonitor); null = none.
  std::shared_ptr<ipc::WireObserver> wire_observer;
  /// Live wire tap on the pump-side interrupt endpoint. Sees every
  /// INTERRUPT as an Rx transfer plus the pump's "ack" wire event, i.e.
  /// exactly the DriverIrq automaton's alphabet (no flip_direction needed).
  std::shared_ptr<ipc::WireObserver> irq_observer;
  /// Hard deadline on every blocking channel send/recv.
  int io_timeout_ms = 30000;
};

class DriverTarget {
 public:
  /// Guest instructions the RTOS runs per slice before the target thread
  /// pays the slice's cycle cost against the budget.
  static constexpr std::uint64_t kRunQuantum = 2048;

  /// Assembles `guest_source` (the RTOS ABI prelude is prepended) and
  /// boots the RTOS with an ScPortDriver as device 0.
  explicit DriverTarget(const std::string& guest_source, DriverTargetConfig config);
  ~DriverTarget();

  DriverTarget(const DriverTarget&) = delete;
  DriverTarget& operator=(const DriverTarget&) = delete;

  /// Kernel-side endpoints to hand to DriverKernelExtension (call once each,
  /// before start()).
  ipc::Channel take_data_endpoint();
  ipc::Channel take_interrupt_endpoint();

  const iss::Program& program() const noexcept { return program_; }
  rtos::Kernel& kernel() noexcept { return *kernel_; }
  TimeBudget& budget() noexcept { return budget_; }
  iss::Cpu& cpu() noexcept { return *cpu_; }
  const ScPortDriver& driver() const noexcept { return *driver_; }

  /// Fault-injection stats handle (null without a fault_plan).
  const std::shared_ptr<ipc::FaultState>& fault_state() const noexcept { return fault_state_; }
  /// Kernel-side data-port wire capture (null when capture_wire is off).
  const std::shared_ptr<ipc::WireCapture>& capture() const noexcept { return capture_; }

  /// Launches the RTOS scheduling loop and the interrupt listener thread.
  void start();

  /// Stops the target and joins all threads (idempotent).
  void shutdown();

  /// True once every guest thread exited.
  bool finished() const noexcept { return finished_.load(); }
  rtos::RunStatus last_status() const noexcept { return last_status_.load(); }

 private:
  void run_loop();

  DriverTargetConfig config_;
  iss::Program program_;
  std::unique_ptr<iss::Cpu> cpu_;
  std::unique_ptr<rtos::Kernel> kernel_;
  ScPortDriver* driver_ = nullptr;  // owned by kernel_
  TimeBudget budget_;
  ipc::Channel data_kernel_side_;
  ipc::Channel irq_kernel_side_;
  ipc::Channel irq_target_side_;
  std::shared_ptr<ipc::FaultState> fault_state_;
  std::shared_ptr<ipc::WireCapture> capture_;
  std::unique_ptr<InterruptPump> pump_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> finished_{false};
  std::atomic<rtos::RunStatus> last_status_{rtos::RunStatus::Budget};
  bool started_ = false;
  bool shut_down_ = false;
};

}  // namespace nisc::cosim
