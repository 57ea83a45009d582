// Driver-Kernel co-simulation (paper §4): the ISS masters the simulation
// through a device driver in its operating system.
//
// SystemC side (this extension, implementing the modified scheduler of
// paper Fig. 5): at the beginning of each simulation cycle it drains the
// *socket data port* (paper: port 4444) —
//     WRITE messages store data into the named iss_in ports and wake their
//     iss_processes; READ messages answer with the named iss_out values —
// and at the end of each cycle it forwards device interrupts on the
// *socket interrupt port* (paper: port 4445).
//
// ISS side: ScPortDriver (cosim/sc_port_driver.hpp) is the device driver
// embedded in the RTOS. Sending on either endpoint steps the hosting
// DriverTarget, which turns interrupt messages into rtos ISR dispatches.
#pragma once

#include <algorithm>
#include <deque>
#include <optional>
#include <vector>

#include "cosim/error.hpp"
#include "cosim/time_budget.hpp"
#include "ipc/message.hpp"
#include "sysc/iss_port.hpp"
#include "sysc/kernel.hpp"

namespace nisc::cosim {

struct DriverKernelOptions {
  /// CPU cycles per simulated µs (instructions per µs at one cycle per
  /// instruction). The RTOS costs are paid out of the same cycles.
  std::uint64_t instructions_per_us = 10000;
  /// Push iss_out values to the driver as soon as hardware writes them
  /// (asynchronous data flow). When false, the driver must send READ
  /// requests.
  bool push_outputs = true;
  /// iss_out ports this extension's driver owns: only these are pushed on
  /// its data socket. Empty = all output ports (single-CPU setups). In
  /// multi-processor designs each CPU's extension must list its own ports,
  /// or the first extension would consume every CPU's data. Resolved once,
  /// at elaboration; a name that matches no iss_out port is a LogicError.
  std::vector<std::string> owned_ports;
  /// IRQ number announced on the interrupt socket whenever a cycle pushed
  /// fresh iss_out data to this driver — paper Fig. 5's "interrupt
  /// generated?" edge as a data-arrival notification. Negative disables it
  /// (the driver then learns of data only by draining its data socket).
  int data_irq = -1;
};

struct DriverKernelStats {
  std::uint64_t messages_in = 0;    ///< WRITE/READ frames from the driver
  std::uint64_t messages_out = 0;   ///< READ-REPLY frames to the driver
  std::uint64_t interrupts_sent = 0;
  std::uint64_t words_delivered = 0;
};

/// SystemC-kernel-side endpoint of the Driver-Kernel scheme.
class DriverKernelExtension : public sysc::kernel_extension {
 public:
  /// `data` and `interrupts` are the kernel-side endpoints of the data and
  /// interrupt sockets; `budget` (may be null) meters the ISS and is closed
  /// when the session quiesces.
  DriverKernelExtension(ipc::Channel data, ipc::Channel interrupts, TimeBudget* budget,
                        DriverKernelOptions options = {});

  void on_elaboration(sysc::sc_simcontext& ctx) override;
  void on_cycle_begin(sysc::sc_simcontext& ctx) override;
  void on_cycle_end(sysc::sc_simcontext& ctx) override;
  void on_time_advance(sysc::sc_simcontext& ctx, const sysc::sc_time& now) override;
  void on_run_end(sysc::sc_simcontext& ctx) override;

  /// Queues a device interrupt; it is sent on the interrupt socket at the
  /// end of the current cycle (paper Fig. 5). Callable from SystemC
  /// processes.
  void post_interrupt(std::uint32_t irq) { pending_interrupts_.push_back(irq); }

  /// True once the offload port died and was quiesced: the extension stops
  /// exchanging messages but the simulation (router, other CPUs' ports)
  /// keeps running — graceful degradation instead of teardown.
  bool quiesced() const noexcept { return quiesced_; }

  /// The failure that caused the quiesce, with the data-port wire
  /// post-mortem. Unset while healthy.
  const std::optional<CosimError>& error() const noexcept { return error_; }

  const DriverKernelStats& stats() const noexcept { return stats_; }

 private:
  void handle_message(sysc::sc_simcontext& ctx, const ipc::DriverMessage& msg);

  /// Shuts the data/interrupt ports down after a transport failure, closes
  /// the budget (which ends the guest's stepping) and latches a CosimError;
  /// idempotent.
  void quiesce(const std::string& reason);

  ipc::Channel data_;
  ipc::Channel interrupts_;
  TimeBudget* budget_;
  DriverKernelOptions options_;
  /// The owned iss_out ports, in registration order (on_elaboration).
  std::vector<sysc::iss_port_base*> owned_;
  std::deque<std::uint32_t> pending_interrupts_;
  /// Messages whose target port is still draining a previous delivery.
  std::deque<ipc::DriverMessage> backlog_;
  bool quiesced_ = false;
  std::optional<CosimError> error_;
  DriverKernelStats stats_;
  /// stats_ values already pushed into the metrics registry (the delta is
  /// published once per run() from on_run_end).
  DriverKernelStats published_;
};

}  // namespace nisc::cosim
