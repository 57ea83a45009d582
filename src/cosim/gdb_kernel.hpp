// GDB-Kernel co-simulation (paper §3): the wrapper embedded in the SystemC
// kernel.
//
// The SystemC simulation kernel is the master. At the beginning of every
// simulation cycle the modified scheduler (here: this kernel extension)
// checks — non-blocking, through the IPC pipe — whether GDB (the stub
// attached to the ISS) is stopped at a breakpoint (paper Fig. 3):
//
//   * breakpoint bound to an iss_in port  -> read the guest variable via
//     the remote protocol, store it in the port, wake its iss_processes;
//   * breakpoint bound to an iss_out port -> copy the port's value into the
//     guest variable before the stopped instruction executes;
//   * then resume the ISS with `continue`.
//
// Unlike the GDB-Wrapper baseline there is no per-cycle blocking round
// trip: while no data crosses the boundary the only cost is one
// non-blocking poll per cycle. A stop whose port is not ready waits, with
// the ISS halted, and each later cycle retries it with one port test.
#pragma once

#include <optional>
#include <vector>

#include "cosim/error.hpp"
#include "cosim/pragma.hpp"
#include "cosim/time_budget.hpp"
#include "rsp/client.hpp"
#include "sysc/iss_port.hpp"
#include "sysc/kernel.hpp"

namespace nisc::cosim {

struct GdbKernelOptions {
  /// CPU cycles per simulated µs (instructions per µs at one cycle per
  /// instruction): the CPU's nominal speed relative to the hardware clock.
  std::uint64_t instructions_per_us = 10000;
};

struct GdbKernelStats {
  std::uint64_t polls = 0;              ///< non-blocking stop checks
  std::uint64_t breakpoint_events = 0;  ///< serviced bindings
  std::uint64_t values_to_sc = 0;       ///< guest variable -> iss_in port
  std::uint64_t values_from_sc = 0;     ///< iss_out port -> guest variable
};

class GdbKernelExtension : public sysc::kernel_extension {
 public:
  /// `client` talks to the stub of the ISS; `budget` (may be null) is
  /// deposited as simulated time advances, which steps the ISS; `bindings`
  /// come from the pragma filter (resolve_bindings).
  GdbKernelExtension(rsp::GdbClient& client, TimeBudget* budget,
                     std::vector<BreakpointBinding> bindings, GdbKernelOptions options = {});

  void on_elaboration(sysc::sc_simcontext& ctx) override;
  void on_cycle_begin(sysc::sc_simcontext& ctx) override;
  void on_time_advance(sysc::sc_simcontext& ctx, const sysc::sc_time& now) override;
  void on_run_end(sysc::sc_simcontext& ctx) override;

  /// True once the guest program hit its final ebreak (or faulted).
  bool target_finished() const noexcept { return finished_; }

  /// Set when the scheme died on its IPC boundary (a reply that never came,
  /// peer gone): the simulation was stopped gracefully and this carries the
  /// wire post-mortem.
  const std::optional<CosimError>& error() const noexcept { return error_; }

  const GdbKernelStats& stats() const noexcept { return stats_; }

 private:
  /// Ends the run on a transport failure: latches a CosimError with the
  /// client channel's wire capture and stops the simulation.
  void fail(sysc::sc_simcontext& ctx, const std::string& what);
  /// The binding of the stop, or null when it is off the binding lines:
  /// the guest finished (ebreak) or faulted, and the session ends.
  const BreakpointBinding* take_stop(const rsp::StopReply& stop);
  /// One RDI round trip: transfers a ready binding's value, then resumes.
  void service(const BreakpointBinding& binding);

  rsp::GdbClient& client_;
  TimeBudget* budget_;
  std::vector<BreakpointBinding> bindings_;
  GdbKernelOptions options_;
  bool finished_ = false;
  std::optional<CosimError> error_;
  /// The binding of a stop whose port was not ready. The ISS stays halted
  /// meanwhile: natural backpressure.
  const BreakpointBinding* waiting_ = nullptr;
  GdbKernelStats stats_;
  /// stats_ values already pushed into the metrics registry (on_run_end
  /// publishes the delta, so the per-cycle poll path stays counter-free).
  GdbKernelStats published_;
};

}  // namespace nisc::cosim
