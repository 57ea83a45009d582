// GDB-Wrapper co-simulation: the state-of-the-art baseline of Benini et al.
// (IEEE Computer 2003, paper ref. [14]) that both proposed schemes improve
// upon.
//
// The wrapper is an ordinary SystemC module the hardware designer must
// instantiate explicitly. An sc_method sensitive to the clock drives the
// communication: ISS and SystemC evolve in *lock-step*, with every cycle's
// synchronization mediated by the host OS through a blocking IPC round trip
// over the GDB remote protocol — the bottleneck the paper's Table 1
// quantifies. Two lock-step granularities are provided:
//
//   * Quantum (default, the [14] model): one blocking round trip per clock
//     cycle runs the ISS for at most `instructions_per_cycle` instructions
//     (vendor packet qnisc.run), stopping early at breakpoints;
//   * SingleStep (ablation): one blocking `s` round trip per instruction.
//
// Variable<->port bindings are serviced whenever the ISS stops on a
// breakpoint line, by the rule the GDB-Kernel scheme uses (cosim/pragma.hpp:
// ports bound at elaboration, one readiness test, one transfer). A binding
// whose port is not ready holds the ISS at its line; each later cycle still
// pays its blocking round trip.
#pragma once

#include <optional>
#include <vector>

#include "cosim/error.hpp"
#include "cosim/pragma.hpp"
#include "rsp/client.hpp"
#include "sysc/iss_port.hpp"
#include "sysc/sc_module.hpp"
#include "sysc/sc_port.hpp"

namespace nisc::cosim {

enum class LockstepMode : std::uint8_t { Quantum, SingleStep };

struct GdbWrapperOptions {
  /// ISS instructions allowed per clock posedge (the lock-step ratio).
  std::uint64_t instructions_per_cycle = 8;
  LockstepMode mode = LockstepMode::Quantum;
};

struct GdbWrapperStats {
  std::uint64_t cycles = 0;             ///< wrapper activations
  std::uint64_t steps = 0;              ///< blocking RSP round trips (sync)
  std::uint64_t breakpoint_events = 0;
  std::uint64_t values_to_sc = 0;
  std::uint64_t values_from_sc = 0;
};

class GdbWrapperModule : public sysc::sc_module {
 public:
  GdbWrapperModule(std::string name, rsp::GdbClient& client,
                   std::vector<BreakpointBinding> bindings, GdbWrapperOptions options = {});

  /// Clock driving the lock-step (bind before elaboration).
  sysc::sc_in<bool> clk{"clk"};

  bool target_finished() const noexcept { return finished_; }

  /// Set when the lock-step transport died (a reply that never came, peer
  /// gone): the simulation was stopped and this carries the wire
  /// post-mortem.
  const std::optional<CosimError>& error() const noexcept { return error_; }

  const GdbWrapperStats& stats() const noexcept { return stats_; }

  void on_elaboration() override;

 private:
  void cycle();
  void fail(const std::string& what);
  void cycle_quantum();
  void cycle_single_step();
  /// Counts one blocking lock-step round trip.
  void count_step();
  /// Handles one stop; returns true when the wrapper should end this cycle.
  bool handle_stop(std::uint32_t pc, int signal);
  /// Transfers the binding's value if its port is ready, else holds the ISS
  /// at the binding; returns true when the wrapper should end this cycle.
  bool service(const BreakpointBinding& binding);

  rsp::GdbClient& client_;
  std::vector<BreakpointBinding> bindings_;
  GdbWrapperOptions options_;
  const BreakpointBinding* pending_binding_ = nullptr;
  bool finished_ = false;
  std::optional<CosimError> error_;
  GdbWrapperStats stats_;
};

}  // namespace nisc::cosim
