#include "cosim/gdb_wrapper.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace nisc::cosim {

GdbWrapperModule::GdbWrapperModule(std::string name, rsp::GdbClient& client,
                                   std::vector<BreakpointBinding> bindings,
                                   GdbWrapperOptions options)
    : sc_module(std::move(name)), client_(client), bindings_(std::move(bindings)),
      options_(options) {
  util::require(options_.instructions_per_cycle > 0, "GdbWrapper: zero lock-step ratio");
  declare_method("cycle", &GdbWrapperModule::cycle);
  sensitive << clk.pos();
  dont_initialize();
}

void GdbWrapperModule::on_elaboration() {
  sc_module::on_elaboration();
  // Configuration mistakes propagate as LogicError, as under GDB-Kernel.
  bind_ports(bindings_, context(), "GdbWrapper");
  // Quantum mode relies on target-side breakpoints to stop at binding lines.
  // A transport fault this early ends the run with a structured error, the
  // same as a mid-run failure.
  try {
    for (const BreakpointBinding& b : bindings_) client_.set_breakpoint(b.breakpoint_addr);
  } catch (const util::RuntimeError& e) {
    fail(e.what());
  }
}

void GdbWrapperModule::fail(const std::string& what) {
  finished_ = true;
  error_ = make_cosim_error("gdb-wrapper", what, client_.channel().capture());
  NISC_ERROR("gdb-wrapper") << "transport failure, ending simulation: " << what;
  context().stop();
}

void GdbWrapperModule::cycle() {
  if (finished_) return;
  ++stats_.cycles;
  // Every lock-step cycle already pays at least one blocking RSP round
  // trip, so direct counter adds are noise here (unlike the kernel-embedded
  // schemes, which batch).
  static obs::Counter& c_cycles = obs::counter("cosim.gdbw.cycles");
  c_cycles.add(1);
  obs::ScopedSpan span("cosim.lockstep_cycle", "cosim", "cycle", stats_.cycles);
  try {
    // A binding that could not be serviced yet (the hardware has not
    // produced a fresh value): the ISS holds at its breakpoint line until it
    // can. The per-cycle lock-step synchronization still happens — in [14]
    // the host OS mediates ISS<->SystemC synchronization through IPC on
    // *every* cycle, which is precisely the overhead the proposed schemes
    // remove.
    if (pending_binding_ != nullptr) {
      if (!ready(*pending_binding_)) {
        (void)client_.read_pc();  // blocking sync round trip, result unused
        count_step();
        return;
      }
      if (service(*pending_binding_)) return;
    }
    if (options_.mode == LockstepMode::Quantum) {
      cycle_quantum();
    } else {
      cycle_single_step();
    }
  } catch (const util::RuntimeError& e) {
    fail(e.what());
  }
}

void GdbWrapperModule::count_step() {
  ++stats_.steps;
  static obs::Counter& c_steps = obs::counter("cosim.gdbw.steps");
  c_steps.add(1);
}

void GdbWrapperModule::cycle_quantum() {
  // One blocking round trip: the per-cycle lock-step synchronization.
  rsp::StopReply stop = client_.run_quantum(options_.instructions_per_cycle);
  count_step();
  if (stop.signal == 0) return;  // quantum exhausted, still running
  const std::uint32_t pc = stop.pc ? *stop.pc : client_.read_pc();
  handle_stop(pc, stop.signal);
}

void GdbWrapperModule::cycle_single_step() {
  std::uint32_t prev_pc = ~0u;
  for (std::uint64_t i = 0; i < options_.instructions_per_cycle; ++i) {
    // One blocking RSP round trip per instruction.
    rsp::StopReply stop = client_.step();
    count_step();
    const std::uint32_t pc = stop.pc ? *stop.pc : client_.read_pc();
    if (pc == prev_pc) {
      // No forward progress: the guest sits on its final ebreak.
      finished_ = true;
      NISC_INFO("gdb-wrapper") << "target finished at pc=0x" << std::hex << pc;
      return;
    }
    prev_pc = pc;
    if (binding_at(bindings_, pc) != nullptr && handle_stop(pc, stop.signal)) return;
  }
}

bool GdbWrapperModule::handle_stop(std::uint32_t pc, int signal) {
  const BreakpointBinding* binding = binding_at(bindings_, pc);
  if (binding == nullptr || signal != 5) {
    // Stopped somewhere that is not a binding line: the guest finished
    // (ebreak) or faulted.
    finished_ = true;
    NISC_INFO("gdb-wrapper") << "target finished at pc=0x" << std::hex << pc << " signal "
                             << std::dec << signal;
    return true;
  }
  return service(*binding);
}

bool GdbWrapperModule::service(const BreakpointBinding& binding) {
  if (!ready(binding)) {
    pending_binding_ = &binding;
    return true;
  }
  pending_binding_ = nullptr;
  transfer(binding, client_);
  ++(binding.direction == BindDirection::IssToSc ? stats_.values_to_sc : stats_.values_from_sc);
  ++stats_.breakpoint_events;
  static obs::Counter& c_breakpoints = obs::counter("cosim.gdbw.breakpoints");
  c_breakpoints.add(1);
  obs::instant("cosim.breakpoint", "cosim", "pc", binding.breakpoint_addr);
  // A delivered value wakes its iss_process in the next delta; end the
  // cycle so the next delivery comes at a later clock edge, after it ran.
  return binding.direction == BindDirection::IssToSc;
}

}  // namespace nisc::cosim
