#include "cosim/gdb_kernel.hpp"

#include <chrono>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace nisc::cosim {

GdbKernelExtension::GdbKernelExtension(rsp::GdbClient& client, TimeBudget* budget,
                                       std::vector<BreakpointBinding> bindings,
                                       GdbKernelOptions options)
    : client_(client), budget_(budget), bindings_(std::move(bindings)), options_(options) {}

void GdbKernelExtension::on_elaboration(sysc::sc_simcontext& ctx) {
  // Configuration mistakes (a binding to a missing or wrong-direction port)
  // propagate as LogicError. Then install the breakpoints on the halted
  // target and resume it.
  bind_ports(bindings_, ctx, "GdbKernel");
  // Transport faults during bring-up end the run with a structured error,
  // like any mid-run failure.
  try {
    for (const BreakpointBinding& b : bindings_) client_.set_breakpoint(b.breakpoint_addr);
    client_.cont();
  } catch (const util::RuntimeError& e) {
    fail(ctx, e.what());
  }
}

void GdbKernelExtension::on_time_advance(sysc::sc_simcontext&, const sysc::sc_time& now) {
  if (budget_ != nullptr) budget_->advance_to(now.ps(), options_.instructions_per_us);
}

void GdbKernelExtension::fail(sysc::sc_simcontext& ctx, const std::string& what) {
  finished_ = true;
  if (budget_ != nullptr) budget_->close();
  error_ = make_cosim_error("gdb-kernel", what, client_.channel().capture());
  NISC_ERROR("gdb-kernel") << "transport failure, ending simulation: " << what;
  ctx.stop();
}

void GdbKernelExtension::on_cycle_begin(sysc::sc_simcontext& ctx) {
  if (finished_) return;
  ++stats_.polls;
  // Service stops as long as their ports are ready; a stop whose port is
  // not keeps waiting, with the ISS halted (backpressure instead of value
  // loss), and costs one port test per cycle.
  try {
    for (;;) {
      if (waiting_ == nullptr) {
        if (!client_.running()) return;
        auto stop = client_.poll_stop();
        if (!stop) return;
        waiting_ = take_stop(*stop);
        if (waiting_ == nullptr) return;  // the session ended
      }
      if (!ready(*waiting_)) return;
      service(*waiting_);
      waiting_ = nullptr;
    }
  } catch (const util::RuntimeError& e) {
    fail(ctx, e.what());
  }
}

const BreakpointBinding* GdbKernelExtension::take_stop(const rsp::StopReply& stop) {
  const std::uint32_t pc = stop.pc ? *stop.pc : client_.read_pc();
  const BreakpointBinding* binding = stop.signal == 5 ? binding_at(bindings_, pc) : nullptr;
  if (binding == nullptr) {
    finished_ = true;
    if (budget_ != nullptr) budget_->close();  // never consuming again
    NISC_INFO("gdb-kernel") << "target finished at pc=0x" << std::hex << pc << " signal "
                            << std::dec << stop.signal;
  }
  return binding;
}

void GdbKernelExtension::service(const BreakpointBinding& binding) {
  // The span and the histogram cover the round trip from the transfer to
  // the continue; a stop waiting for its port is not timed.
  obs::ScopedSpan span("cosim.rdi_roundtrip", "cosim");
  const auto roundtrip_begin = std::chrono::steady_clock::now();
  transfer(binding, client_);
  ++(binding.direction == BindDirection::IssToSc ? stats_.values_to_sc : stats_.values_from_sc);
  ++stats_.breakpoint_events;
  obs::instant("cosim.breakpoint", "cosim", "pc", binding.breakpoint_addr);
  client_.cont();
  static obs::Histogram& h_roundtrip =
      obs::histogram("cosim.gdbk.roundtrip_us", obs::default_us_bounds());
  h_roundtrip.observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                            roundtrip_begin)
          .count()));
}

void GdbKernelExtension::on_run_end(sysc::sc_simcontext&) {
  // Batched publication: the per-cycle poll path touches only stats_ (plain
  // uint64 increments); the registry sees one delta per run() call.
  static obs::Counter& c_polls = obs::counter("cosim.gdbk.polls");
  static obs::Counter& c_breakpoints = obs::counter("cosim.gdbk.breakpoints");
  static obs::Counter& c_to_sc = obs::counter("cosim.gdbk.values_to_sc");
  static obs::Counter& c_from_sc = obs::counter("cosim.gdbk.values_from_sc");
  c_polls.add(stats_.polls - published_.polls);
  c_breakpoints.add(stats_.breakpoint_events - published_.breakpoint_events);
  c_to_sc.add(stats_.values_to_sc - published_.values_to_sc);
  c_from_sc.add(stats_.values_from_sc - published_.values_from_sc);
  published_ = stats_;
}

}  // namespace nisc::cosim
