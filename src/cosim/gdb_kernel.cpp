#include "cosim/gdb_kernel.hpp"

#include <chrono>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace nisc::cosim {

GdbKernelExtension::GdbKernelExtension(rsp::GdbClient& client, TimeBudget* budget,
                                       std::vector<BreakpointBinding> bindings,
                                       GdbKernelOptions options)
    : client_(client), budget_(budget), bindings_(std::move(bindings)), options_(options) {
  for (const BreakpointBinding& b : bindings_) by_addr_[b.breakpoint_addr] = &b;
}

void GdbKernelExtension::on_elaboration(sysc::sc_simcontext& ctx) {
  // Validate that every binding references an existing iss port of the
  // right direction (configuration mistakes propagate as LogicError), then
  // install the breakpoints on the halted target and resume it.
  for (const BreakpointBinding& b : bindings_) {
    sysc::iss_port_base* port = ctx.find_iss_port(b.port);
    util::require(port != nullptr, "GdbKernel: no iss port named " + b.port);
    if (b.direction == BindDirection::IssToSc) {
      util::require(port->is_input(), "GdbKernel: binding " + b.variable +
                                          " targets non-input port " + b.port);
    } else {
      util::require(!port->is_input(), "GdbKernel: binding " + b.variable +
                                           " reads from non-output port " + b.port);
    }
  }
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
  // Service stops as long as the involved ports can absorb them; a stop
  // whose port is still draining stays deferred (the ISS remains halted:
  // backpressure instead of value loss).
  try {
    for (;;) {
      if (!deferred_stop_) {
        if (!client_.running()) return;
        deferred_stop_ = client_.poll_stop();
        if (!deferred_stop_) return;
      }
      if (!service_stop(ctx, *deferred_stop_)) return;  // still deferred
      deferred_stop_.reset();
      if (finished_) return;
    }
  } catch (const util::RuntimeError& e) {
    fail(ctx, e.what());
  }
}

bool GdbKernelExtension::on_starvation(sysc::sc_simcontext& ctx) {
  if (finished_) return false;
  try {
    if (deferred_stop_) {
      // A transfer is waiting (port draining, or no fresh hardware value).
      // Starvation means all processes ran: retry once; if it still cannot
      // be serviced the design is genuinely deadlocked and the run ends.
      if (!service_stop(ctx, *deferred_stop_)) return false;
      deferred_stop_.reset();
      return true;
    }
    if (!client_.running()) return false;
    // Nothing else can make progress: grant the ISS a microsecond of slack
    // (the deposit runs it at once) and take the stop it reached, if any.
    if (budget_ != nullptr) budget_->deposit(options_.instructions_per_us);
    auto stop = client_.poll_stop();
    if (!stop) return false;
    if (!service_stop(ctx, *stop)) deferred_stop_ = *stop;
    return true;
  } catch (const util::RuntimeError& e) {
    fail(ctx, e.what());
    return false;
  }
}

bool GdbKernelExtension::service_stop(sysc::sc_simcontext& ctx, const rsp::StopReply& stop) {
  // One RDI round trip: stop reply in hand -> transfer serviced -> continue.
  // The span covers the whole servicing (including deferred early-outs); the
  // histogram only records completed round trips (those that reach cont()).
  obs::ScopedSpan span("cosim.rdi_roundtrip", "cosim");
  const auto roundtrip_begin = std::chrono::steady_clock::now();
  const std::uint32_t pc = stop.pc ? *stop.pc : client_.read_pc();
  auto it = by_addr_.find(pc);
  if (it == by_addr_.end() || stop.signal != 5) {
    // Not one of our breakpoints: the guest finished (ebreak) or faulted.
    finished_ = true;
    if (budget_ != nullptr) budget_->close();  // never consuming again
    NISC_INFO("gdb-kernel") << "target finished at pc=0x" << std::hex << pc << " signal "
                            << std::dec << stop.signal;
    return true;
  }
  const BreakpointBinding& binding = *it->second;
  sysc::iss_port_base* port = ctx.find_iss_port(binding.port);
  if (binding.direction == BindDirection::IssToSc) {
    if (!port->accepts_delivery()) return false;  // defer; ISS stays halted
    // The guest just wrote the variable: fetch it and feed the iss_in port.
    auto bytes = client_.read_memory(binding.variable_addr, binding.width);
    port->deliver_bytes(bytes);
    ++stats_.values_to_sc;
  } else {
    // The guest is about to read the variable: inject the port's value.
    // Freshness gate: the guest waits — halted — until the hardware writes
    // a value it has not consumed yet: flow control.
    if (!port->has_fresh_value()) return false;
    auto bytes = port->peek_bytes();
    client_.write_memory(binding.variable_addr, bytes);
    port->consume_fresh();
    ++stats_.values_from_sc;
  }
  ++stats_.breakpoint_events;
  obs::instant("cosim.breakpoint", "cosim", "pc", pc);
  client_.cont();
  static obs::Histogram& h_roundtrip =
      obs::histogram("cosim.gdbk.roundtrip_us", obs::default_us_bounds());
  h_roundtrip.observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                            roundtrip_begin)
          .count()));
  return true;
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
