#include "router/testbench.hpp"

#include <algorithm>
#include <chrono>

namespace nisc::router {

const char* scheme_name(Scheme scheme) noexcept {
  switch (scheme) {
    case Scheme::GdbWrapper: return "GDB-Wrapper";
    case Scheme::GdbKernel: return "GDB-Kernel";
    case Scheme::DriverKernel: return "Driver-Kernel";
  }
  return "?";
}

Testbench::Testbench(TestbenchConfig config) : config_(config) {
  ctx_ = std::make_unique<sysc::sc_simcontext>();
  clock_ = &ctx_->create<sysc::sc_clock>("clk", config_.clock_period);

  const OffloadMode mode = config_.scheme == Scheme::DriverKernel ? OffloadMode::BulkPacket
                                                                  : OffloadMode::WordStream;
  util::require(config_.num_cpus >= 1, "Testbench: need at least one CPU");
  router_ = &ctx_->create<Router>("router",
                                  RoutingTable::uniform(kNumPorts, config_.address_space), mode,
                                  config_.fifo_capacity, config_.num_cpus);

  util::require(config_.num_producers >= 1 && config_.num_producers <= kNumPorts,
                "Testbench: 1..4 producers");
  for (int i = 0; i < config_.num_producers; ++i) {
    ProducerConfig pc;
    pc.port = i;
    pc.delay = config_.inter_packet_delay;
    pc.num_packets = config_.packets_per_producer;
    pc.seed = config_.seed + static_cast<std::uint64_t>(i) * 7919;
    pc.address_space = config_.address_space;
    producers_.push_back(&ctx_->create<Producer>("producer" + std::to_string(i),
                                                 router_->input(i), router_->enqueue_event(), pc));
  }
  for (int i = 0; i < kNumPorts; ++i) {
    consumers_.push_back(
        &ctx_->create<Consumer>("consumer" + std::to_string(i), router_->output(i)));
  }

  for (int cpu = 0; cpu < config_.num_cpus; ++cpu) {
    switch (config_.scheme) {
      case Scheme::GdbKernel: {
        cosim::GdbTargetConfig tc;
        tc.transport = config_.transport.value_or(ipc::Transport::Pipe);
        tc.fault_plan = config_.fault_plan;
        tc.wire_observer = config_.wire_observer;
        auto target = std::make_unique<cosim::GdbTarget>(
            word_stream_checksum_source(router_->to_cpu_port_name(cpu),
                                        router_->from_cpu_port_name(cpu)),
            tc);
        cosim::GdbKernelOptions options;
        options.instructions_per_us = config_.instructions_per_us;
        auto ext = std::make_unique<cosim::GdbKernelExtension>(
            target->client(), &target->budget(), target->bindings(), options);
        ctx_->register_extension(ext.get());
        gdb_targets_.push_back(std::move(target));
        gdb_exts_.push_back(std::move(ext));
        break;
      }
      case Scheme::GdbWrapper: {
        cosim::GdbTargetConfig tc;
        tc.transport = config_.transport.value_or(ipc::Transport::Pipe);
        tc.fault_plan = config_.fault_plan;
        tc.wire_observer = config_.wire_observer;
        auto target = std::make_unique<cosim::GdbTarget>(
            word_stream_checksum_source(router_->to_cpu_port_name(cpu),
                                        router_->from_cpu_port_name(cpu)),
            tc);
        cosim::GdbWrapperOptions options;
        options.instructions_per_cycle = std::max<std::uint64_t>(
            1, config_.instructions_per_us * config_.clock_period.ps() / 1000000);
        auto& wrapper = ctx_->create<cosim::GdbWrapperModule>(
            "wrapper" + std::to_string(cpu), target->client(), target->bindings(), options);
        wrapper.clk.bind(clock_->signal());
        wrappers_.push_back(&wrapper);
        gdb_targets_.push_back(std::move(target));
        break;
      }
      case Scheme::DriverKernel: {
        cosim::DriverTargetConfig dc;
        dc.transport = config_.transport.value_or(ipc::Transport::SocketPair);
        dc.rtos = config_.rtos;
        dc.fault_plan = config_.fault_plan;
        dc.wire_observer = config_.wire_observer;
        dc.irq_observer = config_.irq_observer;
        dc.write_port = router_->from_cpu_port_name(cpu);
        dc.read_port = router_->to_cpu_port_name(cpu);
        auto target = std::make_unique<cosim::DriverTarget>(bulk_checksum_source(), dc);
        cosim::DriverKernelOptions options;
        options.instructions_per_us = config_.instructions_per_us;
        options.owned_ports = {router_->to_cpu_port_name(cpu)};
        // Announce every pushed packet on the interrupt socket so the
        // DriverIrq delivery/acknowledge cycle is exercised (and can be
        // live-monitored) in every Driver-Kernel cell.
        options.data_irq = static_cast<int>(cpu);
        auto ext = std::make_unique<cosim::DriverKernelExtension>(
            target->take_data_endpoint(), target->take_interrupt_endpoint(),
            &target->budget(), options);
        ctx_->register_extension(ext.get());
        driver_targets_.push_back(std::move(target));
        driver_exts_.push_back(std::move(ext));
        break;
      }
    }
  }
}

Testbench::~Testbench() { shutdown(); }

void Testbench::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  for (auto& target : gdb_targets_) target->shutdown();
  for (auto& target : driver_targets_) target->shutdown();
  for (auto& ext : gdb_exts_) ctx_->unregister_extension(ext.get());
  for (auto& ext : driver_exts_) ctx_->unregister_extension(ext.get());
}

void Testbench::run_for(sysc::sc_time duration) {
  util::require(!shut_down_, "Testbench: run after shutdown");
  auto start = std::chrono::steady_clock::now();
  ctx_->run(duration);
  wall_seconds_ += std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

void Testbench::run_until_drained(sysc::sc_time max_duration, sysc::sc_time window) {
  util::require(config_.packets_per_producer > 0,
                "run_until_drained needs bounded producers");
  const sysc::sc_time end = ctx_->time_stamp() + max_duration;
  std::uint64_t last_moves = ~std::uint64_t{0};
  while (ctx_->time_stamp() < end) {
    run_for(window);
    TestbenchReport r = report();
    bool producers_done = std::all_of(producers_.begin(), producers_.end(),
                                      [](const Producer* p) { return p->stats().done; });
    std::uint64_t settled =
        r.received + r.dropped_input + r.dropped_no_route + r.dropped_output;
    if (producers_done && settled == r.produced) return;
    // Packets stranded on a CPU whose session ended can never settle: once a
    // whole window moved nothing, simulating on to the limit changes nothing.
    // Every traffic count only grows, so an unchanged sum means none moved.
    const std::uint64_t moves = r.produced + r.accepted + r.forwarded + settled +
                                r.rsp_transactions + r.breakpoint_events + r.lockstep_steps +
                                r.driver_messages;
    if (producers_done && sessions_ended() && moves == last_moves) return;
    last_moves = moves;
  }
}

bool Testbench::sessions_ended() const {
  for (const auto& ext : gdb_exts_) {
    if (!ext->target_finished()) return false;  // also set by a structured error
  }
  for (const cosim::GdbWrapperModule* wrapper : wrappers_) {
    if (!wrapper->target_finished()) return false;
  }
  for (std::size_t cpu = 0; cpu < driver_exts_.size(); ++cpu) {
    if (!driver_exts_[cpu]->quiesced() && !driver_targets_[cpu]->finished()) return false;
  }
  return true;
}

std::optional<cosim::CosimError> Testbench::cosim_error() const {
  for (const auto& ext : gdb_exts_) {
    if (ext->error()) return ext->error();
  }
  for (const cosim::GdbWrapperModule* wrapper : wrappers_) {
    if (wrapper->error()) return wrapper->error();
  }
  for (const auto& ext : driver_exts_) {
    if (ext->error()) return ext->error();
  }
  return std::nullopt;
}

bool Testbench::degraded() const {
  for (const auto& ext : driver_exts_) {
    if (ext->quiesced()) return true;
  }
  for (const auto& target : driver_targets_) {
    if (target->driver().degraded()) return true;
  }
  return false;
}

std::uint64_t Testbench::faults_injected() const {
  std::uint64_t total = 0;
  for (const auto& target : gdb_targets_) {
    if (target->fault_state()) total += target->fault_state()->stats().total_injected();
  }
  for (const auto& target : driver_targets_) {
    if (target->fault_state()) total += target->fault_state()->stats().total_injected();
  }
  return total;
}

TestbenchReport Testbench::report() const {
  TestbenchReport r;
  for (const Producer* p : producers_) {
    r.produced += p->stats().produced;
    r.accepted += p->stats().accepted;
    r.dropped_input += p->stats().dropped_input;
  }
  const RouterStats& rs = router_->stats();
  r.forwarded = rs.forwarded;
  r.dropped_no_route = rs.dropped_no_route;
  r.dropped_output = rs.dropped_output_full;
  for (const Consumer* c : consumers_) {
    r.received += c->stats().received;
    r.checksum_ok += c->stats().checksum_ok;
    r.checksum_bad += c->stats().checksum_bad;
  }
  r.forwarded_pct = r.produced == 0 ? 0.0
                                    : 100.0 * static_cast<double>(r.received) /
                                          static_cast<double>(r.produced);
  r.wall_seconds = wall_seconds_;
  r.sim_time = ctx_->time_stamp();
  r.kernel_delta_cycles = ctx_->stats().delta_cycles;

  for (const auto& target : gdb_targets_) {
    r.rsp_transactions += target->client().stats().transactions;
  }
  for (const auto& ext : gdb_exts_) r.breakpoint_events += ext->stats().breakpoint_events;
  for (const cosim::GdbWrapperModule* wrapper : wrappers_) {
    r.breakpoint_events += wrapper->stats().breakpoint_events;
    r.lockstep_steps += wrapper->stats().steps;
  }
  for (const auto& ext : driver_exts_) {
    r.driver_messages += ext->stats().messages_in + ext->stats().messages_out;
  }
  return r;
}

}  // namespace nisc::router
