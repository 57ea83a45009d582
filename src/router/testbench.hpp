// Full case-study testbench: router + producers + consumers + the selected
// co-simulation scheme, ready to run. Powers the examples, the integration
// tests and the Table 1 / Figure 7 benchmarks.
#pragma once

#include <memory>
#include <vector>

#include "cosim/driver_kernel.hpp"
#include "cosim/gdb_kernel.hpp"
#include "cosim/gdb_wrapper.hpp"
#include "cosim/session.hpp"
#include "router/consumer.hpp"
#include "router/guest_programs.hpp"
#include "router/producer.hpp"
#include "router/router.hpp"
#include "sysc/sysc.hpp"

namespace nisc::router {

/// The three co-simulation schemes the paper compares.
enum class Scheme {
  GdbWrapper,   ///< baseline [14]: explicit wrapper module, lock-step
  GdbKernel,    ///< paper §3: wrapper embedded in the SystemC kernel
  DriverKernel, ///< paper §4: device driver in the OS on the ISS
};

const char* scheme_name(Scheme scheme) noexcept;

struct TestbenchConfig {
  Scheme scheme = Scheme::GdbKernel;
  sysc::sc_time clock_period = sysc::sc_time::from_ps(10000);  // 10 ns
  sysc::sc_time inter_packet_delay = sysc::sc_time::from_ps(2000000);  // 2 us
  std::uint64_t packets_per_producer = 10;  ///< 0 = unbounded
  int num_producers = kNumPorts;
  /// Number of checksum CPUs (the paper's multi-processor template): each
  /// gets its own ISS instance, port pair and co-simulation session.
  int num_cpus = 1;
  std::size_t fifo_capacity = 8;
  int address_space = 16;
  std::uint64_t seed = 42;
  /// Simulated CPU speed: CPU cycles per simulated µs (instructions per µs
  /// at one cycle per instruction). The GDB-Wrapper steps its lock-step
  /// quantum in instructions, at one cycle per instruction.
  std::uint64_t instructions_per_us = 400000;
  /// RTOS cost model (Driver-Kernel only).
  rtos::RtosConfig rtos;
  /// IPC transport (pipe for GDB schemes, sockets for Driver-Kernel, as in
  /// the paper; override for the transport ablation).
  std::optional<ipc::Transport> transport;
  /// Fault-injection plan installed on every CPU's target-side transport
  /// (the stub endpoint for the GDB schemes, the driver data endpoint for
  /// Driver-Kernel). Empty = healthy wire, zero overhead.
  ipc::FaultPlan fault_plan;
  /// Live wire tap attached to every session's SystemC-side endpoint (e.g.
  /// an analysis::LiveConformanceMonitor). Shared across CPUs; null = none.
  std::shared_ptr<ipc::WireObserver> wire_observer;
  /// Live wire tap on every Driver-Kernel session's target-side interrupt
  /// endpoint (the DriverIrq automaton's channel). Shared; null = none.
  std::shared_ptr<ipc::WireObserver> irq_observer;
};

struct TestbenchReport {
  // traffic
  std::uint64_t produced = 0;
  std::uint64_t accepted = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t received = 0;
  std::uint64_t checksum_ok = 0;
  std::uint64_t checksum_bad = 0;
  std::uint64_t dropped_input = 0;
  std::uint64_t dropped_no_route = 0;
  std::uint64_t dropped_output = 0;
  double forwarded_pct = 0.0;  ///< received / produced * 100 (Figure 7 metric)
  // timing
  double wall_seconds = 0.0;
  sysc::sc_time sim_time;
  // co-simulation traffic (scheme-dependent; zero when not applicable)
  std::uint64_t rsp_transactions = 0;
  std::uint64_t breakpoint_events = 0;
  std::uint64_t lockstep_steps = 0;
  std::uint64_t driver_messages = 0;
  std::uint64_t kernel_delta_cycles = 0;
};

/// One self-contained co-simulated router scenario.
class Testbench {
 public:
  explicit Testbench(TestbenchConfig config);
  ~Testbench();

  Testbench(const Testbench&) = delete;
  Testbench& operator=(const Testbench&) = delete;

  /// Advances the simulation by `duration` (callable repeatedly).
  void run_for(sysc::sc_time duration);

  /// Runs in `window` steps until every produced packet is accounted for
  /// (received or dropped) or `max_duration` of simulated time elapsed.
  /// Also returns once nothing can move: the producers are done, every
  /// session ended (error, finished or quiesced) and the last window changed
  /// no traffic count. Requires bounded producers.
  void run_until_drained(sysc::sc_time max_duration,
                         sysc::sc_time window = sysc::sc_time::from_ps(10000000));

  /// Snapshot of all statistics.
  TestbenchReport report() const;

  /// First structured failure across every session (GDB-Kernel extension,
  /// GDB-Wrapper module, Driver-Kernel extension), if any ended the run or
  /// quiesced its port. Carries the wire post-mortem.
  std::optional<cosim::CosimError> cosim_error() const;

  /// True when any session degraded without a hard failure: a Driver-Kernel
  /// port quiesced or a device driver stopped exchanging data.
  bool degraded() const;

  /// Total transport faults injected across all sessions (0 when
  /// `fault_plan` is empty).
  std::uint64_t faults_injected() const;

  /// Stops every ISS session (idempotent); called automatically on
  /// destruction.
  void shutdown();

  Router& router() noexcept { return *router_; }
  sysc::sc_simcontext& context() noexcept { return *ctx_; }
  const std::vector<Producer*>& producers() const noexcept { return producers_; }
  const std::vector<Consumer*>& consumers() const noexcept { return consumers_; }

 private:
  /// True once every CPU's session ended: its target finished, it failed
  /// with a structured error, or its Driver-Kernel port quiesced.
  bool sessions_ended() const;

  TestbenchConfig config_;
  std::unique_ptr<sysc::sc_simcontext> ctx_;
  sysc::sc_clock* clock_ = nullptr;
  Router* router_ = nullptr;
  std::vector<Producer*> producers_;
  std::vector<Consumer*> consumers_;

  // scheme plumbing, one entry per CPU (only the active scheme's vectors
  // are populated)
  std::vector<std::unique_ptr<cosim::GdbTarget>> gdb_targets_;
  std::vector<std::unique_ptr<cosim::GdbKernelExtension>> gdb_exts_;
  std::vector<cosim::GdbWrapperModule*> wrappers_;
  std::vector<std::unique_ptr<cosim::DriverTarget>> driver_targets_;
  std::vector<std::unique_ptr<cosim::DriverKernelExtension>> driver_exts_;

  double wall_seconds_ = 0.0;
  bool shut_down_ = false;
};

}  // namespace nisc::router
