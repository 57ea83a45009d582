// Ablation A4: synchronization granularity.
//
// Sweeps the GDB-Wrapper lock-step mode (per-cycle quantum vs
// per-instruction single-step) and the lock-step ratio, showing how the
// cost of wrapper-style co-simulation scales with synchronization
// frequency — the motivation for moving the wrapper into the kernel.
//
//   $ ./bench_sync
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_json.hpp"
#include "cosim/gdb_wrapper.hpp"
#include "router/testbench.hpp"

using namespace nisc;
using namespace nisc::sysc::time_literals;

namespace {

struct Sample {
  double wall_ms;
  std::uint64_t round_trips;
  std::uint64_t received;
};

/// The router under the GDB-Wrapper in Quantum mode: a finer clock means
/// more lock-step syncs.
Sample run_wrapper(sysc::sc_time clock_period) {
  // Fixed workload: 20 packets through the router.
  router::TestbenchConfig config;
  config.scheme = router::Scheme::GdbWrapper;
  config.packets_per_producer = 5;
  config.num_producers = 4;
  config.inter_packet_delay = 2_us;
  config.instructions_per_us = 400000;
  config.clock_period = clock_period;
  router::Testbench bench(config);
  bench.run_until_drained(sysc::sc_time(50, sysc::SC_MS));
  router::TestbenchReport r = bench.report();
  Sample s{r.wall_seconds * 1000.0, r.lockstep_steps, r.received};
  bench.shutdown();
  return s;
}

/// Direct micro-comparison of the two lock-step modes on a raw target.
Sample run_mode_micro(cosim::LockstepMode mode) {
  using namespace nisc::cosim;
  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  sysc::iss_out<std::uint32_t> to_cpu("hw.to_cpu");
  sysc::iss_in<std::uint32_t> from_cpu("hw.from_cpu");

  // Guest: 200 echo round trips.
  const std::string guest = R"(
_start:
    li s0, 200
    la t1, in_var
    la t2, out_var
loop:
    #pragma iss_out("hw.to_cpu", in_var)
    lw t0, 0(t1)
    addi t0, t0, 1
    #pragma iss_in("hw.from_cpu", out_var)
    sw t0, 0(t2)
    nop
    addi s0, s0, -1
    bnez s0, loop
    ebreak
in_var: .word 0
out_var: .word 0
)";
  std::uint64_t echoes = 0;
  auto& proc = ctx.create_method(
      "echo",
      [&] {
        ++echoes;
        to_cpu.write(static_cast<std::uint32_t>(echoes));
      },
      sysc::process_kind::IssMethod);
  proc.make_sensitive(from_cpu.written_event());
  proc.dont_initialize();
  to_cpu.write(0);

  GdbTarget target(guest);
  GdbWrapperOptions options;
  options.instructions_per_cycle = 8;
  options.mode = mode;
  auto& wrapper = ctx.create<GdbWrapperModule>("wrapper", target.client(), target.bindings(),
                                               options);
  wrapper.clk.bind(clk.signal());

  auto start = std::chrono::steady_clock::now();
  auto deadline = start + std::chrono::seconds(60);
  while (!wrapper.target_finished() && std::chrono::steady_clock::now() < deadline) {
    ctx.run(10_us);
  }
  double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start).count();
  Sample s{wall_ms, wrapper.stats().steps, echoes};
  target.shutdown();
  return s;
}

}  // namespace

int main() {
  nisc::bench::Recorder recorder("sync");
  std::printf("A4 — synchronization granularity\n\n");

  std::printf("Lock-step mode micro-comparison (200 echo round trips):\n");
  Sample quantum = run_mode_micro(cosim::LockstepMode::Quantum);
  Sample single = run_mode_micro(cosim::LockstepMode::SingleStep);
  recorder.record("micro/quantum", quantum.wall_ms / 1000.0);
  recorder.record("micro/single_step", single.wall_ms / 1000.0);
  std::printf("  %-12s %10.1f ms  %8llu round trips\n", "quantum", quantum.wall_ms,
              static_cast<unsigned long long>(quantum.round_trips));
  std::printf("  %-12s %10.1f ms  %8llu round trips\n", "single-step", single.wall_ms,
              static_cast<unsigned long long>(single.round_trips));
  std::printf("  per-instruction sync costs %.1fx the round trips\n\n",
              quantum.round_trips > 0
                  ? static_cast<double>(single.round_trips) / quantum.round_trips
                  : 0.0);

  if (nisc::bench::quick_mode()) {
    std::printf("(quick mode: clock-period sweep skipped)\n");
    recorder.write();
    return 0;
  }
  std::printf("Clock period sweep (sync once per cycle; finer clock = more syncs):\n");
  for (std::uint64_t period_ns : {10ULL, 40ULL, 160ULL}) {
    Sample s = run_wrapper(sysc::sc_time::from_ps(period_ns * 1000));
    recorder.record("sweep/clock_" + std::to_string(period_ns) + "ns", s.wall_ms / 1000.0);
    std::printf("  clock %4llu ns: %8.1f ms wall, %8llu round trips, %llu/20 packets\n",
                static_cast<unsigned long long>(period_ns), s.wall_ms,
                static_cast<unsigned long long>(s.round_trips),
                static_cast<unsigned long long>(s.received));
  }
  recorder.write();
  return 0;
}
