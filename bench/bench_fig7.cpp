// Reproduces Figure 7 of the paper: percentage of packets forwarded by the
// router vs inter-packet delay, under GDB-Kernel and Driver-Kernel.
//
// Expected shape (paper): both curves rise toward 100% as the delay grows;
// the Driver-Kernel curve lies *below* the GDB-Kernel curve at equal delay,
// because the OS (scheduling, syscall and driver overhead, modeled as guest
// cycles) slows the checksum application down — "the difference is a
// measure of the overhead imposed by the OS".
//
// Both schemes pay for CPU time by one rule in one unit (CPU cycles against
// TimeBudget), so ablation A8 can split the gap: a third column runs
// Driver-Kernel with the RTOS costs set to 0. What those costs take away is
// the OS overhead proper; the rest is what else the Driver-Kernel guest does
// (its driver code, word transfers, interrupts).
//
//   $ ./bench_fig7
//
// Exits 1 when the shape does not hold: both curves must be non-decreasing
// and reach 100%, and Driver-Kernel must stay at or below GDB-Kernel.
#include <cstdio>
#include <string>

#include "bench_json.hpp"
#include "router/testbench.hpp"

using namespace nisc;
using namespace nisc::sysc::time_literals;

namespace {

double forwarded_pct(router::Scheme scheme, sysc::sc_time delay, bool rtos_costs) {
  router::TestbenchConfig config;
  config.scheme = scheme;
  config.packets_per_producer = 50;
  config.num_producers = 4;
  config.fifo_capacity = 4;
  config.inter_packet_delay = delay;
  // A deliberately slow CPU so the checksum application is the bottleneck
  // (the allowance is metered in CPU cycles per simulated microsecond).
  config.instructions_per_us = 30;
  // OS cost model: the Driver-Kernel guest pays these on every packet; the
  // bare-metal GDB-Kernel guest pays nothing.
  if (rtos_costs) {
    config.rtos.syscall_overhead_cycles = 100;
    config.rtos.context_switch_cycles = 120;
    config.rtos.isr_entry_cycles = 80;
  } else {
    config.rtos.syscall_overhead_cycles = 0;
    config.rtos.context_switch_cycles = 0;
    config.rtos.isr_entry_cycles = 0;
    config.rtos.isr_exit_cycles = 0;
  }
  router::Testbench bench(config);
  bench.run_until_drained(sysc::sc_time(400, sysc::SC_MS));
  router::TestbenchReport r = bench.report();
  bench.shutdown();
  return r.forwarded_pct;
}

}  // namespace

int main() {
  const std::uint64_t all_delays_us[] = {2, 5, 10, 20, 40, 80, 160};
  const std::uint64_t quick_delays_us[] = {2, 20, 160};
  const std::uint64_t* delays_us = nisc::bench::quick_mode() ? quick_delays_us : all_delays_us;
  const std::size_t num_delays = nisc::bench::quick_mode() ? 3 : 7;
  nisc::bench::Recorder recorder("fig7");

  std::printf("Figure 7 — %% packets forwarded vs inter-packet delay\n");
  std::printf("(Driver-Kernel below GDB-Kernel: the OS overhead slows the app)\n\n");
  std::printf("%-20s %11s %14s %15s   %s\n", "inter-packet delay", "GDB-Kernel",
              "Driver-Kernel", "A8: RTOS cost 0", "gap = RTOS costs + rest");

  bool shape_ok = true;
  double prev_gdb = 0.0;
  double prev_drv = 0.0;
  double gdb = 0.0;
  double drv = 0.0;
  for (std::size_t i = 0; i < num_delays; ++i) {
    const std::uint64_t d = delays_us[i];
    sysc::sc_time delay = sysc::sc_time::from_ps(d * 1000000ULL);
    gdb = forwarded_pct(router::Scheme::GdbKernel, delay, true);
    drv = forwarded_pct(router::Scheme::DriverKernel, delay, true);
    const double drv_no_rtos = forwarded_pct(router::Scheme::DriverKernel, delay, false);
    recorder.record("gdb_kernel/" + std::to_string(d) + "us", gdb, "%");
    recorder.record("driver_kernel/" + std::to_string(d) + "us", drv, "%");
    recorder.record("driver_kernel_no_rtos/" + std::to_string(d) + "us", drv_no_rtos, "%");
    std::printf("%17llu us %10.1f%% %13.1f%% %14.1f%%   %5.1f = %5.1f + %5.1f\n",
                static_cast<unsigned long long>(d), gdb, drv, drv_no_rtos, gdb - drv,
                drv_no_rtos - drv, gdb - drv_no_rtos);
    std::fflush(stdout);
    if (gdb < prev_gdb || drv < prev_drv || drv > gdb) shape_ok = false;
    prev_gdb = gdb;
    prev_drv = drv;
  }
  if (gdb != 100.0 || drv != 100.0) shape_ok = false;  // both reach 100%
  std::printf("\nshape %s: both curves rise with delay to 100%%; Driver-Kernel stays at or "
              "below GDB-Kernel\n",
              shape_ok ? "HOLDS" : "VIOLATED");
  recorder.write();
  return shape_ok ? 0 : 1;
}
