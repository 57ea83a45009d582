#include "workloads.hpp"

#include <algorithm>
#include <array>

#include "util/rng.hpp"

namespace cosimbench {

using nisc::router::Scheme;
namespace sysc = nisc::sysc;

namespace {

// Only workloads whose simulated results do not depend on host timing:
// every work count repeats exactly, so the host threads strictly alternate.
// Table 1 under Driver-Kernel and the Figure 7 densest point are left out:
// their TimeBudget throttle waits on wall-clock timeouts, so what they
// simulate, and how fast, followed the host's load.
constexpr std::array kWorkloads = {
    Workload{"table1.gdb_wrapper", Family::Table1, Scheme::GdbWrapper},
    Workload{"table1.gdb_kernel", Family::Table1, Scheme::GdbKernel},
    Workload{"sparse.gdb_kernel", Family::Sparse, Scheme::GdbKernel},
    Workload{"sparse.driver_kernel", Family::Sparse, Scheme::DriverKernel},
    Workload{"supervised", Family::Supervised, Scheme::DriverKernel},
};

// Simulated length of one unit. Table 1 units are a fixed window of
// unbounded traffic; sparse units drain bounded producers.
constexpr std::uint64_t kTable1WindowUs = 200;
constexpr std::uint64_t kSparsePacketsPerProducer = 5;
constexpr std::uint64_t kDrainLimitMs = 400;

// The crash-matrix guest with more iterations: every iteration does a
// device write, an op-count read and an irq pop; every 4th raises an
// interrupt. Results are logged to memory, so the final checkpoint encodes
// the whole device history.
constexpr const char* kSupervisedGuest = R"(
_start:
    li   s0, 0
    li   s1, 2000
    la   s2, log
loop:
    slli a0, s0, 2
    addi a1, a0, 7
    addi a0, a0, 0x200
    li   a7, 1
    ecall
    andi t1, s0, 3
    bnez t1, no_irq
    li   a0, 0x100
    andi a1, s0, 31
    li   a7, 1
    ecall
no_irq:
    li   a0, 0x104
    li   a7, 2
    ecall
    sw   a0, 0(s2)
    addi s2, s2, 4
    li   a7, 3
    ecall
    sw   a0, 0(s2)
    addi s2, s2, 4
    addi s0, s0, 1
    bne  s0, s1, loop
    li   a0, 0
    li   a7, 0
    ecall

log:
    .space 16384
)";

}  // namespace

std::span<const Workload> workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) noexcept {
  const auto it = std::find_if(kWorkloads.begin(), kWorkloads.end(),
                               [name](const Workload& w) { return name == w.name; });
  return it == kWorkloads.end() ? nullptr : &*it;
}

nisc::router::TestbenchConfig router_config(const Workload& workload, std::uint64_t seed) {
  nisc::router::TestbenchConfig config;
  config.scheme = workload.scheme;
  config.seed = seed;
  config.num_producers = 4;
  config.inter_packet_delay = sysc::sc_time::from_ps(2'000'000);  // 2 us
  if (workload.family == Family::Table1) {
    config.packets_per_producer = 0;
    config.instructions_per_us = 400000;
    return config;
  }
  // Figure 7 set-up at its sparsest point: a slow CPU, RTOS costs paid by
  // the Driver-Kernel guest only, and a packet every 160 us.
  config.packets_per_producer = kSparsePacketsPerProducer;
  config.fifo_capacity = 4;
  config.instructions_per_us = 30;
  config.rtos.syscall_overhead_cycles = 100;
  config.rtos.context_switch_cycles = 120;
  config.rtos.isr_entry_cycles = 80;
  config.inter_packet_delay = sysc::sc_time::from_ps(160'000'000);
  return config;
}

bool runs_until_drained(const Workload& workload) noexcept {
  return workload.family == Family::Sparse;
}

sysc::sc_time unit_duration(const Workload& workload) noexcept {
  return runs_until_drained(workload) ? sysc::sc_time::from_ps(kDrainLimitMs * 1'000'000'000)
                                      : sysc::sc_time::from_ps(kTable1WindowUs * 1'000'000);
}

nisc::cosim::SupervisorConfig supervised_config(std::string worker_path) {
  nisc::cosim::SupervisorConfig config;
  config.worker_path = std::move(worker_path);
  config.worker.guest_source = kSupervisedGuest;
  config.worker.mem_size = 1 << 16;
  config.worker.ckpt_every = 64;
  config.hang_timeout_ms = 5000;
  config.max_recoveries = 1;
  return config;
}

std::uint64_t kill_point(std::uint64_t seed, std::uint64_t unit, std::uint64_t total_instret) {
  nisc::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + unit);
  return rng.between(1, total_instret - 1);
}

namespace {

constexpr std::array<MetricDecl, 5> kEndToEnd = {{
    {"sim_us_per_s", "us/s"},
    {"ops_per_s", "1/s"},
    {"forwarded_pct", "%"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
}};

constexpr std::array<MetricDecl, 43> kPerLayer = {{
    {"sysc.deltas_per_sim_us", "1/us"},
    {"sysc.dispatches_per_sim_us", "1/us"},
    {"sysc.thread_resumes_per_pkt", "1/op"},
    {"host.vcsw_per_sim_us", "1/us"},
    {"host.ivcsw_per_sim_us", "1/us"},
    {"host.cpu_s_per_sim_ms", "s/ms"},
    {"host.reference_ms", "ms"},
    {"host.wall_sim_us_per_s", "us/s"},
    {"ipc.syscalls_per_pkt", "1/op"},
    {"ipc.bytes_per_pkt", "B/op"},
    {"rsp.transactions_per_pkt", "1/op"},
    {"cosim.gdbk.polls_per_sim_us", "1/us"},
    {"cosim.gdbk.breakpoints_per_pkt", "1/op"},
    {"cosim.gdbk.roundtrip_us.p50", "us"},
    {"cosim.gdbk.roundtrip_us.p99", "us"},
    {"cosim.gdbw.steps_per_sim_us", "1/us"},
    {"cosim.drvk.messages_per_pkt", "1/op"},
    {"cosim.drvk.interrupts_per_pkt", "1/op"},
    {"iss.instructions_per_sim_us", "1/us"},
    {"iss.breakpoint_checks_per_sim_us", "1/us"},
    {"router.produced", "count"},
    {"router.received", "count"},
    {"router.dropped", "count"},
    {"router.checksum_bad", "count"},
    {"sup.checkpoints", "count"},
    {"sup.recoveries", "count"},
    {"ckpt.bytes.p50", "B"},
    {"sysc.eval_s", "s"},
    {"sysc.hook_gap_s", "s"},
    {"ipc.send_s", "s"},
    {"ipc.recv_s", "s"},
    {"cosim.rdi_roundtrip_s", "s"},
    {"cosim.drvk.message_s", "s"},
    {"cosim.lockstep_s", "s"},
    {"sup.dev_write_s", "s"},
    {"sup.dev_read_s", "s"},
    {"ckpt.encode_s", "s"},
    {"sup.recover_s", "s"},
    {"sup.spawn_s", "s"},
    {"obs.unattributed_s", "s"},
    {"obs.trace_overhead", "ratio"},
    {"obs.span_coverage", "ratio"},
    {"trace.dropped_events", "count"},
}};

}  // namespace

std::span<const MetricDecl> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricDecl> per_layer_metrics() { return kPerLayer; }

}  // namespace cosimbench
