// cosimbench: runs one workload of the co-simulation benchmark for a fixed
// host time and prints its metrics, ending with one JSON line:
//
//   cosimbench --workload NAME --seed N --seconds S --trace 0|1
//              --worker PATH --artifacts DIR
//
// A run repeats one unit of the workload (a fresh Testbench, or a fresh
// supervised session) until the time is spent, checks every unit's output,
// and reports medians over units. Host times of the end-to-end metrics are
// scaled to a reference host speed, measured next to every unit (see
// reference_s). Layers are observed only from outside
// through the public API: run timing, kernel_stats, process run counts, the
// obs metrics registry, the spans the simulator already emits, a
// kernel_extension probe and getrusage.
//
// --trace 0 prints the end-to-end metrics. --trace 1 spends half the time
// on untraced units (work counts, host counters) and half on traced units
// (per-layer self time), and writes the last traced unit as a Perfetto file
// into the artifacts directory.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cosim/checkpoint.hpp"
#include "iss/cpu.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace cosimbench;
namespace obs = nisc::obs;
namespace cosim = nisc::cosim;
namespace router = nisc::router;
namespace sysc = nisc::sysc;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t) { return std::chrono::duration<double>(Clock::now() - t).count(); }

constexpr std::size_t kMinUnits = 3;

struct Usage {
  double vcsw = 0, ivcsw = 0, cpu_s = 0;
};

Usage usage() {
  Usage u;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    ::getrusage(who, &ru);
    u.vcsw += static_cast<double>(ru.ru_nvcsw);
    u.ivcsw += static_cast<double>(ru.ru_nivcsw);
    u.cpu_s += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  }
  return u;
}

Usage usage_since(const Usage& before) {
  Usage u = usage();
  u.vcsw -= before.vcsw;
  u.ivcsw -= before.ivcsw;
  u.cpu_s -= before.cpu_s;
  return u;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

volatile std::uint64_t reference_sink;

/// The host's speed: seconds for a fixed job on the pinned CPU, made of the
/// two things the simulator's threads spend their time on. First 500 round
/// trips of two threads through a mutex and condition variable, the
/// handoff; then an integer loop with an unpredictable branch, about as
/// long, the computing between handoffs. On a shared host the speed of
/// both moves by a third from one few-second phase to the next, and a
/// unit's time follows it; the ratio of the two stays within a few percent.
double reference_s() {
  constexpr int kRoundTrips = 500;
  constexpr int kSteps = 1'500'000;
  std::mutex mutex;
  std::condition_variable cv;
  bool ping = false;
  std::thread partner([&] {
    for (int i = 0; i < kRoundTrips; ++i) {
      std::unique_lock lock(mutex);
      cv.wait(lock, [&] { return ping; });
      ping = false;
      cv.notify_all();
    }
  });
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kRoundTrips; ++i) {
    std::unique_lock lock(mutex);
    ping = true;
    cv.notify_all();
    cv.wait(lock, [&] { return !ping; });
  }
  partner.join();
  std::uint64_t x = 1, rare = 0;
  for (int i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    if ((x >> 61) == 0) ++rare;
  }
  reference_sink = x + rare;
  return since(start);
}

/// The reference job's time the end-to-end host times are scaled to: about
/// what a 4-vCPU KVM guest on a shared Xeon host takes.
constexpr double kReferenceS = 7.5e-3;

struct Hist {
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> buckets;

  void add(const obs::MetricsSnapshot& snapshot, const std::string& name) {
    for (const auto& h : snapshot.histograms) {
      if (h.name != name) continue;
      if (buckets.empty()) {
        bounds = h.bounds;
        buckets.assign(h.buckets.size(), 0);
      }
      for (std::size_t i = 0; i < buckets.size() && i < h.buckets.size(); ++i) {
        buckets[i] += h.buckets[i];
      }
    }
  }
  double quantile(double q) const { return bucket_quantile(bounds, buckets, q); }
};

/// One unit's measurements. "ops" are checksum-verified packets received
/// (router) or applied device writes plus served reads (supervised).
struct Unit {
  std::string failure;  ///< empty = every output check passed
  double setup_s = 0, run_s = 0, sim_us = 0;
  double reference_s = 0;  ///< mean of the host reference before and after
  double ops = 0, attempted = 0, forwarded_pct = 0;
  std::map<std::string, double> counts;  ///< host-independent work counts
  Usage host;
  obs::MetricsSnapshot metrics;
  // traced units only
  double eval_s = 0, hook_gap_s = 0;
  SpanTimes spans;
  double dropped = 0;                    ///< trace events evicted from a ring
  std::vector<obs::ProcessTrace> trace;  ///< kept for the last traced unit only
};

/// The ring that holds every event a traced unit like `u` records: its
/// busiest thread's events, evicted ones included, plus a quarter.
std::size_t measured_trace_ring(const Unit& u) {
  std::size_t events = 0;
  if (!u.trace.empty()) {
    for (const auto& thread : u.trace.front().snapshot.threads) {
      events = std::max(events, thread.events.size() + static_cast<std::size_t>(thread.dropped));
    }
  }
  return events + events / 4 + 4096;
}

/// Runs a traced unit on a new thread. A ring keeps the capacity it was
/// created with, so a fresh kernel thread is what lets a resized ring apply.
template <typename F>
Unit on_fresh_thread(F run) {
  Unit u;
  std::thread thread([&] { u = run(); });
  thread.join();
  return u;
}

void keep_trace(Unit& u, std::vector<obs::ProcessTrace> processes) {
  for (const obs::ProcessTrace& p : processes) {
    const SpanTimes times = span_times({&p.snapshot, 1});
    for (const auto& [name, t] : times.total) u.spans.total[name] += t;
    for (const auto& [name, t] : times.self) u.spans.self[name] += t;
    for (const auto& thread : p.snapshot.threads) u.dropped += static_cast<double>(thread.dropped);
  }
  u.trace = std::move(processes);
}

/// Times the kernel loop from outside. Registered after the scheme's
/// extension, so cycle-begin runs after the scheme's poll/drain and
/// cycle-end after its interrupt check and wait_below: begin-to-end is
/// evaluate + update + the scheme's on_cycle_end; end-to-next-begin is the
/// time advance, deposits and the scheme's on_cycle_begin.
class CycleProbe final : public sysc::kernel_extension {
 public:
  void on_cycle_begin(sysc::sc_simcontext&) override {
    const Clock::time_point now = Clock::now();
    if (ended_) hook_gap_ += now - end_;
    begin_ = now;
  }
  void on_cycle_end(sysc::sc_simcontext&) override {
    end_ = Clock::now();
    eval_ += end_ - begin_;
    ended_ = true;
  }
  void on_run_end(sysc::sc_simcontext&) override { ended_ = false; }

  double eval_s() const { return std::chrono::duration<double>(eval_).count(); }
  double hook_gap_s() const { return std::chrono::duration<double>(hook_gap_).count(); }

 private:
  Clock::time_point begin_, end_;
  Clock::duration eval_{}, hook_gap_{};
  bool ended_ = false;
};

/// Notes when the supervisor first answers a device access: the end of a
/// supervised session's set-up (spawn, handshake, guest start).
class FirstReply final : public nisc::ipc::WireObserver {
 public:
  void on_wire(nisc::ipc::CaptureDir dir, std::span<const std::uint8_t> bytes) override {
    if (at_ || dir != nisc::ipc::CaptureDir::Tx || bytes.size() < 5) return;
    const auto op = static_cast<cosim::WorkerOp>(bytes[4]);
    if (op == cosim::WorkerOp::WriteAck || op == cosim::WorkerOp::ReadReply) at_ = Clock::now();
  }
  std::optional<Clock::time_point> at() const { return at_; }

 private:
  std::optional<Clock::time_point> at_;
};

std::uint64_t counter(const obs::MetricsSnapshot& snapshot, std::string_view name) {
  for (const auto& [n, v] : snapshot.counters) {
    if (n == name) return v;
  }
  return 0;
}

void count_registry(Unit& u) {
  const obs::MetricsSnapshot& m = u.metrics;
  auto set = [&](const char* name, double v) { u.counts[name] = v; };
  set("ipc.sends", static_cast<double>(counter(m, "ipc.sends")));
  set("ipc.recvs", static_cast<double>(counter(m, "ipc.recvs")));
  set("ipc.bytes",
      static_cast<double>(counter(m, "ipc.bytes_sent") + counter(m, "ipc.bytes_received")));
  set("cosim.gdbk.polls", static_cast<double>(counter(m, "cosim.gdbk.polls")));
  set("cosim.gdbk.breakpoints", static_cast<double>(counter(m, "cosim.gdbk.breakpoints")));
  set("cosim.gdbw.steps", static_cast<double>(counter(m, "cosim.gdbw.steps")));
  set("cosim.drvk.messages", static_cast<double>(counter(m, "cosim.drvk.messages_in") +
                                                 counter(m, "cosim.drvk.messages_out")));
  set("cosim.drvk.interrupts", static_cast<double>(counter(m, "cosim.drvk.interrupts_sent")));
  set("sup.checkpoints", static_cast<double>(counter(m, "sup.checkpoints")));
  set("sup.recoveries", static_cast<double>(counter(m, "sup.recoveries")));
}

// ---------------------------------------------------------------------------
// Units

Unit run_router(const Workload& w, std::uint64_t seed, bool traced) {
  const router::TestbenchConfig config = router_config(w, seed);
  Unit u;
  u.attempted = static_cast<double>(
      config.packets_per_producer > 0
          ? config.packets_per_producer * static_cast<std::uint64_t>(config.num_producers)
          : unit_duration(w).ps() / config.inter_packet_delay.ps() *
                static_cast<std::uint64_t>(config.num_producers));
  obs::MetricsRegistry::instance().reset();
  if (traced) obs::clear_trace();
  const Usage before = usage();
  try {
    const Clock::time_point t0 = Clock::now();
    router::Testbench bench(config);
    u.setup_s = since(t0);
    CycleProbe probe;
    if (traced) bench.context().register_extension(&probe);
    const Clock::time_point t1 = Clock::now();
    if (runs_until_drained(w)) {
      bench.run_until_drained(unit_duration(w));
    } else {
      bench.run_for(unit_duration(w));
    }
    u.run_s = since(t1);
    if (traced) {
      bench.context().unregister_extension(&probe);
      u.eval_s = probe.eval_s();
      u.hook_gap_s = probe.hook_gap_s();
    }

    const router::TestbenchReport r = bench.report();
    u.sim_us = r.sim_time.to_us();
    u.ops = static_cast<double>(r.checksum_ok);
    u.attempted = static_cast<double>(r.produced);
    u.forwarded_pct = r.forwarded_pct;
    u.counts["router.produced"] = static_cast<double>(r.produced);
    u.counts["router.received"] = static_cast<double>(r.received);
    u.counts["router.dropped"] =
        static_cast<double>(r.dropped_input + r.dropped_no_route + r.dropped_output);
    u.counts["router.checksum_bad"] = static_cast<double>(r.checksum_bad);
    u.counts["rsp.transactions"] = static_cast<double>(r.rsp_transactions);
    const sysc::kernel_stats& ks = bench.context().stats();
    u.counts["sysc.deltas"] = static_cast<double>(ks.delta_cycles);
    u.counts["sysc.dispatches"] = static_cast<double>(ks.process_dispatches);
    double resumes = 0;
    for (const sysc::sc_process* p : bench.context().process_list()) {
      if (p->is_thread()) resumes += static_cast<double>(p->run_count());
    }
    u.counts["sysc.thread_resumes"] = resumes;

    if (r.checksum_bad != 0) u.failure = "checksum_bad " + std::to_string(r.checksum_bad);
    if (const auto error = bench.cosim_error()) u.failure = "cosim_error: " + error->message;
    if (bench.degraded()) u.failure = "session degraded";
    bench.shutdown();
  } catch (const std::exception& e) {
    u.failure = std::string("exception: ") + e.what();
  }
  u.host = usage_since(before);
  u.metrics = obs::MetricsRegistry::instance().snapshot();
  count_registry(u);
  u.counts["iss.instructions"] = static_cast<double>(counter(u.metrics, "iss.instructions"));
  u.counts["iss.breakpoint_checks"] =
      static_cast<double>(counter(u.metrics, "iss.breakpoint_checks"));
  if (traced) {
    obs::ProcessTrace process;
    process.label = w.name;
    process.snapshot = obs::take_trace_snapshot();
    keep_trace(u, {std::move(process)});
  }
  return u;
}

struct SupervisedRun {
  cosim::SupervisorConfig base;
  std::vector<std::uint8_t> control_checkpoint;
  double control_ops = 0;
  std::uint64_t total_instret = 0;
  std::uint64_t seed = 0;
};

Unit run_supervised(const SupervisedRun& run, std::uint64_t unit_index, bool traced) {
  Unit u;
  u.attempted = run.control_ops;
  cosim::SupervisorConfig config = run.base;
  config.fault_plan = {
      {cosim::FaultKind::CrashAt, kill_point(run.seed, unit_index, run.total_instret)}};
  auto first_reply = std::make_shared<FirstReply>();
  config.data_observer = first_reply;
  if (traced) {
    // One pull, before Done: periodic pulls would ship the worker's ring at
    // every checkpoint and time the side-band instead of the session.
    config.obs_export = true;
    config.obs_pull_every = 1 << 30;
    config.worker.trace = true;
    obs::clear_trace();
  }
  obs::MetricsRegistry::instance().reset();
  const Usage before = usage();
  try {
    const Clock::time_point t0 = Clock::now();
    cosim::Supervisor supervisor(std::move(config));
    const cosim::SupervisorOutcome outcome = supervisor.run();
    u.run_s = since(t0);
    u.setup_s = first_reply->at() ? std::chrono::duration<double>(*first_reply->at() - t0).count()
                                  : u.run_s;
    u.ops = static_cast<double>(outcome.writes_applied + outcome.reads_served);
    u.forwarded_pct = 100.0 * u.ops / run.control_ops;
    const cosim::Checkpoint final_state = cosim::decode_checkpoint(outcome.final_checkpoint);
    if (final_state.kernel) {
      u.sim_us = static_cast<double>(final_state.kernel->now_ps) * 1e-6;
      u.counts["sysc.deltas"] = static_cast<double>(final_state.kernel->stats.delta_cycles);
      u.counts["sysc.dispatches"] =
          static_cast<double>(final_state.kernel->stats.process_dispatches);
    }
    // The worker's own counters stay in its process; the guest's retired
    // instructions ride in the checkpoint.
    if (final_state.iss) u.counts["iss.instructions"] = static_cast<double>(final_state.iss->instret);

    if (outcome.final_checkpoint != run.control_checkpoint) {
      u.failure = "final checkpoint differs from the uninterrupted control run";
    }
    if (outcome.recoveries != 1) u.failure = "recoveries " + std::to_string(outcome.recoveries);
    if (outcome.guest_halt != static_cast<std::uint8_t>(nisc::iss::Halt::Ecall)) {
      u.failure = "guest did not exit";
    }
    if (traced) {
      obs::ProcessTrace sup;
      sup.label = "supervised/supervisor";
      sup.pid = 1;
      sup.snapshot = obs::take_trace_snapshot();
      obs::ProcessTrace worker;
      worker.label = "supervised/worker";
      worker.pid = 2;
      worker.clock_offset_ns = outcome.clock_offset_ns;
      worker.snapshot = outcome.worker_trace;
      keep_trace(u, {std::move(sup), std::move(worker)});
    }
  } catch (const std::exception& e) {
    u.failure = std::string("exception: ") + e.what();
  }
  u.host = usage_since(before);
  u.metrics = obs::MetricsRegistry::instance().snapshot();
  count_registry(u);
  u.counts["router.produced"] = run.control_ops;
  u.counts["router.received"] = u.ops;
  return u;
}

// ---------------------------------------------------------------------------
// Reporting

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double median_of(const std::vector<Unit>& units, double (*f)(const Unit&)) {
  std::vector<double> values;
  values.reserve(units.size());
  for (const Unit& u : units) values.push_back(f(u));
  return median(std::move(values));
}

double count_of(const Unit& u, const std::string& name) {
  const auto it = u.counts.find(name);
  return it == u.counts.end() ? 0.0 : it->second;
}

double median_count(const std::vector<Unit>& units, const std::string& name,
                    double (*base)(const Unit&)) {
  std::vector<double> values;
  for (const Unit& u : units) values.push_back(per(count_of(u, name), base ? base(u) : 1.0));
  return median(std::move(values));
}

double sim_us(const Unit& u) { return u.sim_us; }
double ops(const Unit& u) { return u.ops; }

/// Host-independent counts, each marked by whether it repeated exactly over
/// every unit of this run (same inputs). Only exact counts may back a
/// count-based claim.
void print_work_counts(const std::vector<Unit>& units) {
  std::set<std::string> names;
  for (const Unit& u : units) {
    for (const auto& [name, v] : u.counts) names.insert(name);
  }
  std::printf("work counts per unit over %zu units (exact = identical in every unit):\n",
              units.size());
  for (const std::string& name : names) {
    const double first = count_of(units.front(), name);
    const bool exact = std::all_of(units.begin(), units.end(),
                                   [&](const Unit& u) { return count_of(u, name) == first; });
    std::printf("  %-28s %14.1f  %s\n", name.c_str(), median_count(units, name, nullptr),
                exact ? "exact" : "varies");
  }
}

using Metrics = std::vector<std::pair<std::string, double>>;

/// `seconds` of host time in unit `u`, scaled to the reference host speed.
double at_reference(const Unit& u, double seconds) {
  return seconds * per(kReferenceS, u.reference_s);
}

Metrics end_to_end(const std::vector<Unit>& units) {
  return {
      {"sim_us_per_s", median_of(units, [](const Unit& u) {
         return per(u.sim_us, at_reference(u, u.run_s));
       })},
      {"ops_per_s",
       median_of(units, [](const Unit& u) { return per(u.ops, at_reference(u, u.run_s)); })},
      {"forwarded_pct", median_of(units, [](const Unit& u) { return u.forwarded_pct; })},
      {"setup_s", median_of(units, [](const Unit& u) { return at_reference(u, u.setup_s); })},
      {"peak_rss_mb", peak_rss_mb()},
  };
}

Metrics per_layer(const std::vector<Unit>& untraced, const std::vector<Unit>& traced,
                  bool supervised) {
  Metrics m;
  auto add = [&](const char* name, double v) { m.emplace_back(name, v); };
  add("sysc.deltas_per_sim_us", median_count(untraced, "sysc.deltas", sim_us));
  add("sysc.dispatches_per_sim_us", median_count(untraced, "sysc.dispatches", sim_us));
  add("sysc.thread_resumes_per_pkt", median_count(untraced, "sysc.thread_resumes", ops));
  add("host.vcsw_per_sim_us",
      median_of(untraced, [](const Unit& u) { return per(u.host.vcsw, u.sim_us); }));
  add("host.ivcsw_per_sim_us",
      median_of(untraced, [](const Unit& u) { return per(u.host.ivcsw, u.sim_us); }));
  add("host.cpu_s_per_sim_ms",
      median_of(untraced, [](const Unit& u) { return per(u.host.cpu_s, u.sim_us / 1000.0); }));
  add("host.reference_ms", median_of(untraced, [](const Unit& u) { return u.reference_s * 1e3; }));
  add("host.wall_sim_us_per_s",
      median_of(untraced, [](const Unit& u) { return per(u.sim_us, u.run_s); }));
  add("ipc.syscalls_per_pkt", median_of(untraced, [](const Unit& u) {
        return per(count_of(u, "ipc.sends") + count_of(u, "ipc.recvs"), u.ops);
      }));
  add("ipc.bytes_per_pkt", median_count(untraced, "ipc.bytes", ops));
  add("rsp.transactions_per_pkt", median_count(untraced, "rsp.transactions", ops));
  add("cosim.gdbk.polls_per_sim_us", median_count(untraced, "cosim.gdbk.polls", sim_us));
  add("cosim.gdbk.breakpoints_per_pkt", median_count(untraced, "cosim.gdbk.breakpoints", ops));
  Hist roundtrip, ckpt_bytes;
  for (const Unit& u : untraced) {
    roundtrip.add(u.metrics, "cosim.gdbk.roundtrip_us");
    ckpt_bytes.add(u.metrics, "ckpt.bytes");
  }
  add("cosim.gdbk.roundtrip_us.p50", roundtrip.quantile(0.5));
  add("cosim.gdbk.roundtrip_us.p99", roundtrip.quantile(0.99));
  add("cosim.gdbw.steps_per_sim_us", median_count(untraced, "cosim.gdbw.steps", sim_us));
  add("cosim.drvk.messages_per_pkt", median_count(untraced, "cosim.drvk.messages", ops));
  add("cosim.drvk.interrupts_per_pkt", median_count(untraced, "cosim.drvk.interrupts", ops));
  add("iss.instructions_per_sim_us", median_count(untraced, "iss.instructions", sim_us));
  add("iss.breakpoint_checks_per_sim_us",
      median_count(untraced, "iss.breakpoint_checks", sim_us));
  for (const char* name : {"router.produced", "router.received", "router.dropped",
                           "router.checksum_bad", "sup.checkpoints", "sup.recoveries"}) {
    add(name, median_count(untraced, name, nullptr));
  }
  add("ckpt.bytes.p50", ckpt_bytes.quantile(0.5));

  // Traced units: self time per layer, from the probe and existing spans.
  auto self_of = [&](const char* span) {
    std::vector<double> values;
    for (const Unit& u : traced) {
      const auto it = u.spans.self.find(span);
      values.push_back(it == u.spans.self.end() ? 0.0 : it->second);
    }
    return median(std::move(values));
  };
  add("sysc.eval_s", median_of(traced, [](const Unit& u) { return u.eval_s; }));
  add("sysc.hook_gap_s", median_of(traced, [](const Unit& u) { return u.hook_gap_s; }));
  add("ipc.send_s", self_of("ipc.send"));
  add("ipc.recv_s", self_of("ipc.recv"));
  add("cosim.rdi_roundtrip_s", self_of("cosim.rdi_roundtrip"));
  add("cosim.drvk.message_s", self_of("cosim.drvk.message"));
  add("cosim.lockstep_s", self_of("cosim.lockstep_cycle"));
  add("sup.dev_write_s", self_of("sup.dev_write"));
  add("sup.dev_read_s", self_of("sup.dev_read"));
  add("ckpt.encode_s", self_of("ckpt.encode"));
  add("sup.recover_s", self_of("sup.recover"));
  add("sup.spawn_s", self_of("sup.spawn"));

  // The run's root span and the structural spans inside it: time they hold
  // as self time is covered by no layer's span.
  const char* root = supervised ? "sup.session" : "kernel.run";
  const std::vector<const char*> containers =
      supervised ? std::vector<const char*>{"sup.session"}
                 : std::vector<const char*>{"kernel.run", "kernel.delta"};
  std::vector<double> unattributed, coverage;
  for (const Unit& u : traced) {
    const SpanTimes& s = u.spans;
    double open = 0.0;
    for (const char* c : containers) {
      const auto it = s.self.find(c);
      if (it != s.self.end()) open += it->second;
    }
    const auto total = s.total.find(root);
    unattributed.push_back(open);
    coverage.push_back(total == s.total.end() ? 0.0 : 1.0 - per(open, total->second));
  }
  add("obs.unattributed_s", median(unattributed));
  // The two halves of the run may meet different host phases.
  const auto run_at_reference = [](const Unit& u) { return at_reference(u, u.run_s); };
  add("obs.trace_overhead",
      per(median_of(traced, run_at_reference), median_of(untraced, run_at_reference)) - 1.0);
  add("obs.span_coverage", median(coverage));
  double dropped = 0;
  for (const Unit& u : traced) dropped += u.dropped;
  add("trace.dropped_events", dropped);
  return m;
}

void print_layer_table(const Metrics& metrics) {
  std::printf("per-layer metrics (medians per unit; self times in seconds per unit):\n");
  for (const auto& [name, value] : metrics) {
    std::printf("  %-36s %.6g\n", name.c_str(), value);
  }
}

struct Args {
  std::string workload, worker, artifacts;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--worker") {
      a.worker = value;
    } else if (key == "--artifacts") {
      a.artifacts = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || a.workload.empty() || a.seconds <= 0) return std::nullopt;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception&) {
  }
  if (!args) {
    std::fprintf(stderr,
                 "usage: cosimbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--worker PATH --artifacts DIR\n");
    return 2;
  }
  const Workload* workload = find_workload(args->workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "cosimbench: unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  const bool supervised = workload->family == Family::Supervised;

  // One CPU, the one the process runs on; threads and the supervised worker
  // inherit the mask. Every workload's host threads strictly alternate, so
  // pinning changes nothing simulated. Unpinned, waking a thread on another,
  // idle vCPU dominated the runs, and its cost followed the host's load.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  CPU_SET(std::max(0, ::sched_getcpu()), &cpus);
  if (::sched_setaffinity(0, sizeof cpus, &cpus) != 0) {
    std::fprintf(stderr, "cosimbench: sched_setaffinity failed; running unpinned\n");
  }

  // Set-up outside the timed loop: the control run the supervised output
  // check compares against, or one discarded unit so lazy initialisation is
  // not timed.
  std::optional<SupervisedRun> supervised_run;
  try {
    if (supervised) {
      SupervisedRun run;
      run.base = supervised_config(args->worker);
      run.seed = args->seed;
      cosim::Supervisor control(run.base);
      const cosim::SupervisorOutcome outcome = control.run();
      run.control_checkpoint = outcome.final_checkpoint;
      run.control_ops = static_cast<double>(outcome.writes_applied + outcome.reads_served);
      run.total_instret = cosim::decode_checkpoint(outcome.final_checkpoint).iss.value().instret;
      supervised_run = std::move(run);
    } else {
      run_router(*workload, args->seed, false);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cosimbench: set-up failed: %s\n", e.what());
    return 1;
  }

  std::uint64_t unit_index = 0;
  auto run_unit = [&](bool traced) {
    return supervised ? run_supervised(*supervised_run, unit_index++, traced)
                      : run_router(*workload, args->seed, traced);
  };
  auto run_traced_unit = [&] { return on_fresh_thread([&] { return run_unit(true); }); };
  auto run_phase = [&](double seconds, bool traced, std::size_t min_units) {
    std::vector<Unit> units;
    const Clock::time_point start = Clock::now();
    while (units.size() < min_units || since(start) < seconds) {
      if (!units.empty()) units.back().trace.clear();
      const double before = reference_s();
      units.push_back(traced ? run_traced_unit() : run_unit(false));
      units.back().reference_s = (before + reference_s()) / 2;
    }
    return units;
  };

  std::vector<Unit> untraced = run_phase(args->trace ? args->seconds / 2 : args->seconds, false,
                                         kMinUnits);
  std::vector<Unit> traced;
  if (args->trace) {
    // A first, discarded traced unit measures how many events a unit
    // records; the rings of the counted units are sized to hold them all.
    obs::enable_tracing();
    obs::enable_tracing(measured_trace_ring(run_traced_unit()));
    traced = run_phase(args->seconds / 2, true, 1);
    obs::disable_tracing();
  }

  double attempted = 0, failed = 0;
  for (const std::vector<Unit>* units : {&untraced, &traced}) {
    for (const Unit& u : *units) {
      attempted += u.attempted;
      if (!u.failure.empty()) {
        failed += u.attempted;
        std::printf("FAILED unit: %s\n", u.failure.c_str());
      }
    }
  }

  std::printf("workload %s seed %llu: %zu untraced + %zu traced units\n", workload->name,
              static_cast<unsigned long long>(args->seed), untraced.size(), traced.size());
  print_work_counts(untraced);
  Metrics metrics;
  if (args->trace) {
    metrics = per_layer(untraced, traced, supervised);
    print_layer_table(metrics);
    if (!args->artifacts.empty() && !traced.empty()) {
      std::filesystem::create_directories(args->artifacts);
      const std::string path = args->artifacts + "/" + workload->name + ".trace.json";
      if (obs::write_chrome_trace(path, traced.back().trace)) {
        std::printf("perfetto trace: %s\n", path.c_str());
      }
    }
  } else {
    metrics = end_to_end(untraced);
  }
  std::printf("failed %.0f of %.0f attempted ops (%.3f%%)\n", failed, attempted,
              100.0 * per(failed, attempted));

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(static_cast<std::uint64_t>(attempted));
  json += ", \"failed\": " + std::to_string(static_cast<std::uint64_t>(failed));
  json += ", \"metrics\": {";
  const std::span<const MetricDecl> decls = args->trace ? per_layer_metrics() : end_to_end_metrics();
  for (std::size_t i = 0; i < decls.size(); ++i) {
    const auto it = std::find_if(metrics.begin(), metrics.end(),
                                 [&](const auto& m) { return m.first == decls[i].name; });
    if (it == metrics.end()) {
      std::fprintf(stderr, "cosimbench: metric %s was not measured\n", decls[i].name);
      return 1;
    }
    if (i > 0) json += ", ";
    json += std::string("\"") + decls[i].name + "\": {\"value\": " + number(it->second) +
            ", \"unit\": \"" + decls[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
