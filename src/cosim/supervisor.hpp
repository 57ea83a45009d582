// Session supervisor: spawns the ISS as a real child process, watches it,
// and recovers it from the last crash-consistent checkpoint (DESIGN.md §12).
//
// The supervisor plays the SystemC side of the paper's Driver-Kernel scheme
// for a supervised session: it owns a device model backed by a
// sysc::sc_simcontext (applied device writes advance simulated time), the
// data socket, and the dedicated interrupt socket. The worker protocol is
// defined in cosim/worker.hpp.
//
// Recovery triggers, matching the failure taxonomy in ISSUE/DESIGN §12:
//  * death    — waitpid reports the child gone (SIGKILL, abort, exit);
//  * hang     — no frame within `hang_timeout_ms` while the child lives;
//  * protocol — an undecodable frame arrives (stream corruption).
// On any trigger the supervisor SIGKILLs what remains of the child, spawns
// a fresh worker over fresh socketpairs, replays the latest checkpoint
// (Resume frame + re-sent interrupts), and continues. Replayed frames are
// deduplicated by sequence number; replayed device reads are answered from
// a reply log (pruned at each checkpoint), so a recovered run's final
// checkpoint is bit-identical to an uninterrupted run's.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cosim/checkpoint.hpp"
#include "cosim/worker.hpp"
#include "ipc/channel.hpp"
#include "obs/trace.hpp"

namespace nisc::cosim {

struct SupervisorConfig {
  /// Path to the cosim_issworker binary.
  std::string worker_path;
  /// Guest program + cadence shipped to every spawn. Its trace/obs_export
  /// fields control the *worker's* rings and side-band; the fields below
  /// control the supervisor side (obs_export here also forces the worker
  /// flag on, since the side-band needs both ends).
  WorkerConfig worker;
  /// Fault injected into spawn N (fault_plan[N]); spawns beyond the end run
  /// clean. Lets a crash-matrix cell kill the worker several times.
  std::vector<WorkerFault> fault_plan;
  /// No frame for this long while the child lives => hang, recover.
  int hang_timeout_ms = 5000;
  /// Abort after this many recoveries (RuntimeError).
  int max_recoveries = 8;
  /// When non-empty, every checkpoint is also written to this file (the
  /// crash-matrix failure artifact and the cosim_ckpt handoff point).
  std::string checkpoint_path;

  // -- cross-process observability (DESIGN.md §10.5-10.6) -------------------
  /// Speak the observability side-band: clock-offset handshake per spawn,
  /// periodic ObsReport pulls, final pull before Done. Sets the shipped
  /// WorkerConfig's obs_export too; every worker built from this tree
  /// speaks it.
  bool obs_export = false;
  /// Pull an ObsReport every N applied checkpoints (>= 1).
  int obs_pull_every = 1;
  /// Labels the session: merged-trace process names, postmortem directory
  /// names.
  std::string session_label = "cosim";
  /// When non-empty, the merged supervisor+worker Chrome trace is written
  /// here after a successful run.
  std::string trace_out;
  /// When non-empty, every recovery (death/hang/protocol error) writes a
  /// postmortem bundle into a fresh subdirectory of this path before the
  /// worker is respawned.
  std::string postmortem_dir;
  /// Optional hook rendering conformance findings from the wire-capture
  /// dump for the bundle's findings.txt (the analysis layer links *against*
  /// cosim, so the supervisor cannot call it directly; tools inject e.g.
  /// analysis::check_capture here).
  std::function<std::string(std::span<const std::uint8_t> capture_dump)> findings_hook;

  // -- live conformance taps (DESIGN.md §11) --------------------------------
  /// Attached to every spawn's data / irq socket (composed with the
  /// supervisor's own ObsTap when observability is on). Each recovery
  /// announces itself with an out-of-band "respawn" wire event *before* the
  /// old child is killed, so a live monitor (analysis::
  /// LiveConformanceMonitor) can reset its decoders at the epoch boundary.
  std::shared_ptr<ipc::WireObserver> data_observer;
  std::shared_ptr<ipc::WireObserver> irq_observer;

  /// Chaos knob for the NL413 negative control: skip the sequence-number
  /// dedup so recovery replays re-apply device effects. A supervised run
  /// with a kill then diverges from the uninterrupted control run — the
  /// real-system shadow of `cosim_lint --model=worker --env=crash
  /// --no-reply-log`.
  bool chaos_no_dedup = false;
};

struct SupervisorOutcome {
  /// Guest halt reason (iss::Halt) reported by the worker's Done frame.
  std::uint8_t guest_halt = 0;
  /// Times the worker was respawned.
  int recoveries = 0;
  /// Final checkpoint, augmented with the supervisor's kernel section and
  /// channel snapshot — the bit-comparison surface of the crash matrix.
  std::vector<std::uint8_t> final_checkpoint;
  std::uint64_t writes_applied = 0;
  std::uint64_t reads_served = 0;
  std::uint64_t irqs_sent = 0;

  // -- observability (populated when obs_export ran) ------------------------
  /// Worker steady-clock offset from the latest ClockSync handshake:
  /// supervisor_ns = worker_ns + clock_offset_ns.
  std::int64_t clock_offset_ns = 0;
  /// Last ObsReport the worker exported (trace rings + metrics JSON).
  obs::TraceSnapshot worker_trace;
  std::string worker_metrics_json;
  /// Postmortem bundles written, in order.
  std::vector<std::string> postmortem_paths;
};

/// Runs one supervised session to completion. Single-threaded and
/// synchronous; construct, call run() once, inspect the outcome.
class Supervisor {
 public:
  explicit Supervisor(SupervisorConfig config);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  SupervisorOutcome run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nisc::cosim
