#include "cosim/supervisor.hpp"

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "cosim/bytes.hpp"
#include "ipc/capture.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sysc/kernel.hpp"
#include "sysc/sc_time.hpp"
#include "util/error.hpp"

namespace nisc::cosim {

using util::RuntimeError;

namespace {

/// The supervisor's SystemC-backed device model. Registers live in a map;
/// every *applied* write advances the simulation (a timed notification the
/// device process consumes), so the kernel section of an augmented
/// checkpoint is a deterministic function of the applied write sequence —
/// replays (which are deduplicated) leave it untouched.
class DeviceModel {
 public:
  DeviceModel() {
    sysc::sc_simcontext::ContextGuard guard(ctx_);
    irq_event_ = std::make_unique<sysc::sc_event>("dev_irq");
    sysc::sc_process& update = ctx_.create_method("dev_update", [this] { ++updates_; });
    update.dont_initialize();
    update.make_sensitive(*irq_event_);
  }

  std::uint32_t read(std::uint32_t addr) const {
    if (addr == kDevOpCountAddr) return static_cast<std::uint32_t>(writes_);
    const auto it = regs_.find(addr);
    return it == regs_.end() ? 0 : it->second;
  }

  /// Applies a write; returns the interrupt line to raise, if any.
  std::optional<std::uint32_t> write(std::uint32_t addr, std::uint32_t value) {
    regs_[addr] = value;
    ++writes_;
    irq_event_->notify(sysc::sc_time::from_ps(10000));
    ctx_.run(sysc::sc_time::from_ps(20000));
    if (addr == kDevIrqTriggerAddr) return value & 0x1F;
    return std::nullopt;
  }

  sysc::kernel_state state() const { return ctx_.save_state(); }

 private:
  sysc::sc_simcontext ctx_;
  std::unique_ptr<sysc::sc_event> irq_event_;
  std::map<std::uint32_t, std::uint32_t> regs_;
  std::uint64_t writes_ = 0;
  std::uint64_t updates_ = 0;
};

struct SocketPair {
  ipc::Fd parent;
  ipc::Fd child;
};

SocketPair make_socketpair() {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw RuntimeError(std::string("socketpair: ") + std::strerror(errno));
  }
  return SocketPair{ipc::Fd(sv[0]), ipc::Fd(sv[1])};
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

void write_file(const std::filesystem::path& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  write_file(path, std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

}  // namespace

struct Supervisor::Impl {
  explicit Impl(SupervisorConfig config) : cfg(std::move(config)) {
    util::require(!cfg.worker_path.empty(), "supervisor: worker_path is required");
  }

  ~Impl() { kill_child(); }

  SupervisorConfig cfg;
  DeviceModel device;

  pid_t pid = -1;
  ipc::Channel data;
  ipc::Channel irq;

  // -- crash-consistency bookkeeping ----------------------------------------
  std::uint64_t applied_seq = 0;  ///< highest worker frame seq applied
  std::uint64_t irq_tx_seq = 0;   ///< interrupts raised (logical, applied writes only)
  /// Replies to applied requests, for answering replays after a restore.
  /// Keyed by the worker's request seq; pruned at every checkpoint.
  struct LoggedReply {
    bool is_read = false;
    std::uint32_t value = 0;
    std::uint64_t irq_mark = 0;  ///< irq_tx_seq right after the original apply
  };
  std::map<std::uint64_t, LoggedReply> reply_log;
  /// Raised interrupts the worker may not have durably absorbed yet
  /// (seq -> line); pruned at every checkpoint, re-sent on resume.
  std::map<std::uint64_t, std::uint32_t> irq_log;

  std::vector<std::uint8_t> latest_ckpt;    ///< augmented, encoded
  std::uint64_t latest_irqs_delivered = 0;  ///< from the latest checkpoint

  SupervisorOutcome outcome;
  int spawn_count = 0;

  // -- observability (DESIGN.md §10.5-10.6) ---------------------------------
  std::uint32_t worker_features = 0;  ///< from the latest Hello
  int ckpts_since_pull = 0;
  /// Last-N-transfers ring on the data socket; survives kill_child (the
  /// shared_ptr keeps it alive after the channel closes), so a postmortem
  /// bundle contains the dying worker's final wire traffic.
  std::shared_ptr<ipc::WireCapture> wire_capture;

  bool obs_active() const noexcept {
    return cfg.obs_export && (worker_features & kWorkerFeatureObs) != 0;
  }

  // -- child lifecycle -------------------------------------------------------

  void spawn() {
    obs::ScopedSpan span("sup.spawn", "sup", "spawn", static_cast<std::uint64_t>(spawn_count));
    SocketPair data_sp = make_socketpair();
    SocketPair irq_sp = make_socketpair();

    const std::string data_fd = std::to_string(data_sp.child.get());
    const std::string irq_fd = std::to_string(irq_sp.child.get());
    const pid_t child = ::fork();
    if (child < 0) throw RuntimeError(std::string("fork: ") + std::strerror(errno));
    if (child == 0) {
      // Child: the socketpair fds are inherited; tell the worker which ones.
      data_sp.parent.reset();
      irq_sp.parent.reset();
      ::execl(cfg.worker_path.c_str(), "cosim_issworker", "--data-fd", data_fd.c_str(),
              "--irq-fd", irq_fd.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);  // exec failed; the parent sees EOF on the sockets
    }
    pid = child;
    data_sp.child.reset();
    irq_sp.child.reset();
    data = ipc::Channel::from_socket(std::move(data_sp.parent));
    irq = ipc::Channel::from_socket(std::move(irq_sp.parent));
    data.set_io_timeout(cfg.hang_timeout_ms);
    irq.set_io_timeout(cfg.hang_timeout_ms);
    std::shared_ptr<ipc::WireObserver> data_tap;
    if (!cfg.postmortem_dir.empty() || cfg.obs_export) {
      wire_capture = std::make_shared<ipc::WireCapture>(cfg.session_label + "-data");
      data.attach_capture(wire_capture);
      data_tap =
          std::make_shared<ipc::ObsTap>("sup.data", peek_frame_trace_id, "dev_access", "flow");
    }
    // A channel holds one observer slot; compose the supervisor's own tap
    // with the injected one (e.g. a live conformance monitor) when both run.
    if (data_tap && cfg.data_observer) {
      data.attach_observer(std::make_shared<ipc::FanoutWireObserver>(
          std::vector<std::shared_ptr<ipc::WireObserver>>{data_tap, cfg.data_observer}));
    } else if (data_tap || cfg.data_observer) {
      data.attach_observer(data_tap ? data_tap : cfg.data_observer);
    }
    if (cfg.irq_observer) irq.attach_observer(cfg.irq_observer);

    // Handshake: Hello, then Start (fresh) or Resume (replay the latest
    // checkpoint and re-send the interrupts it had not absorbed).
    const WorkerFrame hello = recv_frame(data);
    if (hello.op != WorkerOp::Hello) {
      throw RuntimeError(std::string("supervisor: expected Hello, got ") +
                         worker_op_name(hello.op));
    }
    ByteReader r(hello.payload, "Hello payload");
    const std::uint32_t magic = r.u32();
    if (magic != kWorkerHelloMagic) {
      throw RuntimeError("supervisor: worker protocol magic mismatch");
    }
    // Feature bits follow the magic since the obs side-band landed; a Hello
    // without them is an older worker (no side-band spoken).
    worker_features = r.remaining() >= 4 ? r.u32() : 0;

    WorkerConfig worker_cfg = cfg.worker;
    worker_cfg.fault = spawn_count < static_cast<int>(cfg.fault_plan.size())
                           ? cfg.fault_plan[static_cast<std::size_t>(spawn_count)]
                           : WorkerFault{};
    if (obs_active()) worker_cfg.obs_export = true;
    ++spawn_count;

    if (latest_ckpt.empty()) {
      send_frame(data, WorkerFrame{WorkerOp::Start, 0, 0, encode_worker_config(worker_cfg)});
    } else {
      ByteWriter w;
      const std::vector<std::uint8_t> encoded_cfg = encode_worker_config(worker_cfg);
      w.blob(encoded_cfg);
      w.bytes(latest_ckpt);
      send_frame(data, WorkerFrame{WorkerOp::Resume, 0, 0, w.take()});
    }
    // Re-send every logged interrupt the replayed run has not yet absorbed —
    // on the Start path too: a crash before the first checkpoint replays
    // from reset, and its deduplicated device writes will not re-raise the
    // interrupts the original run already produced, yet the replayed acks
    // carry the historical irq high-water marks the worker must drain to.
    for (const auto& [seq, line] : irq_log) {
      if (seq <= latest_irqs_delivered) continue;
      ByteWriter payload;
      payload.u32(line);
      send_frame(irq, WorkerFrame{WorkerOp::Irq, seq, 0, payload.take()});
    }

    if (worker_cfg.obs_export) clock_sync();
  }

  /// Clock-offset handshake (DESIGN.md §10.5): the worker answers the
  /// ClockSync ping with its steady clock; assuming symmetric transit, its
  /// reading was taken at our (t0+t1)/2, so offset = midpoint - worker_ns.
  void clock_sync() {
    obs::ScopedSpan span("sup.clock_sync", "sup");
    const std::uint64_t t0 = now_ns();
    ByteWriter w;
    w.u64(t0);
    send_frame(data, WorkerFrame{WorkerOp::ClockSync, 0, 0, w.take()});
    const WorkerFrame ack = recv_frame(data);
    const std::uint64_t t1 = now_ns();
    if (ack.op != WorkerOp::ClockSyncAck) {
      throw RuntimeError(std::string("supervisor: expected ClockSyncAck, got ") +
                         worker_op_name(ack.op));
    }
    ByteReader r(ack.payload, "ClockSyncAck payload");
    const std::uint64_t worker_ns = r.u64();
    outcome.clock_offset_ns =
        static_cast<std::int64_t>((t0 + t1) / 2) - static_cast<std::int64_t>(worker_ns);
    static obs::Gauge& g_offset = obs::gauge("sup.clock_offset_ns");
    g_offset.set(outcome.clock_offset_ns);
  }

  bool child_dead() {
    if (pid < 0) return true;
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      pid = -1;  // reaped
      return true;
    }
    return false;
  }

  void kill_child() noexcept {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      pid = -1;
    }
    data.close();
    irq.close();
  }

  void recover(const char* reason) {
    ++outcome.recoveries;
    static obs::Counter& c_recoveries = obs::counter("sup.recoveries");
    c_recoveries.add(1);
    obs::instant(reason, "sup", "recoveries", static_cast<std::uint64_t>(outcome.recoveries));
    // Flight recorder first, while the dying worker's wire ring and last
    // ObsReport are still what they were at the failure.
    write_postmortem(reason);
    if (outcome.recoveries > cfg.max_recoveries) {
      kill_child();
      throw RuntimeError("supervisor: recovery limit exceeded (" +
                         std::to_string(cfg.max_recoveries) + ")");
    }
    obs::ScopedSpan span("sup.recover", "sup");
    // Epoch boundary for live conformance monitors: a SIGKILL legitimately
    // truncates a frame mid-wire, so announce the respawn before the old
    // sockets die — the monitors reset their decoders and resynchronize on
    // the replacement pair's fresh handshake.
    data.notify_observer("respawn");
    irq.notify_observer("respawn");
    kill_child();
    spawn();
  }

  /// The merged view of the session: supervisor rings as pid 1, the last
  /// exported worker rings (rebased by the measured clock offset) as pid 2.
  std::vector<obs::ProcessTrace> merged_processes() const {
    std::vector<obs::ProcessTrace> processes;
    obs::ProcessTrace sup;
    sup.label = cfg.session_label + "/supervisor";
    sup.pid = 1;
    sup.snapshot = obs::take_trace_snapshot();
    processes.push_back(std::move(sup));
    obs::ProcessTrace wrk;
    wrk.label = cfg.session_label + "/worker";
    wrk.pid = 2;
    wrk.clock_offset_ns = outcome.clock_offset_ns;
    wrk.snapshot = outcome.worker_trace;
    processes.push_back(std::move(wrk));
    return processes;
  }

  /// Crash flight recorder (DESIGN.md §10.6): writes one bundle directory
  /// per recovery. Best-effort by design — a full disk must not stop the
  /// recovery path, so every failure here is swallowed.
  void write_postmortem(const char* reason) noexcept {
    if (cfg.postmortem_dir.empty()) return;
    try {
      namespace fs = std::filesystem;
      const fs::path dir =
          fs::path(cfg.postmortem_dir) /
          (cfg.session_label + "-pm" + std::to_string(outcome.postmortem_paths.size() + 1));
      fs::create_directories(dir);
      std::vector<std::string> files;

      obs::write_chrome_trace((dir / "trace.json").string(), merged_processes());
      files.push_back("trace.json");

      write_file(dir / "metrics.json", obs::MetricsRegistry::instance().render_json());
      files.push_back("metrics.json");
      write_file(dir / "worker_metrics.json",
                 outcome.worker_metrics_json.empty() ? std::string("{}\n")
                                                     : outcome.worker_metrics_json);
      files.push_back("worker_metrics.json");

      std::vector<std::uint8_t> capture_dump;
      std::string capture_text;
      if (wire_capture) {
        capture_dump = wire_capture->dump();
        capture_text = wire_capture->render_text();
        write_file(dir / "wire.capture", std::span<const std::uint8_t>(capture_dump));
        files.push_back("wire.capture");
      }

      if (latest_ckpt.empty()) {
        write_file(dir / "checkpoint.txt", std::string("no checkpoint captured\n"));
      } else {
        write_file(dir / "checkpoint.txt", describe_checkpoint(decode_checkpoint(latest_ckpt)));
        write_file(dir / "checkpoint.ckpt", std::span<const std::uint8_t>(latest_ckpt));
        files.push_back("checkpoint.ckpt");
      }
      files.push_back("checkpoint.txt");

      std::string findings;
      findings += std::string("reason: ") + reason + "\n";
      findings += "recoveries: " + std::to_string(outcome.recoveries) + "\n";
      findings += "clock_offset_ns: " + std::to_string(outcome.clock_offset_ns) + "\n";
      if (!capture_text.empty()) findings += "\nwire capture (last transfers):\n" + capture_text;
      if (cfg.findings_hook) findings += "\nconformance:\n" + cfg.findings_hook(capture_dump);
      write_file(dir / "findings.txt", findings);
      files.push_back("findings.txt");

      std::string manifest = "{\"schema\":1,\"session\":\"" + cfg.session_label +
                             "\",\"reason\":\"" + reason +
                             "\",\"recoveries\":" + std::to_string(outcome.recoveries) +
                             ",\"clock_offset_ns\":" + std::to_string(outcome.clock_offset_ns) +
                             ",\"files\":[";
      for (std::size_t i = 0; i < files.size(); ++i) {
        if (i > 0) manifest += ',';
        manifest += '"' + files[i] + '"';
      }
      manifest += "]}\n";
      write_file(dir / "MANIFEST.json", manifest);

      outcome.postmortem_paths.push_back(dir.string());
      static obs::Counter& c_bundles = obs::counter("sup.postmortems");
      c_bundles.add(1);
    } catch (...) {
      // Recovery matters more than the bundle.
    }
  }

  // -- frame handling --------------------------------------------------------

  /// Augments a worker checkpoint with the supervisor-side sections and
  /// stores it as the resume point. Logical counters only — replays change
  /// none of them, so the augmented bytes are identical whether or not a
  /// recovery happened on the way here.
  std::vector<std::uint8_t> augment(std::span<const std::uint8_t> worker_ckpt) {
    Checkpoint checkpoint = decode_checkpoint(worker_ckpt);
    checkpoint.kernel = device.state();
    ChannelSnapshot sup;
    sup.label = "sup-data";
    sup.tx_seq = outcome.writes_applied + outcome.reads_served;
    sup.rx_seq = applied_seq;
    checkpoint.channels.push_back(std::move(sup));
    return encode_checkpoint(checkpoint);
  }

  void store_checkpoint(std::span<const std::uint8_t> worker_ckpt) {
    const Checkpoint checkpoint = decode_checkpoint(worker_ckpt);
    latest_ckpt = augment(worker_ckpt);
    static obs::Counter& c_ckpts = obs::counter("sup.checkpoints");
    c_ckpts.add(1);

    // Prune: everything at or below the checkpoint's counters is durable.
    std::uint64_t worker_tx = 0;
    for (const ChannelSnapshot& chan : checkpoint.channels) {
      if (chan.label == "worker-data") worker_tx = chan.tx_seq;
    }
    std::erase_if(reply_log, [worker_tx](const auto& e) { return e.first <= worker_tx; });
    if (checkpoint.worker) {
      latest_irqs_delivered = checkpoint.worker->irqs_delivered;
      std::erase_if(irq_log,
                    [this](const auto& e) { return e.first <= latest_irqs_delivered; });
    }

    if (!cfg.checkpoint_path.empty()) {
      std::ofstream out(cfg.checkpoint_path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(latest_ckpt.data()),
                static_cast<std::streamsize>(latest_ckpt.size()));
    }
  }

  void handle_dev_write(const WorkerFrame& frame) {
    // The flow-finish joins the worker's flow-begin around the ecall that
    // sent this frame: one arrow per correlated device access in the merged
    // timeline.
    obs::ScopedSpan span("sup.dev_write", "sup", "seq", frame.seq);
    obs::flow_end("dev_access", "flow", frame.trace_id);
    ByteReader r(frame.payload, "DevWrite payload");
    const std::uint32_t addr = r.u32();
    const std::uint32_t value = r.u32();
    std::uint64_t irq_mark = 0;
    // chaos_no_dedup (the NL413 negative control) treats every replay as
    // fresh: the device effect is applied twice, exactly the duplication
    // the model checker's counterexample predicts.
    if (!cfg.chaos_no_dedup && frame.seq <= applied_seq) {
      // Replay of an applied write: re-ack with the *historical* irq mark so
      // the worker drains interrupts at the same instruction boundary as the
      // original run.
      irq_mark = logged_reply(frame, false).irq_mark;
    } else {
      applied_seq = frame.seq;
      ++outcome.writes_applied;
      if (const std::optional<std::uint32_t> line = device.write(addr, value)) {
        ++irq_tx_seq;
        ++outcome.irqs_sent;
        irq_log.emplace(irq_tx_seq, *line);
        ByteWriter payload;
        payload.u32(*line);
        send_frame(irq, WorkerFrame{WorkerOp::Irq, irq_tx_seq, 0, payload.take()});
      }
      irq_mark = irq_tx_seq;
      reply_log.emplace(frame.seq, LoggedReply{false, 0, irq_mark});
    }
    ByteWriter ack;
    ack.u64(irq_mark);
    send_frame(data, WorkerFrame{WorkerOp::WriteAck, frame.seq, frame.trace_id, ack.take()});
  }

  void handle_dev_read(const WorkerFrame& frame) {
    obs::ScopedSpan span("sup.dev_read", "sup", "seq", frame.seq);
    obs::flow_end("dev_access", "flow", frame.trace_id);
    ByteReader r(frame.payload, "DevRead payload");
    const std::uint32_t addr = r.u32();
    std::uint32_t value = 0;
    std::uint64_t irq_mark = 0;
    if (!cfg.chaos_no_dedup && frame.seq <= applied_seq) {
      // Replay: answer from the log — the device may have moved on since.
      const LoggedReply& logged = logged_reply(frame, true);
      value = logged.value;
      irq_mark = logged.irq_mark;
    } else {
      applied_seq = frame.seq;
      ++outcome.reads_served;
      value = device.read(addr);
      irq_mark = irq_tx_seq;
      reply_log.emplace(frame.seq, LoggedReply{true, value, irq_mark});
    }
    ByteWriter reply;
    reply.u32(value);
    reply.u64(irq_mark);
    send_frame(data, WorkerFrame{WorkerOp::ReadReply, frame.seq, frame.trace_id, reply.take()});
  }

  const LoggedReply& logged_reply(const WorkerFrame& frame, bool want_read) {
    const auto it = reply_log.find(frame.seq);
    if (it == reply_log.end() || it->second.is_read != want_read) {
      throw RuntimeError("supervisor: replayed " + std::string(worker_op_name(frame.op)) +
                         " seq " + std::to_string(frame.seq) +
                         " diverges from the logged history");
    }
    return it->second;
  }

  /// Pulls the worker's trace rings + metrics every obs_pull_every applied
  /// checkpoints. Fire-and-forget at seq 0: the ObsReport comes back through
  /// the normal receive loop, so a worker busy running the guest never
  /// stalls the supervisor here.
  void maybe_pull_obs() {
    if (!obs_active()) return;
    if (++ckpts_since_pull < cfg.obs_pull_every) return;
    ckpts_since_pull = 0;
    send_frame(data, WorkerFrame{WorkerOp::PullObs, 0, 0, {}});
    static obs::Counter& c_pulls = obs::counter("sup.obs_pulls");
    c_pulls.add(1);
  }

  /// Returns true when the session is complete (Done handled).
  bool handle(const WorkerFrame& frame) {
    switch (frame.op) {
      case WorkerOp::Ckpt:
        if (frame.seq > applied_seq) {
          applied_seq = frame.seq;
          store_checkpoint(frame.payload);
          maybe_pull_obs();
        }
        return false;
      case WorkerOp::ObsReport: {
        const WorkerObsReport report = decode_obs_report(frame.payload);
        outcome.worker_trace = report.trace;
        outcome.worker_metrics_json = report.metrics_json;
        return false;
      }
      case WorkerOp::ClockSyncAck:
        return false;  // late ack after a recovery race; offset already set
      case WorkerOp::DevWrite:
        handle_dev_write(frame);
        return false;
      case WorkerOp::DevRead:
        handle_dev_read(frame);
        return false;
      case WorkerOp::Done: {
        ByteReader r(frame.payload, "Done payload");
        outcome.guest_halt = r.u8();
        outcome.final_checkpoint = augment(r.bytes(r.remaining()));
        if (!cfg.checkpoint_path.empty()) {
          std::ofstream out(cfg.checkpoint_path, std::ios::binary | std::ios::trunc);
          out.write(reinterpret_cast<const char*>(outcome.final_checkpoint.data()),
                    static_cast<std::streamsize>(outcome.final_checkpoint.size()));
        }
        return true;
      }
      default:
        throw RuntimeError(std::string("supervisor: unexpected ") + worker_op_name(frame.op) +
                           " frame");
    }
  }

  SupervisorOutcome run() {
    obs::ScopedSpan span("sup.session", "sup");
    spawn();
    for (;;) {
      if (!data.readable(cfg.hang_timeout_ms)) {
        recover(child_dead() ? "sup.recover.death" : "sup.recover.hang");
        continue;
      }
      WorkerFrame frame;
      try {
        frame = recv_frame(data);
      } catch (const std::exception&) {
        recover(child_dead() ? "sup.recover.death" : "sup.recover.protocol");
        continue;
      }
      try {
        if (handle(frame)) break;
      } catch (const RuntimeError&) {
        recover("sup.recover.protocol");
      }
    }
    // Let the worker exit cleanly; SIGKILL whatever refuses.
    if (pid > 0) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) pid = -1;
    }
    kill_child();
    if (!cfg.trace_out.empty()) {
      obs::write_chrome_trace(cfg.trace_out, merged_processes());
    }
    return std::move(outcome);
  }
};

Supervisor::Supervisor(SupervisorConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}
Supervisor::~Supervisor() = default;

SupervisorOutcome Supervisor::run() { return impl_->run(); }

}  // namespace nisc::cosim
