#include "cosim/worker.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <thread>

#include "cosim/checkpoint.hpp"
#include "iss/assembler.hpp"
#include "iss/cpu.hpp"
#include "iss/program.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace nisc::cosim {

using util::ByteReader;
using util::ByteWriter;
using util::RuntimeError;

const char* worker_op_name(WorkerOp op) noexcept {
  switch (op) {
    case WorkerOp::Start: return "Start";
    case WorkerOp::Resume: return "Resume";
    case WorkerOp::WriteAck: return "WriteAck";
    case WorkerOp::ReadReply: return "ReadReply";
    case WorkerOp::Irq: return "Irq";
    case WorkerOp::ClockSync: return "ClockSync";
    case WorkerOp::PullObs: return "PullObs";
    case WorkerOp::Hello: return "Hello";
    case WorkerOp::Ckpt: return "Ckpt";
    case WorkerOp::DevWrite: return "DevWrite";
    case WorkerOp::DevRead: return "DevRead";
    case WorkerOp::Done: return "Done";
    case WorkerOp::ClockSyncAck: return "ClockSyncAck";
    case WorkerOp::ObsReport: return "ObsReport";
  }
  return "?";
}

std::vector<std::uint8_t> encode_worker_config(const WorkerConfig& config) {
  ByteWriter w;
  w.str32(config.guest_source);
  w.u64(config.mem_size);
  w.u64(config.ckpt_every);
  w.u8(static_cast<std::uint8_t>(config.fault.kind));
  w.u64(config.fault.at_instret);
  std::uint8_t flags = 0;
  if (config.trace) flags |= 1;
  if (config.obs_export) flags |= 2;
  w.u8(flags);
  w.u64(config.trace_buf);
  w.u32(config.clock_period_ps);
  w.u32(config.worker_index);
  w.str(config.session_label);
  return w.take();
}

WorkerConfig decode_worker_config(std::span<const std::uint8_t> payload) {
  ByteReader r(payload, "worker config");
  WorkerConfig config;
  config.guest_source = r.str32();
  config.mem_size = r.u64();
  config.ckpt_every = r.u64();
  util::require(config.ckpt_every > 0, "worker config: ckpt_every must be positive");
  config.fault.kind = static_cast<FaultKind>(r.u8());
  config.fault.at_instret = r.u64();
  const std::uint8_t flags = r.u8();
  config.trace = (flags & 1) != 0;
  config.obs_export = (flags & 2) != 0;
  config.trace_buf = r.u64();
  config.clock_period_ps = r.u32();
  config.worker_index = r.u32();
  config.session_label = r.str();
  return config;
}

std::size_t worker_op_fixed_payload(WorkerOp op) noexcept {
  switch (op) {
    case WorkerOp::DevWrite: return 8;   // u32 addr | u32 value
    case WorkerOp::DevRead: return 4;    // u32 addr
    case WorkerOp::WriteAck: return 8;   // u64 irq high-water
    case WorkerOp::ReadReply: return 12; // u32 value | u64 irq high-water
    case WorkerOp::Irq: return 4;        // u32 line
    default: return 0;
  }
}

namespace {

/// Bytes of the trace-id trailer: u64 trace_id | u32 kFrameTraceMagic.
constexpr std::size_t kTrailerSize = 12;

}  // namespace

void send_frame(ipc::Channel& channel, const WorkerFrame& frame) {
  const std::size_t fixed = worker_op_fixed_payload(frame.op);
  const bool trailer = frame.trace_id != 0 && fixed != 0 && frame.payload.size() == fixed;
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(1 + 8 + frame.payload.size() + (trailer ? kTrailerSize : 0)));
  w.u8(static_cast<std::uint8_t>(frame.op));
  w.u64(frame.seq);
  w.bytes(frame.payload);
  if (trailer) {
    w.u64(frame.trace_id);
    w.u32(kFrameTraceMagic);
  }
  channel.send(w.data());
}

WorkerFrameView cut_worker_frame(std::span<const std::uint8_t> bytes) noexcept {
  WorkerFrameView frame;
  if (bytes.size() < 4) return frame;
  ByteReader r(bytes, "worker frame");
  frame.length = r.u32();
  if (frame.length < 1 + 8 || frame.length > kMaxWorkerFrame) {
    frame.cut = ipc::FrameCut::BadLength;
    return frame;
  }
  if (r.remaining() < frame.length) {
    frame.cut = ipc::FrameCut::ShortBody;
    return frame;
  }
  frame.cut = ipc::FrameCut::Whole;
  frame.op = static_cast<WorkerOp>(r.u8());
  frame.seq = r.u64();
  frame.payload = r.view(frame.length - (1 + 8));
  const std::size_t fixed = worker_op_fixed_payload(frame.op);
  if (fixed != 0 && frame.payload.size() == fixed + kTrailerSize) {
    ByteReader trailer(frame.payload.subspan(fixed), "trace-id trailer");
    const std::uint64_t id = trailer.u64();
    if (trailer.u32() == kFrameTraceMagic) {
      frame.trace_id = id;
      frame.payload = frame.payload.first(fixed);
    }
  }
  return frame;
}

std::string worker_frame_defect(const WorkerFrameView& frame) {
  const std::string name = worker_op_name(frame.op);
  if (name == "?") return "unknown op " + std::to_string(static_cast<unsigned>(frame.op));
  const std::size_t fixed = worker_op_fixed_payload(frame.op);
  if (fixed != 0 && frame.payload.size() != fixed) {
    return name + " payload is " + std::to_string(frame.payload.size()) + " byte(s), op fixes " +
           std::to_string(fixed);
  }
  return {};
}

WorkerFrame recv_frame(ipc::Channel& channel) {
  std::uint8_t head[4];
  channel.recv_exact(head);
  const WorkerFrameView header = cut_worker_frame(head);
  if (header.cut == ipc::FrameCut::BadLength) {
    throw RuntimeError("worker frame: implausible body length " + std::to_string(header.length) +
                       " (stream corrupt?)");
  }
  std::vector<std::uint8_t> bytes(header.size());
  std::copy(std::begin(head), std::end(head), bytes.begin());
  channel.recv_exact(std::span(bytes).subspan(4));
  const WorkerFrameView view = cut_worker_frame(bytes);
  return WorkerFrame{view.op, view.seq, view.trace_id, {view.payload.begin(), view.payload.end()}};
}

std::uint64_t peek_frame_trace_id(ipc::CaptureDir dir,
                                  std::span<const std::uint8_t> bytes) noexcept {
  if (dir != ipc::CaptureDir::Tx) return 0;
  const WorkerFrameView frame = cut_worker_frame(bytes);
  // Only a transfer that is exactly one whole frame can be read.
  return frame.cut == ipc::FrameCut::Whole && frame.size() == bytes.size() ? frame.trace_id : 0;
}

std::vector<std::uint8_t> encode_obs_report(const WorkerObsReport& report) {
  ByteWriter w;
  w.u64(report.worker_now_ns);
  w.str32(report.metrics_json);
  w.bytes(obs::encode_trace_snapshot(report.trace));
  return w.take();
}

WorkerObsReport decode_obs_report(std::span<const std::uint8_t> payload) {
  ByteReader r(payload, "obs report");
  WorkerObsReport report;
  report.worker_now_ns = r.u64();
  report.metrics_json = r.str32();
  report.trace = obs::decode_trace_snapshot(r.view(r.remaining()));
  return report;
}

// ---------------------------------------------------------------------------
// Worker main loop

namespace {

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

void send_obs_report(ipc::Channel& data) {
  WorkerObsReport report;
  report.worker_now_ns = now_ns();
  report.metrics_json = obs::MetricsRegistry::instance().render_json();
  report.trace = obs::take_trace_snapshot();
  send_frame(data, WorkerFrame{WorkerOp::ObsReport, 0, 0, encode_obs_report(report)});
}

void send_clock_sync_ack(ipc::Channel& data) {
  ByteWriter w;
  w.u64(now_ns());
  send_frame(data, WorkerFrame{WorkerOp::ClockSyncAck, 0, 0, w.take()});
}

/// The guest-facing side of one supervised session.
class WorkerSession {
 public:
  WorkerSession(ipc::Channel& data, ipc::Channel& irq, WorkerConfig config)
      : data_(data), irq_(irq), config_(std::move(config)), cpu_(config_.mem_size) {
    const iss::Program program = iss::assemble(config_.guest_source);
    program.load_into(cpu_.mem());
    cpu_.set_pc(program.entry);
    install_hooks();
  }

  void restore(const Checkpoint& checkpoint) {
    util::require(checkpoint.iss.has_value(), "resume checkpoint lacks an ISS section");
    const std::uint64_t t0 = now_us();
    checkpoint.iss->apply(cpu_);
    if (checkpoint.worker) {
      irqs_delivered_ = checkpoint.worker->irqs_delivered;
      pending_irqs_.assign(checkpoint.worker->pending_irqs.begin(),
                           checkpoint.worker->pending_irqs.end());
    }
    for (const ChannelSnapshot& chan : checkpoint.channels) {
      if (chan.label == "worker-data") {
        tx_seq_ = chan.tx_seq;
        replies_rx_ = chan.rx_seq;
        util::require(chan.inflight.empty(),
                      "resume checkpoint violates the frame-boundary invariant");
      }
    }
    static obs::Histogram& h_restore = obs::histogram("ckpt.restore_us", obs::default_us_bounds());
    h_restore.observe(now_us() - t0);
    resumed_ = true;
  }

  /// Runs the guest to completion, emitting checkpoints every
  /// config.ckpt_every retired instructions.
  void run() {
    update_sim_time();
    obs::instant(resumed_ ? "worker.resume" : "worker.start", "worker", "instret",
                 cpu_.instret());
    for (;;) {
      const std::uint64_t next_ckpt =
          (cpu_.instret() / config_.ckpt_every + 1) * config_.ckpt_every;
      const iss::Halt halt = cpu_.run(next_ckpt - cpu_.instret());
      update_sim_time();
      if (halt == iss::Halt::Quantum) {
        send_checkpoint(WorkerOp::Ckpt, iss::Halt::None);
        poll_sideband();
        continue;
      }
      if (config_.obs_export) send_obs_report(data_);
      send_checkpoint(WorkerOp::Done, halt);
      return;
    }
  }

 private:
  void install_hooks() {
    cpu_.set_ecall_handler([this](iss::Cpu& cpu) { return on_ecall(cpu); });
    if (config_.fault.kind != FaultKind::None) {
      cpu_.set_trace_hook([this](std::uint32_t, std::uint32_t) {
        if (fault_armed_ && cpu_.instret() == config_.fault.at_instret) trigger_fault();
      });
    }
  }

  /// Publishes guest time (cycles x clock period) for this thread's trace
  /// events, so worker spans carry sim_ps like kernel-side spans do.
  void update_sim_time() noexcept {
    obs::set_thread_sim_time_ps(cpu_.cycles() * config_.clock_period_ps);
  }

  iss::Cpu::EcallResult on_ecall(iss::Cpu& cpu) {
    update_sim_time();
    switch (cpu.reg(17)) {  // a7
      case kEcallDevWrite:
        dev_write(cpu.reg(10), cpu.reg(11));
        return iss::Cpu::EcallResult::Handled;
      case kEcallDevRead:
        cpu.set_reg(10, dev_read(cpu.reg(10)));
        return iss::Cpu::EcallResult::Handled;
      case kEcallIrqPop: {
        std::uint32_t line = ~0u;
        if (!pending_irqs_.empty()) {
          line = pending_irqs_.front();
          pending_irqs_.pop_front();
        }
        cpu.set_reg(10, line);
        return iss::Cpu::EcallResult::Handled;
      }
      default:
        return iss::Cpu::EcallResult::Halt;  // kEcallExit and unknown selectors
    }
  }

  /// Flow id stamped on the frame carrying `seq`: the worker index (1-based
  /// so ids are nonzero) in the top 16 bits keeps ids unique across a
  /// many-worker merge. 0 (= no trailer) while tracing is off.
  std::uint64_t flow_id_for(std::uint64_t seq) const noexcept {
    if (!obs::tracing_enabled()) return 0;
    return (static_cast<std::uint64_t>(config_.worker_index + 1) << 48) | seq;
  }

  void dev_write(std::uint32_t addr, std::uint32_t value) {
    obs::ScopedSpan span("worker.ecall.dev_write", "worker", "addr", addr);
    ByteWriter w;
    w.u32(addr);
    w.u32(value);
    const std::uint64_t seq = ++tx_seq_;
    const std::uint64_t flow = flow_id_for(seq);
    obs::flow_begin("dev_access", "flow", flow);
    send_frame(data_, WorkerFrame{WorkerOp::DevWrite, seq, flow, w.take()});
    const WorkerFrame ack = expect_reply(WorkerOp::WriteAck);
    ByteReader r(ack.payload, "WriteAck payload");
    drain_irqs(r.u64());
  }

  std::uint32_t dev_read(std::uint32_t addr) {
    obs::ScopedSpan span("worker.ecall.dev_read", "worker", "addr", addr);
    ByteWriter w;
    w.u32(addr);
    const std::uint64_t seq = ++tx_seq_;
    const std::uint64_t flow = flow_id_for(seq);
    obs::flow_begin("dev_access", "flow", flow);
    send_frame(data_, WorkerFrame{WorkerOp::DevRead, seq, flow, w.take()});
    const WorkerFrame reply = expect_reply(WorkerOp::ReadReply);
    ByteReader r(reply.payload, "ReadReply payload");
    const std::uint32_t value = r.u32();
    drain_irqs(r.u64());
    return value;
  }

  /// Consumes an observability side-band frame (seq 0, never logged);
  /// returns false for anything else.
  bool handle_sideband(const WorkerFrame& frame) {
    switch (frame.op) {
      case WorkerOp::PullObs:
        send_obs_report(data_);
        return true;
      case WorkerOp::ClockSync:
        send_clock_sync_ack(data_);
        return true;
      default:
        return false;
    }
  }

  /// Drains side-band requests parked on the data socket at a checkpoint
  /// boundary (no request of ours is outstanding, so anything readable here
  /// must be side-band).
  void poll_sideband() {
    if (!config_.obs_export) return;
    while (data_.readable(0)) {
      const WorkerFrame frame = recv_frame(data_);
      if (!handle_sideband(frame)) {
        throw RuntimeError(std::string("worker: unexpected ") + worker_op_name(frame.op) +
                           " at a checkpoint boundary");
      }
    }
  }

  WorkerFrame expect_reply(WorkerOp op) {
    for (;;) {
      const WorkerFrame frame = recv_frame(data_);
      if (handle_sideband(frame)) continue;
      if (frame.op != op || frame.seq != tx_seq_) {
        throw RuntimeError(std::string("worker: expected ") + worker_op_name(op) + " seq " +
                           std::to_string(tx_seq_) + ", got " + worker_op_name(frame.op) +
                           " seq " + std::to_string(frame.seq));
      }
      ++replies_rx_;
      return frame;
    }
  }

  /// Consumes irq frames until the delivered count reaches `target` (the
  /// high-water mark the last ack reported). Interrupt delivery thereby
  /// happens at deterministic points in the guest instruction stream.
  void drain_irqs(std::uint64_t target) {
    while (irqs_delivered_ < target) {
      const WorkerFrame frame = recv_frame(irq_);
      if (frame.op != WorkerOp::Irq) {
        throw RuntimeError(std::string("worker: unexpected ") + worker_op_name(frame.op) +
                           " on the irq socket");
      }
      if (frame.seq <= irqs_delivered_) continue;  // resend overlap after resume
      if (frame.seq != irqs_delivered_ + 1) {
        throw RuntimeError("worker: irq gap (have " + std::to_string(irqs_delivered_) +
                           ", got seq " + std::to_string(frame.seq) + ")");
      }
      ByteReader r(frame.payload, "Irq payload");
      irqs_delivered_ = frame.seq;
      pending_irqs_.push_back(r.u32());
    }
  }

  void send_checkpoint(WorkerOp op, iss::Halt halt) {
    const std::uint64_t t0 = now_us();
    obs::ScopedSpan span("worker.checkpoint", "worker", "instret", cpu_.instret());
    // The checkpoint frame consumes a sequence number *before* the snapshot
    // is taken, so the stored tx_seq covers this very frame: a resumed
    // worker then re-numbers its replayed frames exactly as the original
    // run did, which is what makes the supervisor's dedup line up.
    const std::uint64_t seq = ++tx_seq_;
    Checkpoint checkpoint;
    checkpoint.iss = IssSnapshot::capture(cpu_);
    WorkerSnapshot worker;
    worker.irqs_delivered = irqs_delivered_;
    worker.pending_irqs.assign(pending_irqs_.begin(), pending_irqs_.end());
    checkpoint.worker = worker;
    ChannelSnapshot chan;
    chan.label = "worker-data";
    chan.tx_seq = tx_seq_;
    chan.rx_seq = replies_rx_;
    checkpoint.channels.push_back(std::move(chan));
    ByteWriter w;
    if (op == WorkerOp::Done) w.u8(static_cast<std::uint8_t>(halt));
    w.bytes(encode_checkpoint(checkpoint));
    static obs::Histogram& h_save = obs::histogram("ckpt.save_us", obs::default_us_bounds());
    h_save.observe(now_us() - t0);
    send_frame(data_, WorkerFrame{op, seq, 0, w.take()});
  }

  void trigger_fault() {
    fault_armed_ = false;
    obs::instant("worker.fault", "worker", "instret", cpu_.instret());
    switch (config_.fault.kind) {
      case FaultKind::CrashAt:
        ::raise(SIGKILL);  // dies here; never returns
        return;
      case FaultKind::HangAt:
        for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
      case FaultKind::GarbageAt: {
        const std::uint8_t junk[16] = {0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE,
                                       0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE};
        data_.send(junk);
        return;  // keeps running; the supervisor will kill it
      }
      case FaultKind::None: return;
    }
  }

  ipc::Channel& data_;
  ipc::Channel& irq_;
  WorkerConfig config_;
  iss::Cpu cpu_;
  std::uint64_t tx_seq_ = 0;
  std::uint64_t replies_rx_ = 0;
  std::uint64_t irqs_delivered_ = 0;
  std::deque<std::uint32_t> pending_irqs_;
  bool fault_armed_ = true;
  bool resumed_ = false;
};

}  // namespace

int run_worker(ipc::Channel data, ipc::Channel irq) {
  try {
    // Bounded I/O so an orphaned worker (supervisor killed) exits instead
    // of lingering.
    data.set_io_timeout(30000);
    irq.set_io_timeout(30000);
    ByteWriter hello;
    hello.u32(kWorkerHelloMagic);
    send_frame(data, WorkerFrame{WorkerOp::Hello, 0, 0, hello.take()});

    const WorkerFrame init = recv_frame(data);
    WorkerConfig config;
    std::optional<Checkpoint> restore;
    if (init.op == WorkerOp::Start) {
      config = decode_worker_config(init.payload);
    } else if (init.op == WorkerOp::Resume) {
      ByteReader r(init.payload, "Resume payload");
      config = decode_worker_config(r.blob());
      restore = decode_checkpoint(r.view(r.remaining()));
    } else {
      throw RuntimeError(std::string("worker: expected Start/Resume, got ") +
                         worker_op_name(init.op));
    }

    if (config.trace) {
      obs::enable_tracing(config.trace_buf);
      // Wire-level counters + flow steps for every correlated frame we send.
      data.attach_observer(
          std::make_shared<ipc::ObsTap>("worker.data", peek_frame_trace_id, "dev_access", "flow"));
    }
    if (config.obs_export) {
      // Clock-offset handshake: reply with our steady clock so the
      // supervisor can rebase our ring timestamps onto its timeline.
      const WorkerFrame sync = recv_frame(data);
      if (sync.op != WorkerOp::ClockSync) {
        throw RuntimeError(std::string("worker: expected ClockSync, got ") +
                           worker_op_name(sync.op));
      }
      send_clock_sync_ack(data);
    }

    WorkerSession session(data, irq, std::move(config));
    if (restore) session.restore(*restore);
    session.run();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cosim_issworker: %s\n", e.what());
    return 1;
  }
}

}  // namespace nisc::cosim
