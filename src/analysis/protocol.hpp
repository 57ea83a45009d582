// Protocol automata for the co-simulation wire (DESIGN.md §11).
//
// The paper specifies its two boundary protocols informally: §4.2 gives the
// Driver-Kernel message format in prose, §3 leans on the GDB remote serial
// protocol. This module makes each protocol explicit as a pair of
// communicating finite-state machines — typed states, transitions labelled
// Send/Recv/Internal with a message symbol and a channel — so the same
// automaton can be
//   (a) composed with a bounded-channel environment and model-checked
//       exhaustively (analysis/explore.hpp), and
//   (b) walked against live or captured wire traffic by a conformance
//       monitor that turns violations into NL4xx diagnostics.
//
// Five models are provided:
//   driver-kernel  ScPortDriver <-> DriverKernelExtension (data + irq port,
//                  including the PR 2 quiesce degradation states)
//   gdb-kernel     GdbClient (kernel-embedded) <-> GdbStub over RSP
//   gdb-wrapper    GdbClient (lock-step wrapper) <-> GdbStub over RSP
//   worker         Supervisor <-> cosim_issworker recovery wire (Hello,
//                  Start/Resume replay, DevWrite/WriteAck + DevRead/ReadReply
//                  with irq high-water drain, Ckpt, seq-0 side-band)
//   driver-irq     DriverKernelExtension -> DriverTarget irq delivery +
//                  ISR-acknowledge cycle on the otherwise-epsilon irq socket
// Endpoint A is the side the capture layer taps (SystemC kernel / client /
// supervisor; for driver-irq, the pump end that receives deliveries);
// endpoint B is the peer. RSP '+'/'-' acks are advisory in this
// implementation (both peers tolerate their loss), so they are not part of
// the modelled alphabet and the monitor filters them out.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diag.hpp"
#include "ipc/capture.hpp"
#include "ipc/channel.hpp"
#include "rsp/packet.hpp"

namespace nisc::analysis {

// ---------------------------------------------------------------------------
// Automaton structure

enum class ActionKind : std::uint8_t { Send, Recv, Internal };

struct ProtoState {
  std::string name;
  /// Quiescent: the protocol may legitimately stop here (end of stream).
  bool accepting = false;
  /// The endpoint tore its wire down in this state: traffic observed while
  /// every candidate state is closed is an NL403 violation, and the model
  /// checker discards messages sent toward a closed endpoint (connection
  /// reset semantics).
  bool closed = false;
  /// Endpoint B blocks here waiting for the peer to answer effect unit N
  /// (-1 = not waiting). The crash-fault explorer classifies a stuck run in
  /// such a state as NL414 lost-ack when A already applied the unit.
  int awaiting_effect = -1;
};

struct ProtoTransition {
  ActionKind kind = ActionKind::Internal;
  int symbol = -1;   ///< model symbol id (Send/Recv only)
  int channel = -1;  ///< model channel id (Send/Recv only)
  int to = 0;
  /// Part of the resilience machinery (quiesce/timeout/resend/die) rather
  /// than the core protocol. The monitor's end-of-stream check does not
  /// assume recovery happened; ModelOptions::recovery omits these entirely.
  bool recovery = false;
  /// Internal transitions carry a label ("quiesce", "timeout", ...) so the
  /// monitor can follow out-of-band notifications (WireObserver events).
  std::string label;
  /// Crash-consistency semantics for the crash-fault explorer
  /// (explore.hpp EnvOptions::crashing). `apply_effect`: endpoint A durably
  /// applies effect unit N on this transition — taking it while the unit is
  /// already applied is NL413 duplicate-effect. `retire_effect`: endpoint B
  /// retires unit N (the guest observed the ack). `ckpt_state`/`ckpt_mask`:
  /// applying this checkpoint pins B's respawn point to that state with that
  /// retired-unit mask.
  int apply_effect = -1;
  int retire_effect = -1;
  int ckpt_state = -1;
  std::uint32_t ckpt_mask = 0;
};

/// One endpoint's protocol automaton.
class ProtocolAutomaton {
 public:
  explicit ProtocolAutomaton(std::string role) : role_(std::move(role)) {}

  int add_state(std::string name, bool accepting = false, bool closed = false);
  ProtoTransition& send(int from, int symbol, int channel, int to, bool recovery = false);
  ProtoTransition& recv(int from, int symbol, int channel, int to, bool recovery = false);
  ProtoTransition& internal(int from, int to, std::string label, bool recovery = false);
  /// Marks `state` as blocking on the peer's answer for effect unit `effect`.
  void set_awaiting(int state, int effect);

  const std::string& role() const noexcept { return role_; }
  const std::vector<ProtoState>& states() const noexcept { return states_; }
  const ProtoState& state(int id) const { return states_[static_cast<std::size_t>(id)]; }
  const std::vector<ProtoTransition>& from(int state) const {
    return by_state_[static_cast<std::size_t>(state)];
  }
  int initial() const noexcept { return 0; }
  int find_state(std::string_view name) const noexcept;  ///< -1 when absent

 private:
  std::string role_;
  std::vector<ProtoState> states_;
  std::vector<std::vector<ProtoTransition>> by_state_;
};

// ---------------------------------------------------------------------------
// Models

enum class ModelId : std::uint8_t { DriverKernel, GdbKernel, GdbWrapper, Worker, DriverIrq };

const char* model_name(ModelId id) noexcept;
std::optional<ModelId> model_from_name(std::string_view name) noexcept;

/// Which wire framing a model's traffic uses.
enum class WireFormat : std::uint8_t { DriverKernel, Rsp, Worker };

struct ModelOptions {
  /// Include the resilience transitions (quiesce/degrade/timeout/die). The
  /// conformance monitor always wants these; the model checker disables them
  /// to prove the *protocol itself* deadlock-free, not its escape hatches.
  bool recovery = true;
  /// Driver-Kernel only: the kernel pushes fresh iss_out values
  /// spontaneously (DriverKernelOptions::push_outputs).
  bool push_outputs = true;
  /// Driver-Kernel only: the driver issues synchronous READ requests.
  bool sync_reads = true;
  /// Driver-Kernel only: the kernel raises device interrupts.
  bool interrupts = true;
  /// Worker only: the seq-0 observability side-band is active (the spawn
  /// ClockSync handshake plus PullObs/ObsReport, legal in every non-closed
  /// state for the monitor).
  bool sideband = true;
  /// Worker only: the supervisor keeps its reply log, so a replayed DevWrite
  /// or DevRead is re-acked from the log instead of re-applied. Turning this
  /// off is the NL413 negative control: recovery replays then duplicate the
  /// device effect.
  bool worker_reply_log = true;
  /// Worker only: prune the reply log at ack time instead of at checkpoint
  /// time. The NL414 negative control: a post-crash replay of an
  /// already-applied unit finds no log entry, so the worker's ack is lost.
  bool worker_eager_prune = false;
  /// Driver-Irq only: decode the channel as Worker wire frames instead of
  /// Driver-Kernel messages. This is the live-monitor flavor for the
  /// supervisor's irq socket: Irq frames out, respawn re-sends tolerated,
  /// the ISR acknowledge stays an internal epsilon (`flip_direction` puts
  /// the supervisor in the sender role).
  bool worker_wire = false;
};

/// How endpoint B dies and respawns under the crash-fault environment
/// (explore.hpp EnvOptions::crashing). The respawn handshake
/// (Hello -> Resume + irq-log re-send) is modelled atomically: the killed
/// endpoint resumes from its last applied checkpoint (or `b_restart` when
/// none was taken), every in-flight queue is flushed, and the environment
/// re-enqueues the irq for each unit A applied but the restored B has not
/// retired — exactly the supervisor's irq_log re-send on Start and Resume.
struct CrashSpec {
  bool enabled = false;
  int units = 0;           ///< number of durable effect units in the model
  int b_restart = -1;      ///< B's respawn state when no checkpoint exists
  int a_serve = -1;        ///< A's post-handshake state (A mid-handshake folds here)
  std::vector<int> a_handshake_states;  ///< A states folded to `a_serve` on crash
  std::vector<int> a_stable_states;     ///< A states where a kill may strike
  int irq_channel = -1;
  /// Per effect unit: irq symbol the environment re-delivers on respawn
  /// (-1 = the unit raises no interrupt).
  std::vector<int> unit_irq_symbols;
};

/// A complete two-endpoint protocol model.
struct ProtocolModel {
  ModelId id = ModelId::DriverKernel;
  std::string name;
  WireFormat wire = WireFormat::DriverKernel;
  std::vector<std::string> symbols;
  std::vector<std::string> channels;
  /// Channels the conformance monitor can observe (the capture layer sits on
  /// one socket; Driver-Kernel interrupts travel on a second, unobserved
  /// one). Transitions on unmonitored channels are epsilon to the monitor.
  std::vector<int> monitored_channels;
  int garbage_symbol = -1;  ///< symbol for undecodable traffic, -1 if none
  /// Out-of-band event tag announcing a kill+respawn cycle (the supervisor's
  /// "respawn" notification). The monitor resets both stream decoders — a
  /// SIGKILL legitimately truncates a frame mid-wire — and resynchronizes to
  /// `reset_state` instead of treating the event as an Internal label.
  std::string reset_event;
  int reset_state = -1;  ///< endpoint A state after `reset_event`
  CrashSpec crash;       ///< crash-fault environment hooks (explore.hpp)
  ProtocolAutomaton endpoint_a{"a"};  ///< SystemC side (kernel / client)
  ProtocolAutomaton endpoint_b{"b"};  ///< target side (driver / stub)

  bool monitored(int channel) const noexcept;
  const std::string& symbol_name(int symbol) const;
  const std::string& channel_name(int channel) const;
  int channel_id(std::string_view name) const noexcept;  ///< -1 when absent
};

ProtocolModel make_model(ModelId id, const ModelOptions& options = {});

// ---------------------------------------------------------------------------
// Wire classification

/// One classified protocol message recovered from a byte stream.
struct WireSymbol {
  int symbol = -1;
  bool malformed = false;  ///< undecodable bytes, classified as garbage
  std::string detail;      ///< human-readable rendering for diagnostics
};

/// Incremental per-direction reassembler: raw transport bytes in, protocol
/// symbols out. Driver-Kernel frames are rebuilt across arbitrary chunk
/// boundaries (recv_exact captures header and body separately); worker
/// frames (`u32 len | u8 op | u64 seq | payload`) are reassembled the same
/// way with the optional 12-byte FTID trace trailer stripped by length +
/// magic; RSP streams reuse rsp::PacketReader ('+'/'-' acks produce no
/// symbol).
class StreamDecoder {
 public:
  /// `toward_target`: bytes flowing A->B (commands) rather than B->A
  /// (replies) — RSP payloads classify differently per direction.
  StreamDecoder(WireFormat format, bool toward_target);

  void feed(std::span<const std::uint8_t> bytes, std::vector<WireSymbol>& out);

  /// Drops any partial frame and un-wedges: the stream legitimately restarts
  /// from a frame boundary (a killed worker's socket is replaced by a fresh
  /// one on respawn).
  void reset();

  /// Bytes buffered mid-frame (a non-zero value at end of stream is NL402).
  std::size_t pending() const noexcept;
  /// True once the stream desynchronized beyond recovery (bad frame size).
  bool wedged() const noexcept { return wedged_; }

 private:
  WireFormat format_;
  bool toward_target_;
  bool wedged_ = false;
  std::vector<std::uint8_t> buffer_;  // Driver-Kernel reassembly
  rsp::PacketReader reader_;          // RSP reassembly
};

/// Result of draining a live wire up to a frame boundary (the checkpoint
/// subsystem's frame-boundary invariant, DESIGN.md §12).
struct DrainResult {
  /// Raw bytes consumed from the channel. When `clean`, these are whole
  /// frames — exactly what cosim::ChannelSnapshot::inflight may store.
  std::vector<std::uint8_t> bytes;
  /// Complete protocol messages recovered from `bytes`.
  std::vector<WireSymbol> symbols;
  /// True when the stream landed on a frame boundary (no partial frame
  /// buffered, stream not wedged). A snapshot MUST NOT be taken otherwise.
  bool clean = false;
};

/// Reads everything pending on `channel` and keeps reading (up to
/// `timeout_ms` per wait) while the decoder sits mid-frame, so the returned
/// bytes end on a frame boundary whenever the sender completes its frames
/// within the timeout. Used to quiesce a live Driver-Kernel or RSP wire
/// before a checkpoint: snapshots never contain a partial frame.
DrainResult drain_to_frame_boundary(ipc::Channel& channel, WireFormat format,
                                    bool toward_target, int timeout_ms = 100);

// ---------------------------------------------------------------------------
// Conformance monitor

struct MonitorOptions {
  /// Diagnostic origin (SourceLoc::file), e.g. a capture path or "<wire>".
  std::string origin = "<wire>";
  /// Report NL404 when the stream ends with no accepting candidate state.
  bool end_check = true;
};

/// NFA walk of endpoint A's automaton over observed traffic (subset
/// construction: Internal transitions and unmonitored channels are epsilon).
/// Rules:
///   NL401 (error)    message impossible in every candidate state
///   NL402 (error)    undecodable wire data / stream ends mid-frame
///   NL403 (error)    traffic observed after the endpoint closed (quiesce)
///   NL404 (warning)  stream ends in a non-quiescent protocol state
class ConformanceMonitor {
 public:
  ConformanceMonitor(ProtocolModel model, DiagEngine& diags, MonitorOptions options = {});

  /// Feeds one observed transfer (Tx = endpoint A sent, Rx = A received).
  void on_transfer(ipc::CaptureDir dir, std::span<const std::uint8_t> bytes);

  /// Applies an out-of-band internal event by label (e.g. "quiesce" from
  /// DriverKernelExtension). Unknown labels are reported as notes.
  void on_event(std::string_view tag);

  /// End-of-stream checks; call once when the wire goes away.
  void finish();

  /// True when `name` is a candidate state (testing/introspection).
  bool state_possible(std::string_view name) const;
  std::size_t messages_seen() const noexcept { return messages_seen_; }
  std::size_t violations() const noexcept { return violations_; }
  const ProtocolModel& model() const noexcept { return model_; }

 private:
  /// Epsilon closure: Internal transitions plus transitions on unmonitored
  /// channels. The end-of-stream check excludes recovery transitions — a
  /// stream may not *assume* the endpoint escaped through one.
  std::set<int> closure(std::set<int> states, bool include_recovery) const;
  void step(ActionKind kind, const WireSymbol& sym, ipc::CaptureDir dir);

  ProtocolModel model_;
  DiagEngine& diags_;
  MonitorOptions options_;
  StreamDecoder tx_;
  StreamDecoder rx_;
  std::set<int> current_;
  std::size_t messages_seen_ = 0;
  std::size_t violations_ = 0;
};

/// WireObserver adapter: attach to a live ipc::Channel (via
/// Channel::attach_observer / the session configs) and every transfer is
/// conformance-checked as it happens. Owns its DiagEngine; read it after
/// finish() or once the channel is quiet.
class LiveConformanceMonitor final : public ipc::WireObserver {
 public:
  /// `flip_direction`: the observer sits on endpoint B's channel end (e.g.
  /// the raising side of an irq socket), so the tap's Rx is an A-side send and vice
  /// versa; flip before feeding the monitor.
  LiveConformanceMonitor(ProtocolModel model, std::string origin, bool flip_direction = false);

  void on_wire(ipc::CaptureDir dir, std::span<const std::uint8_t> bytes) override;
  void on_wire_event(std::string_view tag) override;

  /// Runs the end-of-stream checks once (idempotent).
  void finish();

  DiagEngine& diags() noexcept { return diags_; }
  std::size_t messages_seen() const noexcept { return monitor_.messages_seen(); }

 private:
  DiagEngine diags_;
  ConformanceMonitor monitor_;
  bool flip_direction_ = false;
  bool finished_ = false;
};

/// Replays a WireCapture::dump() post-mortem (concatenated WRITE frames with
/// "<label>.tx#N" / ".rx#N" pseudo-ports) through a ConformanceMonitor.
/// Returns the number of transfers replayed.
std::size_t check_capture(std::span<const std::uint8_t> bytes, const ProtocolModel& model,
                          DiagEngine& diags, const std::string& origin);

}  // namespace nisc::analysis
