#include "analysis/protocol.hpp"

#include <algorithm>
#include <cctype>

#include "cosim/worker.hpp"
#include "ipc/message.hpp"

namespace nisc::analysis {

namespace {

// Driver-Kernel model symbol ids match ipc::MsgType so the decoder is a cast.
constexpr int kDkRead = 0;
constexpr int kDkWrite = 1;
constexpr int kDkReadReply = 2;
constexpr int kDkInterrupt = 3;
constexpr int kDkGarbage = 4;
constexpr int kChData = 0;
constexpr int kChIrq = 1;

// RSP model symbol ids (shared by gdb-kernel and gdb-wrapper).
constexpr int kRspQuery = 0;
constexpr int kRspCont = 1;
constexpr int kRspKill = 2;
constexpr int kRspRunQuantum = 3;
constexpr int kRspIrqByte = 4;
constexpr int kRspReply = 5;
constexpr int kRspStopReply = 6;
constexpr int kRspGarbage = 7;
constexpr int kChRsp = 0;

// Worker model symbol ids (supervisor <-> cosim_issworker recovery wire).
constexpr int kWkHello = 0;
constexpr int kWkStart = 1;
constexpr int kWkResume = 2;
constexpr int kWkDevWrite = 3;
constexpr int kWkWriteAck = 4;
constexpr int kWkDevRead = 5;
constexpr int kWkReadReply = 6;
constexpr int kWkIrq = 7;
constexpr int kWkCkpt = 8;
constexpr int kWkDone = 9;
constexpr int kWkClockSync = 10;
constexpr int kWkClockSyncAck = 11;
constexpr int kWkPullObs = 12;
constexpr int kWkObsReport = 13;
constexpr int kWkGarbage = 14;

}  // namespace

// ---------------------------------------------------------------------------
// Automaton structure

int ProtocolAutomaton::add_state(std::string name, bool accepting, bool closed) {
  states_.push_back(ProtoState{std::move(name), accepting, closed});
  by_state_.emplace_back();
  return static_cast<int>(states_.size()) - 1;
}

ProtoTransition& ProtocolAutomaton::send(int from, int symbol, int channel, int to,
                                         bool recovery) {
  auto& out = by_state_[static_cast<std::size_t>(from)];
  out.push_back(ProtoTransition{ActionKind::Send, symbol, channel, to, recovery, {}});
  return out.back();
}

ProtoTransition& ProtocolAutomaton::recv(int from, int symbol, int channel, int to,
                                         bool recovery) {
  auto& out = by_state_[static_cast<std::size_t>(from)];
  out.push_back(ProtoTransition{ActionKind::Recv, symbol, channel, to, recovery, {}});
  return out.back();
}

ProtoTransition& ProtocolAutomaton::internal(int from, int to, std::string label, bool recovery) {
  auto& out = by_state_[static_cast<std::size_t>(from)];
  out.push_back(ProtoTransition{ActionKind::Internal, -1, -1, to, recovery, std::move(label)});
  return out.back();
}

void ProtocolAutomaton::set_awaiting(int state, int effect) {
  states_[static_cast<std::size_t>(state)].awaiting_effect = effect;
}

int ProtocolAutomaton::find_state(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Models

const char* model_name(ModelId id) noexcept {
  switch (id) {
    case ModelId::DriverKernel: return "driver-kernel";
    case ModelId::GdbKernel: return "gdb-kernel";
    case ModelId::GdbWrapper: return "gdb-wrapper";
    case ModelId::Worker: return "worker";
    case ModelId::DriverIrq: return "driver-irq";
  }
  return "?";
}

std::optional<ModelId> model_from_name(std::string_view name) noexcept {
  if (name == "driver-kernel") return ModelId::DriverKernel;
  if (name == "gdb-kernel") return ModelId::GdbKernel;
  if (name == "gdb-wrapper") return ModelId::GdbWrapper;
  if (name == "worker") return ModelId::Worker;
  if (name == "driver-irq") return ModelId::DriverIrq;
  return std::nullopt;
}

bool ProtocolModel::monitored(int channel) const noexcept {
  return std::find(monitored_channels.begin(), monitored_channels.end(), channel) !=
         monitored_channels.end();
}

const std::string& ProtocolModel::symbol_name(int symbol) const {
  return symbols[static_cast<std::size_t>(symbol)];
}

const std::string& ProtocolModel::channel_name(int channel) const {
  return channels[static_cast<std::size_t>(channel)];
}

int ProtocolModel::channel_id(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < channels.size(); ++i) {
    if (channels[i] == name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

/// Driver-Kernel (paper §4.2 + the PR 2 quiesce degradation). Endpoint A is
/// DriverKernelExtension (SystemC kernel), endpoint B is ScPortDriver.
ProtocolModel make_driver_kernel(const ModelOptions& o) {
  ProtocolModel m;
  m.id = ModelId::DriverKernel;
  m.name = model_name(m.id);
  m.wire = WireFormat::DriverKernel;
  m.symbols = {"READ", "WRITE", "READ-REPLY", "INTERRUPT", "GARBAGE"};
  m.channels = {"data", "irq"};
  m.monitored_channels = {kChData};  // the capture/observer sits on the data socket
  m.garbage_symbol = kDkGarbage;

  ProtocolAutomaton kernel("kernel");
  const int run = kernel.add_state("Run", /*accepting=*/true);
  const int must_reply = kernel.add_state("MustReply");
  const int quiesced = kernel.add_state("Quiesced", /*accepting=*/true, /*closed=*/true);
  kernel.recv(run, kDkWrite, kChData, run);
  kernel.recv(run, kDkRead, kChData, must_reply);
  if (o.push_outputs) kernel.send(run, kDkReadReply, kChData, run);
  if (o.interrupts) kernel.send(run, kDkInterrupt, kChIrq, run);
  kernel.send(must_reply, kDkReadReply, kChData, run);
  if (o.recovery) {
    kernel.recv(run, kDkGarbage, kChData, quiesced, /*recovery=*/true);
    kernel.internal(run, quiesced, "quiesce", /*recovery=*/true);
    kernel.internal(must_reply, quiesced, "quiesce", /*recovery=*/true);
  }
  m.endpoint_a = std::move(kernel);

  ProtocolAutomaton driver("driver");
  const int idle = driver.add_state("Idle");
  const int await_reply = driver.add_state("AwaitReply");
  const int done = driver.add_state("Done", /*accepting=*/true);
  const int degraded = driver.add_state("Degraded", /*accepting=*/true);
  driver.send(idle, kDkWrite, kChData, idle);
  if (o.sync_reads) driver.send(idle, kDkRead, kChData, await_reply);
  driver.recv(idle, kDkReadReply, kChData, idle);
  driver.recv(idle, kDkInterrupt, kChIrq, idle);
  driver.internal(idle, done, "finish");
  driver.recv(await_reply, kDkReadReply, kChData, idle);
  driver.recv(await_reply, kDkInterrupt, kChIrq, await_reply);
  if (o.recovery) {
    driver.recv(idle, kDkGarbage, kChData, degraded, /*recovery=*/true);
    driver.internal(idle, degraded, "degrade", /*recovery=*/true);
    driver.recv(await_reply, kDkGarbage, kChData, degraded, /*recovery=*/true);
    driver.internal(await_reply, degraded, "timeout", /*recovery=*/true);
  }
  for (int final : {done, degraded}) {
    // Terminal states keep draining late kernel traffic (pushes, interrupts)
    // without that counting as a violation.
    driver.recv(final, kDkReadReply, kChData, final);
    driver.recv(final, kDkGarbage, kChData, final);
    driver.recv(final, kDkInterrupt, kChIrq, final);
  }
  m.endpoint_b = std::move(driver);
  return m;
}

/// Shared GdbStub endpoint (identical for both RSP schemes): halted command
/// loop, deferred stop replies while running, 0x03 interrupt handling.
ProtocolAutomaton make_stub(const ModelOptions& o) {
  ProtocolAutomaton stub("stub");
  const int halted = stub.add_state("Halted", /*accepting=*/true);
  const int must_reply = stub.add_state("MustReply");
  const int running = stub.add_state("Running");
  const int must_stop = stub.add_state("MustStop");
  const int dead = stub.add_state("Dead", /*accepting=*/true, /*closed=*/true);
  stub.recv(halted, kRspQuery, kChRsp, must_reply);
  stub.recv(halted, kRspCont, kChRsp, running);
  stub.recv(halted, kRspRunQuantum, kChRsp, must_stop);
  stub.recv(halted, kRspKill, kChRsp, dead);
  stub.recv(halted, kRspIrqByte, kChRsp, halted);  // 0x03 while halted: ignored
  stub.send(must_reply, kRspReply, kChRsp, halted);
  stub.send(must_reply, kRspStopReply, kChRsp, halted);  // 's' replies with a stop
  stub.internal(running, must_stop, "hit");               // guest reaches a breakpoint
  stub.recv(running, kRspIrqByte, kChRsp, must_stop);
  stub.recv(running, kRspKill, kChRsp, dead);
  stub.send(must_stop, kRspStopReply, kChRsp, halted);
  if (o.recovery) {
    // A garbage frame draws a Nak; the peer resends, so tolerate in place.
    stub.recv(halted, kRspGarbage, kChRsp, halted, /*recovery=*/true);
    stub.recv(running, kRspGarbage, kChRsp, running, /*recovery=*/true);
    stub.internal(halted, dead, "die", /*recovery=*/true);
    stub.internal(must_reply, dead, "die", /*recovery=*/true);
    stub.internal(running, dead, "die", /*recovery=*/true);
    stub.internal(must_stop, dead, "die", /*recovery=*/true);
  }
  return stub;
}

/// Adds the terminal client states shared by both RSP clients: Killed (wire
/// torn down) and Failed (transport gave up; shutdown may still send k/0x03).
struct ClientTails {
  int killed;
  int failed;
};

ClientTails add_client_tails(ProtocolAutomaton& client) {
  ClientTails t{};
  t.killed = client.add_state("Killed", /*accepting=*/true, /*closed=*/true);
  t.failed = client.add_state("Failed", /*accepting=*/true);
  client.send(t.failed, kRspKill, kChRsp, t.killed);
  client.send(t.failed, kRspIrqByte, kChRsp, t.failed);
  for (int sym : {kRspReply, kRspStopReply, kRspGarbage}) {
    client.recv(t.failed, sym, kChRsp, t.failed);
  }
  return t;
}

ProtocolModel make_rsp_base(ModelId id) {
  ProtocolModel m;
  m.id = id;
  m.name = model_name(id);
  m.wire = WireFormat::Rsp;
  m.symbols = {"QUERY", "CONT",  "KILL",       "RUN-QUANTUM",
               "IRQ-BYTE", "REPLY", "STOP-REPLY", "GARBAGE"};
  m.channels = {"rsp"};
  m.monitored_channels = {kChRsp};
  m.garbage_symbol = kRspGarbage;
  return m;
}

/// GDB-Kernel (paper §3): the kernel-embedded GdbClient drives the stub via
/// breakpoint-synchronised continue cycles.
ProtocolModel make_gdb_kernel(const ModelOptions& o) {
  ProtocolModel m = make_rsp_base(ModelId::GdbKernel);

  ProtocolAutomaton client("client");
  const int halted = client.add_state("Halted", /*accepting=*/true);
  const int await_reply = client.add_state("AwaitReply");
  const int running = client.add_state("Running");
  const ClientTails tails = add_client_tails(client);
  client.send(halted, kRspQuery, kChRsp, await_reply);
  client.send(halted, kRspCont, kChRsp, running);
  client.send(halted, kRspKill, kChRsp, tails.killed);
  for (int sym : {kRspReply, kRspStopReply, kRspGarbage}) {
    client.recv(halted, sym, kChRsp, halted);  // stray duplicates: tolerated
  }
  client.recv(await_reply, kRspReply, kChRsp, halted);
  client.recv(await_reply, kRspStopReply, kChRsp, halted);
  client.recv(await_reply, kRspGarbage, kChRsp, await_reply);  // Nak'd, await resend
  client.send(await_reply, kRspKill, kChRsp, tails.killed);    // shutdown mid-transact
  client.send(running, kRspIrqByte, kChRsp, running);
  client.send(running, kRspKill, kChRsp, tails.killed);
  client.recv(running, kRspStopReply, kChRsp, halted);
  client.recv(running, kRspReply, kChRsp, running);
  client.recv(running, kRspGarbage, kChRsp, running);
  if (o.recovery) {
    client.send(await_reply, kRspQuery, kChRsp, await_reply, /*recovery=*/true);  // resend
    client.internal(await_reply, tails.failed, "timeout", /*recovery=*/true);
    client.internal(running, tails.failed, "giveup", /*recovery=*/true);
    client.internal(halted, tails.failed, "fail", /*recovery=*/true);
  }
  m.endpoint_a = std::move(client);
  m.endpoint_b = make_stub(o);
  return m;
}

/// GDB-Wrapper: the lock-step wrapper alternates qnisc.run quanta (or single
/// steps) with breakpoint servicing.
ProtocolModel make_gdb_wrapper(const ModelOptions& o) {
  ProtocolModel m = make_rsp_base(ModelId::GdbWrapper);

  ProtocolAutomaton wrapper("wrapper");
  const int cycle = wrapper.add_state("Cycle", /*accepting=*/true);
  const int await_reply = wrapper.add_state("AwaitReply");
  const int await_stop = wrapper.add_state("AwaitStop");
  const int done = wrapper.add_state("Done", /*accepting=*/true);
  const ClientTails tails = add_client_tails(wrapper);
  wrapper.send(cycle, kRspQuery, kChRsp, await_reply);
  wrapper.send(cycle, kRspRunQuantum, kChRsp, await_stop);
  wrapper.send(cycle, kRspKill, kChRsp, tails.killed);
  wrapper.internal(cycle, done, "finish");
  for (int sym : {kRspReply, kRspStopReply, kRspGarbage}) {
    wrapper.recv(cycle, sym, kChRsp, cycle);  // stray duplicates: tolerated
  }
  wrapper.recv(await_reply, kRspReply, kChRsp, cycle);
  wrapper.recv(await_reply, kRspStopReply, kChRsp, cycle);  // 's' step reply
  wrapper.recv(await_reply, kRspGarbage, kChRsp, await_reply);
  wrapper.send(await_reply, kRspKill, kChRsp, tails.killed);
  wrapper.recv(await_stop, kRspStopReply, kChRsp, cycle);
  wrapper.recv(await_stop, kRspReply, kChRsp, await_stop);  // stray duplicate
  wrapper.recv(await_stop, kRspGarbage, kChRsp, await_stop);
  wrapper.send(await_stop, kRspKill, kChRsp, tails.killed);
  wrapper.send(done, kRspKill, kChRsp, tails.killed);
  for (int sym : {kRspReply, kRspStopReply, kRspGarbage}) {
    wrapper.recv(done, sym, kChRsp, done);
  }
  if (o.recovery) {
    wrapper.send(await_reply, kRspQuery, kChRsp, await_reply, /*recovery=*/true);
    wrapper.internal(await_reply, tails.failed, "timeout", /*recovery=*/true);
    wrapper.send(await_stop, kRspRunQuantum, kChRsp, await_stop, /*recovery=*/true);
    wrapper.internal(await_stop, tails.failed, "timeout", /*recovery=*/true);
    wrapper.internal(cycle, tails.failed, "fail", /*recovery=*/true);
  }
  m.endpoint_a = std::move(wrapper);
  m.endpoint_b = make_stub(o);
  return m;
}

/// Supervisor <-> cosim_issworker recovery wire (DESIGN.md §12). The model
/// unrolls a minimal session of two durable effect units — unit 0 is a
/// DevWrite whose ack's irq high-water mark makes the worker drain one Irq
/// before retiring the ecall, unit 1 a synchronous DevRead — because seq
/// dedup is then expressible in pure automaton states: the supervisor's
/// Serve<N> state encodes how many units it durably applied, so a replayed
/// request is re-acked from the reply log (no apply_effect tag) while a fresh
/// one applies. The optional checkpoint between the units pins the worker's
/// respawn point via the ckpt tag on the supervisor's Ckpt consumption.
/// Endpoint A is the supervisor (the tapped side), endpoint B the worker.
ProtocolModel make_worker(const ModelOptions& o) {
  ProtocolModel m;
  m.id = ModelId::Worker;
  m.name = model_name(m.id);
  m.wire = WireFormat::Worker;
  m.symbols = {"HELLO",     "START",          "RESUME",   "DEV-WRITE",  "WRITE-ACK",
               "DEV-READ",  "READ-REPLY",     "IRQ",      "CKPT",       "DONE",
               "CLOCK-SYNC", "CLOCK-SYNC-ACK", "PULL-OBS", "OBS-REPORT", "GARBAGE"};
  m.channels = {"data", "irq"};
  m.monitored_channels = {kChData};  // capture/observer sits on the data socket
  m.garbage_symbol = kWkGarbage;
  m.reset_event = "respawn";
  m.reset_state = 0;  // the spawn handshake restarts at WaitHello

  ProtocolAutomaton sup("supervisor");
  const int wait_hello = sup.add_state("WaitHello");
  const int send_cfg = sup.add_state("SendCfg");
  int a_sync = -1;
  int a_await_sync = -1;
  if (o.sideband) {
    a_sync = sup.add_state("SyncClock");
    a_await_sync = sup.add_state("AwaitSyncAck");
  }
  const int serve0 = sup.add_state("Serve0", /*accepting=*/true);
  const int raise_irq = sup.add_state("RaiseIrq");
  const int ack_write = sup.add_state("AckWrite");
  const int serve1 = sup.add_state("Serve1", /*accepting=*/true);
  const int reply_read = sup.add_state("ReplyRead");
  const int serve2 = sup.add_state("Serve2", /*accepting=*/true);
  const int a_done = sup.add_state("SessionDone", /*accepting=*/true);
  const int a_abort = o.recovery ? sup.add_state("Aborted", /*accepting=*/true, /*closed=*/true)
                                 : -1;

  sup.recv(wait_hello, kWkHello, kChData, send_cfg);
  const int post_cfg = o.sideband ? a_sync : serve0;
  sup.send(send_cfg, kWkStart, kChData, post_cfg);
  sup.send(send_cfg, kWkResume, kChData, post_cfg);
  if (o.sideband) {
    // Per-spawn clock sync: strictly ordered before guest traffic, both
    // peers know obs is on from the config, so no skip branch exists.
    sup.send(a_sync, kWkClockSync, kChData, a_await_sync);
    sup.recv(a_await_sync, kWkClockSyncAck, kChData, serve0);
  }

  // Fresh unit 0: apply the write, raise its interrupt (before the ack, as
  // handle_dev_write does), then ack with the irq high-water mark.
  sup.recv(serve0, kWkDevWrite, kChData, raise_irq).apply_effect = 0;
  sup.send(raise_irq, kWkIrq, kChIrq, ack_write);
  sup.send(ack_write, kWkWriteAck, kChData, serve1);
  // Fresh unit 1: the synchronous read.
  sup.recv(serve1, kWkDevRead, kChData, reply_read).apply_effect = 1;
  sup.send(reply_read, kWkReadReply, kChData, serve2);

  if (o.worker_reply_log && !o.worker_eager_prune) {
    // Replayed requests after a recovery are answered from the reply log
    // with their historical irq marks — acknowledged again, applied never.
    const int re_ack1 = sup.add_state("ReAck@1");
    const int re_ack2 = sup.add_state("ReAck@2");
    const int re_reply = sup.add_state("ReReply@2");
    sup.recv(serve1, kWkDevWrite, kChData, re_ack1);
    sup.send(re_ack1, kWkWriteAck, kChData, serve1);
    sup.recv(serve2, kWkDevWrite, kChData, re_ack2);
    sup.send(re_ack2, kWkWriteAck, kChData, serve2);
    sup.recv(serve2, kWkDevRead, kChData, re_reply);
    sup.send(re_reply, kWkReadReply, kChData, serve2);
  } else if (!o.worker_reply_log) {
    // NL413 negative control: with seq dedup gone a replayed request is
    // indistinguishable from a fresh one and re-applies the device effect.
    sup.recv(serve1, kWkDevWrite, kChData, raise_irq).apply_effect = 0;
    sup.recv(serve2, kWkDevWrite, kChData, raise_irq).apply_effect = 0;
    sup.recv(serve2, kWkDevRead, kChData, reply_read).apply_effect = 1;
  }
  // NL414 negative control (worker_eager_prune): the log entry died at ack
  // time, so Serve1/Serve2 simply have no transition for a replayed request.

  sup.recv(serve2, kWkDone, kChData, a_done);

  ProtocolAutomaton worker("worker");
  const int w_init = worker.add_state("Init");
  const int w_wait_cfg = worker.add_state("WaitConfig");
  int w_sync = -1;
  int w_sync_ack = -1;
  if (o.sideband) {
    w_sync = worker.add_state("SyncClock");
    w_sync_ack = worker.add_state("SyncAck");
  }
  const int w_run1 = worker.add_state("Run1");
  const int w_await_ack = worker.add_state("AwaitAck");
  const int w_drain_irq = worker.add_state("DrainIrq");
  const int w_ckpt = worker.add_state("CkptBoundary");
  const int w_run2 = worker.add_state("Run2");
  const int w_await_reply = worker.add_state("AwaitReply");
  const int w_done = worker.add_state("Done");
  const int w_exit = worker.add_state("Exited", /*accepting=*/true, /*closed=*/true);
  worker.set_awaiting(w_await_ack, 0);
  worker.set_awaiting(w_await_reply, 1);

  worker.send(w_init, kWkHello, kChData, w_wait_cfg);
  const int w_post_cfg = o.sideband ? w_sync : w_run1;
  worker.recv(w_wait_cfg, kWkStart, kChData, w_post_cfg);
  worker.recv(w_wait_cfg, kWkResume, kChData, w_post_cfg);
  if (o.sideband) {
    worker.recv(w_sync, kWkClockSync, kChData, w_sync_ack);
    worker.send(w_sync_ack, kWkClockSyncAck, kChData, w_run1);
  }
  worker.send(w_run1, kWkDevWrite, kChData, w_await_ack);
  worker.recv(w_await_ack, kWkWriteAck, kChData, w_drain_irq);
  // The ack's irq high-water mark forces the drain before the ecall retires:
  // interrupt delivery is deterministic in the instruction stream.
  worker.recv(w_drain_irq, kWkIrq, kChIrq, w_ckpt).retire_effect = 0;
  // The ckpt_every cadence may or may not hit the boundary between the units.
  worker.send(w_ckpt, kWkCkpt, kChData, w_run2);
  worker.internal(w_ckpt, w_run2, "skip-ckpt");
  worker.send(w_run2, kWkDevRead, kChData, w_await_reply);
  worker.recv(w_await_reply, kWkReadReply, kChData, w_done).retire_effect = 1;
  worker.send(w_done, kWkDone, kChData, w_exit);

  // The checkpoint between the units: consuming it (seq > applied_seq, or a
  // deterministic replay of the same bytes) pins the worker's respawn point
  // to Run2 with unit 0 retired. A replayed Ckpt can reach Serve2 too (a
  // from-reset replay that checkpoints this time), hence both self-loops.
  for (int serve : {serve1, serve2}) {
    ProtoTransition& ckpt = sup.recv(serve, kWkCkpt, kChData, serve);
    ckpt.ckpt_state = w_run2;
    ckpt.ckpt_mask = 0x1;
  }

  // Live-monitor tolerance at Serve0: a post-Resume epoch of a *real*
  // session can open with a replayed DEV-READ, a checkpoint, or DONE before
  // the monitor saw any write — the worker resumed carrying effects that the
  // two-unit unrolling attributes to earlier epochs. Exploration never
  // reaches these transitions (a crash restores B at or before A's durable
  // progress, so A:Serve0 implies B:Run1 with nothing applied), hence the
  // crash-fault proofs are unaffected.
  if (o.worker_reply_log && !o.worker_eager_prune) {
    const int re_reply0 = sup.add_state("ReReply@0");
    sup.recv(serve0, kWkDevRead, kChData, re_reply0);
    sup.send(re_reply0, kWkReadReply, kChData, serve0);
  }
  {
    ProtoTransition& ckpt0 = sup.recv(serve0, kWkCkpt, kChData, serve0);
    ckpt0.ckpt_state = w_run1;
    ckpt0.ckpt_mask = 0;
  }
  sup.recv(serve0, kWkDone, kChData, a_done);

  // Seq-0 side-band is legal in every non-closed state: the supervisor's
  // handle() tolerates ClockSyncAck/ObsReport anywhere, the worker drains
  // ClockSync/PullObs inline wherever it blocks.
  if (o.sideband) {
    for (std::size_t s = 0; s < sup.states().size(); ++s) {
      const int id = static_cast<int>(s);
      if (sup.state(id).closed) continue;
      // AwaitSyncAck already consumes the ack via its real transition; a
      // tolerance self-loop there would let the walk eat it and stall.
      if (id != a_await_sync) sup.recv(id, kWkClockSyncAck, kChData, id);
      sup.recv(id, kWkObsReport, kChData, id);
    }
    for (int serve : {serve0, serve1, serve2}) {
      sup.send(serve, kWkPullObs, kChData, serve);  // fire-and-forget obs pull
    }
    for (std::size_t s = 0; s < worker.states().size(); ++s) {
      const int id = static_cast<int>(s);
      if (worker.state(id).closed) continue;
      if (id != w_sync) worker.recv(id, kWkClockSync, kChData, id);
      worker.recv(id, kWkPullObs, kChData, id);
    }
    worker.send(w_done, kWkObsReport, kChData, w_done);  // final pre-Done report
  }

  if (o.recovery) {
    // Garbage on the wire aborts the session from the supervisor's side (a
    // decode error recovers by respawn; modelled as an accepted teardown).
    for (std::size_t s = 0; s < sup.states().size(); ++s) {
      if (sup.state(static_cast<int>(s)).closed) continue;
      sup.recv(static_cast<int>(s), kWkGarbage, kChData, a_abort, /*recovery=*/true);
    }
    const int w_dead = worker.add_state("Dead", /*accepting=*/true, /*closed=*/true);
    for (std::size_t s = 0; s < worker.states().size(); ++s) {
      if (worker.state(static_cast<int>(s)).closed) continue;
      worker.recv(static_cast<int>(s), kWkGarbage, kChData, w_dead, /*recovery=*/true);
    }
  }

  m.crash.enabled = true;
  m.crash.units = 2;
  m.crash.b_restart = w_run1;
  m.crash.a_serve = serve0;
  m.crash.a_handshake_states = {wait_hello, send_cfg};
  if (o.sideband) {
    m.crash.a_handshake_states.push_back(a_sync);
    m.crash.a_handshake_states.push_back(a_await_sync);
  }
  m.crash.a_stable_states = {serve0, serve1, serve2, a_done};
  m.crash.irq_channel = kChIrq;
  m.crash.unit_irq_symbols = {kWkIrq, -1};

  m.endpoint_a = std::move(sup);
  m.endpoint_b = std::move(worker);
  return m;
}

/// The Driver-Kernel irq socket (ROADMAP's "unmonitored epsilon channel"):
/// delivery plus the ISR-acknowledge cycle. Endpoint A is the DriverTarget's
/// irq listener (the tapped receiving end — attach the live monitor with
/// flip_direction=true when the tap sits on the raising side), endpoint B
/// the kernel extension raising interrupts. By default the symbol table
/// matches the Driver-Kernel wire format so the decoder's MsgType cast
/// stays valid; data-plane messages on the irq socket are NL401. With
/// ModelOptions::worker_wire the same automaton decodes Worker frames
/// instead — the live-monitor flavor for the supervisor's irq socket,
/// where a respawn resets the decoders and the irq-log re-send on Resume
/// is accepted as fresh Irq deliveries.
ProtocolModel make_driver_irq(const ModelOptions& o) {
  ProtocolModel m;
  m.id = ModelId::DriverIrq;
  m.name = model_name(m.id);
  int irq_sym = kDkInterrupt;
  int garbage_sym = kDkGarbage;
  if (o.worker_wire) {
    m.wire = WireFormat::Worker;
    m.symbols = {"HELLO",     "START",          "RESUME",   "DEV-WRITE",  "WRITE-ACK",
                 "DEV-READ",  "READ-REPLY",     "IRQ",      "CKPT",       "DONE",
                 "CLOCK-SYNC", "CLOCK-SYNC-ACK", "PULL-OBS", "OBS-REPORT", "GARBAGE"};
    m.reset_event = "respawn";
    m.reset_state = 0;  // the replacement socket starts idle
    irq_sym = kWkIrq;
    garbage_sym = kWkGarbage;
  } else {
    m.wire = WireFormat::DriverKernel;
    m.symbols = {"READ", "WRITE", "READ-REPLY", "INTERRUPT", "GARBAGE"};
  }
  m.channels = {"irq"};
  m.monitored_channels = {0};
  m.garbage_symbol = garbage_sym;

  ProtocolAutomaton pump("pump");
  const int idle = pump.add_state("Idle", /*accepting=*/true);
  const int isr = pump.add_state("Isr");
  pump.recv(idle, irq_sym, /*channel=*/0, isr);
  pump.internal(isr, idle, "ack");  // kernel_.raise_irq completed
  if (o.recovery) {
    // A decode error ends the irq listener; its wire is then dead.
    const int dead = pump.add_state("PumpDead", /*accepting=*/true, /*closed=*/true);
    pump.recv(idle, garbage_sym, /*channel=*/0, dead, /*recovery=*/true);
    pump.recv(isr, garbage_sym, /*channel=*/0, dead, /*recovery=*/true);
  }
  m.endpoint_a = std::move(pump);

  ProtocolAutomaton kernel("kernel");
  const int run = kernel.add_state("Run", /*accepting=*/true);
  kernel.send(run, irq_sym, /*channel=*/0, run);
  if (o.recovery) {
    const int quiesced = kernel.add_state("Quiesced", /*accepting=*/true, /*closed=*/true);
    kernel.internal(run, quiesced, "quiesce", /*recovery=*/true);
  }
  m.endpoint_b = std::move(kernel);
  return m;
}

}  // namespace

ProtocolModel make_model(ModelId id, const ModelOptions& options) {
  switch (id) {
    case ModelId::DriverKernel: return make_driver_kernel(options);
    case ModelId::GdbKernel: return make_gdb_kernel(options);
    case ModelId::GdbWrapper: return make_gdb_wrapper(options);
    case ModelId::Worker: return make_worker(options);
    case ModelId::DriverIrq: return make_driver_irq(options);
  }
  return make_driver_kernel(options);
}

// ---------------------------------------------------------------------------
// Wire classification

namespace {

std::string printable_prefix(std::string_view payload, std::size_t max) {
  std::string out;
  for (std::size_t i = 0; i < payload.size() && i < max; ++i) {
    const unsigned char c = static_cast<unsigned char>(payload[i]);
    out += std::isprint(c) != 0 ? static_cast<char>(c) : '.';
  }
  if (payload.size() > max) out += "...";
  return out;
}

WireSymbol classify_rsp(const std::string& payload, bool toward_target) {
  WireSymbol sym;
  sym.detail = "$" + printable_prefix(payload, 24) + "#";
  if (toward_target) {
    if (!payload.empty() && payload[0] == 'c') {
      sym.symbol = kRspCont;
    } else if (!payload.empty() && payload[0] == 'k') {
      sym.symbol = kRspKill;
    } else if (payload.rfind("qnisc.run:", 0) == 0) {
      sym.symbol = kRspRunQuantum;
    } else {
      sym.symbol = kRspQuery;  // g/p/P/m/M/Z/z/H/?/s/D/...
    }
  } else {
    sym.symbol = !payload.empty() && (payload[0] == 'S' || payload[0] == 'T') ? kRspStopReply
                                                                              : kRspReply;
  }
  return sym;
}

}  // namespace

namespace {

int worker_symbol_of(cosim::WorkerOp op) noexcept {
  switch (op) {
    case cosim::WorkerOp::Hello: return kWkHello;
    case cosim::WorkerOp::Start: return kWkStart;
    case cosim::WorkerOp::Resume: return kWkResume;
    case cosim::WorkerOp::DevWrite: return kWkDevWrite;
    case cosim::WorkerOp::WriteAck: return kWkWriteAck;
    case cosim::WorkerOp::DevRead: return kWkDevRead;
    case cosim::WorkerOp::ReadReply: return kWkReadReply;
    case cosim::WorkerOp::Irq: return kWkIrq;
    case cosim::WorkerOp::Ckpt: return kWkCkpt;
    case cosim::WorkerOp::Done: return kWkDone;
    case cosim::WorkerOp::ClockSync: return kWkClockSync;
    case cosim::WorkerOp::ClockSyncAck: return kWkClockSyncAck;
    case cosim::WorkerOp::PullObs: return kWkPullObs;
    case cosim::WorkerOp::ObsReport: return kWkObsReport;
  }
  return -1;
}

}  // namespace

StreamDecoder::StreamDecoder(WireFormat format, bool toward_target)
    : format_(format), toward_target_(toward_target) {}

void StreamDecoder::reset() {
  wedged_ = false;
  buffer_.clear();
  reader_ = rsp::PacketReader{};
}

std::size_t StreamDecoder::pending() const noexcept {
  return format_ == WireFormat::Rsp ? reader_.pending_bytes() : buffer_.size();
}

void StreamDecoder::feed(std::span<const std::uint8_t> bytes, std::vector<WireSymbol>& out) {
  if (wedged_) return;
  if (format_ == WireFormat::Rsp) {
    reader_.feed(bytes);
    while (std::optional<rsp::RspEvent> event = reader_.next()) {
      switch (event->kind) {
        case rsp::RspEventKind::Ack:
        case rsp::RspEventKind::Nak:
          break;  // advisory framing traffic, not part of the alphabet
        case rsp::RspEventKind::Interrupt:
          out.push_back(WireSymbol{kRspIrqByte, false, "0x03 interrupt byte"});
          break;
        case rsp::RspEventKind::Packet:
          out.push_back(classify_rsp(event->payload, toward_target_));
          break;
      }
    }
    return;
  }

  if (format_ == WireFormat::Worker) {
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
    for (;;) {
      const cosim::WorkerFrameView frame = cosim::cut_worker_frame(buffer_);
      if (frame.cut == ipc::FrameCut::BadLength) {
        wedged_ = true;
        out.push_back(WireSymbol{kWkGarbage, true,
                                 "worker frame length " + std::to_string(frame.length) +
                                     " is out of bounds (stream corrupt?)"});
        return;
      }
      if (frame.cut != ipc::FrameCut::Whole) break;
      const int symbol = worker_symbol_of(frame.op);
      if (symbol >= 0) {
        WireSymbol sym;
        sym.symbol = symbol;
        sym.detail = std::string(cosim::worker_op_name(frame.op)) + "(seq " +
                     std::to_string(frame.seq) + ", " + std::to_string(frame.payload.size()) +
                     " payload byte(s)" + (frame.trace_id != 0 ? ", traced" : "") + ")";
        out.push_back(std::move(sym));
      } else {
        // Framing stays intact (plausible length), so classify the frame as
        // garbage and keep decoding subsequent ones.
        const unsigned op = static_cast<unsigned>(frame.op);
        const char* hex = "0123456789abcdef";
        out.push_back(WireSymbol{kWkGarbage, true,
                                 std::string("unknown worker op 0x") + hex[(op >> 4) & 0xF] +
                                     hex[op & 0xF]});
      }
      buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(frame.size()));
    }
    return;
  }

  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  for (;;) {
    const ipc::MessageFrameView frame = ipc::cut_message_frame(buffer_);
    if (frame.cut == ipc::FrameCut::BadLength) {
      // An implausible size field means the stream desynchronized; there is
      // no way to find the next frame boundary.
      wedged_ = true;
      out.push_back(WireSymbol{kDkGarbage, true,
                               "frame size " + std::to_string(frame.length) +
                                   " exceeds the frame size limit"});
      return;
    }
    if (frame.cut != ipc::FrameCut::Whole) break;
    util::Result<ipc::DriverMessage> msg = ipc::decode_message_body(frame.body);
    if (msg.ok()) {
      WireSymbol sym;
      sym.symbol = static_cast<int>(msg.value().type);
      sym.detail = std::string(ipc::msg_type_name(msg.value().type)) + "(" +
                   std::to_string(msg.value().items.size()) + " item(s)" +
                   (msg.value().items.empty() ? "" : ", " + msg.value().items.front().port) + ")";
      out.push_back(std::move(sym));
    } else {
      // Framing stays intact (the size field was plausible), so classify the
      // body as garbage and keep decoding subsequent frames.
      out.push_back(WireSymbol{kDkGarbage, true, msg.error()});
    }
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(frame.size()));
  }
}

// ---------------------------------------------------------------------------
// Conformance monitor

ConformanceMonitor::ConformanceMonitor(ProtocolModel model, DiagEngine& diags,
                                       MonitorOptions options)
    : model_(std::move(model)),
      diags_(diags),
      options_(std::move(options)),
      tx_(model_.wire, /*toward_target=*/true),
      rx_(model_.wire, /*toward_target=*/false) {
  current_.insert(model_.endpoint_a.initial());
}

std::set<int> ConformanceMonitor::closure(std::set<int> states, bool include_recovery) const {
  std::vector<int> worklist(states.begin(), states.end());
  while (!worklist.empty()) {
    const int s = worklist.back();
    worklist.pop_back();
    for (const ProtoTransition& t : model_.endpoint_a.from(s)) {
      if (t.recovery && !include_recovery) continue;
      const bool epsilon = t.kind == ActionKind::Internal || !model_.monitored(t.channel);
      if (epsilon && states.insert(t.to).second) worklist.push_back(t.to);
    }
  }
  return states;
}

namespace {

std::string state_names(const ProtocolAutomaton& automaton, const std::set<int>& states) {
  std::string out;
  for (int s : states) {
    if (!out.empty()) out += "|";
    out += automaton.state(s).name;
  }
  return out.empty() ? "<none>" : out;
}

}  // namespace

void ConformanceMonitor::step(ActionKind kind, const WireSymbol& sym, ipc::CaptureDir dir) {
  ++messages_seen_;
  const char* dir_name = dir == ipc::CaptureDir::Tx ? "tx" : "rx";
  const SourceLoc loc{options_.origin, static_cast<int>(messages_seen_), 0};
  const std::set<int> reach = closure(current_, /*include_recovery=*/true);

  if (sym.malformed) {
    ++violations_;
    diags_.report(Severity::Error, "NL402",
                  std::string("undecodable wire data (") + dir_name + "): " + sym.detail, loc);
  }

  std::set<int> next;
  for (int s : reach) {
    for (const ProtoTransition& t : model_.endpoint_a.from(s)) {
      if (t.kind == kind && t.symbol == sym.symbol && model_.monitored(t.channel)) {
        next.insert(t.to);
      }
    }
  }
  if (next.empty()) {
    const bool all_closed =
        std::all_of(reach.begin(), reach.end(),
                    [&](int s) { return model_.endpoint_a.state(s).closed; });
    if (all_closed) {
      ++violations_;
      diags_.report(Severity::Error, "NL403",
                    "traffic after the endpoint closed its wire (state " +
                        state_names(model_.endpoint_a, reach) + "): " +
                        model_.symbol_name(sym.symbol) + " " + dir_name,
                    loc);
    } else if (!sym.malformed) {
      ++violations_;
      diags_.report(Severity::Error, "NL401",
                    "unexpected " + model_.symbol_name(sym.symbol) + " (" + dir_name +
                        ") in state " + state_names(model_.endpoint_a, reach) +
                        (sym.detail.empty() ? "" : ": " + sym.detail),
                    loc);
    }
    // Resynchronize: any state is again possible, so one violation does not
    // cascade into a report for every subsequent message.
    for (std::size_t s = 0; s < model_.endpoint_a.states().size(); ++s) {
      next.insert(static_cast<int>(s));
    }
  }
  current_ = std::move(next);
}

void ConformanceMonitor::on_transfer(ipc::CaptureDir dir, std::span<const std::uint8_t> bytes) {
  StreamDecoder& decoder = dir == ipc::CaptureDir::Tx ? tx_ : rx_;
  std::vector<WireSymbol> symbols;
  decoder.feed(bytes, symbols);
  for (const WireSymbol& sym : symbols) {
    step(dir == ipc::CaptureDir::Tx ? ActionKind::Send : ActionKind::Recv, sym, dir);
  }
}

void ConformanceMonitor::on_event(std::string_view tag) {
  if (!model_.reset_event.empty() && tag == model_.reset_event && model_.reset_state >= 0) {
    // Kill + respawn cycle: the old socket may die mid-frame (that is what a
    // SIGKILL does, not a protocol violation) and the replacement socket
    // starts on a frame boundary with a fresh handshake.
    tx_.reset();
    rx_.reset();
    current_.clear();
    current_.insert(model_.reset_state);
    return;
  }
  const std::set<int> reach = closure(current_, /*include_recovery=*/true);
  std::set<int> next;
  for (int s : reach) {
    for (const ProtoTransition& t : model_.endpoint_a.from(s)) {
      if (t.kind == ActionKind::Internal && t.label == tag) next.insert(t.to);
    }
  }
  if (next.empty()) {
    diags_.report(Severity::Note, "NL401",
                  "internal event '" + std::string(tag) + "' has no transition from state " +
                      state_names(model_.endpoint_a, reach),
                  SourceLoc{options_.origin, static_cast<int>(messages_seen_), 0});
    return;
  }
  current_ = std::move(next);
}

void ConformanceMonitor::finish() {
  const SourceLoc loc{options_.origin, static_cast<int>(messages_seen_), 0};
  const auto tail = [&](const StreamDecoder& decoder, const char* dir_name) {
    if (decoder.wedged()) return;  // already reported NL402 when it wedged
    if (decoder.pending() > 0) {
      ++violations_;
      diags_.report(Severity::Error, "NL402",
                    "stream ends mid-frame (" + std::to_string(decoder.pending()) +
                        " byte(s) buffered, " + dir_name + ")",
                    loc);
    }
  };
  tail(tx_, "tx");
  tail(rx_, "rx");
  if (options_.end_check) {
    const std::set<int> reach = closure(current_, /*include_recovery=*/false);
    const bool quiescent = std::any_of(reach.begin(), reach.end(), [&](int s) {
      return model_.endpoint_a.state(s).accepting;
    });
    if (!quiescent) {
      ++violations_;
      diags_.report(Severity::Warning, "NL404",
                    "stream ended in non-quiescent state " +
                        state_names(model_.endpoint_a, reach),
                    loc);
    }
  }
}

bool ConformanceMonitor::state_possible(std::string_view name) const {
  const int id = model_.endpoint_a.find_state(name);
  if (id < 0) return false;
  return closure(current_, /*include_recovery=*/true).count(id) > 0;
}

// ---------------------------------------------------------------------------
// Live monitor

LiveConformanceMonitor::LiveConformanceMonitor(ProtocolModel model, std::string origin,
                                               bool flip_direction)
    : monitor_(std::move(model), diags_, MonitorOptions{std::move(origin), true}),
      flip_direction_(flip_direction) {}

void LiveConformanceMonitor::on_wire(ipc::CaptureDir dir, std::span<const std::uint8_t> bytes) {
  if (finished_) return;
  if (flip_direction_) {
    dir = dir == ipc::CaptureDir::Tx ? ipc::CaptureDir::Rx : ipc::CaptureDir::Tx;
  }
  monitor_.on_transfer(dir, bytes);
}

void LiveConformanceMonitor::on_wire_event(std::string_view tag) {
  if (finished_) return;
  monitor_.on_event(tag);
}

void LiveConformanceMonitor::finish() {
  if (finished_) return;
  monitor_.finish();
  finished_ = true;
}

// ---------------------------------------------------------------------------
// Capture replay

std::size_t check_capture(std::span<const std::uint8_t> bytes, const ProtocolModel& model,
                          DiagEngine& diags, const std::string& origin) {
  ConformanceMonitor monitor(model, diags, MonitorOptions{origin, true});
  std::size_t replayed = 0;
  std::size_t offset = 0;
  int frame = 0;
  while (offset < bytes.size()) {
    ++frame;
    const SourceLoc loc{origin, frame, 0};
    const ipc::MessageFrameView envelope = ipc::cut_message_frame(bytes.subspan(offset));
    if (envelope.cut == ipc::FrameCut::ShortLength) {
      diags.report(Severity::Error, "NL402",
                   "capture envelope truncated at offset " + std::to_string(offset), loc);
      break;
    }
    if (envelope.cut != ipc::FrameCut::Whole) {
      diags.report(Severity::Error, "NL402",
                   "capture envelope frame " + std::to_string(frame) +
                       " has implausible size " + std::to_string(envelope.length),
                   loc);
      break;
    }
    util::Result<ipc::DriverMessage> msg = ipc::decode_message_body(envelope.body);
    offset += envelope.size();
    if (!msg.ok()) {
      diags.report(Severity::Error, "NL402",
                   "capture envelope frame " + std::to_string(frame) + ": " + msg.error(), loc);
      break;
    }
    for (const ipc::MsgItem& item : msg.value().items) {
      // WireCapture::dump pseudo-ports: "<label>.tx#<seq>" / "<label>.rx#<seq>".
      const std::size_t tx = item.port.rfind(".tx#");
      const std::size_t rx = item.port.rfind(".rx#");
      if (tx == std::string::npos && rx == std::string::npos) {
        diags.report(Severity::Note, "NL402",
                     "frame " + std::to_string(frame) + " port '" + item.port +
                         "' is not a capture pseudo-port; skipped",
                     loc);
        continue;
      }
      monitor.on_transfer(tx != std::string::npos ? ipc::CaptureDir::Tx : ipc::CaptureDir::Rx,
                          item.data);
      ++replayed;
    }
  }
  monitor.finish();
  return replayed;
}

DrainResult drain_to_frame_boundary(ipc::Channel& channel, WireFormat format, bool toward_target,
                                    int timeout_ms) {
  DrainResult out;
  StreamDecoder decoder(format, toward_target);
  std::uint8_t buf[4096];
  for (;;) {
    // On a boundary only sweep what is already pending (poll); mid-frame,
    // wait up to the timeout for the sender to finish its frame.
    const bool mid_frame = decoder.pending() > 0;
    if (!channel.readable(mid_frame ? timeout_ms : 0)) break;
    const std::size_t n = channel.recv_some(buf);
    if (n == 0) break;
    decoder.feed({buf, n}, out.symbols);
    out.bytes.insert(out.bytes.end(), buf, buf + n);
    if (decoder.wedged()) break;
  }
  out.clean = decoder.pending() == 0 && !decoder.wedged();
  return out;
}

}  // namespace nisc::analysis
