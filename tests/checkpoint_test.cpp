// Unit tests for the crash-consistent checkpoint container (DESIGN.md §12):
// per-layer byte-identical round trips (ISS, kernel, channel, worker,
// unknown sections), the sparse-page memory encoding, bit-identical resume
// of a restored CPU, corruption detection (magic/version/truncation/CRC),
// and the supervisor<->worker frame/config codecs.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cosim/checkpoint.hpp"
#include "cosim/worker.hpp"
#include "ipc/channel.hpp"
#include "iss/assembler.hpp"
#include "iss/cpu.hpp"
#include "iss/program.hpp"
#include "sysc/sysc.hpp"
#include "util/error.hpp"

namespace nisc::cosim {
namespace {

using namespace sysc::time_literals;

// A guest that keeps mutating registers and memory so mid-run snapshots are
// interesting: a counted loop accumulating into a0 and storing each partial
// sum to a walking pointer.
constexpr const char* kGuestSource = R"(
_start:
    li   a0, 0
    li   t0, 0
    li   t1, 200
    la   t2, sums
loop:
    add  a0, a0, t0
    sw   a0, 0(t2)
    addi t2, t2, 4
    addi t0, t0, 1
    bne  t0, t1, loop
    ebreak

sums:
    .space 1024
)";

iss::Cpu make_guest_cpu(std::size_t mem = 1 << 16) {
  const iss::Program program = iss::assemble(kGuestSource);
  iss::Cpu cpu(mem);
  program.load_into(cpu.mem());
  cpu.set_pc(program.entry);
  return cpu;
}

// ------------------------------------------------------------------- ISS

TEST(IssSnapshotTest, CaptureEncodeDecodeApplyRoundTripsBitIdentically) {
  iss::Cpu cpu = make_guest_cpu();
  cpu.add_breakpoint(0x400);
  cpu.add_watchpoint(0x800, 16);
  ASSERT_EQ(cpu.run(137), iss::Halt::Quantum);

  const IssSnapshot snap = IssSnapshot::capture(cpu);
  Checkpoint checkpoint;
  checkpoint.iss = snap;
  const std::vector<std::uint8_t> bytes = encode_checkpoint(checkpoint);
  const Checkpoint decoded = decode_checkpoint(bytes);
  ASSERT_TRUE(decoded.iss.has_value());
  EXPECT_EQ(*decoded.iss, snap);

  iss::Cpu restored(static_cast<std::size_t>(snap.mem_size));
  decoded.iss->apply(restored);
  EXPECT_EQ(IssSnapshot::capture(restored), snap);
  EXPECT_EQ(restored.pc(), cpu.pc());
  EXPECT_EQ(restored.instret(), cpu.instret());
  EXPECT_TRUE(restored.has_breakpoint(0x400));
}

TEST(IssSnapshotTest, RestoredCpuResumesBitIdenticallyToTheOriginal) {
  iss::Cpu control = make_guest_cpu();
  iss::Cpu victim = make_guest_cpu();
  ASSERT_EQ(victim.run(271), iss::Halt::Quantum);

  // "Crash" the victim, restore into a fresh CPU, run both to completion.
  const IssSnapshot snap = IssSnapshot::capture(victim);
  iss::Cpu recovered(static_cast<std::size_t>(snap.mem_size));
  snap.apply(recovered);

  const iss::Halt control_halt = control.run(1000000);
  const iss::Halt recovered_halt = recovered.run(1000000);
  EXPECT_EQ(control_halt, iss::Halt::Ebreak);
  EXPECT_EQ(recovered_halt, iss::Halt::Ebreak);
  EXPECT_EQ(IssSnapshot::capture(recovered), IssSnapshot::capture(control));
}

TEST(IssSnapshotTest, AllZeroPagesAreElided) {
  iss::Cpu cpu(1 << 20);  // 256 pages, almost all zero
  const std::uint32_t word = 0xDEADBEEF;
  cpu.mem().write_block(200 * kCheckpointPageSize + 12,
                        {reinterpret_cast<const std::uint8_t*>(&word), 4});
  const IssSnapshot snap = IssSnapshot::capture(cpu);
  ASSERT_EQ(snap.pages.size(), 1u);
  EXPECT_EQ(snap.pages[0].first, 200u);
  EXPECT_EQ(snap.pages[0].second.size(), kCheckpointPageSize);

  // Restore clears first, so a dirty target still converges to the snapshot.
  iss::Cpu dirty(1 << 20);
  const std::uint32_t junk = 0x12345678;
  dirty.mem().write_block(5 * kCheckpointPageSize,
                          {reinterpret_cast<const std::uint8_t*>(&junk), 4});
  snap.apply(dirty);
  EXPECT_EQ(IssSnapshot::capture(dirty), snap);
}

TEST(IssSnapshotTest, ApplyRejectsMemorySizeMismatch) {
  iss::Cpu cpu = make_guest_cpu(1 << 16);
  const IssSnapshot snap = IssSnapshot::capture(cpu);
  iss::Cpu wrong(1 << 15);
  EXPECT_THROW(snap.apply(wrong), util::RuntimeError);
}

// ------------------------------------------------------------------ kernel

TEST(KernelSectionTest, HandBuiltStateRoundTrips) {
  sysc::kernel_state state;
  state.now_ps = 123456789;
  state.timed_seq = 42;
  state.stats.delta_cycles = 7;
  state.stats.process_dispatches = 19;
  state.stats.channel_updates = 3;
  state.stats.timed_advances = 5;
  state.stats.extension_checks = 11;
  state.timed.push_back({200000, 40, false, "dev_irq", 0});
  state.timed.push_back({200000, 41, true, "poller", 0});
  state.delta_events.push_back({"dev_update", 1});

  Checkpoint checkpoint;
  checkpoint.kernel = state;
  const Checkpoint decoded = decode_checkpoint(encode_checkpoint(checkpoint));
  ASSERT_TRUE(decoded.kernel.has_value());
  EXPECT_EQ(*decoded.kernel, state);
}

TEST(KernelSectionTest, LiveContextSurvivesSaveEncodeDecodeRestore) {
  // A context with a pending timed notification, snapshotted mid-run,
  // shipped through the wire format, and restored into a rebuilt design.
  auto build = [](sysc::sc_simcontext& ctx) {
    sysc::sc_simcontext::ContextGuard guard(ctx);
    return std::make_unique<sysc::sc_event>("tick");
  };

  sysc::sc_simcontext original;
  auto tick = build(original);
  original.run(0_ns);  // initialization
  tick->notify(50_ns);
  original.run(10_ns);
  const sysc::kernel_state state = original.save_state();
  EXPECT_EQ(state.now_ps, 10000u);
  ASSERT_EQ(state.timed.size(), 1u);

  Checkpoint checkpoint;
  checkpoint.kernel = state;
  const Checkpoint decoded = decode_checkpoint(encode_checkpoint(checkpoint));
  ASSERT_TRUE(decoded.kernel.has_value());

  sysc::sc_simcontext rebuilt;
  auto tick2 = build(rebuilt);
  rebuilt.restore_state(*decoded.kernel);
  EXPECT_EQ(rebuilt.save_state(), state);
  EXPECT_EQ(rebuilt.time_stamp().ps(), 10000u);
}

// --------------------------------------------------------- channel / worker

TEST(ChannelSectionTest, ChannelsAndWorkerRoundTripInOrder) {
  Checkpoint checkpoint;
  checkpoint.channels.push_back({"worker-data", 17, 12, {1, 2, 3, 4}});
  checkpoint.channels.push_back({"sup-data", 12, 17, {}});
  WorkerSnapshot worker;
  worker.irqs_delivered = 5;
  worker.pending_irqs = {3, 1, 4};
  worker.dev_rx = {0xAA, 0xBB};
  checkpoint.worker = worker;

  const Checkpoint decoded = decode_checkpoint(encode_checkpoint(checkpoint));
  ASSERT_EQ(decoded.channels.size(), 2u);
  EXPECT_EQ(decoded.channels[0], checkpoint.channels[0]);
  EXPECT_EQ(decoded.channels[1], checkpoint.channels[1]);
  ASSERT_TRUE(decoded.worker.has_value());
  EXPECT_EQ(*decoded.worker, worker);
  EXPECT_EQ(decoded, checkpoint);
}

TEST(ChannelSectionTest, UnknownSectionsArePreservedVerbatim) {
  Checkpoint checkpoint;
  checkpoint.channels.push_back({"data", 1, 1, {}});
  checkpoint.extra.emplace_back(0x21565846u /* "FXV!" */,
                                std::vector<std::uint8_t>{9, 8, 7, 6, 5});

  const std::vector<std::uint8_t> bytes = encode_checkpoint(checkpoint);
  const Checkpoint decoded = decode_checkpoint(bytes);
  ASSERT_EQ(decoded.extra.size(), 1u);
  EXPECT_EQ(decoded.extra[0], checkpoint.extra[0]);
  // Forward compatibility: re-encoding reproduces the exact input bytes,
  // unknown section included.
  EXPECT_EQ(encode_checkpoint(decoded), bytes);
}

TEST(ChannelSectionTest, EncodingIsDeterministic) {
  iss::Cpu cpu = make_guest_cpu();
  ASSERT_EQ(cpu.run(64), iss::Halt::Quantum);
  Checkpoint checkpoint;
  checkpoint.iss = IssSnapshot::capture(cpu);
  checkpoint.channels.push_back({"worker-data", 2, 1, {}});
  EXPECT_EQ(encode_checkpoint(checkpoint), encode_checkpoint(checkpoint));
}

// -------------------------------------------------------------- corruption

std::vector<std::uint8_t> sample_checkpoint_bytes() {
  iss::Cpu cpu = make_guest_cpu();
  cpu.run(32);
  Checkpoint checkpoint;
  checkpoint.iss = IssSnapshot::capture(cpu);
  checkpoint.channels.push_back({"data", 3, 2, {}});
  return encode_checkpoint(checkpoint);
}

TEST(CorruptionTest, BadMagicIsRejected) {
  std::vector<std::uint8_t> bytes = sample_checkpoint_bytes();
  bytes[0] ^= 0xFF;
  EXPECT_THROW(decode_checkpoint(bytes), util::RuntimeError);
}

TEST(CorruptionTest, UnsupportedVersionIsRejected) {
  std::vector<std::uint8_t> bytes = sample_checkpoint_bytes();
  bytes[4] = 0x7F;  // version field follows the magic
  EXPECT_THROW(decode_checkpoint(bytes), util::RuntimeError);
}

TEST(CorruptionTest, TruncationIsRejectedAtEveryPrefix) {
  const std::vector<std::uint8_t> bytes = sample_checkpoint_bytes();
  // Chopping anywhere inside the container must throw, never misparse.
  for (std::size_t keep : {bytes.size() - 1, bytes.size() - 7, bytes.size() / 2,
                           std::size_t{9}, std::size_t{5}, std::size_t{1}}) {
    EXPECT_THROW(decode_checkpoint(std::span(bytes.data(), keep)), util::RuntimeError)
        << "prefix " << keep;
  }
}

TEST(CorruptionTest, PayloadBitFlipFailsTheSectionCrc) {
  std::vector<std::uint8_t> bytes = sample_checkpoint_bytes();
  bytes[bytes.size() / 2] ^= 0x01;  // somewhere inside a section payload
  EXPECT_THROW(decode_checkpoint(bytes), util::RuntimeError);
}

// -------------------------------------------------- worker config / frames

TEST(WorkerCodecTest, ConfigRoundTrips) {
  WorkerConfig config;
  config.guest_source = kGuestSource;
  config.mem_size = 1 << 18;
  config.ckpt_every = 97;
  config.fault = {FaultKind::CrashAt, 1234};
  EXPECT_EQ(decode_worker_config(encode_worker_config(config)), config);
}

TEST(WorkerCodecTest, FramesRoundTripOverASocketpair) {
  ipc::ChannelPair pair = ipc::make_channel_pair(ipc::Transport::SocketPair);
  pair.a.set_io_timeout(2000);
  pair.b.set_io_timeout(2000);

  WorkerFrame frame;
  frame.op = WorkerOp::DevWrite;
  frame.seq = 0x1122334455667788ULL;
  frame.payload = {1, 0, 0, 0, 7, 0, 0, 0};
  send_frame(pair.a, frame);
  EXPECT_EQ(recv_frame(pair.b), frame);

  WorkerFrame empty;
  empty.op = WorkerOp::Hello;
  empty.seq = 0;
  send_frame(pair.b, empty);
  EXPECT_EQ(recv_frame(pair.a), empty);
}

// Known answers for the worker wire: a DevWrite frame without and with the
// FTID trace-id trailer, as read off a socketpair.
TEST(WorkerCodecTest, DevWriteFrameBytesArePinned) {
  using Bytes = std::vector<std::uint8_t>;
  auto wire_bytes = [](std::uint64_t trace_id, std::size_t size) {
    ipc::ChannelPair pair = ipc::make_channel_pair(ipc::Transport::SocketPair);
    pair.b.set_io_timeout(2000);
    send_frame(pair.a, WorkerFrame{WorkerOp::DevWrite, 5, trace_id, {0, 2, 0, 0, 9, 0, 0, 0}});
    Bytes out(size);
    pair.b.recv_exact(out);
    EXPECT_FALSE(pair.b.readable(0));
    return out;
  };
  EXPECT_EQ(wire_bytes(0, 21),
            (Bytes{0x11, 0x00, 0x00, 0x00, 0x12, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00}));
  EXPECT_EQ(wire_bytes(0x0001000000000042ULL, 33),
            (Bytes{0x1d, 0x00, 0x00, 0x00, 0x12, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x42,
                   0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x46, 0x54, 0x49, 0x44}));
}

TEST(WorkerCodecTest, ConfigBytesArePinned) {
  WorkerConfig config;
  config.guest_source = "ecall\n";
  config.mem_size = 0x10000;
  config.ckpt_every = 32;
  config.fault = {FaultKind::CrashAt, 77};
  config.trace = true;
  config.obs_export = true;
  config.trace_buf = 256;
  config.clock_period_ps = 2000;
  config.worker_index = 3;
  config.session_label = "w3";
  const std::vector<std::uint8_t> expected = {
      0x06, 0x00, 0x00, 0x00, 0x65, 0x63, 0x61, 0x6c, 0x6c, 0x0a, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x01, 0x4d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
      0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x07, 0x00, 0x00,
      0x03, 0x00, 0x00, 0x00, 0x02, 0x00, 0x77, 0x33};
  EXPECT_EQ(encode_worker_config(config), expected);
  EXPECT_EQ(decode_worker_config(expected), config);
}

// The worker opens every session with Hello; a first reply other than
// Start or Resume ends it.
TEST(WorkerCodecTest, HelloPayloadIsPinned) {
  ipc::ChannelPair data = ipc::make_channel_pair(ipc::Transport::SocketPair);
  ipc::ChannelPair irq = ipc::make_channel_pair(ipc::Transport::SocketPair);
  data.a.set_io_timeout(2000);
  send_frame(data.a, WorkerFrame{WorkerOp::PullObs, 0, 0, {}});
  EXPECT_EQ(run_worker(std::move(data.b), std::move(irq.b)), 1);
  const WorkerFrame hello = recv_frame(data.a);
  EXPECT_EQ(hello.op, WorkerOp::Hello);
  EXPECT_EQ(hello.seq, 0u);
  EXPECT_EQ(hello.payload, (std::vector<std::uint8_t>{0x57, 0x52, 0x4b, 0x31}));  // "WRK1"
}

TEST(WorkerCodecTest, ConfigObsExtensionRoundTrips) {
  WorkerConfig config;
  config.guest_source = kGuestSource;
  config.mem_size = 1 << 18;
  config.ckpt_every = 97;
  config.trace = true;
  config.obs_export = true;
  config.trace_buf = 4096;
  config.clock_period_ps = 1250;
  config.worker_index = 3;
  config.session_label = "matrix-7";
  EXPECT_EQ(decode_worker_config(encode_worker_config(config)), config);
}

TEST(WorkerCodecTest, TruncatedConfigIsRejected) {
  // The wire has one revision: every field is required, so no prefix of an
  // encoded config decodes.
  WorkerConfig config;
  config.guest_source = kGuestSource;
  config.trace = true;
  config.session_label = "cut";
  const std::vector<std::uint8_t> wire = encode_worker_config(config);
  for (std::size_t size = 0; size < wire.size(); ++size) {
    EXPECT_THROW(decode_worker_config(std::span(wire).first(size)), util::RuntimeError)
        << "prefix of " << size << " byte(s)";
  }
  EXPECT_EQ(decode_worker_config(wire), config);
}

TEST(WorkerCodecTest, FrameTraceIdTrailerRoundTrips) {
  ipc::ChannelPair pair = ipc::make_channel_pair(ipc::Transport::SocketPair);
  pair.a.set_io_timeout(2000);
  pair.b.set_io_timeout(2000);

  WorkerFrame frame;
  frame.op = WorkerOp::DevWrite;
  frame.seq = 42;
  frame.trace_id = (1ULL << 48) | 42;
  frame.payload = {0, 2, 0, 0, 9, 0, 0, 0};
  send_frame(pair.a, frame);
  const WorkerFrame got = recv_frame(pair.b);
  EXPECT_EQ(got, frame);
  EXPECT_EQ(got.trace_id, (1ULL << 48) | 42);
  EXPECT_EQ(got.payload.size(), worker_op_fixed_payload(WorkerOp::DevWrite));

  // trace_id 0 = no trailer on the wire: both shapes interleave freely.
  frame.trace_id = 0;
  frame.seq = 43;
  send_frame(pair.a, frame);
  EXPECT_EQ(recv_frame(pair.b), frame);
}

TEST(WorkerCodecTest, HandEncodedTrailerIsStrippedAndPeeked) {
  // A tagged frame written byte by byte, in two transfers: the 12-byte
  // trailer follows the fixed payload and is not part of it. A
  // variable-payload op (Ckpt) never gets a trailer.
  ipc::ChannelPair pair = ipc::make_channel_pair(ipc::Transport::SocketPair);
  pair.a.set_io_timeout(2000);
  pair.b.set_io_timeout(2000);

  // Hand-encode DevWrite + trailer the way send_frame does...
  const std::uint64_t id = 0xABCDULL;
  std::vector<std::uint8_t> body;
  body.push_back(static_cast<std::uint8_t>(WorkerOp::DevWrite));
  for (int i = 0; i < 8; ++i) body.push_back(i == 0 ? 7 : 0);  // seq 7
  for (int i = 0; i < 8; ++i) body.push_back(0x5A);            // fixed payload
  for (int i = 0; i < 8; ++i) body.push_back(static_cast<std::uint8_t>(id >> (8 * i)));
  for (const char c : {'F', 'T', 'I', 'D'}) body.push_back(static_cast<std::uint8_t>(c));
  std::uint8_t len[4];
  const std::uint32_t body_len = static_cast<std::uint32_t>(body.size());
  std::memcpy(len, &body_len, 4);
  pair.a.send(len);
  pair.a.send(body);

  // ...recv_frame strips it back out:
  const WorkerFrame got = recv_frame(pair.b);
  EXPECT_EQ(got.op, WorkerOp::DevWrite);
  EXPECT_EQ(got.seq, 7u);
  EXPECT_EQ(got.trace_id, id);
  EXPECT_EQ(got.payload.size(), 8u);

  // ...and peek_frame_trace_id reads it off the raw transfer (the ObsTap
  // wire-observer path) without decoding the frame.
  std::vector<std::uint8_t> transfer(len, len + 4);
  transfer.insert(transfer.end(), body.begin(), body.end());
  EXPECT_EQ(peek_frame_trace_id(ipc::CaptureDir::Tx, transfer), id);
  // Untagged or partial transfers peek as 0 (no correlation).
  transfer.resize(transfer.size() - 1);
  EXPECT_EQ(peek_frame_trace_id(ipc::CaptureDir::Tx, transfer), 0u);
}

TEST(WorkerCodecTest, ObsReportRoundTrips) {
  WorkerObsReport report;
  report.worker_now_ns = 0x1122334455ULL;
  report.metrics_json = "{\"schema\":1,\"counters\":{\"x\":3}}";
  obs::TraceSnapshot::Thread thread;
  thread.tid = 9;
  thread.dropped = 2;
  thread.events.push_back({"w.span", "worker", "addr", 0x200, 777, 5000, 0xF1, 'B'});
  report.trace.threads.push_back(std::move(thread));
  EXPECT_EQ(decode_obs_report(encode_obs_report(report)), report);
}

TEST(WorkerCodecTest, OversizedFrameHeaderIsAProtocolError) {
  ipc::ChannelPair pair = ipc::make_channel_pair(ipc::Transport::SocketPair);
  pair.b.set_io_timeout(2000);
  const std::uint32_t absurd = kMaxWorkerFrame + 1;
  std::uint8_t header[4];
  std::memcpy(header, &absurd, 4);
  pair.a.send(header);
  EXPECT_THROW(recv_frame(pair.b), util::RuntimeError);
}

// -------------------------------------------------------- describe / diff

TEST(DescribeDiffTest, DescribeNamesEverySection) {
  iss::Cpu cpu = make_guest_cpu();
  cpu.run(16);
  Checkpoint checkpoint;
  checkpoint.iss = IssSnapshot::capture(cpu);
  checkpoint.kernel = sysc::kernel_state{};
  checkpoint.channels.push_back({"data", 1, 0, {}});
  checkpoint.worker = WorkerSnapshot{};
  const std::string text = describe_checkpoint(checkpoint);
  EXPECT_NE(text.find("ISS"), std::string::npos);
  EXPECT_NE(text.find("KRNL"), std::string::npos);
  EXPECT_NE(text.find("CHAN"), std::string::npos);
  EXPECT_NE(text.find("WRKR"), std::string::npos);
}

TEST(DescribeDiffTest, DiffIsEmptyForEqualAndNamesTheFieldOtherwise) {
  iss::Cpu cpu = make_guest_cpu();
  cpu.run(16);
  Checkpoint a;
  a.iss = IssSnapshot::capture(cpu);
  Checkpoint b = a;
  EXPECT_TRUE(diff_checkpoints(a, b).empty());

  b.iss->pc += 4;
  const std::vector<std::string> diffs = diff_checkpoints(a, b);
  ASSERT_FALSE(diffs.empty());
  bool mentions_pc = false;
  for (const std::string& line : diffs) {
    if (line.find("pc") != std::string::npos) mentions_pc = true;
  }
  EXPECT_TRUE(mentions_pc);
}

TEST(DescribeDiffTest, DiffTruncatesAtMaxLines) {
  iss::Cpu a_cpu = make_guest_cpu();
  Checkpoint a;
  a.iss = IssSnapshot::capture(a_cpu);
  Checkpoint b = a;
  for (std::size_t i = 0; i < 31; ++i) b.iss->regs[i] ^= 0xFFFFFFFFu;
  b.iss->pc ^= 0xFFFFu;
  b.iss->instret = 999;
  const std::vector<std::string> diffs = diff_checkpoints(a, b, 8);
  ASSERT_LE(diffs.size(), 9u);  // 8 lines + the truncation marker
  EXPECT_NE(diffs.back().find("more difference"), std::string::npos);
}

}  // namespace
}  // namespace nisc::cosim
