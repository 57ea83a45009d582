// Unit and loopback tests for the GDB Remote Serial Protocol layer.
#include <gtest/gtest.h>


#include "ipc/channel.hpp"
#include "iss/assembler.hpp"
#include "iss/cpu.hpp"
#include "rsp/client.hpp"
#include "rsp/packet.hpp"
#include "rsp/stub.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"

namespace nisc::rsp {
namespace {

// ---------------------------------------------------------------- framing

TEST(PacketTest, ChecksumMatchesSpecExample) {
  // "$g#67": 'g' = 0x67.
  EXPECT_EQ(packet_checksum("g"), 0x67);
  EXPECT_EQ(packet_checksum(""), 0);
}

TEST(PacketTest, FrameFormat) {
  EXPECT_EQ(frame_packet("g"), "$g#67");
  EXPECT_EQ(frame_packet("OK"), "$OK#9a");
}

TEST(PacketTest, FrameEscapesReservedChars) {
  std::string frame = frame_packet("a#b");
  EXPECT_EQ(frame.substr(0, 1), "$");
  EXPECT_NE(frame.find('}'), std::string::npos);
  // Round-trip through the reader.
  PacketReader reader;
  reader.feed(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(frame.data()), frame.size()));
  auto event = reader.next();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, RspEventKind::Packet);
  EXPECT_EQ(event->payload, "a#b");
}

void feed_str(PacketReader& reader, std::string_view text) {
  reader.feed(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

TEST(PacketTest, ReaderHandlesAckNakInterrupt) {
  PacketReader reader;
  feed_str(reader, "+-\x03");
  EXPECT_EQ(reader.next()->kind, RspEventKind::Ack);
  EXPECT_EQ(reader.next()->kind, RspEventKind::Nak);
  EXPECT_EQ(reader.next()->kind, RspEventKind::Interrupt);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(PacketTest, ReaderAssemblesAcrossFeeds) {
  PacketReader reader;
  std::string frame = frame_packet("mdeadbeef,4");
  for (char c : frame) {
    EXPECT_FALSE(reader.next().has_value());
    feed_str(reader, std::string_view(&c, 1));
  }
  auto event = reader.next();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->payload, "mdeadbeef,4");
}

TEST(PacketTest, ReaderRejectsBadChecksum) {
  PacketReader reader;
  feed_str(reader, "$g#00");
  auto event = reader.next();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, RspEventKind::Nak);
}

TEST(PacketTest, ReaderSkipsStrayBytes) {
  PacketReader reader;
  feed_str(reader, "zz$OK#9a");
  auto event = reader.next();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, RspEventKind::Packet);
  EXPECT_EQ(event->payload, "OK");
}

TEST(PacketTest, MultiplePacketsInOneFeed) {
  PacketReader reader;
  feed_str(reader, frame_packet("one") + "+" + frame_packet("two"));
  EXPECT_EQ(reader.next()->payload, "one");
  EXPECT_EQ(reader.next()->kind, RspEventKind::Ack);
  EXPECT_EQ(reader.next()->payload, "two");
}

// ---------------------------------------------------------------- stub+client loopback

/// Test fixture hosting a GdbStub as the client's in-process peer, as the
/// co-simulation layer does: the client's sends and waits step the stub,
/// and each step runs one slice while the guest runs.
class RspLoopback : public ::testing::Test {
 protected:
  /// Instructions per slice a step runs while the guest runs.
  static constexpr std::uint64_t kSlice = 4096;

  void start(const std::string& program) {
    cpu_ = std::make_unique<iss::Cpu>(1 << 16);
    iss::Program prog = iss::assemble(program);
    prog.load_into(cpu_->mem());
    cpu_->reset(prog.entry);
    symbols_ = prog.symbols;

    auto pair = ipc::make_channel_pair(ipc::Transport::SocketPair);
    stub_ = std::make_unique<GdbStub>(*cpu_, std::move(pair.a));
    pair.b.set_inline_peer([this] {
      bool worked = stub_->poll();
      worked = stub_->run_slice(kSlice) || worked;
      return worked || (!stub_->done() && stub_->channel().input_waiting());
    });
    client_ = std::make_unique<GdbClient>(std::move(pair.b));
  }

  void TearDown() override {
    if (client_) {
      if (client_->running()) client_->interrupt();
      // Drain any pending stop reply so 'k' is seen while halted.
      if (client_->running()) client_->wait_stop();
      client_->kill();
      EXPECT_TRUE(stub_->done());
    }
  }

  std::uint32_t sym(const std::string& name) { return symbols_.at(name); }

  std::unique_ptr<iss::Cpu> cpu_;
  std::unique_ptr<GdbStub> stub_;
  std::unique_ptr<GdbClient> client_;
  std::map<std::string, std::uint32_t> symbols_;
};

TEST_F(RspLoopback, QueryHaltReason) {
  start("nop\nebreak\n");
  EXPECT_EQ(client_->transact("?"), "S05");
}

TEST_F(RspLoopback, QSupportedReportsPacketSize) {
  start("ebreak\n");
  EXPECT_EQ(client_->transact("qSupported"), "PacketSize=4000");
}

TEST_F(RspLoopback, UnknownPacketGetsEmptyReply) {
  start("ebreak\n");
  EXPECT_EQ(client_->transact("vMustReplyEmpty"), "");
}

TEST_F(RspLoopback, ReadWriteRegisters) {
  start("ebreak\n");
  auto regs = client_->read_registers();
  ASSERT_EQ(regs.size(), 33u);
  EXPECT_EQ(regs[0], 0u);

  client_->write_register(5, 0xDEADBEEF);
  EXPECT_EQ(client_->read_register(5), 0xDEADBEEFu);
  EXPECT_EQ(cpu_->reg(5), 0xDEADBEEFu);

  client_->write_pc(0x40);
  EXPECT_EQ(client_->read_pc(), 0x40u);
}

TEST_F(RspLoopback, WriteAllRegisters) {
  start("ebreak\n");
  auto regs = client_->read_registers();
  regs[7] = 1234;
  regs[32] = 0x80;
  std::string payload = "G";
  for (std::uint32_t r : regs) payload += util::hex_encode_u32_le(r);
  EXPECT_EQ(client_->transact(payload), "OK");
  EXPECT_EQ(cpu_->reg(7), 1234u);
  EXPECT_EQ(cpu_->pc(), 0x80u);
}

TEST_F(RspLoopback, ReadWriteMemory) {
  start("ebreak\n");
  std::vector<std::uint8_t> data = {0x11, 0x22, 0x33, 0x44, 0x55};
  client_->write_memory(0x100, data);
  EXPECT_EQ(client_->read_memory(0x100, 5), data);
  client_->write_u32(0x200, 0xCAFED00D);
  EXPECT_EQ(client_->read_u32(0x200), 0xCAFED00Du);
}

TEST_F(RspLoopback, OutOfBoundsMemoryReportsError) {
  start("ebreak\n");
  EXPECT_THROW(client_->read_memory(0xFFFFFFF0, 32), util::RuntimeError);
}

TEST_F(RspLoopback, BreakpointRoundTrip) {
  start(R"(
  _start:
      li a0, 1
  bp_here:
      li a0, 2
      ebreak
  )");
  client_->set_breakpoint(sym("bp_here"));
  client_->cont();
  auto stop = client_->wait_stop();
  ASSERT_TRUE(stop.has_value());
  EXPECT_EQ(stop->signal, 5);
  EXPECT_EQ(client_->read_pc(), sym("bp_here"));
  EXPECT_EQ(client_->read_register(10), 1u);  // a0: first li done, second not

  client_->remove_breakpoint(sym("bp_here"));
  client_->cont();
  stop = client_->wait_stop();
  ASSERT_TRUE(stop.has_value());
  EXPECT_EQ(client_->read_register(10), 2u);
}

TEST_F(RspLoopback, PollStopIsNonBlocking) {
  start(R"(
      li t0, 200000
  spin:
      addi t0, t0, -1
      bnez t0, spin
      ebreak
  )");
  client_->cont();
  // The stub ran one slice on the 'c'; the guest is still spinning, and the
  // check must neither block nor step the stub.
  EXPECT_FALSE(client_->poll_stop().has_value());
  const std::uint64_t instret = cpu_->instret();
  EXPECT_FALSE(client_->poll_stop().has_value());
  EXPECT_EQ(cpu_->instret(), instret);
  // Step the stub as a host does between checks, until the ebreak stop.
  std::optional<StopReply> stop;
  for (int polls = 0; !stop && polls < 1000; ++polls) {
    stub_->poll();
    stub_->run_slice(kSlice);
    stop = client_->poll_stop();
  }
  ASSERT_TRUE(stop.has_value());
  EXPECT_EQ(stop->signal, 5);
  EXPECT_GT(client_->stats().stop_polls, 2u);
}

TEST_F(RspLoopback, WatchpointReportsAddress) {
  start(R"(
  _start:
      la t0, var
      li t1, 7
      sw t1, 0(t0)
      ebreak
  var: .word 0
  )");
  client_->set_watchpoint(sym("var"), 4);
  client_->cont();
  auto stop = client_->wait_stop();
  ASSERT_TRUE(stop.has_value());
  ASSERT_TRUE(stop->watch_addr.has_value());
  EXPECT_EQ(*stop->watch_addr, sym("var"));
  EXPECT_EQ(client_->read_u32(sym("var")), 7u);
}

TEST_F(RspLoopback, SingleStep) {
  start("li a0, 1\nli a0, 2\nebreak\n");
  StopReply stop = client_->step();
  EXPECT_EQ(stop.signal, 5);
  EXPECT_EQ(client_->read_pc(), 4u);
  EXPECT_EQ(client_->read_register(10), 1u);
  client_->step();
  EXPECT_EQ(client_->read_register(10), 2u);
}

TEST_F(RspLoopback, InterruptHaltsRunningTarget) {
  start("spin: j spin\n");
  client_->cont();
  client_->interrupt();
  auto stop = client_->wait_stop();
  ASSERT_TRUE(stop.has_value());
  EXPECT_EQ(stop->signal, 2);  // SIGINT
}

TEST_F(RspLoopback, IllegalInstructionSignalsSigill) {
  start(".word 0\n");  // all-zero word: illegal
  client_->cont();
  auto stop = client_->wait_stop();
  ASSERT_TRUE(stop.has_value());
  EXPECT_EQ(stop->signal, 4);
}

TEST_F(RspLoopback, RunQuantumExecutesBoundedSlice) {
  start(R"(
      li t0, 1000
  spin:
      addi t0, t0, -1
      bnez t0, spin
      ebreak
  )");
  StopReply stop = client_->run_quantum(10);
  EXPECT_EQ(stop.signal, 0);  // quantum exhausted, still running
  EXPECT_EQ(cpu_->instret(), 10u);
  stop = client_->run_quantum(1000000);
  EXPECT_EQ(stop.signal, 5);  // reached the ebreak
}

TEST_F(RspLoopback, RunQuantumStopsAtBreakpoint) {
  start(R"(
  _start:
      li a0, 1
  bp_here:
      li a0, 2
      ebreak
  )");
  client_->set_breakpoint(sym("bp_here"));
  StopReply stop = client_->run_quantum(1000);
  EXPECT_EQ(stop.signal, 5);
  ASSERT_TRUE(stop.pc.has_value());
  EXPECT_EQ(*stop.pc, sym("bp_here"));
  EXPECT_EQ(client_->read_register(10), 1u);  // stopped before the second li
}

TEST_F(RspLoopback, RunQuantumRejectsMalformedCount) {
  start("ebreak\n");
  EXPECT_EQ(client_->transact("qnisc.run:zz"), "E01");
}

TEST(GdbClientStopTest, OnlyStopPacketsEndAContinue) {
  // A peer that replays a stale reply after 'c' (say, a duplicated "OK" of
  // the breakpoint insert before it) must not read as a stop with signal 0.
  auto pair = ipc::make_channel_pair(ipc::Transport::SocketPair);
  GdbClient client(std::move(pair.b));
  client.cont();
  std::uint8_t request[16];
  pair.a.recv_exact(std::span<std::uint8_t>(request, frame_packet("c").size()));

  pair.a.send_str(frame_packet("OK"));
  EXPECT_THROW(client.poll_stop(), util::RuntimeError);
  EXPECT_TRUE(client.running());
  pair.a.send_str(frame_packet(""));
  EXPECT_THROW(client.wait_stop(), util::RuntimeError);
  pair.a.send_str(frame_packet("E01"));
  EXPECT_THROW(client.wait_stop(), util::RuntimeError);
  EXPECT_TRUE(client.running());

  pair.a.send_str(frame_packet("T05"));
  auto stop = client.wait_stop();
  ASSERT_TRUE(stop.has_value());
  EXPECT_EQ(stop->signal, 5);
  EXPECT_FALSE(client.running());
}

TEST_F(RspLoopback, StatsCountTraffic) {
  start("ebreak\n");
  client_->transact("?");
  client_->read_registers();
  EXPECT_GE(stub_->stats().packets_handled, 2u);
  EXPECT_GE(client_->stats().transactions, 2u);
}

}  // namespace
}  // namespace nisc::rsp
