// Failure injection: broken transports, malformed protocol traffic, guest
// faults and corrupted frames must degrade gracefully, never crash or hang
// the co-simulation.
#include <gtest/gtest.h>

#include <chrono>

#include "cosim/driver_kernel.hpp"
#include "cosim/gdb_kernel.hpp"
#include "cosim/session.hpp"
#include "ipc/fault.hpp"
#include "ipc/message.hpp"
#include "iss/assembler.hpp"
#include "rsp/client.hpp"
#include "rsp/stub.hpp"
#include "sysc/sysc.hpp"
#include "util/error.hpp"

namespace nisc {
namespace {

using namespace nisc::sysc::time_literals;

// ---------------------------------------------------------------- RSP layer

TEST(RspFailure, ClientSurvivesCorruptedReplyViaNak) {
  // The stub-side endpoint corrupts byte 1 of its first reply *frame* (the
  // CorruptByte defer rule skips the one-byte "+" ack): the client NAKs,
  // the stub retransmits, and the transaction still completes.
  iss::Cpu cpu(1 << 16);
  iss::Program prog = iss::assemble("ebreak\n");
  prog.load_into(cpu.mem());

  auto pair = ipc::make_channel_pair(ipc::Transport::SocketPair);
  auto faults = ipc::FaultyChannel::install(pair.a, ipc::FaultPlan{}.corrupt_send(1, 1));
  rsp::GdbStub stub(cpu, std::move(pair.a));
  pair.b.set_inline_peer([&] { return stub.poll(); });
  rsp::GdbClient client(std::move(pair.b));

  EXPECT_EQ(client.transact("?"), "S05");  // survives the corruption
  EXPECT_EQ(faults->stats().injected[static_cast<int>(ipc::FaultKind::CorruptByte)], 1u);
  client.kill();
  EXPECT_TRUE(stub.done());
}

TEST(RspFailure, ClientGivesUpWhenEveryReplyIsDropped) {
  // All stub frames vanish: the stub acks the request, drops its reply and
  // goes idle. await_reply must throw, naming the unanswered request, at
  // the first step that finds the stub idle instead of blocking forever.
  iss::Cpu cpu(1 << 16);
  auto pair = ipc::make_channel_pair(ipc::Transport::SocketPair);
  ipc::FaultPlan plan;
  plan.specs.push_back({ipc::FaultKind::Drop, ipc::FaultDir::Send, /*nth=*/1, /*every=*/1,
                        /*count=*/1, /*arg=*/0, /*min_size=*/2, /*probability=*/1.0});
  ipc::FaultyChannel::install(pair.a, plan);
  rsp::GdbStub stub(cpu, std::move(pair.a));
  int steps = 0;
  int idle_steps = 0;
  pair.b.set_inline_peer([&] {
    ++steps;
    const bool worked = stub.poll();
    if (!worked) ++idle_steps;
    return worked;
  });
  rsp::GdbClient client(std::move(pair.b));
  try {
    client.transact("?");
    FAIL() << "transact returned without a reply";
  } catch (const util::RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("$?#3f"), std::string::npos) << e.what();
  }
  EXPECT_EQ(steps, 2);  // the send's step handled the request; the wait's found it idle
  EXPECT_EQ(idle_steps, 1);
  EXPECT_FALSE(stub.done());  // the stub itself is healthy: only its replies vanish
}

TEST(RspFailure, StubExitsOnTransportClose) {
  iss::Cpu cpu(1 << 16);
  auto pair = ipc::make_channel_pair(ipc::Transport::Pipe);
  rsp::GdbStub stub(cpu, std::move(pair.a));
  pair.b.close();  // peer disappears
  EXPECT_FALSE(stub.poll());
  EXPECT_TRUE(stub.done());  // ended on EOF, never to poll the dead wire again
  EXPECT_FALSE(stub.poll());
}

TEST(RspFailure, ClientThrowsAfterPeerDeath) {
  iss::Cpu cpu(1 << 16);
  auto pair = ipc::make_channel_pair(ipc::Transport::Pipe);
  auto stub = std::make_unique<rsp::GdbStub>(cpu, std::move(pair.a));
  pair.b.set_inline_peer([&] { return stub && stub->poll(); });
  rsp::GdbClient client(std::move(pair.b));
  client.kill();
  EXPECT_TRUE(stub->done());
  stub.reset();  // closes the stub-side fds
  EXPECT_THROW(client.transact("?"), util::RuntimeError);
}

// ---------------------------------------------------------------- Driver layer

struct DriverFailureFixture : ::testing::Test {
  void boot() {
    ctx = std::make_unique<sysc::sc_simcontext>();
    clk = &ctx->create<sysc::sc_clock>("clk", 10_ns);
    port_in = &ctx->create<sysc::iss_in<std::uint32_t>>("dev.in");
    port_out = &ctx->create<sysc::iss_out<std::uint32_t>>("dev.out");
    auto data = ipc::make_channel_pair(ipc::Transport::SocketPair);
    auto irq = ipc::make_channel_pair(ipc::Transport::SocketPair);
    ext = std::make_unique<cosim::DriverKernelExtension>(std::move(data.a), std::move(irq.a),
                                                         nullptr);
    ctx->register_extension(ext.get());
    driver_data = std::move(data.b);
    driver_irq = std::move(irq.b);
  }

  void TearDown() override {
    if (ctx && ext) ctx->unregister_extension(ext.get());
  }

  std::unique_ptr<sysc::sc_simcontext> ctx;
  sysc::sc_clock* clk = nullptr;
  sysc::iss_in<std::uint32_t>* port_in = nullptr;
  sysc::iss_out<std::uint32_t>* port_out = nullptr;
  std::unique_ptr<cosim::DriverKernelExtension> ext;
  ipc::Channel driver_data;
  ipc::Channel driver_irq;
};

TEST_F(DriverFailureFixture, WriteToUnknownPortIsDropped) {
  boot();
  ipc::send_message(driver_data, ipc::DriverMessage::write_u32("no.such.port", 1));
  ipc::send_message(driver_data, ipc::DriverMessage::write_u32("dev.in", 42));
  ctx->run(100_ns);
  EXPECT_EQ(port_in->read(), 42u);  // the good message still lands
  EXPECT_EQ(ext->stats().messages_in, 2u);
}

TEST_F(DriverFailureFixture, WrongWidthPayloadIsDropped) {
  boot();
  ipc::DriverMessage bad;
  bad.type = ipc::MsgType::Write;
  bad.items.push_back({"dev.in", {0x01, 0x02}});  // 2 bytes into a u32 port
  ipc::send_message(driver_data, bad);
  ipc::send_message(driver_data, ipc::DriverMessage::write_u32("dev.in", 7));
  ctx->run(100_ns);
  EXPECT_EQ(port_in->read(), 7u);
  EXPECT_EQ(ext->stats().words_delivered, 1u);
}

TEST_F(DriverFailureFixture, ReadOfInputPortIsRejected) {
  boot();
  ipc::send_message(driver_data, ipc::DriverMessage::read_request("dev.in"));
  ctx->run(100_ns);
  // The reply must arrive (possibly with no items) and the kernel survives.
  ASSERT_TRUE(driver_data.readable(1000));
  ipc::DriverMessage reply = ipc::recv_message(driver_data);
  EXPECT_EQ(reply.type, ipc::MsgType::ReadReply);
  EXPECT_TRUE(reply.items.empty());
}

TEST_F(DriverFailureFixture, DriverDisappearingMidRunIsTolerated) {
  boot();
  port_out->write(9);     // something to push
  driver_data.close();    // the ISS process dies
  driver_irq.close();
  ctx->run(200_ns);       // pushes fail silently; simulation continues
  ext->post_interrupt(3);
  ctx->run(200_ns);
  EXPECT_GT(ctx->time_stamp().ps(), 0u);
}

/// Guest: two device writes, then 200k cycles of work with no device I/O.
constexpr const char* kWriteThenComputeGuest = R"(
_start:
    li a0, 0
    la a1, buf
    li a2, 4
    li a7, SYS_DEV_WRITE
    ecall
    li a0, 0
    la a1, buf
    li a2, 4
    li a7, SYS_DEV_WRITE
    ecall
    li t0, 100000
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a7, SYS_EXIT
    ecall
buf: .word 7
)";

TEST(DriverTargetFailure, QuiesceEndsGuestStepping) {
  // The guest's first device write is cut mid-frame and its socket closed:
  // the kernel extension quiesces the port, which ends time correlation.
  // The closed budget steps the guest no more, so its remaining work stays
  // undone however long the simulation keeps running.
  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  sysc::iss_in<std::uint32_t> port_in("dev.in");
  sysc::iss_out<std::uint32_t> port_out("dev.out");
  cosim::DriverTargetConfig config;
  config.write_port = "dev.in";
  config.read_port = "dev.out";
  config.fault_plan.disconnect_send(1, 2);
  cosim::DriverTarget target(kWriteThenComputeGuest, config);
  cosim::DriverKernelOptions options;
  options.instructions_per_us = 1000;
  cosim::DriverKernelExtension ext(target.take_data_endpoint(), target.take_interrupt_endpoint(),
                                   &target.budget(), options);
  ctx.register_extension(&ext);
  ctx.run(1_us);
  ASSERT_TRUE(ext.quiesced());
  EXPECT_TRUE(target.budget().closed());
  // What Testbench::degraded() reads for this session: the quiesced port
  // and the driver that lost its socket (the second write failed).
  EXPECT_TRUE(target.driver().degraded());

  const std::uint64_t cycles = target.cpu().cycles();
  ctx.run(400_us);  // enough allowance to finish the guest's loop, were it stepped
  EXPECT_EQ(target.cpu().cycles(), cycles);
  EXPECT_FALSE(target.finished());
  target.shutdown();
  ctx.unregister_extension(&ext);
}

/// Guest: one device write, then 200k cycles of work with no device I/O.
constexpr const char* kOneWriteThenComputeGuest = R"(
_start:
    li a0, 0
    la a1, buf
    li a2, 4
    li a7, SYS_DEV_WRITE
    ecall
    li t0, 100000
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a7, SYS_EXIT
    ecall
buf: .word 7
)";

TEST(DriverTargetFailure, CutFrameQuiescesWithoutWaiting) {
  // The guest's only device write loses all but 3 bytes of its frame. The
  // kernel side finds a cut length prefix, and nothing else can arrive: the
  // driver runs on this thread. The port quiesces in the first run()
  // instead of waiting out an I/O deadline.
  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  sysc::iss_in<std::uint32_t> port_in("dev.in");
  sysc::iss_out<std::uint32_t> port_out("dev.out");
  cosim::DriverTargetConfig config;
  config.write_port = "dev.in";
  config.read_port = "dev.out";
  config.fault_plan.truncate_send(1, 3);
  cosim::DriverTarget target(kOneWriteThenComputeGuest, config);
  cosim::DriverKernelOptions options;
  options.instructions_per_us = 1000;
  cosim::DriverKernelExtension ext(target.take_data_endpoint(), target.take_interrupt_endpoint(),
                                   &target.budget(), options);
  ctx.register_extension(&ext);
  const auto start = std::chrono::steady_clock::now();
  ctx.run(1_us);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  ASSERT_TRUE(ext.quiesced());
  ASSERT_TRUE(ext.error().has_value());
  EXPECT_NE(ext.error()->message.find("1 byte(s) missing"), std::string::npos)
      << ext.error()->message;
  EXPECT_TRUE(target.budget().closed());
  target.shutdown();
  ctx.unregister_extension(&ext);
}

TEST(DriverTargetFailure, GuestFaultShutsDownCleanly) {
  cosim::DriverTargetConfig config;
  config.write_port = "a";
  config.read_port = "b";
  cosim::DriverTarget target("_start:\n  .word 0xffffffff\n", config);
  (void)target.take_data_endpoint();
  (void)target.take_interrupt_endpoint();
  target.budget().deposit(1000);  // the first deposit steps the guest
  EXPECT_TRUE(target.finished());
  EXPECT_EQ(target.last_status(), rtos::RunStatus::Fault);
  target.shutdown();
}

// ---------------------------------------------------------------- GDB session

TEST(GdbSessionFailure, GuestFaultFinishesExtension) {
  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  // The guest dereferences a wild pointer immediately.
  cosim::GdbTarget target("_start:\n  li t0, 0x7ff00000\n  lw t1, 0(t0)\n  ebreak\n");
  cosim::GdbKernelOptions options;
  options.instructions_per_us = 1000000;
  cosim::GdbKernelExtension ext(target.client(), &target.budget(), {}, options);
  ctx.register_extension(&ext);
  while (!ext.target_finished() && ctx.time_stamp() < 100_us) ctx.run(1_us);
  EXPECT_TRUE(ext.target_finished());  // SIGSEGV stop marks the end
  EXPECT_EQ(ctx.time_stamp().ps(), 1000000u);
  target.shutdown();
  ctx.unregister_extension(&ext);
}

TEST(GdbSessionFailure, ShutdownWhileGuestSpinsForever) {
  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  cosim::GdbTarget target("_start:\nspin:\n  j spin\n");
  cosim::GdbKernelOptions options;
  options.instructions_per_us = 1000000;
  cosim::GdbKernelExtension ext(target.client(), &target.budget(), {}, options);
  ctx.register_extension(&ext);
  ctx.run(1_us);
  target.shutdown();  // must halt and kill the free-running guest over RSP
  ctx.unregister_extension(&ext);
}

TEST(GdbSessionFailure, StubExitOnDisconnectClosesBudget) {
  // The SystemC-side end of the wire disappears while the guest runs: the
  // next deposit's step finds EOF, the stub ends, and the target closes the
  // budget, so nothing steps the dead session again.
  cosim::GdbTarget target("_start:\nspin:\n  j spin\n");
  target.client().cont();
  target.client().channel().close();
  target.budget().deposit(100);
  EXPECT_TRUE(target.stub().done());
  EXPECT_TRUE(target.budget().closed());
  target.shutdown();
}

TEST(GdbSessionFailure, DoubleShutdownIsIdempotent) {
  cosim::GdbTarget target("_start:\n  ebreak\n");
  target.shutdown();
  EXPECT_TRUE(target.stub().done());  // killed over RSP
  EXPECT_TRUE(target.budget().closed());
  target.shutdown();
}

TEST(GdbSessionFailure, DuplicatedOkAfterContinueIsStructuredError) {
  // The stub's reply to the breakpoint insert goes out twice; the copy is
  // still unread when the extension resumes the target. It is no stop
  // reply, so the run ends with a structured error at once instead of
  // reading it as a clean exit with signal 0.
  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  sysc::iss_out<std::uint32_t> to_cpu("hw.to_cpu");
  cosim::GdbTargetConfig config;
  config.fault_plan.duplicate_send(2);  // send 1 is the one-byte ack
  cosim::GdbTarget target(R"(
_start:
    la t1, in_var
    #pragma iss_out("hw.to_cpu", in_var)
    lw t0, 0(t1)
    ebreak
in_var: .word 0
)",
                          config);
  cosim::GdbKernelOptions options;
  options.instructions_per_us = 1000000;
  cosim::GdbKernelExtension ext(target.client(), &target.budget(), target.bindings(), options);
  ctx.register_extension(&ext);
  ctx.run(1_us);
  ASSERT_TRUE(ext.error().has_value());
  EXPECT_NE(ext.error()->message.find("expected a stop reply"), std::string::npos)
      << ext.error()->message;
  EXPECT_EQ(ctx.time_stamp().ps(), 0u);
  // The 'c' ran the guest's first slice: the la, up to the breakpoint.
  EXPECT_EQ(target.cpu().instret(), 2u);
  target.shutdown();
  ctx.unregister_extension(&ext);
}

TEST(GdbSessionFailure, MidFrameDisconnectYieldsStructuredError) {
  // The stub's first sizeable frame (the ebreak stop reply) is cut after
  // two bytes and the transport closed: the kernel extension must end the
  // run with a CosimError carrying a wire post-mortem, never crash or hang.
  sysc::sc_simcontext ctx;
  sysc::sc_clock clk("clk", 10_ns);
  cosim::GdbTargetConfig config;
  config.fault_plan.disconnect_send(1, 2);
  cosim::GdbTarget target("_start:\n  ebreak\n", config);
  cosim::GdbKernelOptions options;
  options.instructions_per_us = 1000000;
  cosim::GdbKernelExtension ext(target.client(), &target.budget(), {}, options);
  ctx.register_extension(&ext);
  while (!ext.error() && !ext.target_finished() && ctx.time_stamp() < 100_us) ctx.run(1_us);
  ASSERT_TRUE(ext.error().has_value());
  // The 'c' ran the guest to its ebreak, and the cut stop reply arrived
  // then; the first cycle's check found it.
  EXPECT_EQ(ctx.time_stamp().ps(), 5000u);
  EXPECT_EQ(ext.error()->scheme, "gdb-kernel");
  EXPECT_FALSE(ext.error()->message.empty());
  EXPECT_FALSE(ext.error()->post_mortem.empty());
  target.shutdown();
  ctx.unregister_extension(&ext);
}

}  // namespace
}  // namespace nisc
