// Unit tests for nisc::ipc — fds, channels over all transports, and the
// Driver-Kernel message protocol.
#include <gtest/gtest.h>

#include <pthread.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ipc/capture.hpp"
#include "ipc/channel.hpp"
#include "ipc/fault.hpp"
#include "ipc/fd.hpp"
#include "ipc/message.hpp"
#include "obs/metrics.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"

namespace nisc::ipc {
namespace {

using util::RuntimeError;

// ---------------------------------------------------------------- Fd

TEST(FdTest, DefaultInvalid) {
  Fd fd;
  EXPECT_FALSE(fd.valid());
}

TEST(FdTest, MoveTransfersOwnership) {
  ChannelPair pair = make_channel_pair(Transport::Pipe);
  int raw = pair.a.read_fd().get();
  EXPECT_GE(raw, 0);
  Channel moved = std::move(pair.a);
  EXPECT_EQ(moved.read_fd().get(), raw);
  EXPECT_FALSE(pair.a.read_fd().valid());  // NOLINT(bugprone-use-after-move)
}

TEST(FdTest, ReleaseDisownsDescriptor) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  Fd a(fds[0]);
  int raw = a.release();
  EXPECT_EQ(raw, fds[0]);
  EXPECT_FALSE(a.valid());
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------- Channel

class ChannelTest : public ::testing::TestWithParam<Transport> {};

TEST_P(ChannelTest, RoundTrip) {
  ChannelPair pair = make_channel_pair(GetParam());
  pair.a.send_str("hello");
  std::uint8_t buf[5];
  pair.b.recv_exact(buf);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(buf), 5), "hello");
}

TEST_P(ChannelTest, BothDirections) {
  ChannelPair pair = make_channel_pair(GetParam());
  pair.a.send_str("ping");
  pair.b.send_str("pong");
  std::uint8_t buf[4];
  pair.b.recv_exact(buf);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(buf), 4), "ping");
  pair.a.recv_exact(buf);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(buf), 4), "pong");
}

TEST_P(ChannelTest, ReadableReflectsPendingData) {
  ChannelPair pair = make_channel_pair(GetParam());
  EXPECT_FALSE(pair.b.readable(0));
  pair.a.send_str("x");
  EXPECT_TRUE(pair.b.readable(100));
  std::uint8_t buf[1];
  pair.b.recv_exact(buf);
  EXPECT_FALSE(pair.b.readable(0));
}

TEST_P(ChannelTest, RecvSomeNonBlocking) {
  ChannelPair pair = make_channel_pair(GetParam());
  std::uint8_t buf[16];
  EXPECT_EQ(pair.b.recv_some(buf), 0u);
  pair.a.send_str("abc");
  // Data may need a moment on TCP loopback.
  ASSERT_TRUE(pair.b.readable(1000));
  EXPECT_EQ(pair.b.recv_some(buf), 3u);
}

TEST_P(ChannelTest, PeerCloseRaises) {
  ChannelPair pair = make_channel_pair(GetParam());
  pair.a.close();
  std::uint8_t buf[1];
  EXPECT_THROW(pair.b.recv_exact(buf), RuntimeError);
}

TEST_P(ChannelTest, LargeTransferAcrossThreads) {
  ChannelPair pair = make_channel_pair(GetParam());
  std::vector<std::uint8_t> payload(1 << 20);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i * 7);
  std::thread sender([&] { pair.a.send(payload); });
  std::vector<std::uint8_t> received(payload.size());
  pair.b.recv_exact(received);
  sender.join();
  EXPECT_EQ(received, payload);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, ChannelTest,
                         ::testing::Values(Transport::Pipe, Transport::SocketPair, Transport::Tcp),
                         [](const auto& info) { return transport_name(info.param); });

TEST(TcpTest, ListenerReportsEphemeralPort) {
  TcpListener listener(0);
  EXPECT_GT(listener.port(), 0);
}

TEST(TcpTest, ExplicitConnect) {
  TcpListener listener(0);
  Channel client = tcp_connect(listener.port());
  Channel server = listener.accept();
  client.send_str("hi");
  std::uint8_t buf[2];
  server.recv_exact(buf);
  EXPECT_EQ(buf[0], 'h');
  EXPECT_EQ(buf[1], 'i');
}

// ---------------------------------------------------------------- messages

TEST(MessageTest, TypeNames) {
  EXPECT_STREQ(msg_type_name(MsgType::Read), "READ");
  EXPECT_STREQ(msg_type_name(MsgType::Write), "WRITE");
  EXPECT_STREQ(msg_type_name(MsgType::ReadReply), "READ-REPLY");
  EXPECT_STREQ(msg_type_name(MsgType::Interrupt), "INTERRUPT");
}

TEST(MessageTest, EncodeDecodeRoundTripEmpty) {
  DriverMessage msg;
  msg.type = MsgType::Read;
  auto frame = encode_message(msg);
  auto body = std::span<const std::uint8_t>(frame).subspan(4);
  auto decoded = decode_message_body(body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), msg);
}

TEST(MessageTest, EncodeDecodeRoundTripItems) {
  DriverMessage msg;
  msg.type = MsgType::Write;
  msg.items.push_back({"router.data_in", {1, 2, 3, 4}});
  msg.items.push_back({"router.len_in", {9}});
  auto frame = encode_message(msg);
  auto decoded = decode_message_body(std::span<const std::uint8_t>(frame).subspan(4));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), msg);
}

TEST(MessageTest, WriteU32Helper) {
  auto msg = DriverMessage::write_u32("p", 0xAABBCCDD);
  EXPECT_EQ(msg.type, MsgType::Write);
  ASSERT_EQ(msg.items.size(), 1u);
  EXPECT_EQ(msg.items[0].data, (std::vector<std::uint8_t>{0xDD, 0xCC, 0xBB, 0xAA}));
}

TEST(MessageTest, InterruptHelper) {
  auto msg = DriverMessage::interrupt(7);
  EXPECT_EQ(msg.irq(), 7u);
  auto other = DriverMessage::read_request("p");
  EXPECT_FALSE(other.irq().has_value());
}

TEST(MessageTest, DecodeRejectsTruncatedHeader) {
  std::uint8_t body[] = {0x01};
  EXPECT_FALSE(decode_message_body(body).ok());
}

TEST(MessageTest, DecodeRejectsUnknownType) {
  std::uint8_t body[] = {0x09, 0x00, 0x00};
  EXPECT_FALSE(decode_message_body(body).ok());
}

TEST(MessageTest, DecodeRejectsTruncatedItem) {
  DriverMessage msg = DriverMessage::write_u32("port", 1);
  auto frame = encode_message(msg);
  auto body = std::span<const std::uint8_t>(frame).subspan(4);
  for (std::size_t cut = 3; cut + 1 < body.size(); ++cut) {
    EXPECT_FALSE(decode_message_body(body.subspan(0, cut)).ok()) << "cut=" << cut;
  }
}

TEST(MessageTest, DecodeRejectsTrailingBytes) {
  DriverMessage msg = DriverMessage::read_request("p");
  auto frame = encode_message(msg);
  frame.push_back(0xEE);
  auto body = std::span<const std::uint8_t>(frame).subspan(4);
  EXPECT_FALSE(decode_message_body(body).ok());
}

TEST(MessageTest, SendRecvOverChannel) {
  ChannelPair pair = make_channel_pair(Transport::SocketPair);
  DriverMessage msg;
  msg.type = MsgType::ReadReply;
  msg.items.push_back({"csum_out", {0xEF, 0xBE, 0xAD, 0xDE}});
  send_message(pair.a, msg);
  DriverMessage received = recv_message(pair.b);
  EXPECT_EQ(received, msg);
}

TEST(MessageTest, TryRecvReturnsNulloptWhenIdle) {
  ChannelPair pair = make_channel_pair(Transport::SocketPair);
  EXPECT_FALSE(try_recv_message(pair.b).has_value());
  send_message(pair.a, DriverMessage::interrupt(3));
  ASSERT_TRUE(pair.b.readable(1000));
  auto msg = try_recv_message(pair.b);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->irq(), 3u);
}

TEST(MessageTest, ManyMessagesInFlight) {
  ChannelPair pair = make_channel_pair(Transport::Pipe);
  for (std::uint32_t i = 0; i < 100; ++i) {
    send_message(pair.a, DriverMessage::write_u32("p", i));
  }
  for (std::uint32_t i = 0; i < 100; ++i) {
    DriverMessage m = recv_message(pair.b);
    ASSERT_EQ(m.items.size(), 1u);
    EXPECT_EQ(util::read_le(m.items[0].data, 4), i);
  }
}

TEST(MessageTest, RecvRejectsOversizedFrame) {
  ChannelPair pair = make_channel_pair(Transport::Pipe);
  std::uint8_t bogus[4] = {0xFF, 0xFF, 0xFF, 0x7F};  // ~2 GiB body
  pair.a.send(bogus);
  EXPECT_THROW(recv_message(pair.b), RuntimeError);
}

// ---------------------------------------------------------------- Deadline

TEST(DeadlineTest, NeverIsUnlimited) {
  util::Deadline d = util::Deadline::never();
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_ms(), -1);
}

TEST(DeadlineTest, NegativeMeansNever) {
  EXPECT_TRUE(util::Deadline::after_ms(-1).unlimited());
}

TEST(DeadlineTest, ZeroExpiresImmediately) {
  util::Deadline d = util::Deadline::after_ms(0);
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_ms(), 0);
}

TEST(DeadlineTest, RemainingClampsToZeroAfterExpiry) {
  util::Deadline d = util::Deadline::after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_ms(), 0);
}

// ---------------------------------------------------------------- EINTR

// Regression test: poll_readable used to restart the *full* timeout after
// every EINTR, so a steady signal stream made the wait unbounded. With the
// deadline fix it returns once the original timeout elapses no matter how
// often it is interrupted.
TEST(FdTest, PollReadableHonorsDeadlineAcrossEintr) {
  struct sigaction sa = {};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: poll(2) must see EINTR
  struct sigaction old = {};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  ChannelPair pair = make_channel_pair(Transport::Pipe);
  pthread_t poller = pthread_self();
  std::atomic<bool> stop{false};
  std::thread pest([&] {
    while (!stop.load()) {
      pthread_kill(poller, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  auto start = std::chrono::steady_clock::now();
  bool ready = poll_readable(pair.b.read_fd(), 150);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  stop.store(true);
  pest.join();
  sigaction(SIGUSR1, &old, nullptr);

  EXPECT_FALSE(ready);
  EXPECT_GE(elapsed, 100);   // did wait roughly the requested timeout
  EXPECT_LT(elapsed, 2000);  // and the signals did not keep re-arming it
}

// ---------------------------------------------------------------- timeouts

TEST(ChannelTimeoutTest, RecvExactTimesOutInsteadOfHanging) {
  ChannelPair pair = make_channel_pair(Transport::SocketPair);
  pair.b.set_io_timeout(50);
  std::uint8_t buf[4];
  try {
    pair.b.recv_exact(buf);
    FAIL() << "recv_exact returned without data";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos) << e.what();
  }
}

TEST(ChannelTimeoutTest, AcceptTimesOutWithoutPeer) {
  TcpListener listener(0);
  try {
    (void)listener.accept(50);
    FAIL() << "accept returned without a peer";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------- inline peers

TEST(InlinePeerTest, WaitStepsThePeerUntilItWrites) {
  ChannelPair pair = make_channel_pair(Transport::SocketPair);
  int steps = 0;
  pair.b.set_inline_peer([&] {
    if (++steps == 3) pair.a.send_str("x");  // busy twice, then replies
    return true;
  });
  EXPECT_TRUE(pair.b.readable(-1));
  EXPECT_EQ(steps, 3);
}

TEST(InlinePeerTest, WaitEndsAtTheFirstIdleStep) {
  ChannelPair pair = make_channel_pair(Transport::SocketPair);
  int steps = 0;
  pair.b.set_inline_peer([&] { return ++steps < 4; });  // busy three steps, then idle
  EXPECT_FALSE(pair.b.readable(-1));
  EXPECT_EQ(steps, 4);
  EXPECT_FALSE(pair.b.readable(0));  // a poll never steps the peer
  EXPECT_EQ(steps, 4);
}

TEST(InlinePeerTest, CutFrameFailsWithoutSteppingOrWaiting) {
  // I/O timeout 0, as on every in-process session wire: the missing byte
  // can only come from a peer on this thread, so the read fails at once.
  ChannelPair pair = make_channel_pair(Transport::SocketPair);
  pair.b.set_io_timeout(0);
  int steps = 0;
  pair.b.set_inline_peer([&] {
    ++steps;
    return true;
  });
  pair.a.send_str("abc");  // 3 of the 4 bytes the reader expects
  std::uint8_t buf[4];
  const auto start = std::chrono::steady_clock::now();
  try {
    pair.b.recv_exact(buf);
    FAIL() << "recv_exact completed a cut frame";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("1 byte(s) missing"), std::string::npos) << e.what();
  }
  EXPECT_EQ(steps, 0);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

TEST(InlinePeerTest, FullPipeFailsWithoutWaiting) {
  ChannelPair pair = make_channel_pair(Transport::Pipe);
  pair.a.set_io_timeout(0);
  const std::vector<std::uint8_t> big(1 << 20, 0x5a);  // far beyond the pipe buffer
  try {
    pair.a.send(big);
    FAIL() << "a 1 MiB send into an undrained pipe completed";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("unsent"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------- linked pairs

/// poll(2) calls made so far by src/ipc in this process.
std::uint64_t polls_so_far() { return obs::counter("ipc.polls").value(); }

/// A pair linked like an in-process session wire, over each transport a
/// session can link.
class LinkedPairTest : public ::testing::TestWithParam<Transport> {
 protected:
  ChannelPair linked_pair() const {
    ChannelPair pair = make_channel_pair(GetParam());
    pair.link_same_thread();
    return pair;
  }
};

TEST_P(LinkedPairTest, QuietWireCostsAtMostOnePoll) {
  ChannelPair pair = linked_pair();
  EXPECT_EQ(pair.b.io_timeout(), 0);
  const std::uint64_t before = polls_so_far();
  std::uint8_t buf[16];
  int answered_something = 0;
  for (int i = 0; i < 1000; ++i) {
    if (pair.b.readable(0)) ++answered_something;
    if (pair.b.recv_some(buf) != 0) ++answered_something;
  }
  EXPECT_EQ(answered_something, 0);
  EXPECT_LE(polls_so_far() - before, 1u);
}

TEST_P(LinkedPairTest, SendIsSeenUntilTheBytesAreDrained) {
  ChannelPair pair = linked_pair();
  EXPECT_FALSE(pair.b.readable(0));  // found empty
  pair.a.send_str("abc");
  EXPECT_TRUE(pair.b.readable(0));
  std::uint8_t buf[16];
  EXPECT_EQ(pair.b.recv_some(buf), 3u);
  EXPECT_FALSE(pair.b.readable(0));  // drained: found empty again
  const std::uint64_t before = polls_so_far();
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(pair.b.readable(0));
  EXPECT_EQ(polls_so_far(), before);  // quiet again
}

TEST_P(LinkedPairTest, PeerCloseIsSeen) {
  ChannelPair pair = linked_pair();
  EXPECT_FALSE(pair.b.readable(0));
  pair.a.close();
  EXPECT_TRUE(pair.b.readable(0));
  std::uint8_t buf[4];
  try {
    (void)pair.b.recv_some(buf);
    FAIL() << "recv_some returned on a closed wire";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("peer closed"), std::string::npos) << e.what();
  }
}

TEST_P(LinkedPairTest, PeerDestructionIsSeenButAMoveIsNot) {
  ChannelPair pair = linked_pair();
  EXPECT_FALSE(pair.b.readable(0));
  std::optional<Channel> other;
  {
    Channel moved = std::move(pair.a);
    other.emplace(std::move(moved));
  }  // destroys the moved-from `moved`, which closes nothing
  const std::uint64_t before = polls_so_far();
  EXPECT_FALSE(pair.b.readable(0));
  EXPECT_EQ(polls_so_far(), before);
  other.reset();
  EXPECT_TRUE(pair.b.readable(0));
  std::uint8_t buf[4];
  try {
    (void)pair.b.recv_some(buf);
    FAIL() << "recv_some returned on a wire whose other end is gone";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("peer closed"), std::string::npos) << e.what();
  }
}

TEST_P(LinkedPairTest, FaultPlanSeesTheCallsOfAnUnlinkedPair) {
  // The plan counts every readable() and recv_some() call before the link
  // may skip its syscall, so a storm bites exactly where it would on an
  // unlinked wire.
  const Transport transport = GetParam();
  auto run = [transport](bool link) {
    ChannelPair pair = make_channel_pair(transport);
    if (link) pair.link_same_thread();
    auto state =
        FaultyChannel::install(pair.b, FaultPlan{}.eagain_storm(2, 3).short_reads(7, 1, 2));
    std::string answers;
    std::uint8_t buf[8];
    for (int i = 0; i < 12; ++i) {
      if (i == 1 || i == 6) pair.a.send_str("xyz");
      answers += pair.b.readable(0) ? 'r' : '-';
      answers += std::to_string(pair.b.recv_some(buf));
    }
    return std::make_pair(state->stats(), answers);
  };
  const auto [linked, linked_answers] = run(true);
  const auto [unlinked, unlinked_answers] = run(false);
  EXPECT_EQ(linked_answers, unlinked_answers);
  EXPECT_EQ(linked.polls, unlinked.polls);
  EXPECT_EQ(linked.recv_ops, unlinked.recv_ops);
  EXPECT_EQ(linked.send_ops, unlinked.send_ops);
  for (std::size_t kind = 0; kind < 8; ++kind) {
    EXPECT_EQ(linked.injected[kind], unlinked.injected[kind])
        << fault_kind_name(static_cast<FaultKind>(kind));
  }
  EXPECT_EQ(linked.injected[static_cast<int>(FaultKind::EagainStorm)], 3u);
  EXPECT_EQ(linked.injected[static_cast<int>(FaultKind::ShortRead)], 2u);
}

INSTANTIATE_TEST_SUITE_P(SessionTransports, LinkedPairTest,
                         ::testing::Values(Transport::Pipe, Transport::SocketPair),
                         [](const auto& info) { return transport_name(info.param); });

TEST(LinkedPairTcpTest, TcpPairKeepsItsPolls) {
  // Loopback TCP may hold a sent byte in flight after send() returns, so a
  // linked TCP pair gets I/O timeout 0 but no send counts.
  ChannelPair pair = make_channel_pair(Transport::Tcp);
  pair.link_same_thread();
  EXPECT_EQ(pair.a.io_timeout(), 0);
  EXPECT_EQ(pair.b.io_timeout(), 0);
  const std::uint64_t before = polls_so_far();
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(pair.b.readable(0));
  EXPECT_EQ(polls_so_far() - before, 10u);
}

// ---------------------------------------------------------------- TCP edges

TEST(TcpEdgeTest, ListenOnPortInUseThrows) {
  TcpListener first(0);
  EXPECT_THROW(TcpListener second(first.port()), RuntimeError);
}

TEST(TcpEdgeTest, PeerCloseMidFrameRaisesPromptly) {
  TcpListener listener(0);
  Channel client = tcp_connect(listener.port());
  Channel server = listener.accept();
  client.send_str("he");  // 2 of the 5 bytes the peer expects
  client.close();         // then vanish mid-frame
  std::uint8_t buf[5];
  auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(server.recv_exact(buf), RuntimeError);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_LT(elapsed, 5000);  // EOF, not a timeout crawl
}

// ---------------------------------------------------------------- faults

TEST(FaultTest, CorruptSendFlipsExactlyOneBit) {
  ChannelPair pair = make_channel_pair(Transport::SocketPair);
  auto state = FaultyChannel::install(pair.a, FaultPlan{}.corrupt_send(1, 2));
  pair.a.send_str("hello");
  std::uint8_t buf[5];
  pair.b.recv_exact(buf);
  EXPECT_EQ(buf[0], 'h');
  EXPECT_EQ(buf[2], 'l' ^ 0x01);
  EXPECT_EQ(buf[4], 'o');
  EXPECT_EQ(state->stats().injected[static_cast<int>(FaultKind::CorruptByte)], 1u);
}

TEST(FaultTest, DropSendSwallowsTheTransfer) {
  ChannelPair pair = make_channel_pair(Transport::SocketPair);
  auto state = FaultyChannel::install(pair.a, FaultPlan{}.drop_send(1));
  pair.a.send_str("gone");
  EXPECT_FALSE(pair.b.readable(50));
  pair.a.send_str("here");  // op 2: unaffected
  std::uint8_t buf[4];
  pair.b.recv_exact(buf);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(buf), 4), "here");
  EXPECT_EQ(state->stats().injected[static_cast<int>(FaultKind::Drop)], 1u);
}

TEST(FaultTest, DuplicateSendDeliversTwice) {
  ChannelPair pair = make_channel_pair(Transport::SocketPair);
  FaultyChannel::install(pair.a, FaultPlan{}.duplicate_send(1));
  pair.a.send_str("ab");
  std::uint8_t buf[4];
  pair.b.recv_exact(buf);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(buf), 4), "abab");
}

TEST(FaultTest, TruncateSendKeepsOnlyThePrefix) {
  ChannelPair pair = make_channel_pair(Transport::SocketPair);
  FaultyChannel::install(pair.a, FaultPlan{}.truncate_send(1, 3));
  pair.a.send_str("hello");
  ASSERT_TRUE(pair.b.readable(1000));
  std::uint8_t buf[16];
  EXPECT_EQ(pair.b.recv_some(buf), 3u);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(buf), 3), "hel");
  EXPECT_FALSE(pair.b.readable(50));  // the tail never arrives
}

TEST(FaultTest, DisconnectSendClosesMidFrame) {
  ChannelPair pair = make_channel_pair(Transport::SocketPair);
  FaultyChannel::install(pair.a, FaultPlan{}.disconnect_send(1, 2));
  pair.a.send_str("hello");
  std::uint8_t buf[16];
  ASSERT_TRUE(pair.b.readable(1000));
  EXPECT_EQ(pair.b.recv_some(buf), 2u);       // the cut frame prefix
  EXPECT_THROW(pair.b.recv_exact(buf), RuntimeError);  // then EOF
  EXPECT_THROW(pair.a.send_str("x"), RuntimeError);    // endpoint is dead
}

TEST(FaultTest, ShortReadCapsRecvSome) {
  ChannelPair pair = make_channel_pair(Transport::SocketPair);
  FaultyChannel::install(pair.a, FaultPlan{}.short_reads(1, 2, 2));
  pair.b.send_str("abcdef");
  ASSERT_TRUE(pair.a.readable(1000));
  std::uint8_t buf[16];
  EXPECT_EQ(pair.a.recv_some(buf), 2u);  // op 1 capped
  EXPECT_EQ(pair.a.recv_some(buf), 2u);  // op 2 capped
  EXPECT_EQ(pair.a.recv_some(buf), 2u);  // op 3 uncapped, 2 bytes remain
}

TEST(FaultTest, EagainStormSuppressesReadability) {
  ChannelPair pair = make_channel_pair(Transport::SocketPair);
  auto state = FaultyChannel::install(pair.a, FaultPlan{}.eagain_storm(1, 3));
  pair.b.send_str("x");
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(pair.a.readable(0));  // polls 1..3 suppressed
  EXPECT_FALSE(pair.a.readable(0));
  EXPECT_FALSE(pair.a.readable(0));
  EXPECT_TRUE(pair.a.readable(1000));  // poll 4 sees the data
  EXPECT_EQ(state->stats().injected[static_cast<int>(FaultKind::EagainStorm)], 3u);
}

TEST(FaultTest, MinSizeDefersDropPastAcks) {
  // An RSP "+" ack is one byte; drop_send's default min_size skips it and
  // the armed fault hits the next real frame instead.
  ChannelPair pair = make_channel_pair(Transport::SocketPair);
  auto state = FaultyChannel::install(pair.a, FaultPlan{}.drop_send(1));
  pair.a.send_str("+");
  std::uint8_t ack[1];
  pair.b.recv_exact(ack);
  EXPECT_EQ(ack[0], '+');  // the ack went through
  pair.a.send_str("$S05#b8");
  EXPECT_FALSE(pair.b.readable(50));  // the deferred drop ate the frame
  EXPECT_EQ(state->stats().injected[static_cast<int>(FaultKind::Drop)], 1u);
}

TEST(FaultTest, RepeatingWindowFiresPeriodically) {
  ChannelPair pair = make_channel_pair(Transport::SocketPair);
  FaultPlan plan;
  plan.specs.push_back({FaultKind::Drop, FaultDir::Send, /*nth=*/2, /*every=*/3,
                        /*count=*/1, /*arg=*/0, /*min_size=*/0, /*probability=*/1.0});
  auto state = FaultyChannel::install(pair.a, plan);
  for (int i = 0; i < 9; ++i) pair.a.send_str("ab");  // ops 2, 5, 8 dropped
  EXPECT_EQ(state->stats().injected[static_cast<int>(FaultKind::Drop)], 3u);
  std::uint8_t buf[12];
  pair.b.recv_exact(buf);  // 6 surviving transfers x 2 bytes
  EXPECT_FALSE(pair.b.readable(50));
}

TEST(FaultTest, SeededProbabilityIsReproducible) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.specs.push_back({FaultKind::Drop, FaultDir::Send, /*nth=*/1, /*every=*/1,
                        /*count=*/1, /*arg=*/0, /*min_size=*/0, /*probability=*/0.5});
  auto run = [&plan] {
    ChannelPair pair = make_channel_pair(Transport::SocketPair);
    auto state = FaultyChannel::install(pair.a, plan);
    for (int i = 0; i < 32; ++i) pair.a.send_str("x");
    return state->stats().injected[static_cast<int>(FaultKind::Drop)];
  };
  std::uint64_t first = run();
  EXPECT_GT(first, 0u);
  EXPECT_LT(first, 32u);
  EXPECT_EQ(run(), first);  // same plan, same seed, same faults
}

TEST(FaultTest, StatsCountOperations) {
  ChannelPair pair = make_channel_pair(Transport::SocketPair);
  auto state = FaultyChannel::install(pair.a, FaultPlan{});  // no specs
  pair.a.send_str("abc");
  std::uint8_t buf[3];
  pair.b.send_str("xyz");
  pair.a.recv_exact(buf);
  (void)pair.a.readable(0);
  FaultStats stats = state->stats();
  EXPECT_EQ(stats.send_ops, 1u);
  EXPECT_EQ(stats.recv_ops, 1u);
  EXPECT_GE(stats.polls, 1u);
  EXPECT_EQ(stats.total_injected(), 0u);
}

TEST(FaultTest, WrapReturnsDecoratedChannel) {
  ChannelPair pair = make_channel_pair(Transport::SocketPair);
  Channel wrapped = FaultyChannel::wrap(std::move(pair.a), FaultPlan{}.drop_send(1));
  ASSERT_NE(wrapped.faults(), nullptr);
  wrapped.send_str("zz");
  EXPECT_FALSE(pair.b.readable(50));
}

TEST(FaultTest, KindNamesAreStable) {
  EXPECT_STREQ(fault_kind_name(FaultKind::CorruptByte), "corrupt-byte");
  EXPECT_STREQ(fault_kind_name(FaultKind::Disconnect), "disconnect");
}

// ---------------------------------------------------------------- capture

TEST(CaptureTest, RingKeepsMostRecentTransfers) {
  WireCapture capture("test", 2);
  std::uint8_t byte = 0;
  for (int i = 0; i < 5; ++i) {
    byte = static_cast<std::uint8_t>('a' + i);
    capture.record(CaptureDir::Tx, std::span<const std::uint8_t>(&byte, 1));
  }
  EXPECT_EQ(capture.size(), 2u);
  EXPECT_EQ(capture.total_recorded(), 5u);
}

TEST(CaptureTest, DumpDecodesAsDriverFrames) {
  WireCapture capture("gdb", 8);
  const std::uint8_t tx[] = {'$', '?', '#', '3', 'f'};
  const std::uint8_t rx[] = {'+'};
  capture.record(CaptureDir::Tx, tx);
  capture.record(CaptureDir::Rx, rx);
  std::vector<std::uint8_t> dump = capture.dump();
  std::span<const std::uint8_t> rest(dump);
  std::vector<std::string> ports;
  while (rest.size() >= 4) {
    std::uint32_t size = static_cast<std::uint32_t>(util::read_le(rest, 4));
    rest = rest.subspan(4);
    ASSERT_GE(rest.size(), size);
    auto decoded = decode_message_body(rest.subspan(0, size));
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value().items.size(), 1u);
    ports.push_back(decoded.value().items[0].port);
    rest = rest.subspan(size);
  }
  EXPECT_TRUE(rest.empty());
  ASSERT_EQ(ports.size(), 2u);
  EXPECT_EQ(ports[0], "gdb.tx#0");
  EXPECT_EQ(ports[1], "gdb.rx#1");
}

TEST(CaptureTest, RenderTextShowsDirectionAndSize) {
  WireCapture capture("drv", 8);
  const std::uint8_t tx[] = {0xDE, 0xAD};
  capture.record(CaptureDir::Tx, tx);
  std::string text = capture.render_text();
  EXPECT_NE(text.find("tx"), std::string::npos);
  EXPECT_NE(text.find("2"), std::string::npos);
}

TEST(CaptureTest, ChannelRecordsBothDirections) {
  ChannelPair pair = make_channel_pair(Transport::SocketPair);
  auto capture = std::make_shared<WireCapture>("chan", 8);
  pair.a.attach_capture(capture);
  pair.a.send_str("out");
  pair.b.send_str("in!");
  std::uint8_t buf[3];
  pair.a.recv_exact(buf);
  pair.b.recv_exact(buf);
  EXPECT_EQ(capture->size(), 2u);  // one Tx + one Rx on endpoint a
}

TEST(CaptureTest, RingWrapsKeepingTheMostRecentFrames) {
  WireCapture capture("ring", 4);
  for (int i = 0; i < 10; ++i) {
    const std::uint8_t byte = static_cast<std::uint8_t>(i);
    capture.record(CaptureDir::Tx, {&byte, 1});
  }
  EXPECT_EQ(capture.size(), 4u);            // ring capacity
  EXPECT_EQ(capture.total_recorded(), 10u);  // nothing miscounted by eviction

  // The dump must contain exactly the surviving transfers — seq 6..9 — and
  // none of the evicted ones. Pseudo-ports carry the sequence numbers.
  const std::vector<std::uint8_t> dump = capture.dump();
  const std::string text(dump.begin(), dump.end());
  for (int seq = 6; seq <= 9; ++seq) {
    EXPECT_NE(text.find("ring.tx#" + std::to_string(seq)), std::string::npos) << seq;
  }
  EXPECT_EQ(text.find("ring.tx#5"), std::string::npos);
  EXPECT_EQ(text.find("ring.tx#0"), std::string::npos);
}

TEST(CaptureTest, WrappedDumpStillParsesAsFrames) {
  // After heavy wraparound the dump must still be a clean concatenation of
  // whole Driver-Kernel frames (u32 size | body) with nothing left over.
  WireCapture capture("wrap", 3);
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(1 + i % 7),
                                      static_cast<std::uint8_t>(i));
    capture.record(i % 2 == 0 ? CaptureDir::Tx : CaptureDir::Rx, payload);
  }
  const std::vector<std::uint8_t> dump = capture.dump();
  std::size_t offset = 0;
  std::size_t frames = 0;
  while (offset + 4 <= dump.size()) {
    const std::uint32_t size = static_cast<std::uint32_t>(dump[offset]) |
                               (dump[offset + 1] << 8) | (dump[offset + 2] << 16) |
                               (static_cast<std::uint32_t>(dump[offset + 3]) << 24);
    ASSERT_LE(offset + 4 + size, dump.size());
    offset += 4 + size;
    ++frames;
  }
  EXPECT_EQ(offset, dump.size());  // ends exactly on a frame boundary
  EXPECT_EQ(frames, 3u);
}

}  // namespace
}  // namespace nisc::ipc
