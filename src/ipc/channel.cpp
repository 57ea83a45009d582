#include "ipc/channel.hpp"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "ipc/capture.hpp"
#include "ipc/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace nisc::ipc {

using util::RuntimeError;

namespace {

/// Registered once, then relaxed-atomic adds only (DESIGN.md §10 overhead
/// budget: the undecorated hot path gains two adds per transfer).
struct IoMetrics {
  obs::Counter& sends = obs::counter("ipc.sends");
  obs::Counter& bytes_sent = obs::counter("ipc.bytes_sent");
  obs::Counter& recvs = obs::counter("ipc.recvs");
  obs::Counter& bytes_received = obs::counter("ipc.bytes_received");
};

IoMetrics& io_metrics() {
  static IoMetrics metrics;
  return metrics;
}

}  // namespace

Channel Channel::from_socket(Fd socket_fd) {
  // Duplicate so read and write sides can be closed independently.
  int dup_fd = ::dup(socket_fd.get());
  if (dup_fd < 0) throw RuntimeError(std::string("dup: ") + std::strerror(errno));
  Fd write_side(dup_fd);
  return Channel(std::move(socket_fd), std::move(write_side));
}

void Channel::set_io_timeout(int timeout_ms) {
  io_timeout_ms_ = timeout_ms;
  // A deadline is only enforceable when a wait can EAGAIN out to poll; the
  // unlimited default keeps the seed's one-syscall blocking hot path.
  if (timeout_ms >= 0) {
    if (read_fd_.valid()) set_nonblocking(read_fd_, true);
    if (write_fd_.valid()) set_nonblocking(write_fd_, true);
  }
}

Channel::Link& Channel::Link::operator=(Link&& other) noexcept {
  if (this != &other) {
    note_send();  // the endpoint this replaces is closed
    counts_ = std::move(other.counts_);
    side_ = other.side_;
    quiet_at_ = other.quiet_at_;
  }
  return *this;
}

void ChannelPair::link_same_thread() {
  a.set_io_timeout(0);
  b.set_io_timeout(0);
  if (transport == Transport::Tcp) return;
  auto counts = std::make_shared<Channel::SendCounts>();
  a.link_ = Channel::Link(counts, 0);
  b.link_ = Channel::Link(std::move(counts), 1);
}

void Channel::send(std::span<const std::uint8_t> data) {
  obs::ScopedSpan span("ipc.send", "ipc", "bytes", data.size());
  IoMetrics& metrics = io_metrics();
  metrics.sends.add(1);
  metrics.bytes_sent.add(data.size());
  // Counted before the write: a send that fails part-way may still have
  // left bytes for the peer.
  link_.note_send();
  if (!faults_) {
    write_all(write_fd_, data, io_timeout_ms_);
    if (capture_) capture_->record(CaptureDir::Tx, data);
    if (observer_) observer_->on_wire(CaptureDir::Tx, data);
    if (inline_peer_) inline_peer_();
    return;
  }
  SendVerdict verdict = faults_->on_send(data);
  if (verdict.delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(verdict.delay_us));
  }
  for (int i = 0; i < verdict.copies; ++i) {
    write_all(write_fd_, verdict.bytes, io_timeout_ms_);
    if (capture_) capture_->record(CaptureDir::Tx, verdict.bytes);
    if (observer_) observer_->on_wire(CaptureDir::Tx, verdict.bytes);
  }
  if (verdict.close_after) close();
  if (inline_peer_) inline_peer_();
}

void Channel::send_str(const std::string& s) {
  send(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

void Channel::recv_exact(std::span<std::uint8_t> out) {
  obs::ScopedSpan span("ipc.recv", "ipc", "bytes", out.size());
  IoMetrics& metrics = io_metrics();
  metrics.recvs.add(1);
  metrics.bytes_received.add(out.size());
  if (!faults_) {
    read_exact(read_fd_, out, io_timeout_ms_);
    if (capture_) capture_->record(CaptureDir::Rx, out);
    if (observer_) observer_->on_wire(CaptureDir::Rx, out);
    return;
  }
  // A short-read fault splits the transfer; recv_exact still fills `out`,
  // the split only exercises the peer's partial-write tolerance.
  const std::size_t cap = faults_->recv_cap();
  if (cap < out.size()) {
    read_exact(read_fd_, out.first(cap), io_timeout_ms_);
    read_exact(read_fd_, out.subspan(cap), io_timeout_ms_);
  } else {
    read_exact(read_fd_, out, io_timeout_ms_);
  }
  faults_->on_received(out);
  if (capture_) capture_->record(CaptureDir::Rx, out);
  if (observer_) observer_->on_wire(CaptureDir::Rx, out);
}

void Channel::notify_observer(std::string_view tag) {
  if (observer_) observer_->on_wire_event(tag);
}

bool Channel::input_waiting() {
  if (!has_news()) return false;
  if (poll_readable(read_fd_, 0)) return true;
  link_.found_empty();
  return false;
}

bool Channel::readable(int timeout_ms) {
  // Storm in progress: report "nothing there", however long the caller
  // would wait.
  if (faults_ && faults_->suppress_poll()) return false;
  if (!inline_peer_ && timeout_ms != 0) return poll_readable(read_fd_, timeout_ms);
  // The peer runs on this thread: step it until it wrote something. A step
  // that reports idle wrote nothing, and no later one would either.
  for (;;) {
    if (input_waiting()) return true;
    if (timeout_ms == 0 || !inline_peer_()) return false;
  }
}

std::size_t Channel::recv_some(std::span<std::uint8_t> out) {
  // The fault plan counts every call, also one that finds nothing.
  if (faults_) out = out.first(std::min(faults_->recv_cap(), out.size()));
  if (!has_news()) return 0;
  const std::size_t n = read_some_nonblocking(read_fd_, out, io_timeout_ms_ >= 0);
  if (n == 0) {
    link_.found_empty();
    return 0;
  }
  if (faults_) faults_->on_received(out.first(n));
  if (capture_) capture_->record(CaptureDir::Rx, out.first(n));
  if (observer_) observer_->on_wire(CaptureDir::Rx, out.first(n));
  IoMetrics& metrics = io_metrics();
  metrics.recvs.add(1);
  metrics.bytes_received.add(n);
  return n;
}

namespace {

ChannelPair make_pipe_pair() {
  int ab[2];
  int ba[2];
  if (::pipe(ab) < 0) throw RuntimeError(std::string("pipe: ") + std::strerror(errno));
  if (::pipe(ba) < 0) {
    ::close(ab[0]);
    ::close(ab[1]);
    throw RuntimeError(std::string("pipe: ") + std::strerror(errno));
  }
  ChannelPair pair;
  pair.a = Channel(Fd(ba[0]), Fd(ab[1]));  // a reads b->a, writes a->b
  pair.b = Channel(Fd(ab[0]), Fd(ba[1]));
  return pair;
}

ChannelPair make_socketpair_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) < 0) {
    throw RuntimeError(std::string("socketpair: ") + std::strerror(errno));
  }
  ChannelPair pair;
  pair.a = Channel::from_socket(Fd(fds[0]));
  pair.b = Channel::from_socket(Fd(fds[1]));
  pair.transport = Transport::SocketPair;
  return pair;
}

ChannelPair make_tcp_pair() {
  TcpListener listener(0);
  Channel client = tcp_connect(listener.port());
  Channel server = listener.accept(30000);
  return ChannelPair{std::move(server), std::move(client), Transport::Tcp};
}

/// Applies the post-connect socket options shared by both TCP paths.
Channel finish_tcp_socket(Fd sock) {
  int one = 1;
  ::setsockopt(sock.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // The socket stays blocking (connect() never returns EINPROGRESS);
  // set_io_timeout flips it non-blocking when a deadline is installed.
  return Channel::from_socket(std::move(sock));
}

}  // namespace

ChannelPair make_channel_pair(Transport transport) {
  switch (transport) {
    case Transport::Pipe: return make_pipe_pair();
    case Transport::SocketPair: return make_socketpair_pair();
    case Transport::Tcp: return make_tcp_pair();
  }
  throw util::LogicError("make_channel_pair: unknown transport");
}

TcpListener::TcpListener(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw RuntimeError(std::string("socket: ") + std::strerror(errno));
  listen_fd_ = Fd(fd);

  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw RuntimeError(std::string("bind port ") + std::to_string(port) + ": " +
                       std::strerror(errno));
  }
  if (::listen(fd, 4) < 0) throw RuntimeError(std::string("listen: ") + std::strerror(errno));

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw RuntimeError(std::string("getsockname: ") + std::strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
}

Channel TcpListener::accept(int timeout_ms) {
  if (!poll_readable(listen_fd_, timeout_ms)) {
    throw RuntimeError("accept: timed out after " + std::to_string(timeout_ms) +
                       " ms waiting for a peer on port " + std::to_string(port_));
  }
  int fd;
  do {
    fd = ::accept(listen_fd_.get(), nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) throw RuntimeError(std::string("accept: ") + std::strerror(errno));
  return finish_tcp_socket(Fd(fd));
}

Channel tcp_connect(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw RuntimeError(std::string("socket: ") + std::strerror(errno));
  Fd sock(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    throw RuntimeError(std::string("connect port ") + std::to_string(port) + ": " +
                       std::strerror(errno));
  }
  return finish_tcp_socket(std::move(sock));
}

const char* transport_name(Transport transport) noexcept {
  switch (transport) {
    case Transport::Pipe: return "pipe";
    case Transport::SocketPair: return "socketpair";
    case Transport::Tcp: return "tcp";
  }
  return "?";
}

}  // namespace nisc::ipc
