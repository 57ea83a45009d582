// Byte-stream channels: pipes, socketpairs, and TCP — the transports the
// paper's two co-simulation schemes use (a pipe for GDB-Kernel, sockets on
// the data port 4444 / interrupt port 4445 for Driver-Kernel).
//
// Every channel carries three optional decorations, all null by default so
// the undecorated hot path costs one pointer check per I/O call:
//   - a FaultState (ipc/fault.hpp): a seeded fault-injection plan that can
//     corrupt, truncate, drop, duplicate, delay, or cut transfers;
//   - a WireCapture (ipc/capture.hpp): a ring buffer of the last N
//     transfers, dumpable as a `cosim_lint --frames` post-mortem;
//   - a WireObserver (ipc/capture.hpp): a live tap seeing every transfer as
//     it happens (the protocol conformance monitor attaches here).
// A raw channel blocks on its transfers, or bounds them by a per-channel I/O
// timeout when its peer runs on another thread or in another process.
//
// An endpoint whose peer is an in-process target (an ISS stub or RTOS that
// runs on this endpoint's thread) carries an inline-peer hook instead of a
// clock: the peer runs whenever this side sends to it or waits for its
// reply, and a wait ends when the peer goes idle. Nothing can complete a
// transfer while this thread waits, so such endpoints use I/O timeout 0: a
// cut frame or a full pipe fails at once.
//
// The two endpoints of such a wire are linked (ChannelPair::link_same_thread):
// bytes can reach one end only after the other end sends, closes or is
// destroyed, so each end counts its sends, and an end whose read side was
// found empty has no news (nothing there, no syscall) until the peer's count
// moves. A target reads its input state from its own end's news.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "ipc/fd.hpp"

namespace nisc::ipc {

class FaultState;
class WireCapture;
class WireObserver;

/// A bidirectional byte-stream endpoint. Reading and writing may happen from
/// different threads (one reader, one writer) only on a bare channel: its
/// decorations, and both endpoints of a linked pair with the send counts
/// they share, belong to one thread.
class Channel {
 public:
  Channel() = default;
  Channel(Fd read_fd, Fd write_fd) : read_fd_(std::move(read_fd)), write_fd_(std::move(write_fd)) {}

  /// Constructs from a single full-duplex descriptor (socket).
  static Channel from_socket(Fd socket_fd);

  bool valid() const noexcept { return read_fd_.valid() && write_fd_.valid(); }

  const Fd& read_fd() const noexcept { return read_fd_; }

  /// Hard deadline (ms) for each blocking send/recv_exact; < 0 waits
  /// forever (the raw-channel default: one read/write syscall per
  /// transfer). A finite deadline switches the descriptors to non-blocking
  /// so every wait can be bounded by poll; 0 fails a transfer that cannot
  /// complete at once (the in-process sessions' setting).
  void set_io_timeout(int timeout_ms);
  int io_timeout() const noexcept { return io_timeout_ms_; }

  void send(std::span<const std::uint8_t> data);
  void send_str(const std::string& s);
  void recv_exact(std::span<std::uint8_t> out);
  /// Without an inline peer, polls for up to `timeout_ms` (< 0: forever).
  /// With one, any non-zero timeout steps the peer until it has written
  /// something (true) or a step reports it idle (false); 0 only checks.
  /// Each check is input_waiting() once the fault plan let it through.
  bool readable(int timeout_ms = 0);
  /// Reads what is pending, up to `out.size()` bytes, without waiting
  /// (0: nothing). Non-blocking descriptors (I/O timeout >= 0) are read at
  /// once; blocking ones are polled first. A linked endpoint skips the read
  /// while its side is known to be empty.
  std::size_t recv_some(std::span<std::uint8_t> out);

  /// True while bytes (or an EOF) sit unread on this endpoint's read side.
  /// Bypasses the fault plan, so a suppressed poll cannot hide them. Polls
  /// only when the endpoint has news.
  bool input_waiting();

  /// False when this is a linked endpoint found empty whose peer has not
  /// sent or closed since: nothing can be waiting. A compare, no syscall.
  bool has_news() const noexcept { return !link_.quiet(); }
  /// Marks a linked endpoint as found empty, for a side nothing can be
  /// waiting on (the end of a wire nothing was sent on yet).
  void assume_empty() noexcept { link_.found_empty(); }

  /// Installs the step of an in-process peer: run after every send() and
  /// while readable() waits, so the peer consumes what this side sent and
  /// writes its reply on the caller's thread. The step returns true when the
  /// peer did work or still holds unread input, and false when it is idle:
  /// stepping it again would write nothing, so nothing more will arrive.
  void set_inline_peer(std::function<bool()> step) { inline_peer_ = std::move(step); }

  /// Installs a fault plan state (normally via FaultyChannel::install).
  void attach_faults(std::shared_ptr<FaultState> faults) noexcept { faults_ = std::move(faults); }
  const std::shared_ptr<FaultState>& faults() const noexcept { return faults_; }

  /// Installs a wire-capture ring recording every transfer on this channel.
  void attach_capture(std::shared_ptr<WireCapture> capture) noexcept {
    capture_ = std::move(capture);
  }
  const std::shared_ptr<WireCapture>& capture() const noexcept { return capture_; }

  /// Installs (or, with nullptr, detaches) a live observer seeing every
  /// transfer (post fault injection, i.e. the bytes that actually crossed
  /// the wire on this endpoint).
  void attach_observer(std::shared_ptr<WireObserver> observer) noexcept {
    observer_ = std::move(observer);
  }

  /// Forwards an out-of-band endpoint event (e.g. "quiesce") to the
  /// observer, if any; defined out of line to keep WireObserver forward-
  /// declared here.
  void notify_observer(std::string_view tag);

  /// Closes both directions.
  void close() noexcept {
    read_fd_.reset();
    write_fd_.reset();
    link_.note_send();  // the peer must look again: it will read EOF
  }

 private:
  friend struct ChannelPair;

  /// Each endpoint's send count on a linked pair, indexed by side.
  using SendCounts = std::array<std::uint64_t, 2>;

  /// This endpoint's share of a linked pair (none on an unlinked channel).
  /// Destroying or overwriting a linked endpoint closes it, so it counts as
  /// a send the peer must look at.
  class Link {
   public:
    Link() = default;
    Link(std::shared_ptr<SendCounts> counts, int side) : counts_(std::move(counts)), side_(side) {}
    Link(Link&& other) noexcept = default;  // the moved-from link counts nothing
    Link& operator=(Link&& other) noexcept;
    ~Link() { note_send(); }

    void note_send() noexcept {
      if (counts_) ++(*counts_)[side_];
    }
    /// True when this side was found empty and the peer has not sent since.
    bool quiet() const noexcept { return counts_ && quiet_at_ == peer_sent(); }
    /// Records that this side is empty now.
    void found_empty() noexcept {
      if (counts_) quiet_at_ = peer_sent();
    }

   private:
    std::uint64_t peer_sent() const noexcept { return (*counts_)[side_ ^ 1]; }

    std::shared_ptr<SendCounts> counts_;
    int side_ = 0;
    std::uint64_t quiet_at_ = ~std::uint64_t{0};  ///< peer's count when found empty; none yet
  };

  Fd read_fd_;
  Fd write_fd_;
  int io_timeout_ms_ = -1;
  std::shared_ptr<FaultState> faults_;
  std::shared_ptr<WireCapture> capture_;
  std::shared_ptr<WireObserver> observer_;
  std::function<bool()> inline_peer_;
  Link link_;
};

/// Transport flavor for make_channel_pair.
enum class Transport { Pipe, SocketPair, Tcp };

/// Two channel endpoints wired back-to-back.
struct ChannelPair {
  Channel a;
  Channel b;
  Transport transport = Transport::Pipe;

  /// Links the endpoints of a wire whose two ends run on one thread (an
  /// in-process session): both get I/O timeout 0, and each counts its
  /// sends, so a check of an end known to be empty costs no syscall until
  /// the other end sends, closes or is destroyed. Costs one allocation. A
  /// TCP pair only gets the timeout: a byte sent over loopback TCP may still
  /// be in flight when send() returns, so an empty look proves nothing.
  void link_same_thread();
};

/// Creates a connected pair of endpoints over the requested transport.
/// Pipe uses two pipe(2) calls (matching the paper's GDB-Kernel IPC);
/// SocketPair uses socketpair(2); Tcp opens a loopback listener on an
/// ephemeral port and connects to it (matching the Driver-Kernel socket
/// style without hard-coding 4444/4445, which tests could not share).
ChannelPair make_channel_pair(Transport transport);

/// Loopback TCP listener for explicit Driver-Kernel style setups.
class TcpListener {
 public:
  /// Binds 127.0.0.1:`port`; port 0 picks an ephemeral port.
  explicit TcpListener(std::uint16_t port);

  std::uint16_t port() const noexcept { return port_; }

  /// Waits up to `timeout_ms` (< 0: forever) for a peer; throws
  /// RuntimeError("accept: timed out...") on expiry.
  Channel accept(int timeout_ms = -1);

 private:
  Fd listen_fd_;
  std::uint16_t port_ = 0;
};

/// Connects to a loopback TCP listener; throws when nobody listens.
Channel tcp_connect(std::uint16_t port);

/// Human-readable transport name (for bench output).
const char* transport_name(Transport transport) noexcept;

}  // namespace nisc::ipc
