#include "ipc/fd.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"

namespace nisc::ipc {

using util::Deadline;
using util::RuntimeError;

namespace {
/// Writing to a pipe/socket whose peer died must surface as EPIPE (-> a
/// RuntimeError the co-simulation can handle), not a process-killing
/// SIGPIPE. Installed once, before the first write.
void ignore_sigpipe_once() {
  static const bool installed = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)installed;
}

/// One poll(2) call, counted in `ipc.polls`.
int counted_poll(struct pollfd& pfd, int timeout_ms) {
  static obs::Counter& polls = obs::counter("ipc.polls");
  polls.add(1);
  return ::poll(&pfd, 1, timeout_ms);
}

/// Polls for `events`, honoring the deadline across EINTR restarts.
/// Returns true when an event fired, false on deadline expiry.
bool poll_deadline(const Fd& fd, short events, const Deadline& deadline, const char* who) {
  for (;;) {
    struct pollfd pfd = {fd.get(), events, 0};
    int rc = counted_poll(pfd, deadline.remaining_ms());
    if (rc < 0) {
      if (errno == EINTR) {
        if (deadline.expired()) return false;
        continue;  // re-poll with the *remaining* time, not the original
      }
      throw RuntimeError(std::string(who) + ": poll: " + std::strerror(errno));
    }
    if (rc == 0) return false;
    return true;
  }
}
}  // namespace

void Fd::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void write_all(const Fd& fd, std::span<const std::uint8_t> data, int timeout_ms) {
  ignore_sigpipe_once();
  const Deadline deadline = Deadline::after_ms(timeout_ms);
  std::size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd.get(), data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Peer not draining: wait for writability, bounded by the deadline.
        if (!poll_deadline(fd, POLLOUT, deadline, "write_all")) {
          throw RuntimeError("write_all: timed out with " +
                             std::to_string(data.size() - written) + " byte(s) unsent");
        }
        continue;
      }
      throw RuntimeError(std::string("write_all: ") + std::strerror(errno));
    }
    if (n == 0) throw RuntimeError("write_all: peer closed");
    written += static_cast<std::size_t>(n);
  }
}

void read_exact(const Fd& fd, std::span<std::uint8_t> out, int timeout_ms) {
  const Deadline deadline = Deadline::after_ms(timeout_ms);
  std::size_t got = 0;
  while (got < out.size()) {
    ssize_t n = ::read(fd.get(), out.data() + got, out.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!poll_deadline(fd, POLLIN, deadline, "read_exact")) {
          throw RuntimeError("read_exact: timed out with " +
                             std::to_string(out.size() - got) + " byte(s) missing");
        }
        continue;
      }
      throw RuntimeError(std::string("read_exact: ") + std::strerror(errno));
    }
    if (n == 0) throw RuntimeError("read_exact: peer closed");
    got += static_cast<std::size_t>(n);
  }
}

bool poll_readable(const Fd& fd, int timeout_ms) {
  const Deadline deadline = Deadline::after_ms(timeout_ms);
  for (;;) {
    struct pollfd pfd = {fd.get(), POLLIN, 0};
    int rc = counted_poll(pfd, deadline.remaining_ms());
    if (rc < 0) {
      if (errno == EINTR) {
        // Recompute the remaining time: repeated signals must not restart
        // the full timeout (they used to, making the wait unbounded).
        if (deadline.expired()) return false;
        continue;
      }
      throw RuntimeError(std::string("poll_readable: ") + std::strerror(errno));
    }
    if (rc == 0) return false;
    return (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
  }
}

std::size_t read_some_nonblocking(const Fd& fd, std::span<std::uint8_t> out,
                                  bool fd_nonblocking) {
  // A closed descriptor reads as empty, as poll(2) reports it.
  if (fd_nonblocking ? !fd.valid() : !poll_readable(fd, 0)) return 0;
  ssize_t n = ::read(fd.get(), out.data(), out.size());
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return 0;
    throw RuntimeError(std::string("read_some_nonblocking: ") + std::strerror(errno));
  }
  if (n == 0) throw RuntimeError("read_some_nonblocking: peer closed");
  return static_cast<std::size_t>(n);
}

void set_nonblocking(const Fd& fd, bool nonblocking) {
  int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0) throw RuntimeError(std::string("fcntl(F_GETFL): ") + std::strerror(errno));
  if (nonblocking) {
    flags |= O_NONBLOCK;
  } else {
    flags &= ~O_NONBLOCK;
  }
  if (::fcntl(fd.get(), F_SETFL, flags) < 0) {
    throw RuntimeError(std::string("fcntl(F_SETFL): ") + std::strerror(errno));
  }
}

}  // namespace nisc::ipc
