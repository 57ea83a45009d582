// RAII file-descriptor wrapper and blocking/non-blocking I/O helpers.
//
// All inter-simulator traffic in niscosim (GDB remote-serial-protocol
// streams, Driver-Kernel data/interrupt sockets) flows through real kernel
// file descriptors, mirroring the paper's pipe/socket IPC.
//
// Every potentially-blocking helper takes a timeout so no IPC path can hang
// the co-simulation forever: timeouts are tracked as monotonic deadlines,
// so EINTR retries and partial transfers never extend the total wait.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace nisc::ipc {

/// Owning file descriptor. Move-only; closes on destruction.
class Fd {
 public:
  Fd() noexcept = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  explicit operator bool() const noexcept { return valid(); }

  /// Releases ownership without closing.
  int release() noexcept { return std::exchange(fd_, -1); }

  /// Closes the descriptor (idempotent).
  void reset() noexcept;

 private:
  int fd_ = -1;
};

/// Writes all of `data`, retrying on EINTR and short writes. Throws
/// RuntimeError on error, EOF (peer closed), or when the whole transfer has
/// not completed within `timeout_ms` (< 0 waits forever; 0 fails as soon as
/// the descriptor would block).
void write_all(const Fd& fd, std::span<const std::uint8_t> data, int timeout_ms = -1);

/// Reads exactly `out.size()` bytes. Throws RuntimeError on error/EOF or
/// when the whole transfer has not completed within `timeout_ms`.
void read_exact(const Fd& fd, std::span<std::uint8_t> out, int timeout_ms = -1);

/// Returns true when at least one byte is readable without blocking.
/// `timeout_ms` < 0 blocks indefinitely; 0 polls. The timeout is a hard
/// deadline: EINTR retries re-poll only for the remaining time. Every
/// poll(2) this library makes counts in the `ipc.polls` metric.
bool poll_readable(const Fd& fd, int timeout_ms);

/// Non-blocking read of up to `out.size()` bytes. Returns the number of
/// bytes read (0 if nothing pending or `fd` is closed). Throws on error or
/// EOF. A descriptor in blocking mode is polled first, so the read cannot
/// block; an O_NONBLOCK one (`fd_nonblocking`, see set_nonblocking) is
/// read at once, EAGAIN meaning nothing pending.
std::size_t read_some_nonblocking(const Fd& fd, std::span<std::uint8_t> out,
                                  bool fd_nonblocking);

/// Marks the descriptor O_NONBLOCK (or clears it).
void set_nonblocking(const Fd& fd, bool nonblocking);

}  // namespace nisc::ipc
