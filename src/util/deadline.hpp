// Monotonic deadline arithmetic for bounded blocking calls.
//
// Every bounded wait on a peer behind a clock (another thread or process:
// raw-channel polls and transfers under an I/O timeout, the supervisor's
// worker wire) is expressed against a Deadline so that EINTR retries and
// partial progress never silently extend the total wait (see
// ipc::poll_readable for the bug class this prevents). In-process session
// waits keep no clock: they end when the stepped peer goes idle.
#pragma once

#include <chrono>

namespace nisc::util {

/// A fixed point in monotonic time, or "never". Cheap to copy.
class Deadline {
 public:
  using clock = std::chrono::steady_clock;

  /// A deadline that never expires (remaining_ms() == -1 forever).
  static Deadline never() noexcept { return Deadline(); }

  /// Expires `ms` milliseconds from now; ms < 0 means never.
  static Deadline after_ms(int ms) noexcept {
    Deadline d;
    if (ms >= 0) {
      d.unlimited_ = false;
      d.at_ = clock::now() + std::chrono::milliseconds(ms);
    }
    return d;
  }

  bool unlimited() const noexcept { return unlimited_; }

  bool expired() const noexcept {
    return !unlimited_ && clock::now() >= at_;
  }

  /// Milliseconds left, clamped to >= 0; -1 when unlimited. Suitable for
  /// passing straight to poll(2)-style timeout arguments. Rounded *up*: a
  /// live deadline never reports 0, which would turn short bounded waits
  /// (e.g. a 1 ms idle poll) into hot non-blocking spins.
  int remaining_ms() const noexcept {
    if (unlimited_) return -1;
    auto left = std::chrono::ceil<std::chrono::milliseconds>(at_ - clock::now());
    return left.count() > 0 ? static_cast<int>(left.count()) : 0;
  }

 private:
  Deadline() noexcept = default;

  bool unlimited_ = true;
  clock::time_point at_{};
};

}  // namespace nisc::util
