// TimeBudget: correlates ISS execution with SystemC simulated time.
//
// The SystemC kernel deposits an instruction allowance as simulated time
// advances (modeling the CPU's nominal frequency); the in-process target
// running the ISS withdraws it. Both sides live on the kernel thread: each
// deposit runs the target (the budget's consumer) at once, so it spends its
// allowance before simulated time moves on, and the same deposits always
// buy the same guest progress.
//
// Whoever ends a session (the target when its stub exits, a kernel extension
// on a transport failure) closes the budget: a closed budget grants nothing
// and steps its consumer no more.
#pragma once

#include <cstdint>
#include <functional>

namespace nisc::cosim {

class TimeBudget {
 public:
  /// `cap` bounds accumulation so a stalled ISS cannot bank unbounded credit
  /// and later sprint arbitrarily far ahead of hardware time.
  explicit TimeBudget(std::uint64_t cap = 1 << 20) : cap_(cap) {}

  /// The target that spends this allowance; run after every deposit.
  void set_consumer(std::function<void()> consumer) { consumer_ = std::move(consumer); }

  /// Adds `tokens` instructions of allowance, then runs the consumer.
  void deposit(std::uint64_t tokens);

  /// Deposits the allowance for the simulated time elapsed since the
  /// previous call, at `instructions_per_us`. Fractional instructions carry
  /// over to the next call.
  void advance_to(std::uint64_t now_ps, std::uint64_t instructions_per_us);

  /// Withdraws up to `want` instructions; returns the granted amount (0 when
  /// nothing is banked or the budget is closed). Never waits.
  std::uint64_t acquire(std::uint64_t want);

  /// Marks the consumer as idle: an idle CPU burns its allowance doing
  /// nothing, so deposits are discarded until the consumer wakes.
  void set_idle(bool idle);

  /// Ends time correlation for good (teardown, a failed session, or the
  /// guest exited and will never consume again).
  void close() noexcept { closed_ = true; }

  bool closed() const noexcept { return closed_; }
  std::uint64_t available() const noexcept { return tokens_; }

 private:
  std::function<void()> consumer_;
  std::uint64_t tokens_ = 0;
  std::uint64_t cap_;
  bool closed_ = false;
  bool idle_ = false;
  std::uint64_t last_time_ps_ = 0;
  std::uint64_t remainder_ = 0;
};

}  // namespace nisc::cosim
