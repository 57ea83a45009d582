// TimeBudget: correlates ISS execution with SystemC simulated time.
//
// The SystemC kernel deposits an allowance of CPU cycles as simulated time
// advances (modeling the CPU's nominal frequency), and at no other point; the
// in-process target running the ISS spends it by one rule, pay-after, under
// both budget-metered schemes. A target runs a slice of kSlice instructions
// as soon as the previous slice is paid for, then charges the cycles the
// slice cost: CycleModel cycles, plus the RTOS costs under Driver-Kernel.
// The budget is one signed balance: banked allowance, or the debt of slices
// the allowance could not cover, which later deposits pay before they bank
// anything. Both sides live on the kernel thread: each deposit steps the
// target (the budget's consumer) at once, so it spends its allowance before
// simulated time moves on, and the same deposits always buy the same guest
// progress. The bank needs no cap: a running target spends it down at every
// deposit, and an idle one burns it.
//
// Whoever ends a session (the target when its stub exits or its guest exits
// or faults, a kernel extension on a transport failure) closes the budget: a
// closed budget is never ready and steps its consumer no more.
#pragma once

#include <cstdint>
#include <functional>

namespace nisc::cosim {

class TimeBudget {
 public:
  /// Guest instructions a target runs per slice before it charges the
  /// slice's cycle cost.
  static constexpr std::uint64_t kSlice = 2048;

  /// The target that spends this allowance; run after every deposit.
  void set_consumer(std::function<void()> consumer) { consumer_ = std::move(consumer); }

  /// Adds `cycles` of allowance, then runs the consumer. The deposit pays
  /// the debt first and banks only the rest, so an idle CPU burns only what
  /// is left after its last slice is paid for.
  void deposit(std::uint64_t cycles);

  /// Deposits the allowance for the simulated time elapsed since the
  /// previous call, at `cycles_per_us`. Fractional cycles carry over to the
  /// next call.
  void advance_to(std::uint64_t now_ps, std::uint64_t cycles_per_us);

  /// True while the budget is open and owes nothing: the target may run its
  /// next slice.
  bool ready() const noexcept { return !closed_ && balance_ >= 0; }

  /// Pays a slice's `cycles` out of the balance; what the banked allowance
  /// cannot cover becomes debt.
  void charge(std::uint64_t cycles) { balance_ -= static_cast<std::int64_t>(cycles); }

  /// Marks the consumer as idle: an idle CPU burns its allowance doing
  /// nothing, so deposits bank nothing until the consumer wakes.
  void set_idle(bool idle);

  /// Ends time correlation for good (teardown, a failed session, or the
  /// guest exited and will never consume again).
  void close() noexcept { closed_ = true; }

  bool closed() const noexcept { return closed_; }
  /// The two sides of the balance: banked allowance, and debt.
  std::uint64_t available() const noexcept { return balance_ > 0 ? balance_ : 0; }
  std::uint64_t debt() const noexcept { return balance_ < 0 ? -balance_ : 0; }

 private:
  std::function<void()> consumer_;
  std::int64_t balance_ = 0;  ///< banked allowance if positive, debt if negative
  bool closed_ = false;
  bool idle_ = false;
  std::uint64_t last_time_ps_ = 0;
  std::uint64_t remainder_ = 0;
};

}  // namespace nisc::cosim
