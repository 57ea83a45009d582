// TimeBudget: correlates ISS execution with SystemC simulated time.
//
// The SystemC kernel deposits an instruction allowance as simulated time
// advances (modeling the CPU's nominal frequency); the target thread running
// the ISS withdraws before executing. The deposit path never blocks; the
// withdraw path blocks until tokens are available, which is what keeps the
// two simulators loosely synchronized in the paper's free-running schemes.
//
// No wait here takes a timeout: every wait ends on an event — a deposit, a
// consumption, the consumer going idle, or close(). Whoever ends a session
// (the target thread on exit, a kernel extension on a transport failure)
// closes the budget, which releases both sides for good.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace nisc::cosim {

class TimeBudget {
 public:
  /// Reverse-throttle lead: simulated time holds while more than this many
  /// granted-but-unexecuted instructions are outstanding, so a
  /// host-scheduling hiccup on the ISS thread cannot masquerade as a slow
  /// simulated CPU.
  static constexpr std::uint64_t kMaxLead = 8192;

  /// `cap` bounds accumulation so a stalled ISS cannot bank unbounded credit
  /// and later sprint arbitrarily far ahead of hardware time.
  explicit TimeBudget(std::uint64_t cap = 1 << 20) : cap_(cap) {}

  /// Adds `tokens` instructions of allowance (kernel thread, non-blocking).
  void deposit(std::uint64_t tokens);

  /// Deposits the allowance for the simulated time elapsed since the
  /// previous call, at `instructions_per_us` (kernel thread, non-blocking).
  /// Fractional instructions carry over to the next call.
  void advance_to(std::uint64_t now_ps, std::uint64_t instructions_per_us);

  /// Withdraws up to `want` instructions, blocking until at least one token
  /// is available or the budget is closed. Returns the granted amount
  /// (0 only when closed).
  std::uint64_t acquire(std::uint64_t want);

  /// Blocks until `amount` tokens have been consumed (pay-after accounting:
  /// the ISS runs a slice first, then pays its measured cycle cost).
  /// Returns false when the budget was closed before the debt was settled.
  bool pay(std::uint64_t amount);

  /// The *reverse* throttle, called by the SystemC side once per cycle: while
  /// more than kMaxLead tokens remain unconsumed, blocks until fewer remain,
  /// the consumer goes idle, or the budget is closed. Simulated time thus
  /// cannot race arbitrarily ahead of an ISS that has not caught up with its
  /// allowance.
  void wait_below_lead();

  /// Marks the consumer as idle: an idle CPU burns its allowance doing
  /// nothing, so deposits are discarded (and wait_below_lead passes) until
  /// the consumer wakes. Set by the target loop around blocking-idle waits.
  void set_idle(bool idle);

  /// Unblocks all waiters on both sides permanently (teardown, a failed
  /// session, or the guest exited and will never consume again).
  void close();

  bool closed() const;
  std::uint64_t available() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;        // waiters for tokens (ISS side)
  std::condition_variable drained_;   // waiters for consumption (kernel side)
  std::uint64_t tokens_ = 0;
  std::uint64_t cap_;
  bool closed_ = false;
  bool idle_ = false;

  // advance_to() bookkeeping; touched only by the depositing kernel thread.
  std::uint64_t last_time_ps_ = 0;
  std::uint64_t remainder_ = 0;
};

}  // namespace nisc::cosim
