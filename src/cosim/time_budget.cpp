#include "cosim/time_budget.hpp"

#include <algorithm>

namespace nisc::cosim {

void TimeBudget::deposit(std::uint64_t tokens) {
  {
    std::lock_guard lock(mutex_);
    if (idle_) {
      // The consumer is idle: its allowance burns off immediately.
      drained_.notify_all();
      return;
    }
    tokens_ = std::min(tokens_ + tokens, cap_);
  }
  cv_.notify_all();
}

void TimeBudget::advance_to(std::uint64_t now_ps, std::uint64_t instructions_per_us) {
  // instructions = elapsed_ps * instr_per_us / 1e6, with remainder carry.
  const std::uint64_t scaled = (now_ps - last_time_ps_) * instructions_per_us + remainder_;
  last_time_ps_ = now_ps;
  remainder_ = scaled % 1000000;
  const std::uint64_t instructions = scaled / 1000000;
  if (instructions > 0) deposit(instructions);
}

std::uint64_t TimeBudget::acquire(std::uint64_t want) {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] { return tokens_ > 0 || closed_; });
  if (tokens_ == 0) return 0;  // closed
  std::uint64_t granted = std::min(want, tokens_);
  tokens_ -= granted;
  drained_.notify_all();
  return granted;
}

bool TimeBudget::pay(std::uint64_t amount) {
  while (amount > 0) {
    std::uint64_t got = acquire(amount);
    if (got == 0) return false;  // closed
    amount -= got;
  }
  return true;
}

void TimeBudget::wait_below_lead() {
  std::unique_lock lock(mutex_);
  if (tokens_ <= kMaxLead) return;
  drained_.wait(lock, [&] { return tokens_ < kMaxLead || closed_ || idle_; });
}

void TimeBudget::set_idle(bool idle) {
  {
    std::lock_guard lock(mutex_);
    idle_ = idle;
    if (idle) tokens_ = 0;  // burn whatever was banked
  }
  drained_.notify_all();
}

void TimeBudget::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
  drained_.notify_all();
}

bool TimeBudget::closed() const {
  std::lock_guard lock(mutex_);
  return closed_;
}

std::uint64_t TimeBudget::available() const {
  std::lock_guard lock(mutex_);
  return tokens_;
}

}  // namespace nisc::cosim
