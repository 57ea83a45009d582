#include "cosim/time_budget.hpp"

#include <algorithm>

namespace nisc::cosim {

void TimeBudget::deposit(std::uint64_t tokens) {
  if (closed_) return;
  // An idle consumer's allowance burns off immediately; it still runs, so a
  // target woken by pending input can resume.
  if (!idle_) tokens_ = std::min(tokens_ + tokens, cap_);
  if (consumer_) consumer_();
}

void TimeBudget::advance_to(std::uint64_t now_ps, std::uint64_t instructions_per_us) {
  // instructions = elapsed_ps * instr_per_us / 1e6, with remainder carry.
  const std::uint64_t scaled = (now_ps - last_time_ps_) * instructions_per_us + remainder_;
  last_time_ps_ = now_ps;
  remainder_ = scaled % 1000000;
  deposit(scaled / 1000000);
}

std::uint64_t TimeBudget::acquire(std::uint64_t want) {
  if (closed_) return 0;
  const std::uint64_t granted = std::min(want, tokens_);
  tokens_ -= granted;
  return granted;
}

void TimeBudget::set_idle(bool idle) {
  idle_ = idle;
  if (idle) tokens_ = 0;  // burn whatever was banked
}

}  // namespace nisc::cosim
