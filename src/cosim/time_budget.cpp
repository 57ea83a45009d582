#include "cosim/time_budget.hpp"

#include <algorithm>

namespace nisc::cosim {

void TimeBudget::deposit(std::uint64_t cycles) {
  if (closed_) return;
  const std::uint64_t paid = std::min(cycles, debt_);
  debt_ -= paid;
  // An idle consumer's allowance burns off immediately; it still runs, so a
  // target woken by pending input can resume.
  if (!idle_) tokens_ += cycles - paid;
  if (consumer_) consumer_();
}

void TimeBudget::advance_to(std::uint64_t now_ps, std::uint64_t cycles_per_us) {
  // cycles = elapsed_ps * cycles_per_us / 1e6, with remainder carry.
  const std::uint64_t scaled = (now_ps - last_time_ps_) * cycles_per_us + remainder_;
  last_time_ps_ = now_ps;
  remainder_ = scaled % 1000000;
  deposit(scaled / 1000000);
}

void TimeBudget::charge(std::uint64_t cycles) {
  const std::uint64_t paid = std::min(cycles, tokens_);
  tokens_ -= paid;
  debt_ += cycles - paid;
}

void TimeBudget::set_idle(bool idle) {
  idle_ = idle;
  if (idle) tokens_ = 0;  // burn whatever was banked
}

}  // namespace nisc::cosim
