#include "cosim/time_budget.hpp"

#include <algorithm>

namespace nisc::cosim {

void TimeBudget::deposit(std::uint64_t cycles) {
  if (closed_) return;
  balance_ += static_cast<std::int64_t>(cycles);
  // An idle consumer's allowance burns off as soon as its debt is paid; it
  // still runs, so a target woken by pending input can resume.
  if (idle_) balance_ = std::min<std::int64_t>(balance_, 0);
  if (consumer_) consumer_();
}

void TimeBudget::advance_to(std::uint64_t now_ps, std::uint64_t cycles_per_us) {
  // cycles = elapsed_ps * cycles_per_us / 1e6, with remainder carry.
  const std::uint64_t scaled = (now_ps - last_time_ps_) * cycles_per_us + remainder_;
  last_time_ps_ = now_ps;
  remainder_ = scaled % 1000000;
  deposit(scaled / 1000000);
}

void TimeBudget::set_idle(bool idle) {
  idle_ = idle;
  if (idle) balance_ = std::min<std::int64_t>(balance_, 0);  // burn whatever was banked
}

}  // namespace nisc::cosim
