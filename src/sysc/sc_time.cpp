#include "sysc/sc_time.hpp"

#include <cstdio>

namespace nisc::sysc {

std::string sc_time::to_string() const {
  char buf[48];
  if (ps_ == ~0ULL) return "t_max";
  if (ps_ % 1000000000000ULL == 0) {
    std::snprintf(buf, sizeof(buf), "%llu s",
                  static_cast<unsigned long long>(ps_ / 1000000000000ULL));
  } else if (ps_ % 1000000000ULL == 0) {
    std::snprintf(buf, sizeof(buf), "%llu ms",
                  static_cast<unsigned long long>(ps_ / 1000000000ULL));
  } else if (ps_ % 1000000ULL == 0) {
    std::snprintf(buf, sizeof(buf), "%llu us", static_cast<unsigned long long>(ps_ / 1000000ULL));
  } else if (ps_ % 1000ULL == 0) {
    std::snprintf(buf, sizeof(buf), "%llu ns", static_cast<unsigned long long>(ps_ / 1000ULL));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu ps", static_cast<unsigned long long>(ps_));
  }
  return buf;
}

}  // namespace nisc::sysc
