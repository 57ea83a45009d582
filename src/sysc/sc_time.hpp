// Simulation time, modeled on SystemC's sc_time with picosecond resolution.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "util/error.hpp"

namespace nisc::sysc {

/// Time units accepted by sc_time's constructor.
enum class sc_time_unit : std::uint8_t { SC_PS, SC_NS, SC_US, SC_MS, SC_SEC };

/// A point or span of simulated time. Internally an integral count of
/// picoseconds; value-semantic and totally ordered.
class sc_time {
 public:
  constexpr sc_time() noexcept = default;

  sc_time(double value, sc_time_unit unit) {
    util::require(value >= 0.0, "sc_time: negative time");
    ps_ = static_cast<std::uint64_t>(value * unit_scale(unit) + 0.5);
  }

  static constexpr sc_time from_ps(std::uint64_t ps) noexcept {
    sc_time t;
    t.ps_ = ps;
    return t;
  }

  static constexpr sc_time zero() noexcept { return sc_time(); }
  /// Sentinel: later than any reachable simulation time.
  static constexpr sc_time max() noexcept { return from_ps(~0ULL); }

  constexpr std::uint64_t ps() const noexcept { return ps_; }
  constexpr double to_ns() const noexcept { return static_cast<double>(ps_) / 1e3; }
  constexpr double to_us() const noexcept { return static_cast<double>(ps_) / 1e6; }
  constexpr double to_ms() const noexcept { return static_cast<double>(ps_) / 1e9; }
  constexpr double to_seconds() const noexcept { return static_cast<double>(ps_) / 1e12; }

  std::string to_string() const;

  friend constexpr auto operator<=>(const sc_time&, const sc_time&) noexcept = default;

  constexpr sc_time operator+(const sc_time& rhs) const noexcept { return from_ps(ps_ + rhs.ps_); }
  sc_time operator-(const sc_time& rhs) const {
    util::require(ps_ >= rhs.ps_, "sc_time: negative difference");
    return from_ps(ps_ - rhs.ps_);
  }
  constexpr sc_time operator*(std::uint64_t k) const noexcept { return from_ps(ps_ * k); }
  sc_time& operator+=(const sc_time& rhs) noexcept {
    ps_ += rhs.ps_;
    return *this;
  }

  static constexpr double unit_scale(sc_time_unit unit) noexcept {
    switch (unit) {
      case sc_time_unit::SC_PS: return 1.0;
      case sc_time_unit::SC_NS: return 1e3;
      case sc_time_unit::SC_US: return 1e6;
      case sc_time_unit::SC_MS: return 1e9;
      case sc_time_unit::SC_SEC: return 1e12;
    }
    return 1.0;
  }

 private:
  std::uint64_t ps_ = 0;
};

using enum sc_time_unit;

inline namespace time_literals {
constexpr sc_time operator""_ps(unsigned long long v) { return sc_time::from_ps(v); }
constexpr sc_time operator""_ns(unsigned long long v) { return sc_time::from_ps(v * 1000ULL); }
constexpr sc_time operator""_us(unsigned long long v) { return sc_time::from_ps(v * 1000000ULL); }
constexpr sc_time operator""_ms(unsigned long long v) { return operator""_us(v * 1000ULL); }
}  // namespace time_literals

}  // namespace nisc::sysc
