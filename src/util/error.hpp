// Error handling primitives shared by all niscosim modules.
//
// Programming errors (precondition violations) throw LogicError; recoverable
// runtime failures (I/O, protocol, guest faults) throw or return RuntimeError
// via Result<T>.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace nisc::util {

/// Thrown on precondition/invariant violations: indicates a bug in the
/// caller, not an environmental condition.
class LogicError : public std::logic_error {
 public:
  explicit LogicError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown on recoverable runtime failures (I/O errors, malformed protocol
/// traffic, guest program faults).
class RuntimeError : public std::runtime_error {
 public:
  explicit RuntimeError(const std::string& what) : std::runtime_error(what) {}
};

/// Throws LogicError with `msg` when `cond` is false. Used to check public
/// API preconditions; always enabled (not tied to NDEBUG). A literal `msg`
/// binds to the first overload, so a passing check costs only a branch; a
/// message built from parts is built before the check, even when it passes.
inline void require(bool cond, const char* msg) {
  if (!cond) throw LogicError(msg);
}
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw LogicError(msg);
}

/// A value-or-error sum type for fallible operations on hot or noexcept-ish
/// paths where exceptions would be awkward (e.g. non-blocking I/O).
template <typename T>
class Result {
 public:
  Result(T value) : data_(std::move(value)) {}                  // NOLINT
  Result(RuntimeError err) : data_(std::move(err)) {}           // NOLINT
  static Result failure(const std::string& msg) { return Result(RuntimeError(msg)); }

  bool ok() const noexcept { return std::holds_alternative<T>(data_); }
  explicit operator bool() const noexcept { return ok(); }

  /// Returns the contained value; throws the stored error if not ok().
  T& value() & {
    if (!ok()) throw std::get<RuntimeError>(data_);
    return std::get<T>(data_);
  }
  const T& value() const& {
    if (!ok()) throw std::get<RuntimeError>(data_);
    return std::get<T>(data_);
  }
  T&& value() && {
    if (!ok()) throw std::get<RuntimeError>(data_);
    return std::move(std::get<T>(data_));
  }

  /// Returns the stored error message; empty when ok().
  std::string error() const {
    if (ok()) return {};
    return std::get<RuntimeError>(data_).what();
  }

 private:
  std::variant<T, RuntimeError> data_;
};

}  // namespace nisc::util
