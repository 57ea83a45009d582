// iss_in<T> / iss_out<T>: the paper's kernel-level ISS communication ports
// (§3.1), plus the type-erased base the co-simulation kernel extensions use
// to route traffic by port name.
//
//  * iss_in  — carries data ISS -> SystemC. The kernel extension calls
//    deliver() when the ISS produces a value (breakpoint hit on the bound
//    guest variable, or a WRITE message from the device driver); sensitive
//    iss_processes are dispatched in the next delta cycle.
//  * iss_out — carries data SystemC -> ISS. Hardware processes write();
//    the kernel extension peeks the value when the ISS consumes it
//    (breakpoint on the destination variable, or a READ message).
//
// Like the paper's ports these are registered with the kernel, so the
// modified scheduler can find them without any user-visible wrapper.
#pragma once

#include <bit>
#include <cstring>
#include <vector>

#include "sysc/kernel.hpp"

namespace nisc::sysc {

static_assert(std::endian::native == std::endian::little,
              "iss ports serialize values in host order and assume little-endian, "
              "matching the RV32 target");

class iss_port_base : public sc_object {
 public:
  enum class Direction { In, Out };

  iss_port_base(std::string name, Direction direction)
      : sc_object(name),
        direction_(direction),
        written_(this->name() + ".written"),
        consumed_(this->name() + ".consumed") {
    context().register_iss_port(this, name);
  }

  Direction direction() const noexcept { return direction_; }
  bool is_input() const noexcept { return direction_ == Direction::In; }

  /// Payload width in bytes of the port's value type.
  virtual std::size_t width_bytes() const noexcept = 0;

  /// Kernel-extension entry: stores an ISS-produced value (In ports only).
  virtual void deliver_bytes(std::span<const std::uint8_t> bytes) = 0;

  /// Kernel-extension exit: serializes the current value (any direction).
  virtual std::vector<std::uint8_t> peek_bytes() const = 0;

  /// True when a value landed (write/deliver) since the last consume_fresh().
  bool has_fresh_value() const noexcept { return fresh_; }

  /// Marks the current value as consumed by the other side and notifies
  /// consumed_event() — the hardware-side handshake that lets a producer
  /// process write the next value only after the ISS took the previous one.
  void consume_fresh() {
    if (!fresh_) return;
    fresh_ = false;
    consumed_.notify_delta();
  }

  /// Number of values that crossed the ISS boundary through this port.
  std::uint64_t transfer_count() const noexcept { return transfers_; }

  /// True when a delivery now cannot overwrite a value whose iss_process
  /// has not run yet. A value delivered at delta N wakes its iss_process in
  /// delta N+1's evaluate phase, which runs *after* delta N+1's cycle_begin
  /// hook (where the kernel extensions deliver), so the port is free for a
  /// new value only from delta N+2 on.
  bool accepts_delivery() const noexcept { return context().delta_count() >= free_from_delta_; }

  /// Delta-notified whenever a value lands in the port (deliver or write).
  sc_event& written_event() noexcept { return written_; }
  sc_event& default_event() noexcept { return written_; }

  /// Delta-notified when the other side consumed the value (handshake).
  sc_event& consumed_event() noexcept { return consumed_; }

 protected:
  void mark_transfer(bool fresh) noexcept {
    ++transfers_;
    fresh_ = fresh;
  }

  void mark_delivery() noexcept { free_from_delta_ = context().delta_count() + 2; }

 private:
  Direction direction_;
  sc_event written_;
  sc_event consumed_;
  bool fresh_ = false;
  std::uint64_t transfers_ = 0;
  std::uint64_t free_from_delta_ = 0;
};

/// ISS -> SystemC data port.
template <typename T>
class iss_in : public iss_port_base {
  static_assert(std::is_trivially_copyable_v<T>, "iss_in needs trivially copyable T");

 public:
  explicit iss_in(std::string name) : iss_port_base(std::move(name), Direction::In) {}

  /// The most recently delivered value.
  const T& read() const noexcept { return value_; }

  /// Kernel-side delivery of a value produced by the ISS.
  void deliver(const T& value) {
    value_ = value;
    mark_transfer(true);
    mark_delivery();
    written_event().notify_delta();
  }

  std::size_t width_bytes() const noexcept override { return sizeof(T); }

  void deliver_bytes(std::span<const std::uint8_t> bytes) override {
    util::require(bytes.size() == sizeof(T),
                  "iss_in " + name() + ": payload width mismatch");
    T value;
    std::memcpy(&value, bytes.data(), sizeof(T));
    deliver(value);
  }

  std::vector<std::uint8_t> peek_bytes() const override {
    std::vector<std::uint8_t> out(sizeof(T));
    std::memcpy(out.data(), &value_, sizeof(T));
    return out;
  }

 private:
  T value_{};
};

/// SystemC -> ISS data port.
template <typename T>
class iss_out : public iss_port_base {
  static_assert(std::is_trivially_copyable_v<T>, "iss_out needs trivially copyable T");

 public:
  explicit iss_out(std::string name) : iss_port_base(std::move(name), Direction::Out) {}

  /// Hardware-side write; the value becomes available to the ISS.
  void write(const T& value) {
    value_ = value;
    mark_transfer(true);
    written_event().notify_delta();
  }

  const T& read() const noexcept { return value_; }

  std::size_t width_bytes() const noexcept override { return sizeof(T); }

  void deliver_bytes(std::span<const std::uint8_t>) override {
    throw util::LogicError("iss_out " + name() + ": cannot deliver into an output port");
  }

  std::vector<std::uint8_t> peek_bytes() const override {
    std::vector<std::uint8_t> out(sizeof(T));
    std::memcpy(out.data(), &value_, sizeof(T));
    return out;
  }

 private:
  T value_{};
};

}  // namespace nisc::sysc
