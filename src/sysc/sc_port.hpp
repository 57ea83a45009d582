// sc_in<T> / sc_out<T>: signal ports with elaboration-time binding checks.
#pragma once

#include "sysc/sc_signal.hpp"

namespace nisc::sysc {

/// Type-erased base of sc_in / sc_out, letting analysis passes enumerate
/// signal ports and query their binding state without knowing T.
class sc_port_base : public sc_object {
 public:
  using sc_object::sc_object;

  /// True once the port has been bound to a signal.
  virtual bool bound() const noexcept = 0;
  /// "sc_in" or "sc_out" (for diagnostics).
  virtual const char* port_kind() const noexcept = 0;
};

/// Read-only port onto an sc_signal<T>.
template <typename T>
class sc_in : public sc_port_base {
 public:
  explicit sc_in(std::string name = "in") : sc_port_base(std::move(name)) {}

  void bind(sc_signal<T>& signal) noexcept { signal_ = &signal; }
  void operator()(sc_signal<T>& signal) noexcept { bind(signal); }
  bool bound() const noexcept override { return signal_ != nullptr; }
  const char* port_kind() const noexcept override { return "sc_in"; }

  // Reads and writes build their message only on failure: a bound access
  // costs a branch.
  const T& read() const {
    if (signal_ == nullptr) throw util::LogicError("sc_in " + name() + ": read before bind");
    return signal_->read();
  }

  sc_event& value_changed_event() {
    util::require(bound(), "sc_in " + name() + ": unbound");
    return signal_->value_changed_event();
  }
  sc_event& default_event() { return value_changed_event(); }

  sc_event& posedge_event() {
    util::require(bound(), "sc_in " + name() + ": unbound");
    return signal_->posedge_event();
  }
  sc_event& negedge_event() {
    util::require(bound(), "sc_in " + name() + ": unbound");
    return signal_->negedge_event();
  }

  /// Deferred event references, usable in `sensitive <<` before binding.
  event_finder value_changed() {
    return {[this]() -> sc_event& { return value_changed_event(); }};
  }
  event_finder pos() {
    return {[this]() -> sc_event& { return posedge_event(); }};
  }
  event_finder neg() {
    return {[this]() -> sc_event& { return negedge_event(); }};
  }
  event_finder default_event_finder() { return value_changed(); }

  void on_elaboration() override {
    util::require(bound(), "sc_in " + name() + ": left unbound at elaboration");
  }

 private:
  sc_signal<T>* signal_ = nullptr;
};

/// Write port onto an sc_signal<T> (reading back is allowed, as in SystemC).
template <typename T>
class sc_out : public sc_port_base {
 public:
  explicit sc_out(std::string name = "out") : sc_port_base(std::move(name)) {}

  void bind(sc_signal<T>& signal) noexcept { signal_ = &signal; }
  void operator()(sc_signal<T>& signal) noexcept { bind(signal); }
  bool bound() const noexcept override { return signal_ != nullptr; }
  const char* port_kind() const noexcept override { return "sc_out"; }

  void write(const T& value) {
    if (signal_ == nullptr) throw util::LogicError("sc_out " + name() + ": write before bind");
    signal_->write(value);
  }

  const T& read() const {
    if (signal_ == nullptr) throw util::LogicError("sc_out " + name() + ": read before bind");
    return signal_->read();
  }

  sc_event& value_changed_event() {
    util::require(bound(), "sc_out " + name() + ": unbound");
    return signal_->value_changed_event();
  }
  sc_event& default_event() { return value_changed_event(); }

  event_finder value_changed() {
    return {[this]() -> sc_event& { return value_changed_event(); }};
  }
  event_finder default_event_finder() { return value_changed(); }

  void on_elaboration() override {
    util::require(bound(), "sc_out " + name() + ": left unbound at elaboration");
  }

 private:
  sc_signal<T>* signal_ = nullptr;
};

}  // namespace nisc::sysc
