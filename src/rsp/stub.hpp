// Target-side GDB stub: serves the remote debugging interface for an ISS.
//
// This is the "any ISS that can communicate with gdb can join the
// co-simulation" half of the paper's standardized interface (after Benini
// et al. [14]): the SystemC side talks RSP, the stub translates to ISS
// operations. Supported packets:
//
//   ?                halt reason              g / G        all registers
//   p<n> / P<n>=<v>  single register          m / M        memory
//   Z0/z0            sw breakpoints           Z2/z2        write watchpoints
//   c / s            continue / step          k            kill (ends the stub)
//   qSupported, qAttached, H..., D            handshaking odds and ends
//
// The stub is passive: whoever hosts it calls poll(), which handles the
// pending packets and, while the CPU runs (after 'c'), executes quantum
// slices. An optional throttle callback meters instructions (the
// co-simulation layer uses it to bind ISS progress to SystemC time), and the
// 0x03 interrupt byte halts the target.
#pragma once

#include <cstdint>
#include <functional>

#include "ipc/channel.hpp"
#include "iss/cpu.hpp"
#include "rsp/packet.hpp"

namespace nisc::rsp {

struct StubOptions {
  /// Instructions per continue-slice between transport polls.
  std::uint64_t quantum = 4096;
  /// Optional throttle: given the desired instruction count, returns how
  /// many the CPU may execute now (0: none yet). Used for time correlation.
  std::function<std::uint64_t(std::uint64_t)> acquire_quantum;
  /// Optional run-state notification: called with true when the target
  /// starts free-running ('c') and false when it halts. The co-simulation
  /// layer uses it to mark the CPU's time allowance idle while halted.
  std::function<void(bool running)> on_run_state;
};

/// Statistics exposed for benchmarks/tests.
struct StubStats {
  std::uint64_t packets_handled = 0;
  std::uint64_t stop_replies = 0;
  std::uint64_t continue_slices = 0;
};

class GdbStub {
 public:
  GdbStub(iss::Cpu& cpu, ipc::Channel channel, StubOptions options = {});

  /// One step, never blocking: checks the transport once (readable(0),
  /// then a read), handles every complete packet, and while the CPU runs
  /// executes slices for as long as the throttle grants instructions (one
  /// slice when there is no throttle). Returns true when it handled a
  /// packet or ran a slice.
  bool poll();

  /// True once the stub ended: 'k' (kill), 'D' (detach), or a transport
  /// EOF/error. Later polls do nothing.
  bool done() const noexcept { return done_; }

  /// True while the CPU free-runs after 'c'.
  bool running() const noexcept { return state_ == State::Running; }

  /// True while bytes from the client sit unread on the transport
  /// (ipc::Channel::input_waiting: past any fault plan, so a suppressed poll
  /// cannot hide them).
  bool input_pending();

  const StubStats& stats() const noexcept { return stats_; }

 private:
  enum class State : std::uint8_t { Halted, Running };

  void pump_transport();
  void handle_event(const RspEvent& event);
  void handle_packet(const std::string& payload);
  /// Returns false when the throttle granted no instructions.
  bool run_slice();
  void send_packet(const std::string& payload);
  void send_stop_reply(iss::Halt halt);

  std::string cmd_read_registers();
  std::string cmd_write_registers(std::string_view args);
  std::string cmd_read_register(std::string_view args);
  std::string cmd_write_register(std::string_view args);
  std::string cmd_read_memory(std::string_view args);
  std::string cmd_write_memory(std::string_view args);
  std::string cmd_breakpoint(char op, std::string_view args);

  iss::Cpu& cpu_;
  ipc::Channel channel_;
  StubOptions options_;
  PacketReader reader_;
  State state_ = State::Halted;
  bool done_ = false;
  std::string last_frame_;  // for Nak retransmission
  StubStats stats_;
};

}  // namespace nisc::rsp
