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
// pending packets, and, while the CPU runs (after 'c'), run_slice(), which
// executes one slice of the host's choosing. The host decides how many
// slices to run (the co-simulation layer pays for each against SystemC
// time), and the 0x03 interrupt byte halts the target. A host that wants to
// know whether a halted stub has a request to handle reads the stub's wire
// end (channel().has_news(), then input_waiting()).
#pragma once

#include <cstdint>

#include "ipc/channel.hpp"
#include "iss/cpu.hpp"
#include "rsp/packet.hpp"

namespace nisc::rsp {

/// Statistics exposed for benchmarks/tests.
struct StubStats {
  std::uint64_t packets_handled = 0;
};

class GdbStub {
 public:
  GdbStub(iss::Cpu& cpu, ipc::Channel channel);

  /// One step, never blocking: checks the transport once (readable(0),
  /// then a read) and handles every complete packet. Returns true when it
  /// handled a packet.
  bool poll();

  /// While the CPU runs, executes up to `max_instructions` and sends the
  /// stop reply if the guest halted. Returns true when it ran a slice.
  bool run_slice(std::uint64_t max_instructions);

  /// True once the stub ended: 'k' (kill), 'D' (detach), or a transport
  /// EOF/error. Later polls do nothing.
  bool done() const noexcept { return done_; }

  /// True while the CPU free-runs after 'c'.
  bool running() const noexcept { return state_ == State::Running; }

  /// The stub's end of the transport.
  ipc::Channel& channel() noexcept { return channel_; }

  const StubStats& stats() const noexcept { return stats_; }

 private:
  enum class State : std::uint8_t { Halted, Running };

  void pump_transport();
  void handle_event(const RspEvent& event);
  void handle_packet(const std::string& payload);
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
  PacketReader reader_;
  State state_ = State::Halted;
  bool done_ = false;
  std::string last_frame_;  // for Nak retransmission
  StubStats stats_;
};

}  // namespace nisc::rsp
