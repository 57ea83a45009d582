// Host-side GDB RSP client.
//
// The SystemC-side wrappers drive the ISS through this class, exactly as
// the paper's schemes drive gdb: set breakpoints on guest variables, read
// and write guest memory/registers, continue, and poll (non-blockingly, at
// the start of each simulation cycle) whether the target stopped.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ipc/channel.hpp"
#include "rsp/packet.hpp"

namespace nisc::rsp {

/// A target stop notification (GDB "T"/"S" stop-reply).
struct StopReply {
  int signal = 0;                          ///< e.g. 5 = SIGTRAP
  std::optional<std::uint32_t> watch_addr; ///< set for watchpoint stops
  std::optional<std::uint32_t> pc;         ///< expedited pc (T-packets)
};

/// Client statistics (for the Table 1 / ablation benchmarks).
struct ClientStats {
  std::uint64_t transactions = 0;   ///< synchronous request/replies
  std::uint64_t continues = 0;
  std::uint64_t stop_polls = 0;     ///< non-blocking stop checks
  std::uint64_t stops_received = 0;
};

class GdbClient {
 public:
  /// When the stub runs on this thread, its step is the channel's inline
  /// peer (ipc::Channel::set_inline_peer): every wait steps the stub, and a
  /// stub that goes idle without replying counts as dead.
  explicit GdbClient(ipc::Channel channel);

  // -- raw protocol ---------------------------------------------------------

  /// Sends a command and waits for its reply (handles acks/retransmits).
  /// Throws RuntimeError naming the unanswered request when the stub goes
  /// idle without replying. Must not be called while the target is running.
  std::string transact(const std::string& payload);

  // -- typed helpers ----------------------------------------------------------

  std::vector<std::uint32_t> read_registers();  ///< x0..x31 then pc
  std::uint32_t read_register(int regnum);
  void write_register(int regnum, std::uint32_t value);
  std::uint32_t read_pc() { return read_register(32); }
  void write_pc(std::uint32_t pc) { write_register(32, pc); }

  std::vector<std::uint8_t> read_memory(std::uint32_t addr, std::size_t len);
  void write_memory(std::uint32_t addr, std::span<const std::uint8_t> bytes);
  std::uint32_t read_u32(std::uint32_t addr);
  void write_u32(std::uint32_t addr, std::uint32_t value);

  void set_breakpoint(std::uint32_t addr);
  void remove_breakpoint(std::uint32_t addr);
  void set_watchpoint(std::uint32_t addr, std::uint32_t len);
  void remove_watchpoint(std::uint32_t addr, std::uint32_t len);

  // -- execution control --------------------------------------------------------

  /// Sends 'c'; the target runs until it stops. Use poll_stop()/wait_stop().
  void cont();

  /// True between cont() and the matching stop reply.
  bool running() const noexcept { return running_; }

  /// Non-blocking: has a stop reply arrived? (The paper's Fig. 3 check "GDB
  /// stopped at breakpoint?" implemented over the IPC channel.) Only S, T, W
  /// and X packets are stops; any other packet throws RuntimeError.
  std::optional<StopReply> poll_stop();

  /// Waits until the target stops, stepping an in-process peer meanwhile
  /// (see ipc::Channel::set_inline_peer). Returns nullopt when that peer goes
  /// idle without stopping; throws like poll_stop on a non-stop packet.
  std::optional<StopReply> wait_stop();

  /// Single-steps and returns the stop reply.
  StopReply step();

  /// Synchronously runs up to `max_instructions` on the target (vendor
  /// packet qnisc.run). signal == 0 in the reply means the quantum was
  /// exhausted without a halt. One blocking round trip: the lock-step
  /// synchronization primitive of wrapper-style co-simulation.
  StopReply run_quantum(std::uint64_t max_instructions);

  /// Sends the 0x03 interrupt byte to halt a running target.
  void interrupt();

  /// Asks the stub to exit ('k'); no reply expected.
  void kill();

  const ClientStats& stats() const noexcept { return stats_; }

  /// The underlying transport (e.g. to reach an attached WireCapture).
  ipc::Channel& channel() noexcept { return channel_; }
  const ipc::Channel& channel() const noexcept { return channel_; }

 private:
  void send_frame(const std::string& payload);
  /// Feeds whatever the transport holds now to the packet reader; false
  /// when it held nothing.
  bool pump();
  /// Reads first; only when nothing is there does it wait, stepping an
  /// in-process stub, and read again. False when the stub went idle.
  bool fill();
  std::string await_reply();
  /// Acks a packet received while running and returns it as the stop.
  StopReply take_stop(const std::string& payload);
  static StopReply parse_stop(const std::string& payload);

  ipc::Channel channel_;
  PacketReader reader_;
  bool running_ = false;
  std::string last_frame_;
  ClientStats stats_;
};

}  // namespace nisc::rsp
