#include "rsp/client.hpp"

#include <cstdio>

#include "util/error.hpp"
#include "util/hex.hpp"
#include "util/strings.hpp"

namespace nisc::rsp {

using util::RuntimeError;

GdbClient::GdbClient(ipc::Channel channel) : channel_(std::move(channel)) {}

void GdbClient::send_frame(const std::string& payload) {
  last_frame_ = frame_packet(payload);
  channel_.send_str(last_frame_);
}

bool GdbClient::pump() {
  std::uint8_t buf[512];
  std::size_t n = channel_.recv_some(buf);
  if (n > 0) reader_.feed(std::span<const std::uint8_t>(buf, n));
  return n > 0;
}

bool GdbClient::fill() {
  if (pump()) return true;
  if (!channel_.readable(-1)) return false;
  pump();
  return true;
}

std::string GdbClient::await_reply() {
  for (;;) {
    while (auto event = reader_.next()) {
      switch (event->kind) {
        case RspEventKind::Packet:
          channel_.send_str("+");
          return event->payload;
        case RspEventKind::Ack:
          break;  // our request arrived intact
        case RspEventKind::Nak:
          channel_.send_str(last_frame_);
          break;
        case RspEventKind::Interrupt:
          break;  // not expected on the client side
      }
    }
    // The wait steps an in-process stub; one that goes idle will not reply.
    if (!fill()) {
      throw RuntimeError("GdbClient: no reply to " + last_frame_ + ": the stub went idle");
    }
  }
}

std::string GdbClient::transact(const std::string& payload) {
  util::require(!running_, "GdbClient::transact while target is running");
  ++stats_.transactions;
  send_frame(payload);
  return await_reply();
}

std::vector<std::uint32_t> GdbClient::read_registers() {
  std::string reply = transact("g");
  if (reply.size() != 33 * 8) throw RuntimeError("read_registers: bad reply " + reply);
  std::vector<std::uint32_t> regs(33);
  for (std::size_t i = 0; i < 33; ++i) {
    auto value = util::hex_decode_u32_le(std::string_view(reply).substr(i * 8, 8));
    if (!value.ok()) throw RuntimeError("read_registers: bad hex");
    regs[i] = value.value();
  }
  return regs;
}

std::uint32_t GdbClient::read_register(int regnum) {
  char cmd[16];
  std::snprintf(cmd, sizeof(cmd), "p%x", regnum);
  std::string reply = transact(cmd);
  auto value = util::hex_decode_u32_le(reply);
  if (!value.ok()) throw RuntimeError("read_register: bad reply " + reply);
  return value.value();
}

void GdbClient::write_register(int regnum, std::uint32_t value) {
  char cmd[32];
  std::snprintf(cmd, sizeof(cmd), "P%x=%s", regnum, util::hex_encode_u32_le(value).c_str());
  if (transact(cmd) != "OK") throw RuntimeError("write_register failed");
}

std::vector<std::uint8_t> GdbClient::read_memory(std::uint32_t addr, std::size_t len) {
  char cmd[48];
  std::snprintf(cmd, sizeof(cmd), "m%x,%zx", addr, len);
  std::string reply = transact(cmd);
  auto bytes = util::hex_decode(reply);
  if (!bytes.ok() || bytes.value().size() != len) {
    throw RuntimeError("read_memory: bad reply " + reply);
  }
  return std::move(bytes).value();
}

void GdbClient::write_memory(std::uint32_t addr, std::span<const std::uint8_t> bytes) {
  char head[48];
  std::snprintf(head, sizeof(head), "M%x,%zx:", addr, bytes.size());
  std::string cmd = head + util::hex_encode(bytes);
  if (transact(cmd) != "OK") throw RuntimeError("write_memory failed");
}

std::uint32_t GdbClient::read_u32(std::uint32_t addr) {
  auto bytes = read_memory(addr, 4);
  return util::read_le(bytes, 4);
}

void GdbClient::write_u32(std::uint32_t addr, std::uint32_t value) {
  std::uint8_t bytes[4];
  util::write_le(bytes, 4, value);
  write_memory(addr, bytes);
}

void GdbClient::set_breakpoint(std::uint32_t addr) {
  char cmd[32];
  std::snprintf(cmd, sizeof(cmd), "Z0,%x,4", addr);
  if (transact(cmd) != "OK") throw RuntimeError("set_breakpoint failed");
}

void GdbClient::remove_breakpoint(std::uint32_t addr) {
  char cmd[32];
  std::snprintf(cmd, sizeof(cmd), "z0,%x,4", addr);
  if (transact(cmd) != "OK") throw RuntimeError("remove_breakpoint failed");
}

void GdbClient::set_watchpoint(std::uint32_t addr, std::uint32_t len) {
  char cmd[32];
  std::snprintf(cmd, sizeof(cmd), "Z2,%x,%x", addr, len);
  if (transact(cmd) != "OK") throw RuntimeError("set_watchpoint failed");
}

void GdbClient::remove_watchpoint(std::uint32_t addr, std::uint32_t len) {
  char cmd[32];
  std::snprintf(cmd, sizeof(cmd), "z2,%x,%x", addr, len);
  if (transact(cmd) != "OK") throw RuntimeError("remove_watchpoint failed");
}

void GdbClient::cont() {
  util::require(!running_, "GdbClient::cont while already running");
  ++stats_.continues;
  send_frame("c");
  running_ = true;
}

StopReply GdbClient::parse_stop(const std::string& payload) {
  // Only stop packets end a continue: S/T (signal), W (exited), X (killed).
  // Anything else here is a stray reply — a duplicated "OK", an error or an
  // empty packet — and reading it as a stop would leave the extension
  // talking to a target that is still running.
  if (payload.empty() || std::string_view("STWX").find(payload[0]) == std::string_view::npos) {
    throw RuntimeError("GdbClient: expected a stop reply, got '" + payload + "'");
  }
  StopReply stop;
  if (payload.size() >= 3) {
    int hi = util::hex_value(payload[1]);
    int lo = util::hex_value(payload[2]);
    if (hi >= 0 && lo >= 0) stop.signal = (hi << 4) | lo;
  }
  std::size_t pc_pair = payload.find("20:");
  if (payload.size() >= 3 && payload[0] == 'T' && pc_pair != std::string::npos) {
    auto value = util::hex_decode_u32_le(std::string_view(payload).substr(pc_pair + 3, 8));
    if (value.ok()) stop.pc = value.value();
  }
  std::size_t watch = payload.find("watch:");
  if (watch != std::string::npos) {
    std::size_t semi = payload.find(';', watch);
    std::string hex = payload.substr(watch + 6, semi == std::string::npos ? std::string::npos
                                                                          : semi - watch - 6);
    std::uint32_t addr = 0;
    for (char c : hex) {
      int v = util::hex_value(c);
      if (v < 0) break;
      addr = (addr << 4) | static_cast<std::uint32_t>(v);
    }
    stop.watch_addr = addr;
  }
  return stop;
}

StopReply GdbClient::take_stop(const std::string& payload) {
  channel_.send_str("+");
  StopReply stop = parse_stop(payload);  // throws on a stray reply: still running
  running_ = false;
  ++stats_.stops_received;
  return stop;
}

std::optional<StopReply> GdbClient::poll_stop() {
  util::require(running_, "GdbClient::poll_stop while target halted");
  ++stats_.stop_polls;
  pump();
  while (auto event = reader_.next()) {
    if (event->kind == RspEventKind::Packet) return take_stop(event->payload);
    // Acks/Naks between frames are ignored while running.
  }
  return std::nullopt;
}

std::optional<StopReply> GdbClient::wait_stop() {
  util::require(running_, "GdbClient::wait_stop while target halted");
  for (;;) {
    ++stats_.stop_polls;
    while (auto event = reader_.next()) {
      if (event->kind == RspEventKind::Packet) return take_stop(event->payload);
    }
    if (!fill()) return std::nullopt;  // the stub went idle
  }
}

StopReply GdbClient::step() {
  std::string reply = transact("s");
  return parse_stop(reply);
}

StopReply GdbClient::run_quantum(std::uint64_t max_instructions) {
  char cmd[32];
  std::snprintf(cmd, sizeof(cmd), "qnisc.run:%llx",
                static_cast<unsigned long long>(max_instructions));
  std::string reply = transact(cmd);
  if (reply.empty() || (reply[0] != 'T' && reply[0] != 'S')) {
    throw RuntimeError("run_quantum: bad reply " + reply);
  }
  return parse_stop(reply);
}

void GdbClient::interrupt() {
  util::require(running_, "GdbClient::interrupt while target halted");
  channel_.send_str(std::string(1, '\x03'));
}

void GdbClient::kill() {
  send_frame("k");
}

}  // namespace nisc::rsp
