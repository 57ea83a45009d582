#include "rsp/stub.hpp"

#include <charconv>

#include "util/hex.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace nisc::rsp {
namespace {

constexpr int kRegCount = 33;  // x0..x31 + pc
constexpr int kPcRegNum = 32;

std::optional<std::uint64_t> parse_hex(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value, 16);
  if (ec != std::errc() || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

}  // namespace

GdbStub::GdbStub(iss::Cpu& cpu, ipc::Channel channel) : cpu_(cpu), channel_(std::move(channel)) {}

bool GdbStub::poll() {
  if (done_) return false;
  bool progressed = false;
  try {
    pump_transport();
    while (!done_) {
      auto event = reader_.next();
      if (!event) break;
      handle_event(*event);
      progressed = true;
    }
  } catch (const util::RuntimeError&) {
    done_ = true;  // peer gone, or a fault cut the transport mid-reply
  }
  return progressed;
}

void GdbStub::pump_transport() {
  // readable() first, so a fault plan's EAGAIN storm on this endpoint bites
  // the way it bites a poll(2)-driven stub.
  if (!channel_.readable(0)) return;
  std::uint8_t buf[512];
  std::size_t n = channel_.recv_some(buf);
  if (n > 0) reader_.feed(std::span<const std::uint8_t>(buf, n));
}

void GdbStub::handle_event(const RspEvent& event) {
  switch (event.kind) {
    case RspEventKind::Packet:
      // Acknowledge then execute.
      channel_.send_str("+");
      handle_packet(event.payload);
      break;
    case RspEventKind::Ack:
      break;  // our last reply arrived
    case RspEventKind::Nak:
      if (!last_frame_.empty()) channel_.send_str(last_frame_);
      break;
    case RspEventKind::Interrupt:
      if (state_ == State::Running) {
        state_ = State::Halted;
        send_packet("S02");  // SIGINT
      }
      break;
  }
}

void GdbStub::send_packet(const std::string& payload) {
  last_frame_ = frame_packet(payload);
  channel_.send_str(last_frame_);
}

void GdbStub::send_stop_reply(iss::Halt halt) {
  // T-packets carry the pc (register 0x20) so clients avoid a read-pc
  // round trip per stop — real gdb stubs expedite registers the same way.
  const std::string pc_pair = "20:" + util::hex_encode_u32_le(cpu_.pc()) + ";";
  switch (halt) {
    case iss::Halt::Watchpoint: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "T05watch:%x;", cpu_.watch_hit_addr());
      send_packet(buf + pc_pair);
      return;
    }
    case iss::Halt::IllegalInstruction:
      send_packet("T04" + pc_pair);  // SIGILL
      return;
    case iss::Halt::MemoryFault:
      send_packet("T0b" + pc_pair);  // SIGSEGV
      return;
    default:
      send_packet("T05" + pc_pair);  // SIGTRAP
      return;
  }
}

bool GdbStub::run_slice(std::uint64_t max_instructions) {
  if (done_ || state_ != State::Running) return false;
  const iss::Halt halt = cpu_.run(max_instructions);
  if (halt == iss::Halt::Quantum) return true;  // keep running next slice
  state_ = State::Halted;
  try {
    send_stop_reply(halt);
  } catch (const util::RuntimeError&) {
    done_ = true;  // peer gone, or a fault cut the transport mid-reply
  }
  return true;
}

void GdbStub::handle_packet(const std::string& payload) {
  ++stats_.packets_handled;
  if (payload.empty()) {
    send_packet("");
    return;
  }
  const char cmd = payload[0];
  std::string_view args = std::string_view(payload).substr(1);
  switch (cmd) {
    case '?':
      send_packet("S05");
      return;
    case 'g':
      send_packet(cmd_read_registers());
      return;
    case 'G':
      send_packet(cmd_write_registers(args));
      return;
    case 'p':
      send_packet(cmd_read_register(args));
      return;
    case 'P':
      send_packet(cmd_write_register(args));
      return;
    case 'm':
      send_packet(cmd_read_memory(args));
      return;
    case 'M':
      send_packet(cmd_write_memory(args));
      return;
    case 'Z':
    case 'z':
      send_packet(cmd_breakpoint(cmd, args));
      return;
    case 'c': {
      if (!args.empty()) {
        if (auto addr = parse_hex(args)) cpu_.set_pc(static_cast<std::uint32_t>(*addr));
      }
      state_ = State::Running;
      return;  // reply (stop packet) is deferred until the CPU halts
    }
    case 's': {
      if (!args.empty()) {
        if (auto addr = parse_hex(args)) cpu_.set_pc(static_cast<std::uint32_t>(*addr));
      }
      iss::Halt halt = cpu_.step();
      send_stop_reply(halt == iss::Halt::None ? iss::Halt::Ebreak : halt);
      return;
    }
    case 'k':
    case 'D':
      done_ = true;
      if (cmd == 'D') send_packet("OK");
      return;
    case 'H':
      send_packet("OK");  // thread ops: single-threaded target
      return;
    case 'q':
      if (util::starts_with(args, "Supported")) {
        send_packet("PacketSize=4000");
      } else if (args == "Attached") {
        send_packet("1");
      } else if (util::starts_with(args, "nisc.run:")) {
        // Vendor packet: synchronously run up to <hex n> instructions and
        // reply with a stop packet (T00 = quantum exhausted, still running).
        // This is the lock-step primitive of wrapper-style co-simulation:
        // one blocking round trip per simulation cycle.
        auto n = parse_hex(args.substr(9));
        if (!n) {
          send_packet("E01");
          return;
        }
        iss::Halt halt = cpu_.run(*n);
        if (halt == iss::Halt::Quantum) {
          send_packet("T00" + std::string("20:") + util::hex_encode_u32_le(cpu_.pc()) + ";");
        } else {
          send_stop_reply(halt);
        }
      } else {
        send_packet("");
      }
      return;
    default:
      send_packet("");  // unsupported
      return;
  }
}

std::string GdbStub::cmd_read_registers() {
  std::string out;
  out.reserve(kRegCount * 8);
  for (std::uint8_t i = 0; i < 32; ++i) out += util::hex_encode_u32_le(cpu_.reg(i));
  out += util::hex_encode_u32_le(cpu_.pc());
  return out;
}

std::string GdbStub::cmd_write_registers(std::string_view args) {
  if (args.size() != kRegCount * 8) return "E01";
  for (int i = 0; i < kRegCount; ++i) {
    auto value = util::hex_decode_u32_le(args.substr(static_cast<std::size_t>(i) * 8, 8));
    if (!value.ok()) return "E01";
    if (i == kPcRegNum) {
      cpu_.set_pc(value.value());
    } else {
      cpu_.set_reg(static_cast<std::uint8_t>(i), value.value());
    }
  }
  return "OK";
}

std::string GdbStub::cmd_read_register(std::string_view args) {
  auto n = parse_hex(args);
  if (!n || *n >= kRegCount) return "E01";
  if (*n == kPcRegNum) return util::hex_encode_u32_le(cpu_.pc());
  return util::hex_encode_u32_le(cpu_.reg(static_cast<std::uint8_t>(*n)));
}

std::string GdbStub::cmd_write_register(std::string_view args) {
  std::size_t eq = args.find('=');
  if (eq == std::string_view::npos) return "E01";
  auto n = parse_hex(args.substr(0, eq));
  auto value = util::hex_decode_u32_le(args.substr(eq + 1));
  if (!n || *n >= kRegCount || !value.ok()) return "E01";
  if (*n == kPcRegNum) {
    cpu_.set_pc(value.value());
  } else {
    cpu_.set_reg(static_cast<std::uint8_t>(*n), value.value());
  }
  return "OK";
}

std::string GdbStub::cmd_read_memory(std::string_view args) {
  std::size_t comma = args.find(',');
  if (comma == std::string_view::npos) return "E01";
  auto addr = parse_hex(args.substr(0, comma));
  auto len = parse_hex(args.substr(comma + 1));
  if (!addr || !len) return "E01";
  try {
    auto bytes = cpu_.mem().read_block(static_cast<std::uint32_t>(*addr), *len);
    return util::hex_encode(bytes);
  } catch (const util::RuntimeError&) {
    return "E0e";
  }
}

std::string GdbStub::cmd_write_memory(std::string_view args) {
  std::size_t comma = args.find(',');
  std::size_t colon = args.find(':');
  if (comma == std::string_view::npos || colon == std::string_view::npos || colon < comma) {
    return "E01";
  }
  auto addr = parse_hex(args.substr(0, comma));
  auto len = parse_hex(args.substr(comma + 1, colon - comma - 1));
  auto bytes = util::hex_decode(args.substr(colon + 1));
  if (!addr || !len || !bytes.ok() || bytes.value().size() != *len) return "E01";
  try {
    cpu_.mem().write_block(static_cast<std::uint32_t>(*addr), bytes.value());
    return "OK";
  } catch (const util::RuntimeError&) {
    return "E0e";
  }
}

std::string GdbStub::cmd_breakpoint(char op, std::string_view args) {
  auto parts = util::split(args, ',');
  if (parts.size() < 2) return "E01";
  const std::string_view type = parts[0];
  auto addr = parse_hex(parts[1]);
  if (!addr) return "E01";
  if (type == "0" || type == "1") {  // sw/hw breakpoint: same mechanism here
    if (op == 'Z') {
      cpu_.add_breakpoint(static_cast<std::uint32_t>(*addr));
    } else {
      cpu_.remove_breakpoint(static_cast<std::uint32_t>(*addr));
    }
    return "OK";
  }
  if (type == "2") {  // write watchpoint
    std::uint64_t len = 4;
    if (parts.size() >= 3) {
      if (auto parsed = parse_hex(parts[2])) len = *parsed;
    }
    if (op == 'Z') {
      cpu_.add_watchpoint(static_cast<std::uint32_t>(*addr), static_cast<std::uint32_t>(len));
    } else {
      cpu_.remove_watchpoint(static_cast<std::uint32_t>(*addr));
    }
    return "OK";
  }
  return "";  // unsupported watchpoint flavor
}

}  // namespace nisc::rsp
