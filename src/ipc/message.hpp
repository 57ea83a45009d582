// Driver-Kernel co-simulation message protocol (paper §4.2).
//
// Messages exchanged between the device driver in the OS running on the ISS
// and the SystemC kernel carry: Packet Size, Type (READ or WRITE), and a
// sequence of (DataSize_i, Data_i, SCPort_i) triples naming the iss_in /
// iss_out ports involved. We add two frame types the paper describes in
// prose but does not name: ReadReply (kernel -> driver, the data answering a
// READ) and Interrupt (kernel -> driver on the dedicated interrupt socket).
//
// Wire format (all integers little-endian, written and read with
// util::ByteWriter / util::ByteReader):
//   u32 packet_size      -- bytes following this field
//   u8  type             -- MsgType
//   u16 item_count
//   repeated item_count times:
//     u16 port_len, port bytes (SCPort_i)
//     u32 data_size, data bytes (DataSize_i, Data_i; empty for READ requests)
//
// This module owns the framing rule: cut_message_frame is the one place
// that reads packet_size and bounds it, and recv_message, the frame linter
// and the conformance monitor all cut frames with it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ipc/channel.hpp"
#include "util/error.hpp"

namespace nisc::ipc {

enum class MsgType : std::uint8_t {
  Read = 0,       ///< driver asks the kernel for the value of iss_out ports
  Write = 1,      ///< driver pushes data into iss_in ports
  ReadReply = 2,  ///< kernel answers a Read with the port values
  Interrupt = 3,  ///< kernel notifies the driver of a device interrupt
};

const char* msg_type_name(MsgType type) noexcept;

/// One (SCPort, Data) element of a message.
struct MsgItem {
  std::string port;                ///< SystemC port name (SCPort_i)
  std::vector<std::uint8_t> data;  ///< payload (DataSize_i bytes)

  bool operator==(const MsgItem&) const = default;
};

/// A complete driver<->kernel message.
struct DriverMessage {
  MsgType type = MsgType::Read;
  std::vector<MsgItem> items;

  bool operator==(const DriverMessage&) const = default;

  /// Convenience: WRITE of one 32-bit little-endian word to `port`.
  static DriverMessage write_u32(const std::string& port, std::uint32_t value);
  /// Convenience: READ request for one port.
  static DriverMessage read_request(const std::string& port);
  /// Convenience: interrupt notification for IRQ line `irq`.
  static DriverMessage interrupt(std::uint32_t irq);

  /// For Interrupt messages: decodes the IRQ number; nullopt otherwise.
  std::optional<std::uint32_t> irq() const;
};

/// Serializes the message to its wire format.
std::vector<std::uint8_t> encode_message(const DriverMessage& msg);

/// Parses one message from `bytes` (which must be exactly one frame *body*,
/// i.e. without the leading packet_size field).
util::Result<DriverMessage> decode_message_body(std::span<const std::uint8_t> body);

/// What a frame cutter found at the front of a byte buffer.
enum class FrameCut : std::uint8_t {
  Whole,        ///< a whole frame is there
  ShortLength,  ///< the buffer ends inside the 4-byte length field
  ShortBody,    ///< the buffer ends inside the body
  BadLength,    ///< the length field is out of bounds: the stream lost its framing
};

/// One Driver-Kernel frame at the front of a byte buffer.
struct MessageFrameView {
  FrameCut cut = FrameCut::ShortLength;
  std::uint32_t length = 0;            ///< packet_size; read unless ShortLength
  std::span<const std::uint8_t> body;  ///< the frame body when Whole

  /// Bytes the frame takes, length field included.
  std::size_t size() const noexcept { return 4 + std::size_t{length}; }
};

/// Cuts the first frame off `bytes` (packet_size must not exceed
/// kMaxMessageBody). Does not decode the body: see decode_message_body.
MessageFrameView cut_message_frame(std::span<const std::uint8_t> bytes) noexcept;

/// Writes one framed message to the channel.
void send_message(Channel& channel, const DriverMessage& msg);

/// Blocking read of one framed message.
DriverMessage recv_message(Channel& channel);

/// Non-blocking probe: returns a message only if one has started arriving
/// (then blocks for its remainder — senders write whole frames atomically).
std::optional<DriverMessage> try_recv_message(Channel& channel);

/// Upper bound on accepted frame bodies; guards against corrupt size fields.
inline constexpr std::uint32_t kMaxMessageBody = 16u << 20;

}  // namespace nisc::ipc
