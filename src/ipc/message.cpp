#include "ipc/message.hpp"

#include <algorithm>

#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"

namespace nisc::ipc {

using util::Result;
using util::RuntimeError;

const char* msg_type_name(MsgType type) noexcept {
  switch (type) {
    case MsgType::Read: return "READ";
    case MsgType::Write: return "WRITE";
    case MsgType::ReadReply: return "READ-REPLY";
    case MsgType::Interrupt: return "INTERRUPT";
  }
  return "?";
}

DriverMessage DriverMessage::write_u32(const std::string& port, std::uint32_t value) {
  DriverMessage msg;
  msg.type = MsgType::Write;
  MsgItem item;
  item.port = port;
  item.data.resize(4);
  util::write_le(item.data, 4, value);
  msg.items.push_back(std::move(item));
  return msg;
}

DriverMessage DriverMessage::read_request(const std::string& port) {
  DriverMessage msg;
  msg.type = MsgType::Read;
  msg.items.push_back(MsgItem{port, {}});
  return msg;
}

DriverMessage DriverMessage::interrupt(std::uint32_t irq) {
  DriverMessage msg;
  msg.type = MsgType::Interrupt;
  MsgItem item;
  item.port = "irq";
  item.data.resize(4);
  util::write_le(item.data, 4, irq);
  msg.items.push_back(std::move(item));
  return msg;
}

std::optional<std::uint32_t> DriverMessage::irq() const {
  if (type != MsgType::Interrupt || items.size() != 1 || items[0].data.size() != 4) {
    return std::nullopt;
  }
  return util::read_le(items[0].data, 4);
}

std::vector<std::uint8_t> encode_message(const DriverMessage& msg) {
  util::require(msg.items.size() <= 0xFFFF, "encode_message: too many items");
  util::ByteWriter w;
  w.u32(0);  // packet_size, patched below
  w.u8(static_cast<std::uint8_t>(msg.type));
  w.u16(static_cast<std::uint16_t>(msg.items.size()));
  for (const MsgItem& item : msg.items) {
    util::require(item.port.size() <= 0xFFFF, "encode_message: port name too long");
    w.str(item.port);
    w.blob(item.data);
  }
  std::vector<std::uint8_t> frame = w.take();
  util::write_le(frame, 4, static_cast<std::uint32_t>(frame.size() - 4));
  return frame;
}

Result<DriverMessage> decode_message_body(std::span<const std::uint8_t> body) {
  auto fail = [](const char* why) { return Result<DriverMessage>::failure(why); };
  util::ByteReader r(body, "message body");
  if (r.remaining() < 3) return fail("decode_message: truncated header");
  const std::uint8_t raw_type = r.u8();
  if (raw_type > static_cast<std::uint8_t>(MsgType::Interrupt)) {
    return fail("decode_message: unknown type");
  }
  DriverMessage msg;
  msg.type = static_cast<MsgType>(raw_type);
  const std::uint16_t count = r.u16();
  msg.items.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    if (r.remaining() < 2) return fail("decode_message: truncated port length");
    const std::uint16_t port_len = r.u16();
    if (r.remaining() < port_len) return fail("decode_message: truncated port name");
    MsgItem item;
    item.port = r.chars(port_len);
    if (r.remaining() < 4) return fail("decode_message: truncated data size");
    const std::uint32_t data_size = r.u32();
    if (data_size > kMaxMessageBody || r.remaining() < data_size) {
      return fail("decode_message: truncated data");
    }
    item.data = r.bytes(data_size);
    msg.items.push_back(std::move(item));
  }
  if (!r.done()) return fail("decode_message: trailing bytes");
  return msg;
}

MessageFrameView cut_message_frame(std::span<const std::uint8_t> bytes) noexcept {
  MessageFrameView frame;
  if (bytes.size() < 4) return frame;
  frame.length = util::load_le<std::uint32_t>(bytes.data());
  if (frame.length > kMaxMessageBody) {
    frame.cut = FrameCut::BadLength;
  } else if (bytes.size() < frame.size()) {
    frame.cut = FrameCut::ShortBody;
  } else {
    frame.cut = FrameCut::Whole;
    frame.body = bytes.subspan(4, frame.length);
  }
  return frame;
}

void send_message(Channel& channel, const DriverMessage& msg) {
  channel.send(encode_message(msg));
}

DriverMessage recv_message(Channel& channel) {
  std::uint8_t head[4];
  channel.recv_exact(head);
  MessageFrameView frame = cut_message_frame(head);
  if (frame.cut == FrameCut::BadLength) throw RuntimeError("recv_message: oversized frame");
  std::vector<std::uint8_t> bytes(frame.size());
  std::copy(std::begin(head), std::end(head), bytes.begin());
  if (frame.length > 0) channel.recv_exact(std::span(bytes).subspan(4));
  frame = cut_message_frame(bytes);
  auto msg = decode_message_body(frame.body);
  if (!msg.ok()) throw RuntimeError(msg.error());
  return std::move(msg).value();
}

std::optional<DriverMessage> try_recv_message(Channel& channel) {
  if (!channel.readable(0)) return std::nullopt;
  return recv_message(channel);
}

}  // namespace nisc::ipc
