#include "router/packet.hpp"

#include <algorithm>

#include "util/checksum.hpp"

namespace nisc::router {

std::array<std::uint32_t, kWireWords> Packet::wire_words() const noexcept {
  std::array<std::uint32_t, kWireWords> words{};
  words[0] = static_cast<std::uint32_t>(src) | (static_cast<std::uint32_t>(dst) << 8);
  words[1] = id;
  std::copy(payload.begin(), payload.end(), words.begin() + 2);
  return words;
}

std::vector<std::uint8_t> Packet::checksum_bytes() const {
  auto words = wire_words();
  std::vector<std::uint8_t> bytes;
  bytes.reserve(kWireWords * 4);
  for (std::uint32_t w : words) {
    bytes.push_back(static_cast<std::uint8_t>(w));
    bytes.push_back(static_cast<std::uint8_t>(w >> 8));
    bytes.push_back(static_cast<std::uint8_t>(w >> 16));
    bytes.push_back(static_cast<std::uint8_t>(w >> 24));
  }
  return bytes;
}

std::uint32_t Packet::golden_checksum() const noexcept {
  auto bytes = checksum_bytes();
  return util::word_sum32(bytes);
}

PacketWire to_wire(const Packet& packet) noexcept {
  PacketWire wire{};
  auto words = packet.wire_words();
  for (int i = 0; i < kWireWords; ++i) wire.words[i] = words[static_cast<std::size_t>(i)];
  return wire;
}

}  // namespace nisc::router
