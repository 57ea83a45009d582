// The byte codec of every binary format in this tree (§4.2 Driver-Kernel
// messages, supervisor<->worker frames, NCKP checkpoints and trace
// snapshots): each is written with ByteWriter and read with ByteReader,
// little-endian.
// The writer appends; the reader is bounds-checked and throws RuntimeError
// naming the structure being decoded on truncation. A decoder that must not
// throw checks remaining() before each read.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace nisc::util {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void bytes(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }
  void chars(std::string_view s) { out_.insert(out_.end(), s.begin(), s.end()); }
  /// Length-prefixed (u32) byte blob.
  void blob(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    bytes(data);
  }
  /// Length-prefixed (u16) string.
  void str(std::string_view s) {
    require(s.size() <= 0xFFFF, "byte codec: string too long");
    u16(static_cast<std::uint16_t>(s.size()));
    chars(s);
  }
  /// Length-prefixed (u32) string.
  void str32(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    chars(s);
  }

  std::vector<std::uint8_t> take() { return std::move(out_); }
  const std::vector<std::uint8_t>& data() const { return out_; }

 private:
  std::vector<std::uint8_t> out_;
};

class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> data, const char* what) : data_(data), what_(what) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() {
    std::uint16_t lo = u8();
    return static_cast<std::uint16_t>(lo | (u8() << 8));
  }
  std::uint32_t u32() {
    std::uint32_t lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }
  std::uint64_t u64() {
    std::uint64_t lo = u32();
    return lo | (static_cast<std::uint64_t>(u32()) << 32);
  }
  /// The next `n` bytes, in place.
  std::span<const std::uint8_t> view(std::size_t n) {
    need(n);
    const std::span<const std::uint8_t> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  std::vector<std::uint8_t> bytes(std::size_t n) {
    const std::span<const std::uint8_t> in = view(n);
    return {in.begin(), in.end()};
  }
  std::string chars(std::size_t n) {
    const std::span<const std::uint8_t> in = view(n);
    return {reinterpret_cast<const char*>(in.data()), in.size()};
  }
  std::vector<std::uint8_t> blob() { return bytes(u32()); }
  std::string str() { return chars(u16()); }
  std::string str32() { return chars(u32()); }

  bool done() const noexcept { return pos_ == data_.size(); }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  void need(std::size_t n) {
    if (n > remaining()) {
      throw RuntimeError(std::string("truncated ") + what_ + " (need " + std::to_string(n) +
                         " bytes, have " + std::to_string(remaining()) + ")");
    }
  }

  std::span<const std::uint8_t> data_;
  const char* what_;
  std::size_t pos_ = 0;
};

}  // namespace nisc::util
