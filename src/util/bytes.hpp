// The byte codec of every binary format in this tree (§4.2 Driver-Kernel
// messages, supervisor<->worker frames, NCKP checkpoints and trace
// snapshots): each is written with ByteWriter and read with ByteReader,
// little-endian.
// The writer appends; the reader checks bounds once per field and throws
// RuntimeError naming the structure being decoded on truncation. A decoder
// that must not throw checks the lengths itself and reads with load_le.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace nisc::util {

static_assert(std::endian::native == std::endian::little,
              "load_le copies wire bytes in host order");

/// The little-endian T in the sizeof(T) bytes at `p`, which the caller has
/// checked exist.
template <typename T>
T load_le(const std::uint8_t* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

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

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
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
  template <typename T>
  T take() {
    need(sizeof(T));
    const T v = load_le<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }
  void need(std::size_t n) {
    if (n > remaining()) [[unlikely]] truncated(n);
  }
  [[noreturn, gnu::cold, gnu::noinline]] void truncated(std::size_t n) const {
    throw RuntimeError(std::string("truncated ") + what_ + " (need " + std::to_string(n) +
                       " bytes, have " + std::to_string(remaining()) + ")");
  }

  std::span<const std::uint8_t> data_;
  const char* what_;
  std::size_t pos_ = 0;
};

}  // namespace nisc::util
