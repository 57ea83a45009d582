// Flat little-endian guest memory with bounds checking.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace nisc::iss {

// GCC 12's jump threading duplicates the byte accesses onto the out-of-bounds
// path that check() terminates with a throw, producing -Warray-bounds and
// -Wstringop-overflow reports for code that can never execute (GCC PR106297).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif

/// The ISS's byte-addressed memory. Accesses outside [0, size) throw
/// RuntimeError (the CPU converts this into a MemoryFault halt).
///
/// Backed by an anonymous private mapping, which the host kernel zero-fills
/// page by page on first touch: a 1 MB guest that touches a few pages costs
/// a few page faults, not a 1 MB memset.
class Memory {
 public:
  explicit Memory(std::size_t size = 1 << 20);
  ~Memory();

  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;
  Memory(Memory&& other) noexcept
      : bytes_(std::exchange(other.bytes_, nullptr)), size_(std::exchange(other.size_, 0)) {}
  Memory& operator=(Memory&& other) noexcept {
    std::swap(bytes_, other.bytes_);
    std::swap(size_, other.size_);
    return *this;
  }

  std::size_t size() const noexcept { return size_; }

  std::uint8_t read8(std::uint32_t addr) const {
    check(addr, 1);
    return bytes_[addr];
  }
  std::uint16_t read16(std::uint32_t addr) const {
    check(addr, 2);
    return static_cast<std::uint16_t>(bytes_[addr] | (bytes_[addr + 1] << 8));
  }
  std::uint32_t read32(std::uint32_t addr) const {
    check(addr, 4);
    return static_cast<std::uint32_t>(bytes_[addr]) |
           (static_cast<std::uint32_t>(bytes_[addr + 1]) << 8) |
           (static_cast<std::uint32_t>(bytes_[addr + 2]) << 16) |
           (static_cast<std::uint32_t>(bytes_[addr + 3]) << 24);
  }

  void write8(std::uint32_t addr, std::uint8_t value) {
    check(addr, 1);
    bytes_[addr] = value;
  }
  void write16(std::uint32_t addr, std::uint16_t value) {
    check(addr, 2);
    bytes_[addr] = static_cast<std::uint8_t>(value);
    bytes_[addr + 1] = static_cast<std::uint8_t>(value >> 8);
  }
  void write32(std::uint32_t addr, std::uint32_t value) {
    check(addr, 4);
    bytes_[addr] = static_cast<std::uint8_t>(value);
    bytes_[addr + 1] = static_cast<std::uint8_t>(value >> 8);
    bytes_[addr + 2] = static_cast<std::uint8_t>(value >> 16);
    bytes_[addr + 3] = static_cast<std::uint8_t>(value >> 24);
  }

  /// Bulk copy into guest memory (program loading, debugger writes).
  void write_block(std::uint32_t addr, std::span<const std::uint8_t> data) {
    check(addr, data.size());
    std::copy(data.begin(), data.end(), bytes_ + addr);
  }

  /// Bulk copy out of guest memory (debugger reads).
  std::vector<std::uint8_t> read_block(std::uint32_t addr, std::size_t len) const {
    check(addr, len);
    return {bytes_ + addr, bytes_ + addr + len};
  }

  /// Zeroes all of memory (returning the touched pages to the host).
  void clear() noexcept;

  /// Read-only view over the whole address space (checkpoint page scan).
  std::span<const std::uint8_t> bytes() const noexcept { return {bytes_, size_}; }

 private:
  void check(std::uint32_t addr, std::size_t len) const {
    if (static_cast<std::uint64_t>(addr) + len > size_) {
      throw util::RuntimeError("memory access out of bounds at 0x" + std::to_string(addr));
    }
  }

  std::uint8_t* bytes_ = nullptr;
  std::size_t size_ = 0;
};

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace nisc::iss
