#include "iss/memory.hpp"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>

namespace nisc::iss {

Memory::Memory(std::size_t size) : size_(size) {
  if (size_ == 0) return;
  void* mapping = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                         -1, 0);
  if (mapping == MAP_FAILED) {
    throw util::RuntimeError("guest memory: mmap of " + std::to_string(size_) +
                             " bytes failed: " + std::strerror(errno));
  }
  bytes_ = static_cast<std::uint8_t*>(mapping);
}

Memory::~Memory() {
  if (bytes_ != nullptr) ::munmap(bytes_, size_);
}

void Memory::clear() noexcept {
  if (bytes_ == nullptr) return;
  // Dropping a private anonymous mapping's pages makes them read back as
  // zero-fill on the next touch.
  if (::madvise(bytes_, size_, MADV_DONTNEED) != 0) std::memset(bytes_, 0, size_);
}

}  // namespace nisc::iss
