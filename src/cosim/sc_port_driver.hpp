// ScPortDriver: the Driver-Kernel device driver embedded in the RTOS (paper
// §4), owned by the DriverTarget that hosts the guest. Guest code calls the
// driver API (SYS_DEV_WRITE / SYS_DEV_READ); the driver exchanges the §4.2
// message format with the DriverKernelExtension on the SystemC side.
#pragma once

#include <deque>
#include <span>
#include <string>

#include "ipc/channel.hpp"
#include "rtos/rtos.hpp"

namespace nisc::cosim {

/// The device driver registered inside the RTOS: forwards guest dev_write
/// payloads as WRITE messages to one iss_in port, and serves guest dev_read
/// from the stream of values the kernel pushes for one iss_out port.
class ScPortDriver : public rtos::Driver {
 public:
  ScPortDriver(ipc::Channel data, std::string write_port, std::string read_port);

  std::string_view name() const noexcept override { return "scdev"; }
  std::size_t write(std::span<const std::uint8_t> data) override;
  std::size_t read(std::span<std::uint8_t> out) override;

  /// The target-side end of the data wire.
  ipc::Channel& channel() noexcept { return data_; }

  /// True once the data channel died: writes are swallowed (returning 0 to
  /// the guest) and reads only drain what already arrived.
  bool degraded() const noexcept { return degraded_; }

 private:
  void drain_incoming();
  void mark_degraded(const char* what);

  ipc::Channel data_;
  std::string write_port_;
  std::string read_port_;
  std::deque<std::uint8_t> rx_;
  bool degraded_ = false;
};

}  // namespace nisc::cosim
