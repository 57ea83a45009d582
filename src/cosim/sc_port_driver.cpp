#include "cosim/sc_port_driver.hpp"

#include "ipc/message.hpp"
#include "util/log.hpp"

namespace nisc::cosim {

ScPortDriver::ScPortDriver(ipc::Channel data, std::string write_port, std::string read_port)
    : data_(std::move(data)), write_port_(std::move(write_port)),
      read_port_(std::move(read_port)) {}

void ScPortDriver::mark_degraded(const char* what) {
  if (degraded_) return;
  degraded_ = true;
  NISC_WARN("scdev") << "driver degraded (" << what << "): device writes are now swallowed";
}

std::size_t ScPortDriver::write(std::span<const std::uint8_t> data) {
  if (degraded()) return 0;
  ipc::DriverMessage msg;
  msg.type = ipc::MsgType::Write;
  msg.items.push_back({write_port_, std::vector<std::uint8_t>(data.begin(), data.end())});
  try {
    ipc::send_message(data_, msg);
  } catch (const util::RuntimeError&) {
    mark_degraded("send failed");
    return 0;
  }
  return data.size();
}

void ScPortDriver::drain_incoming() {
  if (degraded()) return;
  try {
    while (auto msg = ipc::try_recv_message(data_)) {
      if (msg->type != ipc::MsgType::ReadReply) continue;
      for (const ipc::MsgItem& item : msg->items) {
        if (item.port != read_port_) continue;
        rx_.insert(rx_.end(), item.data.begin(), item.data.end());
      }
    }
  } catch (const util::RuntimeError&) {
    mark_degraded("receive failed");
  }
}

std::size_t ScPortDriver::read(std::span<std::uint8_t> out) {
  drain_incoming();
  std::size_t n = 0;
  while (n < out.size() && !rx_.empty()) {
    out[n++] = rx_.front();
    rx_.pop_front();
  }
  return n;
}

}  // namespace nisc::cosim
