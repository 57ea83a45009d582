#include "ipc/capture.hpp"

#include <sstream>

#include "ipc/message.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/hex.hpp"

namespace nisc::ipc {

WireCapture::WireCapture(std::string label, std::size_t max_frames)
    : label_(std::move(label)), max_frames_(max_frames == 0 ? 1 : max_frames) {}

void WireCapture::record(CaptureDir dir, std::span<const std::uint8_t> bytes) {
  ring_.push_back(Entry{dir, next_seq_++, {bytes.begin(), bytes.end()}});
  while (ring_.size() > max_frames_) ring_.pop_front();
}

std::vector<std::uint8_t> WireCapture::dump() const {
  std::vector<std::uint8_t> out;
  for (const Entry& entry : ring_) {
    DriverMessage msg;
    msg.type = MsgType::Write;
    msg.items.push_back(MsgItem{
        label_ + (entry.dir == CaptureDir::Tx ? ".tx#" : ".rx#") + std::to_string(entry.seq),
        entry.bytes});
    std::vector<std::uint8_t> frame = encode_message(msg);
    out.insert(out.end(), frame.begin(), frame.end());
  }
  return out;
}

std::string WireCapture::render_text(std::size_t max_bytes_per_entry) const {
  std::ostringstream out;
  for (const Entry& entry : ring_) {
    out << label_ << (entry.dir == CaptureDir::Tx ? " tx#" : " rx#") << entry.seq << " ("
        << entry.bytes.size() << " bytes)";
    const std::size_t shown = std::min(entry.bytes.size(), max_bytes_per_entry);
    if (shown > 0) {
      out << ' '
          << util::hex_encode(std::span<const std::uint8_t>(entry.bytes.data(), shown));
      if (shown < entry.bytes.size()) out << "...";
    }
    out << '\n';
  }
  return out.str();
}

ObsTap::ObsTap(const std::string& label, TraceIdPeeker peeker, std::string_view flow_name,
               std::string_view flow_cat)
    : tx_bytes_(obs::counter("ipc." + label + ".tx_bytes")),
      tx_transfers_(obs::counter("ipc." + label + ".tx_transfers")),
      rx_bytes_(obs::counter("ipc." + label + ".rx_bytes")),
      rx_transfers_(obs::counter("ipc." + label + ".rx_transfers")),
      event_name_(obs::intern("ipc." + label + ".event")),
      flow_name_(obs::intern(flow_name)),
      flow_cat_(obs::intern(flow_cat)),
      peeker_(std::move(peeker)) {}

void ObsTap::on_wire(CaptureDir dir, std::span<const std::uint8_t> bytes) {
  if (dir == CaptureDir::Tx) {
    tx_bytes_.add(bytes.size());
    tx_transfers_.add(1);
  } else {
    rx_bytes_.add(bytes.size());
    rx_transfers_.add(1);
  }
  if (peeker_ && obs::tracing_enabled()) {
    if (const std::uint64_t id = peeker_(dir, bytes)) obs::flow_step(flow_name_, flow_cat_, id);
  }
}

void ObsTap::on_wire_event(std::string_view tag) {
  if (obs::tracing_enabled()) obs::emit('i', event_name_, obs::intern(tag));
}

}  // namespace nisc::ipc
