// Wire-capture ring buffer: the last N transfers seen on a channel, kept
// for post-mortem diagnosis when a co-simulation scheme dies on its IPC
// boundary.
//
// Each recorded transfer is one send()/recv() on the channel, tagged with
// its direction and a monotonically increasing sequence number. dump()
// re-frames the ring as a stream of Driver-Kernel wire frames (one WRITE
// message per transfer, port "<label>.tx#<seq>" / "<label>.rx#<seq>", data =
// the raw bytes) — exactly the concatenated-frame format that
// `cosim_lint --frames` validates, so a crash dump from any scheme (RSP
// traffic included) can be inspected with the analysis tooling.
//
// Recorded on the one thread that uses the channel, like the observer below.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace nisc::obs {
class Counter;
}  // namespace nisc::obs

namespace nisc::ipc {

enum class CaptureDir : std::uint8_t { Tx, Rx };

/// Live tap on a channel's wire traffic. Attached via
/// Channel::attach_observer; sees exactly the bytes the capture ring would
/// record (post-fault-injection reality, not intent) plus out-of-band
/// endpoint events (e.g. "quiesce"). Called on the thread that does the
/// channel's I/O.
class WireObserver {
 public:
  virtual ~WireObserver() = default;
  virtual void on_wire(CaptureDir dir, std::span<const std::uint8_t> bytes) = 0;
  virtual void on_wire_event(std::string_view tag) { (void)tag; }
};

class WireCapture {
 public:
  /// `label` prefixes the pseudo-port names in dumps; the ring keeps the
  /// most recent `max_frames` transfers.
  explicit WireCapture(std::string label, std::size_t max_frames = 32);

  void record(CaptureDir dir, std::span<const std::uint8_t> bytes);

  /// Serializes the ring, oldest first, as concatenated Driver-Kernel
  /// frames (`u32 size | body`), readable by `cosim_lint --frames` and
  /// analysis::check_frames.
  std::vector<std::uint8_t> dump() const;

  /// One-line-per-transfer human rendering (direction, size, hex prefix).
  std::string render_text(std::size_t max_bytes_per_entry = 16) const;

  const std::string& label() const noexcept { return label_; }
  std::size_t size() const noexcept { return ring_.size(); }
  bool empty() const noexcept { return ring_.empty(); }
  std::uint64_t total_recorded() const noexcept { return next_seq_; }

 private:
  struct Entry {
    CaptureDir dir;
    std::uint64_t seq;
    std::vector<std::uint8_t> bytes;
  };

  std::string label_;
  std::size_t max_frames_;
  std::uint64_t next_seq_ = 0;
  std::deque<Entry> ring_;
};

/// WireObserver feeding the obs layer: per-direction transfer/byte counters
/// ("ipc.<label>.tx_bytes", ".tx_transfers", ".rx_bytes", ".rx_transfers")
/// plus — when a peeker is installed — a Chrome-trace flow-step event for
/// every transfer carrying a correlation id, which is how wire traffic
/// joins the cross-process flow arrows of DESIGN.md §10.5.
///
/// The counters use relaxed atomics and the flow emit goes to the calling
/// thread's own trace ring. The peeker runs on the I/O hot path;
/// implementations must be cheap, non-throwing, and return 0 for transfers
/// without an id (partial frames included — Rx traffic arrives split into
/// header/body chunks).
class ObsTap : public WireObserver {
 public:
  using TraceIdPeeker =
      std::function<std::uint64_t(CaptureDir dir, std::span<const std::uint8_t> bytes)>;

  /// `label` namespaces the counters; `flow_name`/`flow_cat` are the trace
  /// flow-event identity and must match the flow_begin/flow_end pair the
  /// protocol emits (they are interned, so any string works).
  explicit ObsTap(const std::string& label, TraceIdPeeker peeker = {},
                  std::string_view flow_name = "wire.flow", std::string_view flow_cat = "flow");

  void on_wire(CaptureDir dir, std::span<const std::uint8_t> bytes) override;
  void on_wire_event(std::string_view tag) override;

 private:
  obs::Counter& tx_bytes_;
  obs::Counter& tx_transfers_;
  obs::Counter& rx_bytes_;
  obs::Counter& rx_transfers_;
  const char* event_name_;  ///< interned "ipc.<label>.event"
  const char* flow_name_;
  const char* flow_cat_;
  TraceIdPeeker peeker_;
};

/// Fans one channel's observer slot out to several observers (a Channel
/// holds exactly one) — e.g. the supervisor's ObsTap plus a live
/// conformance monitor on the same socket. Children are fixed at
/// construction and see each transfer exactly as if attached directly.
class FanoutWireObserver : public WireObserver {
 public:
  explicit FanoutWireObserver(std::vector<std::shared_ptr<WireObserver>> children)
      : children_(std::move(children)) {}

  void on_wire(CaptureDir dir, std::span<const std::uint8_t> bytes) override {
    for (const auto& child : children_) {
      if (child) child->on_wire(dir, bytes);
    }
  }

  void on_wire_event(std::string_view tag) override {
    for (const auto& child : children_) {
      if (child) child->on_wire_event(tag);
    }
  }

 private:
  std::vector<std::shared_ptr<WireObserver>> children_;
};

}  // namespace nisc::ipc
