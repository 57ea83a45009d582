#include "ipc/fault.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nisc::ipc {

const char* fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::CorruptByte: return "corrupt-byte";
    case FaultKind::Truncate: return "truncate";
    case FaultKind::Drop: return "drop";
    case FaultKind::Duplicate: return "duplicate";
    case FaultKind::Delay: return "delay";
    case FaultKind::ShortRead: return "short-read";
    case FaultKind::EagainStorm: return "eagain-storm";
    case FaultKind::Disconnect: return "disconnect";
  }
  return "?";
}

namespace {

FaultSpec make_spec(FaultKind kind, FaultDir dir, std::uint64_t nth, std::uint64_t arg,
                    std::uint64_t count = 1, std::size_t min_size = 0) {
  FaultSpec spec;
  spec.kind = kind;
  spec.dir = dir;
  spec.nth = nth;
  spec.arg = arg;
  spec.count = count;
  spec.min_size = min_size;
  return spec;
}

/// Every injection, regardless of kind, is one tick of "ipc.faults_injected"
/// plus an instant named after the fault so traces show *which* fault fired.
void note_injected(FaultKind kind) {
  static obs::Counter& c_injected = obs::counter("ipc.faults_injected");
  c_injected.add(1);
  obs::instant(fault_kind_name(kind), "ipc.fault");
}

}  // namespace

FaultPlan& FaultPlan::corrupt_send(std::uint64_t nth, std::uint64_t byte_offset) {
  specs.push_back(make_spec(FaultKind::CorruptByte, FaultDir::Send, nth, byte_offset));
  return *this;
}

FaultPlan& FaultPlan::corrupt_recv(std::uint64_t nth, std::uint64_t byte_offset) {
  specs.push_back(make_spec(FaultKind::CorruptByte, FaultDir::Recv, nth, byte_offset));
  return *this;
}

FaultPlan& FaultPlan::truncate_send(std::uint64_t nth, std::uint64_t keep_bytes) {
  specs.push_back(make_spec(FaultKind::Truncate, FaultDir::Send, nth, keep_bytes));
  return *this;
}

FaultPlan& FaultPlan::drop_send(std::uint64_t nth, std::size_t min_size) {
  specs.push_back(make_spec(FaultKind::Drop, FaultDir::Send, nth, 0, 1, min_size));
  return *this;
}

FaultPlan& FaultPlan::duplicate_send(std::uint64_t nth, std::size_t min_size) {
  specs.push_back(make_spec(FaultKind::Duplicate, FaultDir::Send, nth, 0, 1, min_size));
  return *this;
}

FaultPlan& FaultPlan::delay_send(std::uint64_t nth, std::uint64_t delay_us, std::size_t min_size) {
  specs.push_back(make_spec(FaultKind::Delay, FaultDir::Send, nth, delay_us, 1, min_size));
  return *this;
}

FaultPlan& FaultPlan::short_reads(std::uint64_t nth, std::uint64_t cap, std::uint64_t count) {
  specs.push_back(make_spec(FaultKind::ShortRead, FaultDir::Recv, nth, cap, count));
  return *this;
}

FaultPlan& FaultPlan::eagain_storm(std::uint64_t nth, std::uint64_t polls) {
  specs.push_back(make_spec(FaultKind::EagainStorm, FaultDir::Recv, nth, 0, polls));
  return *this;
}

FaultPlan& FaultPlan::disconnect_send(std::uint64_t nth, std::uint64_t keep_bytes) {
  specs.push_back(make_spec(FaultKind::Disconnect, FaultDir::Send, nth, keep_bytes));
  return *this;
}

FaultState::FaultState(const FaultPlan& plan) : rng_(plan.seed) {
  specs_.reserve(plan.specs.size());
  for (const FaultSpec& spec : plan.specs) specs_.push_back(SpecState{spec, spec.nth});
}

bool FaultState::matches(SpecState& st, std::uint64_t op) {
  const FaultSpec& spec = st.spec;
  if (op < st.nth) return false;
  const std::uint64_t offset = op - st.nth;
  if (spec.every == 0) {
    if (offset >= spec.count) return false;
  } else {
    if (offset % spec.every >= spec.count) return false;
  }
  if (spec.probability < 1.0 && !rng_.chance(spec.probability)) return false;
  return true;
}

SendVerdict FaultState::on_send(std::span<const std::uint8_t> data) {
  const std::uint64_t op = ++stats_.send_ops;
  SendVerdict verdict;
  verdict.bytes.assign(data.begin(), data.end());
  for (SpecState& st : specs_) {
    if (st.spec.dir != FaultDir::Send) continue;
    if (!matches(st, op)) continue;
    const std::size_t size = verdict.bytes.size();
    bool injected = false;
    switch (st.spec.kind) {
      case FaultKind::CorruptByte:
        if (st.spec.arg < size) {
          verdict.bytes[st.spec.arg] ^= 0x01;
          injected = true;
        }
        break;
      case FaultKind::Truncate:
        if (size > st.spec.arg) {
          verdict.bytes.resize(static_cast<std::size_t>(st.spec.arg));
          injected = true;
        }
        break;
      case FaultKind::Disconnect:
        if (size > st.spec.arg) {
          verdict.bytes.resize(static_cast<std::size_t>(st.spec.arg));
          verdict.close_after = true;
          injected = true;
        }
        break;
      case FaultKind::Drop:
        if (size >= st.spec.min_size) {
          verdict.copies = 0;
          injected = true;
        }
        break;
      case FaultKind::Duplicate:
        if (size >= st.spec.min_size) {
          verdict.copies = 2;
          injected = true;
        }
        break;
      case FaultKind::Delay:
        if (size >= st.spec.min_size) {
          verdict.delay_us += st.spec.arg;
          injected = true;
        }
        break;
      default:
        break;
    }
    if (injected) {
      stats_.injected[static_cast<std::size_t>(st.spec.kind)]++;
      note_injected(st.spec.kind);
    } else {
      // Defer: this transfer was too small to carry the fault (a 1-byte RSP
      // ack, say) — keep the whole window armed for the next operation.
      st.nth = op + 1;
    }
  }
  return verdict;
}

bool FaultState::suppress_poll() {
  const std::uint64_t op = ++stats_.polls;
  for (SpecState& st : specs_) {
    if (st.spec.kind != FaultKind::EagainStorm) continue;
    if (matches(st, op)) {
      stats_.injected[static_cast<std::size_t>(FaultKind::EagainStorm)]++;
      note_injected(FaultKind::EagainStorm);
      return true;
    }
  }
  return false;
}

std::size_t FaultState::recv_cap() {
  last_recv_op_ = ++stats_.recv_ops;
  std::size_t cap = std::numeric_limits<std::size_t>::max();
  for (SpecState& st : specs_) {
    if (st.spec.kind != FaultKind::ShortRead) continue;
    if (matches(st, last_recv_op_)) {
      stats_.injected[static_cast<std::size_t>(FaultKind::ShortRead)]++;
      note_injected(FaultKind::ShortRead);
      cap = std::min(cap, static_cast<std::size_t>(std::max<std::uint64_t>(1, st.spec.arg)));
    }
  }
  return cap;
}

void FaultState::on_received(std::span<std::uint8_t> data) {
  for (SpecState& st : specs_) {
    if (st.spec.dir != FaultDir::Recv || st.spec.kind != FaultKind::CorruptByte) continue;
    if (!matches(st, last_recv_op_)) continue;
    if (st.spec.arg < data.size()) {
      data[st.spec.arg] ^= 0x01;
      stats_.injected[static_cast<std::size_t>(FaultKind::CorruptByte)]++;
      note_injected(FaultKind::CorruptByte);
    } else {
      st.nth = last_recv_op_ + 1;
    }
  }
}

std::shared_ptr<FaultState> FaultyChannel::install(Channel& channel, const FaultPlan& plan) {
  auto state = std::make_shared<FaultState>(plan);
  channel.attach_faults(state);
  return state;
}

Channel FaultyChannel::wrap(Channel channel, const FaultPlan& plan) {
  install(channel, plan);
  return channel;
}

}  // namespace nisc::ipc
