// Fault-injection transport layer: a seeded, deterministic decorator over
// ipc::Channel driven by a declarative FaultPlan.
//
// FaultyChannel::wrap(channel, plan) returns the same Channel with a
// FaultState installed; every subsequent send()/recv_exact()/recv_some()/
// readable() call consults the plan. Faults are triggered by per-direction
// operation counters (each Channel API call is one operation), so a given
// (plan, seed) pair replays the exact same failure on every run — the
// property the fault-matrix test and the CI seed sweep rely on. With no
// plan installed the only cost on the I/O hot path is one null-pointer
// check per call.
//
// Fault kinds (DESIGN.md §9 documents the field semantics in full):
//   CorruptByte  flip one bit of byte `arg` of the matched transfer
//   Truncate     keep only the first `arg` bytes of the matched send
//   Drop         swallow the matched send entirely
//   Duplicate    send the matched transfer twice
//   Delay        sleep `arg` microseconds before the matched send
//   ShortRead    cap recv_some() to `arg` bytes for the matched ops
//   EagainStorm  readable()/recv_some() report "nothing there" for the
//                matched polls even when data is pending
//   Disconnect   send the first `arg` bytes of the matched transfer, then
//                close the channel mid-frame
//
// CorruptByte/Truncate/Disconnect *defer* when the matched transfer is
// shorter than `arg` (+1 byte): the fault stays armed for the next
// operation. This lets a plan target protocol frames while skipping
// single-byte RSP acks deterministically. Drop/Duplicate/Delay use
// `min_size` for the same purpose.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ipc/channel.hpp"
#include "util/rng.hpp"

namespace nisc::ipc {

enum class FaultKind : std::uint8_t {
  CorruptByte,
  Truncate,
  Drop,
  Duplicate,
  Delay,
  ShortRead,
  EagainStorm,
  Disconnect,
};

/// Direction relative to the wrapped endpoint.
enum class FaultDir : std::uint8_t { Send, Recv };

const char* fault_kind_name(FaultKind kind) noexcept;

struct FaultSpec {
  FaultKind kind = FaultKind::Drop;
  FaultDir dir = FaultDir::Send;
  /// 1-based operation index that first matches.
  std::uint64_t nth = 1;
  /// 0: the spec fires for `count` consecutive ops starting at `nth`, once.
  /// k > 0: the window repeats every k operations.
  std::uint64_t every = 0;
  /// Operations affected per window (storm/short-read lengths).
  std::uint64_t count = 1;
  /// Kind-specific argument: byte offset (CorruptByte), bytes kept
  /// (Truncate/Disconnect), microseconds (Delay), read cap (ShortRead).
  std::uint64_t arg = 0;
  /// Transfers smaller than this defer the fault to the next operation
  /// (Drop/Duplicate/Delay; CorruptByte/Truncate/Disconnect already defer
  /// via `arg`).
  std::size_t min_size = 0;
  /// Probability that a matched operation actually faults (seeded draw).
  double probability = 1.0;
};

struct FaultPlan {
  std::uint64_t seed = 0x1CEB00DAULL;
  std::vector<FaultSpec> specs;

  bool empty() const noexcept { return specs.empty(); }

  // Builder helpers for the common cases (all return *this for chaining).
  FaultPlan& corrupt_send(std::uint64_t nth, std::uint64_t byte_offset);
  FaultPlan& corrupt_recv(std::uint64_t nth, std::uint64_t byte_offset);
  FaultPlan& truncate_send(std::uint64_t nth, std::uint64_t keep_bytes);
  FaultPlan& drop_send(std::uint64_t nth, std::size_t min_size = 2);
  FaultPlan& duplicate_send(std::uint64_t nth, std::size_t min_size = 2);
  FaultPlan& delay_send(std::uint64_t nth, std::uint64_t delay_us, std::size_t min_size = 0);
  FaultPlan& short_reads(std::uint64_t nth, std::uint64_t cap, std::uint64_t count);
  FaultPlan& eagain_storm(std::uint64_t nth, std::uint64_t polls);
  FaultPlan& disconnect_send(std::uint64_t nth, std::uint64_t keep_bytes);
};

/// Counts of injected faults, by kind (indexed by FaultKind).
struct FaultStats {
  std::uint64_t injected[8] = {};
  std::uint64_t send_ops = 0;
  std::uint64_t recv_ops = 0;
  std::uint64_t polls = 0;

  std::uint64_t total_injected() const noexcept {
    std::uint64_t sum = 0;
    for (std::uint64_t n : injected) sum += n;
    return sum;
  }
};

/// What Channel::send must do with one outgoing transfer.
struct SendVerdict {
  std::vector<std::uint8_t> bytes;  ///< possibly mutated/truncated payload
  int copies = 1;                   ///< 0 = drop, 2 = duplicate
  std::uint64_t delay_us = 0;
  bool close_after = false;         ///< mid-frame disconnect
};

/// Runtime state compiled from a FaultPlan. Installed into a Channel;
/// consulted by its I/O methods, on the one thread that uses the channel.
class FaultState {
 public:
  explicit FaultState(const FaultPlan& plan);

  SendVerdict on_send(std::span<const std::uint8_t> data);
  /// True when an EAGAIN storm is suppressing readability right now.
  bool suppress_poll();
  /// Counts one receive operation; returns the byte cap for it (SIZE_MAX =
  /// uncapped). Call before the read, then on_received() with the data.
  std::size_t recv_cap();
  /// Counts one completed receive and applies recv-side corruption.
  void on_received(std::span<std::uint8_t> data);

  FaultStats stats() const noexcept { return stats_; }

 private:
  struct SpecState {
    FaultSpec spec;
    std::uint64_t nth;  ///< mutable first-match index (defers bump it)
  };

  bool matches(SpecState& st, std::uint64_t op);

  std::vector<SpecState> specs_;
  util::Rng rng_;
  FaultStats stats_;
  std::uint64_t last_recv_op_ = 0;
};

/// The decorator entry point.
class FaultyChannel {
 public:
  /// Installs `plan` on `channel`; returns the shared state handle (keep it
  /// to read stats; the channel co-owns it).
  static std::shared_ptr<FaultState> install(Channel& channel, const FaultPlan& plan);

  /// Decorates and returns the channel (value-style composition).
  static Channel wrap(Channel channel, const FaultPlan& plan);
};

}  // namespace nisc::ipc
