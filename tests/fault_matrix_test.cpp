// Fault matrix: every FaultKind x all three co-simulation schemes x two
// transports. Each cell boots a full router testbench with a seeded
// FaultPlan on the target-side transport, runs it until drained or to a
// simulated-time limit, and classifies the documented outcome:
//
//   Recovered        all produced traffic was delivered despite the fault
//                    (protocol-level recovery: RSP NAK/resend, reassembly)
//   Degraded         the run completed but lost capability or traffic: a
//                    Driver-Kernel port quiesced, a driver went dark, or
//                    packets were lost while the simulation itself stayed
//                    healthy
//   StructuredError  the scheme ended the run with a CosimError carrying a
//                    non-empty wire post-mortem
//
// Each cell pins every field it reports (outcome, received packets,
// injected faults, wire messages, NL4xx errors, and for Driver-Kernel the
// interrupt socket's messages and NL4xx errors): the in-process targets run
// on the kernel thread, so a cell settles the same way on every run. No cell
// waits on a clock: a faulted wire ends its wait when the stepped target
// goes idle, so a cell takes only its simulated drain time.
//
// The plan seed is taken from NISC_FAULT_SEED when set, and the CI sweep
// runs several. The seed feeds only FaultPlan::seed, which is drawn from
// only for specs with probability < 1, and no plan here uses one: the sweep
// checks the seed plumbing (every seed must land every cell on its pin),
// not different fault schedules.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>

#include "analysis/protocol.hpp"
#include "ipc/fault.hpp"
#include "router/testbench.hpp"
#include "sysc/sysc.hpp"

namespace nisc {
namespace {

using router::Scheme;
using router::Testbench;
using router::TestbenchConfig;
using router::TestbenchReport;

enum class Outcome { Recovered, Degraded, StructuredError };

const char* outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::Recovered: return "Recovered";
    case Outcome::Degraded: return "Degraded";
    case Outcome::StructuredError: return "StructuredError";
  }
  return "?";
}

std::uint64_t seed_from_env() {
  const char* env = std::getenv("NISC_FAULT_SEED");
  if (env == nullptr || *env == '\0') return 0x1CEB00DAULL;
  return std::strtoull(env, nullptr, 0);
}

/// One deterministic plan per fault kind, aimed at protocol frames: the
/// defer rules (arg / min_size) skip one-byte RSP acks so the same plan is
/// meaningful on every scheme.
ipc::FaultPlan plan_for(ipc::FaultKind kind) {
  ipc::FaultPlan plan;
  plan.seed = seed_from_env();
  switch (kind) {
    case ipc::FaultKind::CorruptByte:
      plan.corrupt_send(1, 4);
      break;
    case ipc::FaultKind::Truncate:
      plan.truncate_send(2, 3);
      break;
    case ipc::FaultKind::Drop:
      plan.drop_send(2);
      break;
    case ipc::FaultKind::Duplicate:
      plan.duplicate_send(2);
      break;
    case ipc::FaultKind::Delay:
      plan.delay_send(1, 2000, 4);
      plan.specs.back().every = 2;  // every other sizeable send is late
      break;
    case ipc::FaultKind::ShortRead:
      plan.short_reads(1, 1, 50);  // first 50 reads dribble one byte each
      break;
    case ipc::FaultKind::EagainStorm:
      plan.eagain_storm(1, 20);
      break;
    case ipc::FaultKind::Disconnect:
      plan.disconnect_send(3, 2);
      break;
  }
  return plan;
}

TestbenchConfig cell_config(Scheme scheme, ipc::Transport transport) {
  TestbenchConfig config;
  config.scheme = scheme;
  config.transport = transport;
  config.packets_per_producer = 3;
  config.num_producers = 2;
  config.inter_packet_delay = sysc::sc_time::from_ps(2000000);  // 2 us
  config.instructions_per_us = 400000;
  if (scheme == Scheme::GdbWrapper) {
    // The wrapper pays one blocking RSP round trip per clock edge; a slow
    // clock keeps the cycle count (and the wall clock) bounded when a fault
    // makes the run last to the drain limit.
    config.clock_period = sysc::sc_time::from_ps(1000000);  // 1 us
  }
  return config;
}

analysis::ModelId model_for(Scheme scheme) {
  switch (scheme) {
    case Scheme::GdbWrapper: return analysis::ModelId::GdbWrapper;
    case Scheme::GdbKernel: return analysis::ModelId::GdbKernel;
    case Scheme::DriverKernel: return analysis::ModelId::DriverKernel;
  }
  return analysis::ModelId::GdbKernel;
}

/// Live conformance monitor for a cell: every session's SystemC-side wire
/// is checked against the scheme's protocol automaton as it runs.
std::shared_ptr<analysis::LiveConformanceMonitor> make_monitor(Scheme scheme) {
  return std::make_shared<analysis::LiveConformanceMonitor>(
      analysis::make_model(model_for(scheme)), "<live>");
}

/// Driver-Kernel cells additionally tap the interrupt socket on its target
/// side: INTERRUPT frames arrive as Rx and the target reports each irq the
/// RTOS took as an "ack" wire event, so the tap replays the delivery +
/// acknowledge cycle of the DriverIrq automaton (DESIGN.md §11).
std::shared_ptr<analysis::LiveConformanceMonitor> make_irq_monitor() {
  return std::make_shared<analysis::LiveConformanceMonitor>(
      analysis::make_model(analysis::ModelId::DriverIrq), "<live.irq>");
}

sysc::sc_time drain_limit(Scheme scheme) {
  return scheme == Scheme::GdbWrapper ? sysc::sc_time::from_ps(2000000000)   // 2 ms
                                      : sysc::sc_time::from_ps(5000000000);  // 5 ms
}

/// What a cell must settle to: every field of its `[ cell ]` line, the
/// same on both transports and at every seed. A wire change that moves a
/// fault onto another operation shows up here.
struct Expected {
  Outcome outcome;
  std::uint64_t received;       ///< of the 6 packets produced
  std::uint64_t faults;         ///< faults the plan injected
  std::uint64_t wire_msgs;      ///< messages the data-wire monitor saw
  std::uint64_t nl4xx;          ///< NL4xx errors on the data wire
  std::uint64_t irq_msgs = 0;   ///< Driver-Kernel interrupt-socket messages
  std::uint64_t irq_nl4xx = 0;  ///< NL4xx errors on the interrupt socket
};

Expected expected_for(Scheme scheme, ipc::FaultKind kind) {
  using ipc::FaultKind;
  using enum Outcome;
  if (scheme == Scheme::DriverKernel) {
    // Resending is not part of the §4.2 wire: a lost or mangled frame
    // quiesces the port (or darkens the driver) and the session degrades.
    switch (kind) {
      case FaultKind::CorruptByte: return {Degraded, 0, 1, 3, 0, 1, 0};
      case FaultKind::Truncate: return {Degraded, 1, 1, 3, 0, 2, 0};
      case FaultKind::Drop: return {Degraded, 1, 1, 3, 0, 2, 0};
      case FaultKind::Disconnect: return {Degraded, 2, 1, 5, 0, 3, 0};
      case FaultKind::Duplicate: return {Recovered, 6, 1, 13, 0, 6, 0};
      case FaultKind::Delay: return {Recovered, 6, 3, 12, 0, 6, 0};
      case FaultKind::ShortRead: return {Recovered, 6, 12, 12, 0, 6, 0};
      case FaultKind::EagainStorm: return {Recovered, 6, 20, 12, 0, 6, 0};
    }
  }
  // RSP recovers a corrupted frame by NAK/resend and rides out slow or
  // stuttering reads; a frame that is cut, lost or replayed ends the run.
  // The lock-step wrapper exchanges a few more messages than GDB-Kernel.
  const bool wrapper = scheme == Scheme::GdbWrapper;
  switch (kind) {
    case FaultKind::CorruptByte: return {Recovered, 6, 1, wrapper ? 192u : 176u, 0};
    case FaultKind::Delay: return {Recovered, 6, wrapper ? 95u : 87u, wrapper ? 191u : 175u, 0};
    case FaultKind::ShortRead: return {Recovered, 6, 50, wrapper ? 191u : 175u, 0};
    case FaultKind::EagainStorm: return {Recovered, 6, 20, wrapper ? 191u : 175u, 0};
    case FaultKind::Truncate: return {StructuredError, 0, 1, 2, 1};
    case FaultKind::Drop: return {StructuredError, 0, 1, 2, 0};
    case FaultKind::Duplicate: return {StructuredError, 0, 1, wrapper ? 8u : 9u, 1};
    case FaultKind::Disconnect: return {StructuredError, 0, 1, 3, 1};
  }
  return {StructuredError, 0, 0, 0, 0};
}

using Cell = std::tuple<Scheme, ipc::Transport, ipc::FaultKind>;

class FaultMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(FaultMatrix, CellSettlesWithDocumentedOutcome) {
  const auto [scheme, transport, kind] = GetParam();
  TestbenchConfig config = cell_config(scheme, transport);
  config.fault_plan = plan_for(kind);
  auto monitor = make_monitor(scheme);
  config.wire_observer = monitor;
  std::shared_ptr<analysis::LiveConformanceMonitor> irq_monitor;
  if (scheme == Scheme::DriverKernel) {
    irq_monitor = make_irq_monitor();
    config.irq_observer = irq_monitor;
  }

  const auto start = std::chrono::steady_clock::now();
  Testbench bench(config);
  bench.run_until_drained(drain_limit(scheme));
  TestbenchReport report = bench.report();

  // Classify. A quiesced port / dark driver is degradation
  // even though it latches a CosimError post-mortem: the simulation itself
  // kept running. Only a run the scheme had to end counts as a structured
  // error.
  Outcome outcome;
  if (bench.degraded()) {
    outcome = Outcome::Degraded;
  } else if (bench.cosim_error()) {
    outcome = Outcome::StructuredError;
  } else if (report.produced > 0 && report.received == report.produced) {
    outcome = Outcome::Recovered;
  } else {
    outcome = Outcome::Degraded;  // completed with traffic loss, no crash
  }

  // Any latched error must carry a usable post-mortem.
  if (auto error = bench.cosim_error()) {
    EXPECT_FALSE(error->scheme.empty());
    EXPECT_FALSE(error->message.empty());
    EXPECT_FALSE(error->post_mortem.empty());
  }

  // The plan must have actually bitten (the cell exercised the fault).
  EXPECT_GT(bench.faults_injected(), 0u)
      << ipc::fault_kind_name(kind) << " never triggered";

  const Expected expected = expected_for(scheme, kind);
  EXPECT_EQ(report.produced, 6u);
  EXPECT_STREQ(outcome_name(outcome), outcome_name(expected.outcome));
  EXPECT_EQ(report.received, expected.received);
  EXPECT_EQ(bench.faults_injected(), expected.faults);

  bench.shutdown();  // must end every session promptly

  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 60) << "cell blew its wall-clock deadline";

  // Faulted wires are expected to violate the protocol; which NL4xx rules
  // each fault kind trips, and how often, is pinned with the cell.
  monitor->finish();
  EXPECT_EQ(monitor->messages_seen(), expected.wire_msgs);
  EXPECT_EQ(monitor->diags().errors(), expected.nl4xx) << analysis::render_text(monitor->diags());
  RecordProperty("outcome", outcome_name(outcome));
  RecordProperty("nl4xx_errors", static_cast<int>(monitor->diags().errors()));
  std::uint64_t irq_msgs = 0;
  std::uint64_t irq_errors = 0;
  if (irq_monitor) {
    irq_monitor->finish();
    irq_msgs = irq_monitor->messages_seen();
    irq_errors = irq_monitor->diags().errors();
    RecordProperty("irq_nl4xx_errors", static_cast<int>(irq_errors));
    // The fault plan bites the data transport; the interrupt socket itself
    // stays clean, so the delivery/acknowledge cycle must conform even in a
    // faulted cell unless the run degraded (a quiesced port or dark driver
    // can strand a delivered irq mid-cycle).
    if (outcome == Outcome::Recovered) {
      EXPECT_EQ(irq_errors, 0u) << analysis::render_text(irq_monitor->diags());
    }
  }
  EXPECT_EQ(irq_msgs, expected.irq_msgs);
  EXPECT_EQ(irq_errors, expected.irq_nl4xx);
  std::printf("[ cell ] %s / %s / %s -> %s (%llu/%llu packets, %llu faults, "
              "%llu wire msgs, %llu NL4xx errors, %llu irq msgs, %llu irq NL4xx)\n",
              router::scheme_name(scheme), ipc::transport_name(transport),
              ipc::fault_kind_name(kind), outcome_name(outcome),
              static_cast<unsigned long long>(report.received),
              static_cast<unsigned long long>(report.produced),
              static_cast<unsigned long long>(bench.faults_injected()),
              static_cast<unsigned long long>(monitor->messages_seen()),
              static_cast<unsigned long long>(monitor->diags().errors()),
              static_cast<unsigned long long>(irq_msgs),
              static_cast<unsigned long long>(irq_errors));
}

// A healthy control row: the same cell configuration with no plan installed
// must deliver everything — otherwise fault-cell outcomes would measure the
// cell config, not the fault.
class HealthyBaseline
    : public ::testing::TestWithParam<std::tuple<Scheme, ipc::Transport>> {};

TEST_P(HealthyBaseline, AllTrafficDelivered) {
  const auto [scheme, transport] = GetParam();
  TestbenchConfig config = cell_config(scheme, transport);
  auto monitor = make_monitor(scheme);
  config.wire_observer = monitor;
  std::shared_ptr<analysis::LiveConformanceMonitor> irq_monitor;
  if (scheme == Scheme::DriverKernel) {
    irq_monitor = make_irq_monitor();
    config.irq_observer = irq_monitor;
  }
  Testbench bench(config);
  bench.run_until_drained(drain_limit(scheme));
  TestbenchReport report = bench.report();
  EXPECT_EQ(report.received, report.produced);
  EXPECT_FALSE(bench.cosim_error().has_value());
  EXPECT_FALSE(bench.degraded());
  EXPECT_EQ(bench.faults_injected(), 0u);
  bench.shutdown();
  // A healthy wire must conform: zero NL4xx errors from the live monitor.
  monitor->finish();
  EXPECT_GT(monitor->messages_seen(), 0u);
  EXPECT_EQ(monitor->diags().errors(), 0u) << analysis::render_text(monitor->diags());
  if (irq_monitor) {
    // Packet arrival is announced over the interrupt socket, so a healthy
    // Driver-Kernel run must replay clean delivery/acknowledge cycles.
    irq_monitor->finish();
    EXPECT_GT(irq_monitor->messages_seen(), 0u);
    EXPECT_EQ(irq_monitor->diags().errors(), 0u)
        << analysis::render_text(irq_monitor->diags());
  }
}

// A drained run whose every session ended returns once a window moves no
// traffic, with the counts that simulating on to the limit would give.
class DeadSessionDrain : public ::testing::TestWithParam<std::tuple<Scheme, ipc::FaultKind>> {};

TEST_P(DeadSessionDrain, EndsEarlyWithTheCountsOfARunToTheLimit) {
  const auto [scheme, kind] = GetParam();
  TestbenchConfig config = cell_config(scheme, ipc::Transport::Pipe);
  config.fault_plan = plan_for(kind);
  const sysc::sc_time limit = drain_limit(scheme);

  Testbench drained(config);
  drained.run_until_drained(limit);
  Testbench full(config);
  while (full.context().time_stamp() < limit) full.run_for(sysc::sc_time::from_ps(10000000));

  const TestbenchReport a = drained.report();
  const TestbenchReport b = full.report();
  EXPECT_LT(a.sim_time.ps() * 10, limit.ps()) << "ended at " << a.sim_time.to_us() << " us";
  EXPECT_EQ(b.sim_time, limit);
  EXPECT_TRUE(drained.cosim_error().has_value());
  EXPECT_EQ(a.produced, b.produced);
  EXPECT_EQ(a.forwarded, b.forwarded);
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.dropped_input + a.dropped_no_route + a.dropped_output,
            b.dropped_input + b.dropped_no_route + b.dropped_output);
  EXPECT_EQ(a.rsp_transactions, b.rsp_transactions);
  EXPECT_EQ(a.breakpoint_events, b.breakpoint_events);
  EXPECT_EQ(a.driver_messages, b.driver_messages);
  EXPECT_EQ(drained.faults_injected(), full.faults_injected());
}

std::string scheme_tag(Scheme scheme) {
  switch (scheme) {
    case Scheme::GdbWrapper: return "GdbWrapper";
    case Scheme::GdbKernel: return "GdbKernel";
    case Scheme::DriverKernel: return "DriverKernel";
  }
  return "unknown";
}

std::string kind_tag(ipc::FaultKind kind) {
  switch (kind) {
    case ipc::FaultKind::CorruptByte: return "CorruptByte";
    case ipc::FaultKind::Truncate: return "Truncate";
    case ipc::FaultKind::Drop: return "Drop";
    case ipc::FaultKind::Duplicate: return "Duplicate";
    case ipc::FaultKind::Delay: return "Delay";
    case ipc::FaultKind::ShortRead: return "ShortRead";
    case ipc::FaultKind::EagainStorm: return "EagainStorm";
    case ipc::FaultKind::Disconnect: return "Disconnect";
  }
  return "unknown";
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, FaultMatrix,
    ::testing::Combine(::testing::Values(Scheme::GdbWrapper, Scheme::GdbKernel,
                                         Scheme::DriverKernel),
                       ::testing::Values(ipc::Transport::Pipe, ipc::Transport::SocketPair),
                       ::testing::Values(ipc::FaultKind::CorruptByte, ipc::FaultKind::Truncate,
                                         ipc::FaultKind::Drop, ipc::FaultKind::Duplicate,
                                         ipc::FaultKind::Delay, ipc::FaultKind::ShortRead,
                                         ipc::FaultKind::EagainStorm,
                                         ipc::FaultKind::Disconnect)),
    [](const auto& info) {
      return scheme_tag(std::get<0>(info.param)) + "_" +
             ipc::transport_name(std::get<1>(info.param)) + "_" +
             kind_tag(std::get<2>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    EndedSessions, DeadSessionDrain,
    ::testing::Values(std::tuple(Scheme::GdbKernel, ipc::FaultKind::Truncate),
                      std::tuple(Scheme::GdbKernel, ipc::FaultKind::Duplicate),
                      std::tuple(Scheme::DriverKernel, ipc::FaultKind::Disconnect)),
    [](const auto& info) {
      return scheme_tag(std::get<0>(info.param)) + "_" + kind_tag(std::get<1>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    Control, HealthyBaseline,
    ::testing::Combine(::testing::Values(Scheme::GdbWrapper, Scheme::GdbKernel,
                                         Scheme::DriverKernel),
                       ::testing::Values(ipc::Transport::Pipe, ipc::Transport::SocketPair)),
    [](const auto& info) {
      return scheme_tag(std::get<0>(info.param)) + "_" +
             ipc::transport_name(std::get<1>(info.param));
    });

}  // namespace
}  // namespace nisc
