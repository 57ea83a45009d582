// Overhead guard for the observability layer. Lives in its own binary so
// that no other test touches the metrics registry or the tracer first: the
// whole point is to pin down the cost of the *disabled* hot path.
//
//   * MetricsRegistry must not exist until the first counter/gauge/histogram
//     lookup (a binary that never uses metrics pays nothing).
//   * With tracing disabled, ScopedSpan / instant / emit must perform zero
//     heap allocations (counted via global operator new overrides).
//   * Counter::add on the enabled path is allocation-free too.
//   * So are the kernel's per-access checks: bound port reads and writes
//     and a thread's wait(), and a steady-state delta of a clocked design
//     (last, because a kernel run touches the registry).
#include <gtest/gtest.h>

#include "alloc_counter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sysc/sysc.hpp"

namespace {

using namespace nisc;
using test::g_allocations;

TEST(ObsOverheadTest, InertUntilFirstTouch) {
  // Nothing in this binary has used metrics or tracing yet: the registry
  // must not have been constructed behind our back (e.g. by static init
  // inside nisc_obs).
  EXPECT_FALSE(obs::MetricsRegistry::exists());
  EXPECT_FALSE(obs::tracing_enabled());
}

TEST(ObsOverheadTest, DisabledTracePathAllocatesNothing) {
  ASSERT_FALSE(obs::tracing_enabled());
  ASSERT_FALSE(obs::MetricsRegistry::exists());

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    obs::ScopedSpan span("overhead.span", "test", "i", static_cast<std::uint64_t>(i));
    obs::instant("overhead.instant", "test");
    // Raw emit() skips the enabled check by contract, so call sites guard it:
    if (obs::tracing_enabled()) obs::emit('i', "overhead.raw", "test");
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u) << "disabled tracing hot path must not allocate";
  EXPECT_FALSE(obs::MetricsRegistry::exists())
      << "tracing calls must not construct the metrics registry";
}

TEST(ObsOverheadTest, FirstRegistryTouchFlipsExists) {
  ASSERT_FALSE(obs::MetricsRegistry::exists());
  obs::Counter& c = obs::counter("overhead.touch");
  EXPECT_TRUE(obs::MetricsRegistry::exists());

  // Enabled-path guard: with the handle cached (the `static obs::Counter&`
  // idiom used across the codebase) adds are a single relaxed fetch_add.
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) c.add(1);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "Counter::add must not allocate";
  EXPECT_EQ(c.value(), 10000u);
}

TEST(ObsOverheadTest, PassingKernelChecksAllocateNothing) {
  sysc::sc_simcontext ctx;
  auto& in_sig = ctx.create<sysc::sc_signal<int>>("in_sig", 7);
  auto& out_sig = ctx.create<sysc::sc_signal<int>>("out_sig", 0);
  auto& in = ctx.create<sysc::sc_in<int>>("in");
  auto& out = ctx.create<sysc::sc_out<int>>("out");
  in.bind(in_sig);
  out.bind(out_sig);
  sysc::sc_event kick("kick");
  std::uint64_t waits = 0;
  auto& thread = ctx.create_thread("waiter", [&] {
    for (;;) {
      ++waits;
      sysc::wait();
    }
  });
  thread.make_sensitive(kick);
  // Warm up: map the thread's stack, grow the kernel's queues and make the
  // first write's value change (a steady value schedules no notification).
  for (int i = 0; i < 3; ++i) {
    out.write(in.read());
    kick.notify();
    ctx.run(sysc::sc_time{});
  }
  ASSERT_EQ(waits, 3u);

  int sum = 0;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) sum += in.read();
  for (int i = 0; i < 1000; ++i) out.write(7);
  for (int i = 0; i < 1000; ++i) {
    kick.notify();
    ctx.run(sysc::sc_time{});  // one resume: wait() returns and is called again
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "bound port reads/writes and wait() must not allocate";
  EXPECT_EQ(sum, 7000);
  EXPECT_EQ(waits, 1003u);
  EXPECT_EQ(out_sig.read(), 7);
}

TEST(ObsOverheadTest, ClockedDeltasAllocateNothing) {
  // The timed queue, the delta-notification list and an event's waiters
  // keep their capacity, so once they have grown a delta allocates nothing.
  sysc::sc_simcontext ctx;
  auto& clk = ctx.create<sysc::sc_clock>("clk", sysc::sc_time(10, sysc::SC_NS));
  std::uint64_t edges = 0;
  std::uint64_t naps = 0;
  ctx.create_thread("edge", [&] {
    for (;;) {
      sysc::wait(clk.posedge_event());
      ++edges;
    }
  });
  ctx.create_thread("nap", [&] {
    for (;;) {
      sysc::wait(sysc::sc_time(70, sysc::SC_NS));
      ++naps;
    }
  });
  ctx.run(sysc::sc_time(1, sysc::SC_US));  // warm-up: map both stacks, grow every queue

  const std::uint64_t deltas = ctx.delta_count();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  ctx.run(sysc::sc_time(100, sysc::SC_US));
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_GE(ctx.delta_count() - deltas, 10000u);
  EXPECT_EQ(after - before, 0u) << "a steady-state delta must not allocate";
  EXPECT_EQ(edges, 10101u);
  EXPECT_EQ(naps, 1442u);
}

}  // namespace
