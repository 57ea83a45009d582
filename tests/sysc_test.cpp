// Unit tests for the niscosim SystemC-like kernel: time, events, processes,
// signals, fifos, clocks, iss ports and kernel-extension hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sysc/sysc.hpp"
#include "util/rng.hpp"

namespace nisc::sysc {
namespace {

// ---------------------------------------------------------------- sc_time

TEST(TimeTest, LiteralsAndScale) {
  EXPECT_EQ((5_ns).ps(), 5000u);
  EXPECT_EQ((2_us).ps(), 2000000u);
  EXPECT_EQ((1_ms).ps(), 1000000000u);
  EXPECT_EQ(sc_time(1.5, SC_NS).ps(), 1500u);
}

TEST(TimeTest, Ordering) {
  EXPECT_LT(1_ns, 2_ns);
  EXPECT_EQ(1000_ps, 1_ns);
  EXPECT_GT(1_us, 999_ns);
}

TEST(TimeTest, Arithmetic) {
  EXPECT_EQ(1_ns + 500_ps, 1500_ps);
  EXPECT_EQ(2_us - 1_us, 1_us);
  EXPECT_EQ(3_ns * 4, 12_ns);
  EXPECT_THROW(1_ns - 2_ns, util::LogicError);
}

TEST(TimeTest, NegativeRejected) { EXPECT_THROW(sc_time(-1.0, SC_NS), util::LogicError); }

TEST(TimeTest, ToString) {
  EXPECT_EQ((5_ns).to_string(), "5 ns");
  EXPECT_EQ((1500_ps).to_string(), "1500 ps");
  EXPECT_EQ((2_ms).to_string(), "2 ms");
  EXPECT_EQ(sc_time(3.0, SC_SEC).to_string(), "3 s");
}

TEST(TimeTest, Conversions) {
  EXPECT_DOUBLE_EQ((1500_ps).to_ns(), 1.5);
  EXPECT_DOUBLE_EQ((2_ms).to_ms(), 2.0);
  EXPECT_DOUBLE_EQ(sc_time(1.0, SC_SEC).to_seconds(), 1.0);
}

// ---------------------------------------------------------------- objects & naming

TEST(ObjectTest, RequiresContext) {
  EXPECT_THROW(current_context(), util::LogicError);
}

TEST(ObjectTest, UniqueNames) {
  sc_simcontext ctx;
  sc_signal<int> a("sig");
  sc_signal<int> b("sig");
  EXPECT_EQ(a.name(), "sig");
  EXPECT_EQ(b.name(), "sig_1");
  EXPECT_EQ(ctx.find_object("sig"), &a);
  EXPECT_EQ(ctx.find_object("sig_1"), &b);
  EXPECT_EQ(ctx.find_object("nope"), nullptr);
}

TEST(ObjectTest, RemovalUnregisters) {
  sc_simcontext ctx;
  {
    sc_signal<int> a("temp");
    EXPECT_NE(ctx.find_object("temp"), nullptr);
  }
  EXPECT_EQ(ctx.find_object("temp"), nullptr);
}

TEST(ObjectTest, CreateOwnsObjects) {
  sc_simcontext ctx;
  auto& sig = ctx.create<sc_signal<int>>("owned");
  EXPECT_EQ(ctx.find_object("owned"), &sig);
}

// ---------------------------------------------------------------- method processes

TEST(MethodTest, RunsOnceAtInitialization) {
  sc_simcontext ctx;
  int runs = 0;
  ctx.create_method("m", [&] { ++runs; });
  ctx.run(1_ns);
  EXPECT_EQ(runs, 1);
}

TEST(MethodTest, DontInitializeSkipsInitRun) {
  sc_simcontext ctx;
  int runs = 0;
  auto& p = ctx.create_method("m", [&] { ++runs; });
  p.dont_initialize();
  ctx.run(1_ns);
  EXPECT_EQ(runs, 0);
}

TEST(MethodTest, TriggeredByDeltaNotification) {
  sc_simcontext ctx;
  sc_event ev("ev");
  int runs = 0;
  auto& p = ctx.create_method("m", [&] { ++runs; });
  p.make_sensitive(ev);
  p.dont_initialize();
  ctx.create_method("kick", [&] { ev.notify_delta(); }).dont_initialize();
  // Manually make `kick` runnable by notifying through another event.
  sc_event start("start");
  ctx.find_object("kick");
  ctx.run(1_ns);
  EXPECT_EQ(runs, 0);  // nothing ever triggered
}

TEST(MethodTest, ChainedNotifications) {
  sc_simcontext ctx;
  sc_event ev("ev");
  std::vector<int> order;
  auto& chain = ctx.create_method("chain", [&] { order.push_back(2); });
  chain.make_sensitive(ev);
  chain.dont_initialize();
  ctx.create_method("init", [&] {
    order.push_back(1);
    ev.notify_delta();
  });
  ctx.run(1_ns);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(MethodTest, ImmediateNotificationRunsSamePhase) {
  sc_simcontext ctx;
  sc_event ev("ev");
  std::uint64_t trigger_delta = 0;
  std::uint64_t run_delta = ~0ULL;
  auto& target = ctx.create_method("t", [&] { run_delta = ctx.delta_count(); });
  target.make_sensitive(ev);
  target.dont_initialize();
  ctx.create_method("kick", [&] {
    trigger_delta = ctx.delta_count();
    ev.notify();  // immediate
  });
  ctx.run(1_ns);
  EXPECT_EQ(run_delta, trigger_delta);
}

TEST(MethodTest, TimedNotification) {
  sc_simcontext ctx;
  sc_event ev("ev");
  sc_time fired = sc_time::max();
  auto& target = ctx.create_method("t", [&] { fired = ctx.time_stamp(); });
  target.make_sensitive(ev);
  target.dont_initialize();
  ctx.create_method("kick", [&] { ev.notify(10_ns); });
  ctx.run(100_ns);
  EXPECT_EQ(fired, 10_ns);
}

TEST(MethodTest, RunWindowExcludesLaterEvents) {
  sc_simcontext ctx;
  sc_event ev("ev");
  int runs = 0;
  auto& target = ctx.create_method("t", [&] { ++runs; });
  target.make_sensitive(ev);
  target.dont_initialize();
  ctx.create_method("kick", [&] { ev.notify(10_ns); });
  ctx.run(5_ns);
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(ctx.time_stamp(), 5_ns);
  ctx.run(10_ns);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(ctx.time_stamp(), 10_ns);  // stops when starved after the event
}

TEST(MethodTest, PeriodicSelfRetrigger) {
  sc_simcontext ctx;
  sc_event tick("tick");
  int runs = 0;
  auto& p = ctx.create_method("p", [&] {
    ++runs;
    tick.notify(10_ns);
  });
  p.make_sensitive(tick);
  ctx.run(95_ns);
  EXPECT_EQ(runs, 10);  // t=0 (init) plus 10,20,...,90
}

// ---------------------------------------------------------------- signals

TEST(SignalTest, InitialValue) {
  sc_simcontext ctx;
  sc_signal<int> sig("s", 42);
  EXPECT_EQ(sig.read(), 42);
}

TEST(SignalTest, WriteVisibleAfterUpdatePhase) {
  sc_simcontext ctx;
  sc_signal<int> sig("s");
  int seen_during_write_phase = -1;
  ctx.create_method("w", [&] {
    sig.write(7);
    seen_during_write_phase = sig.read();
  });
  ctx.run(1_ns);
  EXPECT_EQ(seen_during_write_phase, 0);  // old value within the evaluate phase
  EXPECT_EQ(sig.read(), 7);               // updated afterwards
}

TEST(SignalTest, ValueChangedTriggersSensitiveProcess) {
  sc_simcontext ctx;
  sc_signal<int> sig("s");
  std::vector<int> seen;
  auto& reader = ctx.create_method("r", [&] { seen.push_back(sig.read()); });
  reader.make_sensitive(sig.value_changed_event());
  reader.dont_initialize();
  ctx.create_method("w", [&] { sig.write(5); });
  ctx.run(1_ns);
  EXPECT_EQ(seen, (std::vector<int>{5}));
}

TEST(SignalTest, NoEventWhenValueUnchanged) {
  sc_simcontext ctx;
  sc_signal<int> sig("s", 5);
  int triggers = 0;
  auto& reader = ctx.create_method("r", [&] { ++triggers; });
  reader.make_sensitive(sig.value_changed_event());
  reader.dont_initialize();
  ctx.create_method("w", [&] { sig.write(5); });  // same value
  ctx.run(1_ns);
  EXPECT_EQ(triggers, 0);
}

TEST(SignalTest, LastWriteWins) {
  sc_simcontext ctx;
  sc_signal<int> sig("s");
  ctx.create_method("w", [&] {
    sig.write(1);
    sig.write(2);
    sig.write(3);
  });
  ctx.run(1_ns);
  EXPECT_EQ(sig.read(), 3);
}

TEST(SignalTest, BoolEdges) {
  sc_simcontext ctx;
  sc_signal<bool> sig("s", false);
  int pos = 0;
  int neg = 0;
  auto& p = ctx.create_method("pos", [&] { ++pos; });
  p.make_sensitive(sig.posedge_event());
  p.dont_initialize();
  auto& n = ctx.create_method("neg", [&] { ++neg; });
  n.make_sensitive(sig.negedge_event());
  n.dont_initialize();

  ctx.create_method("drive", [&] { sig.write(true); });
  ctx.run(1_ns);
  EXPECT_EQ(pos, 1);
  EXPECT_EQ(neg, 0);
}

TEST(SignalTest, EventFlagDuringFollowingDelta) {
  sc_simcontext ctx;
  sc_signal<int> sig("s");
  bool flag_seen = false;
  auto& reader = ctx.create_method("r", [&] { flag_seen = sig.event(); });
  reader.make_sensitive(sig.value_changed_event());
  reader.dont_initialize();
  ctx.create_method("w", [&] { sig.write(9); });
  ctx.run(1_ns);
  EXPECT_TRUE(flag_seen);
}

// ---------------------------------------------------------------- ports

TEST(PortTest, UnboundPortFailsElaboration) {
  sc_simcontext ctx;
  sc_in<int> in("in");
  EXPECT_THROW(ctx.run(1_ns), util::LogicError);
}

TEST(PortTest, BoundPortsReadAndWrite) {
  sc_simcontext ctx;
  sc_signal<int> sig("s");
  sc_in<int> in("in");
  sc_out<int> out("out");
  in.bind(sig);
  out.bind(sig);
  ctx.create_method("w", [&] { out.write(11); });
  ctx.run(1_ns);
  EXPECT_EQ(in.read(), 11);
  EXPECT_EQ(out.read(), 11);
}

TEST(PortTest, PortEventsForwardToSignal) {
  sc_simcontext ctx;
  sc_signal<bool> sig("s");
  sc_in<bool> in("in");
  in.bind(sig);
  int pos = 0;
  auto& p = ctx.create_method("p", [&] { ++pos; });
  p.make_sensitive(in.posedge_event());
  p.dont_initialize();
  ctx.create_method("w", [&] { sig.write(true); });
  ctx.run(1_ns);
  EXPECT_EQ(pos, 1);
}

TEST(PortTest, ReadBeforeBindThrows) {
  sc_simcontext ctx;
  sc_in<int> in("in");
  EXPECT_THROW(in.read(), util::LogicError);
}

// ---------------------------------------------------------------- threads

TEST(ThreadTest, RunsUntilFirstWait) {
  sc_simcontext ctx;
  int phase = 0;
  sc_event ev("ev");
  ctx.create_thread("t", [&] {
    phase = 1;
    wait(ev);
    phase = 2;
  });
  ctx.run(1_ns);
  EXPECT_EQ(phase, 1);
}

TEST(ThreadTest, WaitEventResumes) {
  sc_simcontext ctx;
  sc_event ev("ev");
  int phase = 0;
  ctx.create_thread("t", [&] {
    phase = 1;
    wait(ev);
    phase = 2;
  });
  ctx.create_method("kick", [&] { ev.notify(5_ns); });
  ctx.run(10_ns);
  EXPECT_EQ(phase, 2);
}

TEST(ThreadTest, WaitTimeAdvancesClock) {
  sc_simcontext ctx;
  std::vector<std::uint64_t> stamps;
  ctx.create_thread("t", [&] {
    for (int i = 0; i < 3; ++i) {
      stamps.push_back(ctx.time_stamp().ps());
      wait(10_ns);
    }
  });
  ctx.run(100_ns);
  EXPECT_EQ(stamps, (std::vector<std::uint64_t>{0, 10000, 20000}));
}

TEST(ThreadTest, StaticSensitivityIgnoredDuringTimedWait) {
  sc_simcontext ctx;
  sc_event ev("ev");
  int resumes = 0;
  auto& t = ctx.create_thread("t", [&] {
    for (;;) {
      wait(20_ns);
      ++resumes;
    }
  });
  t.make_sensitive(ev);
  ctx.create_method("noise", [&] { ev.notify(5_ns); });
  ctx.run(25_ns);
  EXPECT_EQ(resumes, 1);  // the 5ns notify must not wake the timed wait
}

TEST(ThreadTest, TwoThreadsPingPong) {
  sc_simcontext ctx;
  sc_event ping("ping");
  sc_event pong("pong");
  std::vector<std::string> log;
  ctx.create_thread("a", [&] {
    for (int i = 0; i < 3; ++i) {
      log.push_back("a");
      ping.notify_delta();
      wait(pong);
    }
  });
  ctx.create_thread("b", [&] {
    for (int i = 0; i < 3; ++i) {
      wait(ping);
      log.push_back("b");
      pong.notify_delta();
    }
  });
  ctx.run(1_ns);
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "a", "b", "a", "b"}));
}

TEST(ThreadTest, TerminatedThreadStopsRunning) {
  sc_simcontext ctx;
  int runs = 0;
  sc_event ev("ev");
  auto& t = ctx.create_thread("t", [&] { ++runs; });  // returns immediately
  t.make_sensitive(ev);
  ctx.create_method("kick", [&] { ev.notify(5_ns); });
  ctx.run(10_ns);
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(t.terminated());
}

TEST(ThreadTest, ExceptionPropagatesToRun) {
  sc_simcontext ctx;
  ctx.create_thread("t", [&] { throw std::runtime_error("guest fault"); });
  EXPECT_THROW(ctx.run(1_ns), std::runtime_error);
}

TEST(KernelTest, AThrowingProcessLeavesTheKernelUsable) {
  // `kick` wakes `m` in the same evaluate phase, then `boom` throws before
  // `m` runs. The next run() goes on with `m` and does not dispatch `kick`
  // or `boom` again.
  sc_simcontext ctx;
  sc_event ev("ev");
  int kicks = 0;
  int booms = 0;
  int m_runs = 0;
  ctx.create_method("kick", [&] {
    ++kicks;
    ev.notify();  // immediate
  });
  ctx.create_method("boom", [&] {
    ++booms;
    throw std::runtime_error("process fault");
  });
  auto& m = ctx.create_method("m", [&] { ++m_runs; });
  m.make_sensitive(ev);
  m.dont_initialize();
  EXPECT_THROW(ctx.run(1_ns), std::runtime_error);
  EXPECT_EQ(m_runs, 0);
  ctx.run(1_ns);
  EXPECT_EQ(kicks, 1);
  EXPECT_EQ(booms, 1);
  EXPECT_EQ(m_runs, 1);
}

TEST(ThreadTest, BlockedThreadKilledCleanlyAtTeardown) {
  sc_simcontext ctx;
  sc_event ev("ev");
  ctx.create_thread("t", [&] {
    for (;;) wait(ev);
  });
  ctx.run(1_ns);
  // Context destruction must join the blocked thread without hanging.
}

TEST(ThreadTest, WaitOutsideProcessThrows) {
  sc_simcontext ctx;
  EXPECT_THROW(wait(1_ns), util::LogicError);
}

// ---------------------------------------------------------------- coroutines

TEST(CoroutineTest, BodyRunsOnTheCallersHostThread) {
  sc_simcontext ctx;
  std::vector<std::thread::id> seen;
  ctx.create_thread("t", [&] {
    seen.push_back(std::this_thread::get_id());
    wait(1_ns);
    seen.push_back(std::this_thread::get_id());
  });
  ctx.run(10_ns);
  EXPECT_EQ(seen, (std::vector<std::thread::id>(2, std::this_thread::get_id())));
}

TEST(CoroutineTest, TeardownRunsTheDestructorsOfASuspendedBody) {
  struct Sentinel {
    int* destroyed;
    ~Sentinel() { ++*destroyed; }
  };
  int destroyed = 0;
  {
    sc_simcontext ctx;
    sc_event never("never");
    ctx.create_thread("t", [&] {
      Sentinel outer{&destroyed};
      Sentinel inner{&destroyed};
      wait(never);
    });
    ctx.run(1_ns);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 2);
}

TEST(CoroutineTest, ThrowAfterAWaitPropagatesAndStaysTerminated) {
  sc_simcontext ctx;
  sc_event ev("ev");
  int resumes = 0;
  auto& t = ctx.create_thread("t", [&] {
    wait(5_ns);
    ++resumes;
    throw std::runtime_error("guest fault after a wait");
  });
  t.make_sensitive(ev);
  EXPECT_THROW(ctx.run(10_ns), std::runtime_error);
  EXPECT_TRUE(t.terminated());
  EXPECT_EQ(t.run_count(), 2u);

  ev.notify(1_ns);  // static sensitivity must not revive it
  ctx.run(10_ns);
  EXPECT_EQ(t.run_count(), 2u);
  EXPECT_EQ(resumes, 1);
}

TEST(CoroutineTest, ManyPingPongingThreadsResumeExactlyAndTearDown) {
  constexpr int kPairs = 128;
  constexpr std::uint64_t kRounds = 10;
  sc_simcontext ctx;
  std::vector<std::unique_ptr<sc_event>> events;
  std::vector<const sc_process*> threads;
  std::uint64_t handoffs = 0;
  for (int p = 0; p < kPairs; ++p) {
    sc_event& ping = *events.emplace_back(std::make_unique<sc_event>("ping"));
    sc_event& pong = *events.emplace_back(std::make_unique<sc_event>("pong"));
    threads.push_back(&ctx.create_thread("a", [&ping, &pong, &handoffs] {
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        ping.notify_delta();
        wait(pong);
        ++handoffs;
      }
    }));
    threads.push_back(&ctx.create_thread("b", [&ping, &pong, &handoffs] {
      for (;;) {
        wait(ping);
        ++handoffs;
        pong.notify_delta();
      }
    }));
  }
  ctx.run(1_ns);

  // Each thread runs to its first wait, then is resumed once per round.
  std::uint64_t resumes = 0;
  for (const sc_process* t : threads) resumes += t->run_count();
  EXPECT_EQ(resumes, 2 * kPairs * (kRounds + 1));
  EXPECT_EQ(handoffs, 2 * kPairs * kRounds);
  for (int p = 0; p < kPairs; ++p) {
    EXPECT_TRUE(threads[2 * p]->terminated());       // finished its rounds
    EXPECT_FALSE(threads[2 * p + 1]->terminated());  // waits for one more ping
  }
  // Teardown kills the 128 suspended threads.
}

TEST(CoroutineTest, CurrentProcessFollowsEveryDispatch) {
  sc_simcontext ctx;
  sc_event ev("ev");
  sc_event poke("poke");
  std::vector<const sc_process*> seen_by_thread;
  std::vector<const sc_process*> seen_by_method;
  auto& t = ctx.create_thread("t", [&] {
    for (;;) {
      seen_by_thread.push_back(current_process());
      poke.notify();  // immediate: the method runs right after this thread yields
      wait(ev);
    }
  });
  auto& m = ctx.create_method("m", [&] { seen_by_method.push_back(current_process()); });
  m.make_sensitive(poke);
  m.dont_initialize();
  ev.notify(5_ns);
  EXPECT_EQ(current_process(), nullptr);
  ctx.run(10_ns);
  EXPECT_EQ(seen_by_thread, (std::vector<const sc_process*>{&t, &t}));
  EXPECT_EQ(seen_by_method, (std::vector<const sc_process*>{&m, &m}));
  EXPECT_EQ(current_process(), nullptr);
}

TEST(CoroutineTest, NestedContextRunsToCompletionInsideAThreadBody) {
  sc_simcontext outer;
  std::vector<std::uint64_t> inner_stamps;
  std::vector<const sc_process*> inner_seen;
  const sc_process* after_inner = nullptr;
  bool outer_done = false;
  auto& outer_thread = outer.create_thread("outer", [&] {
    wait(1_ns);
    {
      sc_simcontext inner;
      sc_event never("never");
      auto& counter = inner.create_thread("counter", [&] {
        for (int i = 0; i < 3; ++i) {
          inner_seen.push_back(current_process());
          inner_stamps.push_back(inner.time_stamp().ps());
          wait(10_ns);
        }
      });
      inner.create_thread("idle", [&] {
        for (;;) wait(never);
      });
      inner.run(100_ns);
      EXPECT_TRUE(counter.terminated());
      EXPECT_EQ(inner_seen, (std::vector<const sc_process*>(3, &counter)));
    }  // kills "idle" from inside this coroutine
    after_inner = current_process();
    wait(1_ns);
    outer_done = true;
  });
  outer.run(10_ns);
  EXPECT_EQ(inner_stamps, (std::vector<std::uint64_t>{0, 10000, 20000}));
  EXPECT_EQ(after_inner, &outer_thread);
  EXPECT_TRUE(outer_done);
  EXPECT_TRUE(outer_thread.terminated());
}

// ---------------------------------------------------------------- fifo

TEST(FifoTest, NonBlockingOps) {
  sc_simcontext ctx;
  sc_fifo<int> fifo("f", 2);
  EXPECT_TRUE(fifo.nb_write(1));
  EXPECT_TRUE(fifo.nb_write(2));
  EXPECT_FALSE(fifo.nb_write(3));  // full
  int v = 0;
  EXPECT_TRUE(fifo.nb_read(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(fifo.nb_read(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(fifo.nb_read(v));  // empty
}

TEST(FifoTest, CountsTrackContents) {
  sc_simcontext ctx;
  sc_fifo<int> fifo("f", 4);
  EXPECT_EQ(fifo.num_free(), 4u);
  fifo.nb_write(1);
  fifo.nb_write(2);
  EXPECT_EQ(fifo.num_available(), 2u);
  EXPECT_EQ(fifo.num_free(), 2u);
}

TEST(FifoTest, ZeroCapacityRejected) {
  sc_simcontext ctx;
  EXPECT_THROW(sc_fifo<int>("f", 0), util::LogicError);
}

TEST(FifoTest, BlockingProducerConsumer) {
  sc_simcontext ctx;
  sc_fifo<int> fifo("f", 2);
  std::vector<int> received;
  ctx.create_thread("producer", [&] {
    for (int i = 0; i < 10; ++i) fifo.write(i);
  });
  ctx.create_thread("consumer", [&] {
    for (int i = 0; i < 10; ++i) received.push_back(fifo.read());
  });
  ctx.run(1_ns);
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(FifoTest, ConsumerBlocksUntilData) {
  sc_simcontext ctx;
  sc_fifo<int> fifo("f", 4);
  sc_time consumed_at = sc_time::max();
  ctx.create_thread("consumer", [&] {
    int v = fifo.read();
    (void)v;
    consumed_at = ctx.time_stamp();
  });
  ctx.create_thread("producer", [&] {
    wait(30_ns);
    fifo.write(1);
  });
  ctx.run(100_ns);
  EXPECT_EQ(consumed_at, 30_ns);
}

// ---------------------------------------------------------------- clock

TEST(ClockTest, PosedgesAccumulate) {
  sc_simcontext ctx;
  sc_clock clk("clk", 10_ns);
  ctx.run(95_ns);
  // Posedges at 0,10,...,90 -> 10 posedges.
  EXPECT_EQ(clk.posedge_count(), 10u);
}

TEST(ClockTest, ProcessSensitiveToPosedge) {
  sc_simcontext ctx;
  sc_clock clk("clk", 10_ns);
  int edges = 0;
  auto& p = ctx.create_method("p", [&] { ++edges; });
  p.make_sensitive(clk.posedge_event());
  p.dont_initialize();
  ctx.run(45_ns);
  EXPECT_EQ(edges, 5);  // 0,10,20,30,40
}

TEST(ClockTest, OddPeriodRejected) {
  sc_simcontext ctx;
  EXPECT_THROW(sc_clock("clk", 3_ps), util::LogicError);
}

TEST(ClockTest, ValueAlternates) {
  sc_simcontext ctx;
  sc_clock clk("clk", 10_ns);
  std::vector<bool> samples;
  auto& p = ctx.create_method("sample", [&] { samples.push_back(clk.read()); });
  p.make_sensitive(clk.signal().value_changed_event());
  p.dont_initialize();
  ctx.run(25_ns);
  ASSERT_GE(samples.size(), 4u);
  EXPECT_TRUE(samples[0]);
  EXPECT_FALSE(samples[1]);
  EXPECT_TRUE(samples[2]);
  EXPECT_FALSE(samples[3]);
}

// ---------------------------------------------------------------- run control

TEST(RunTest, StopEndsRunEarly) {
  sc_simcontext ctx;
  sc_event tick("tick");
  int runs = 0;
  auto& p = ctx.create_method("p", [&] {
    if (++runs == 3) ctx.stop();
    tick.notify(10_ns);
  });
  p.make_sensitive(tick);
  ctx.run(1000_ns);
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(ctx.time_stamp(), 20_ns);
}

TEST(RunTest, RepeatedRunsContinueSimulation) {
  sc_simcontext ctx;
  sc_event tick("tick");
  int runs = 0;
  auto& p = ctx.create_method("p", [&] {
    ++runs;
    tick.notify(10_ns);
  });
  p.make_sensitive(tick);
  ctx.run(25_ns);
  int after_first = runs;
  ctx.run(20_ns);
  EXPECT_GT(runs, after_first);
  EXPECT_EQ(ctx.time_stamp(), 45_ns);
}

TEST(RunTest, RunToStarvationEnds) {
  sc_simcontext ctx;
  sc_event ev("ev");
  int runs = 0;
  auto& p = ctx.create_method("p", [&] { ++runs; });
  p.make_sensitive(ev);
  p.dont_initialize();
  ctx.create_method("kick", [&] { ev.notify(50_ns); });
  sc_time end = ctx.run_to_starvation();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(end, 50_ns);
}

TEST(RunTest, StatsAccumulate) {
  sc_simcontext ctx;
  sc_clock clk("clk", 10_ns);
  ctx.run(100_ns);
  const kernel_stats& stats = ctx.stats();
  EXPECT_GT(stats.delta_cycles, 10u);
  EXPECT_GT(stats.process_dispatches, 10u);
  EXPECT_GT(stats.channel_updates, 10u);
  EXPECT_GT(stats.timed_advances, 9u);
}

TEST(RunTest, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    sc_simcontext ctx;
    sc_clock clk("clk", 10_ns);
    sc_signal<int> sig("s");
    auto& p = ctx.create_method("p", [&] { sig.write(sig.read() + 1); });
    p.make_sensitive(clk.posedge_event());
    p.dont_initialize();
    ctx.run(1000_ns);
    return std::pair(ctx.stats().delta_cycles, sig.read());
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------- timed queue

/// A few hundred timed notifications, scheduled in index order (entry i
/// gets sequence number i) at a handful of distinct times: an event
/// notified by a method that runs once at initialization, or a thread's
/// wait(time). Some events are destroyed while their entry is queued.
struct TimedPlan {
  struct Entry {
    bool thread = false;
    std::uint64_t at_ps = 0;
    bool cancelled_early = false;  ///< destroyed before the first advance
    bool cancelled_late = false;   ///< destroyed after the first window
  };
  std::vector<Entry> entries;

  explicit TimedPlan(std::uint64_t seed) {
    util::Rng rng(seed);
    entries.resize(300);
    for (Entry& e : entries) {
      e.thread = rng.below(3) == 0;
      e.at_ps = rng.below(16) * 1000;
      e.cancelled_early = !e.thread && rng.below(7) == 0;
      e.cancelled_late = !e.thread && !e.cancelled_early && rng.below(7) == 0;
    }
  }
};

using Fire = std::pair<std::uint64_t, std::size_t>;  // (time in ps, entry index)

/// `prefix` followed by `i`, built by appending (GCC 12 at -O3 warns a
/// false -Wrestrict on "literal" + std::string here).
std::string indexed(const char* prefix, std::size_t i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

/// The design for a TimedPlan: the receiver of entry i (method "m<i>" or
/// thread "p<i>") logs a Fire when the entry fires. Events share four
/// names, so a snapshot tells them apart by ordinal. kernel_state keeps no
/// thread stacks, so a restored design starts each thread past its wait.
struct TimedDesign {
  std::vector<std::unique_ptr<sc_event>> events;  // null for thread entries
  std::vector<Fire> log;

  TimedDesign(sc_simcontext& ctx, const TimedPlan& plan, bool restored) {
    sc_simcontext::ContextGuard guard(ctx);
    events.resize(plan.entries.size());
    for (std::size_t i = 0; i < plan.entries.size(); ++i) {
      const TimedPlan::Entry& e = plan.entries[i];
      const sc_time at = sc_time::from_ps(e.at_ps);
      if (e.thread) {
        ctx.create_thread(indexed("p", i), [this, &ctx, i, at, restored] {
          if (!restored) wait(at);
          log.emplace_back(ctx.time_stamp().ps(), i);
        });
        continue;
      }
      events[i] = std::make_unique<sc_event>(indexed("ev", i % 4));
      sc_event& event = *events[i];
      ctx.create_method(indexed("p", i), [&event, at] { event.notify(at); });
      auto log_fire = [this, &ctx, i] { log.emplace_back(ctx.time_stamp().ps(), i); };
      sc_process& receiver = ctx.create_method(indexed("m", i), log_fire);
      receiver.make_sensitive(event);
      receiver.dont_initialize();
    }
  }
  TimedDesign(const TimedDesign&) = delete;
  TimedDesign& operator=(const TimedDesign&) = delete;

  void cancel(const TimedPlan& plan, bool late) {
    for (std::size_t i = 0; i < events.size(); ++i) {
      const TimedPlan::Entry& e = plan.entries[i];
      if (late ? e.cancelled_late : e.cancelled_early) events[i].reset();
    }
  }
};

TEST(TimedQueueTest, EntriesFireInTimeThenSchedulingOrderThroughCancelAndRestore) {
  constexpr std::uint64_t kWindowPs = 5000;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const TimedPlan plan(seed);
    // The fires a correct queue makes, in (ps, seq) order: within the
    // first window, or after it (when the late cancellations are done).
    auto expected = [&plan](bool after_window) {
      std::vector<Fire> fires;
      for (std::size_t i = 0; i < plan.entries.size(); ++i) {
        const TimedPlan::Entry& e = plan.entries[i];
        if (e.cancelled_early || (after_window && e.cancelled_late)) continue;
        if ((e.at_ps > kWindowPs) == after_window) fires.emplace_back(e.at_ps, i);
      }
      std::sort(fires.begin(), fires.end());
      return fires;
    };

    sc_simcontext original;
    TimedDesign design(original, plan, /*restored=*/false);
    original.run(0_ns);  // initialization: every entry is queued, none has fired
    design.cancel(plan, /*late=*/false);
    original.run(sc_time::from_ps(kWindowPs));
    EXPECT_EQ(design.log, expected(/*after_window=*/false));
    design.cancel(plan, /*late=*/true);

    // The snapshot lists the pending entries in firing order.
    const kernel_state state = original.save_state();
    std::vector<kernel_state::timed_entry> pending;
    for (const Fire& fire : expected(/*after_window=*/true)) {
      const std::size_t i = fire.second;
      kernel_state::timed_entry entry{fire.first, i, plan.entries[i].thread, "", 0};
      if (entry.is_process) {
        entry.name = indexed("p", i);
      } else {
        entry.name = indexed("ev", i % 4);
        for (std::size_t j = i % 4; j < i; j += 4) {
          if (design.events[j] != nullptr) ++entry.ordinal;
        }
      }
      pending.push_back(entry);
    }
    EXPECT_EQ(state.timed, pending);
    EXPECT_TRUE(state.delta_events.empty());

    // The rest fires in that order, and identically in a rebuilt design.
    design.log.clear();
    original.run(20_ns);
    EXPECT_EQ(design.log, expected(/*after_window=*/true));

    sc_simcontext rebuilt;
    TimedDesign copy(rebuilt, plan, /*restored=*/true);
    copy.cancel(plan, /*late=*/false);
    copy.cancel(plan, /*late=*/true);
    rebuilt.restore_state(state);
    EXPECT_EQ(rebuilt.save_state(), state);
    rebuilt.run(20_ns);
    EXPECT_EQ(copy.log, design.log);
  }
}

// ---------------------------------------------------------------- modules

struct Counter : sc_module {
  explicit Counter(std::string name) : sc_module(std::move(name)) {
    declare_method("step", &Counter::step);
    sensitive << clk.pos();  // deferred: clk is not bound yet
    dont_initialize();
  }
  void step() { ++count; }
  sc_in<bool> clk{"clk"};
  int count = 0;
};

TEST(ModuleTest, DeclaredMethodRuns) {
  sc_simcontext ctx;
  sc_clock clk("clk", 10_ns);
  auto& counter = ctx.create<Counter>("counter");
  counter.clk.bind(clk.signal());
  ctx.run(45_ns);
  EXPECT_EQ(counter.count, 5);
}

TEST(ModuleTest, ProcessNamesAreHierarchical) {
  sc_simcontext ctx;
  sc_clock clk("clk", 10_ns);
  auto& counter = ctx.create<Counter>("counter");
  counter.clk.bind(clk.signal());
  EXPECT_NE(ctx.find_object("counter.step"), nullptr);
}

struct Handshake : sc_module {
  explicit Handshake(std::string name) : sc_module(std::move(name)) {
    declare_thread("body", &Handshake::body);
  }
  void body() {
    stage = 1;
    wait(go);
    stage = 2;
  }
  sc_event go{"go"};
  int stage = 0;
};

TEST(ModuleTest, DeclaredThreadWaits) {
  sc_simcontext ctx;
  auto& m = ctx.create<Handshake>("m");
  ctx.run(1_ns);
  EXPECT_EQ(m.stage, 1);
  m.go.notify_delta();
  ctx.run(1_ns);
  EXPECT_EQ(m.stage, 2);
}

TEST(ModuleTest, SensitiveWithoutProcessThrows) {
  sc_simcontext ctx;
  struct Bad : sc_module {
    explicit Bad(std::string name) : sc_module(std::move(name)) {
      sc_event ev("ev");
      sensitive << ev;  // no process declared yet
    }
  };
  EXPECT_THROW(ctx.create<Bad>("bad"), util::LogicError);
}

// ---------------------------------------------------------------- iss ports

TEST(IssPortTest, RegistryFindsPortsByName) {
  sc_simcontext ctx;
  iss_in<std::uint32_t> in("data_in");
  iss_out<std::uint32_t> out("data_out");
  EXPECT_EQ(ctx.find_iss_port("data_in"), &in);
  EXPECT_EQ(ctx.find_iss_port("data_out"), &out);
  EXPECT_EQ(ctx.find_iss_port("nope"), nullptr);
  EXPECT_EQ(ctx.iss_ports().size(), 2u);
}

TEST(IssPortTest, PortUnregistersOnDestruction) {
  sc_simcontext ctx;
  {
    iss_in<std::uint32_t> in("tmp");
    EXPECT_NE(ctx.find_iss_port("tmp"), nullptr);
  }
  EXPECT_EQ(ctx.find_iss_port("tmp"), nullptr);
}

TEST(IssPortTest, DeliverTriggersIssProcess) {
  sc_simcontext ctx;
  iss_in<std::uint32_t> in("data_in");
  std::vector<std::uint32_t> seen;
  auto& p = ctx.create_method("iss_p", [&] { seen.push_back(in.read()); },
                              process_kind::IssMethod);
  p.make_sensitive(in.written_event());
  p.dont_initialize();
  ctx.run(1_ns);
  EXPECT_TRUE(seen.empty());  // not dispatched until data crosses the boundary
  in.deliver(0xABCD);
  ctx.run(1_ns);
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0xABCD}));
}

TEST(IssPortTest, DeliverBytesDecodesLittleEndian) {
  sc_simcontext ctx;
  iss_in<std::uint32_t> in("p");
  const std::uint8_t bytes[] = {0x78, 0x56, 0x34, 0x12};
  in.deliver_bytes(bytes);
  EXPECT_EQ(in.read(), 0x12345678u);
}

TEST(IssPortTest, DeliverBytesRejectsWrongWidth) {
  sc_simcontext ctx;
  iss_in<std::uint32_t> in("p");
  const std::uint8_t bytes[] = {0x01, 0x02};
  EXPECT_THROW(in.deliver_bytes(bytes), util::LogicError);
}

TEST(IssPortTest, OutPortPeekAndFreshness) {
  sc_simcontext ctx;
  iss_out<std::uint32_t> out("p");
  EXPECT_FALSE(out.has_fresh_value());
  out.write(0xCAFEBABE);
  EXPECT_TRUE(out.has_fresh_value());
  auto bytes = out.peek_bytes();
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{0xBE, 0xBA, 0xFE, 0xCA}));
  out.consume_fresh();
  EXPECT_FALSE(out.has_fresh_value());
}

TEST(IssPortTest, OutPortRejectsDeliver) {
  sc_simcontext ctx;
  iss_out<std::uint32_t> out("p");
  const std::uint8_t bytes[] = {1, 2, 3, 4};
  EXPECT_THROW(out.deliver_bytes(bytes), util::LogicError);
}

TEST(IssPortTest, DuplicateNamesRejected) {
  sc_simcontext ctx;
  iss_in<std::uint32_t> a("dup");
  // Traffic reaches a port by its name: a second "dup", which sc_object
  // would rename dup_1, could never be reached under the name it asked for.
  EXPECT_THROW(iss_in<std::uint32_t>("dup"), util::LogicError);
  EXPECT_THROW(iss_out<std::uint32_t>("dup"), util::LogicError);
  EXPECT_EQ(ctx.find_iss_port("dup"), &a);
  EXPECT_EQ(ctx.iss_ports().size(), 1u);
}

TEST(IssPortTest, TransferCountTracksTraffic) {
  sc_simcontext ctx;
  iss_in<std::uint32_t> in("p");
  in.deliver(1);
  in.deliver(2);
  in.deliver(3);
  EXPECT_EQ(in.transfer_count(), 3u);
}

// ---------------------------------------------------------------- extensions

struct CountingExtension : kernel_extension {
  void on_elaboration(sc_simcontext&) override { ++elaborations; }
  void on_cycle_begin(sc_simcontext&) override { ++begins; }
  void on_cycle_end(sc_simcontext&) override { ++ends; }
  void on_time_advance(sc_simcontext&, const sc_time&) override { ++advances; }
  void on_run_end(sc_simcontext&) override { ++run_ends; }
  int elaborations = 0;
  int begins = 0;
  int ends = 0;
  int advances = 0;
  int run_ends = 0;
};

TEST(ExtensionTest, HooksInvoked) {
  sc_simcontext ctx;
  CountingExtension ext;
  ctx.register_extension(&ext);
  sc_clock clk("clk", 10_ns);
  ctx.run(100_ns);
  EXPECT_EQ(ext.elaborations, 1);
  EXPECT_GT(ext.begins, 10);
  EXPECT_EQ(ext.begins, ext.ends);
  EXPECT_GE(ext.advances, 10);
  EXPECT_EQ(ext.run_ends, 1);
}

TEST(ExtensionTest, UnregisterStopsCallbacks) {
  sc_simcontext ctx;
  CountingExtension ext;
  ctx.register_extension(&ext);
  sc_clock clk("clk", 10_ns);
  ctx.run(20_ns);
  int begins = ext.begins;
  ctx.unregister_extension(&ext);
  ctx.run(20_ns);
  EXPECT_EQ(ext.begins, begins);
}

struct InjectingExtension : kernel_extension {
  explicit InjectingExtension(iss_in<std::uint32_t>& port) : port(&port) {}
  void on_cycle_begin(sc_simcontext&) override {
    if (!injected) {
      injected = true;
      port->deliver(99);
    }
  }
  iss_in<std::uint32_t>* port;
  bool injected = false;
};

TEST(ExtensionTest, ExtensionCanDeliverToIssPorts) {
  // This is the paper's Fig. 3 path: the kernel checks for ISS activity at
  // cycle start and feeds the matching iss_in port, waking its iss_process.
  sc_simcontext ctx;
  iss_in<std::uint32_t> port("from_iss");
  std::vector<std::uint32_t> seen;
  auto& p = ctx.create_method("consume", [&] { seen.push_back(port.read()); },
                              process_kind::IssMethod);
  p.make_sensitive(port.written_event());
  p.dont_initialize();
  InjectingExtension ext(port);
  ctx.register_extension(&ext);
  ctx.run(1_ns);
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{99}));
}

}  // namespace
}  // namespace nisc::sysc
