// Observability-layer tests: metrics registry semantics (histogram bucket
// edges in particular) and the Chrome-trace exporter round trip, parsed
// back with the in-repo JSON parser.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

using namespace nisc;

namespace {

TEST(MetricsTest, CounterAndGaugeBasics) {
  obs::Counter& c = obs::counter("test.counter");
  const std::uint64_t before = c.value();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), before + 42);
  // Same name -> same object, stable address.
  EXPECT_EQ(&c, &obs::counter("test.counter"));

  obs::Gauge& g = obs::gauge("test.gauge");
  g.set(-7);
  g.add(10);
  EXPECT_EQ(g.value(), 3);
}

TEST(MetricsTest, HistogramBucketBoundaryEdges) {
  obs::Histogram& h = obs::histogram("test.hist_edges", {10, 100});
  ASSERT_EQ(h.bucket_slots(), 3u);  // two bounds + overflow

  h.observe(0);    // lowest representable sample -> first bucket
  h.observe(10);   // exactly on a bound -> that bucket (inclusive)
  h.observe(11);   // one past the bound -> next bucket
  h.observe(100);  // exactly on the last bound -> last real bucket
  h.observe(101);  // one past the last bound -> overflow bucket

  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 0u + 10 + 11 + 100 + 101);
}

TEST(MetricsTest, HistogramQuantiles) {
  obs::Histogram& h = obs::histogram("test.hist_quantile", {1, 2, 4, 8});
  EXPECT_EQ(h.quantile(0.5), 0u);  // empty
  for (int i = 0; i < 90; ++i) h.observe(1);
  for (int i = 0; i < 10; ++i) h.observe(8);
  EXPECT_EQ(h.quantile(0.5), 1u);
  EXPECT_LE(h.quantile(0.95), 8u);
  EXPECT_GT(h.quantile(0.95), 1u);
}

TEST(MetricsTest, HistogramKeepsOriginalBounds) {
  obs::Histogram& h = obs::histogram("test.hist_bounds", {5, 50});
  obs::Histogram& again = obs::histogram("test.hist_bounds", {1, 2, 3});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.bounds(), (std::vector<std::uint64_t>{5, 50}));
}

TEST(MetricsTest, RenderJsonParsesAndCarriesSchema) {
  obs::counter("test.render_counter").add(3);
  obs::gauge("test.render_gauge").set(-5);
  obs::histogram("test.render_hist", {10}).observe(7);

  const std::string json = obs::MetricsRegistry::instance().render_json();
  const util::JsonValue doc = util::parse_json(json);
  EXPECT_EQ(doc.at("schema").as_int(), 1);
  EXPECT_GE(doc.at("counters").at("test.render_counter").as_uint(), 3u);
  EXPECT_EQ(doc.at("gauges").at("test.render_gauge").as_int(), -5);
  const util::JsonValue& hist = doc.at("histograms").at("test.render_hist");
  EXPECT_GE(hist.at("count").as_uint(), 1u);
  EXPECT_EQ(hist.at("bounds").as_array().size(), 1u);
  EXPECT_EQ(hist.at("buckets").as_array().size(), 2u);
}

// ---------------------------------------------------------------------------
// Chrome-trace exporter round trip

class ChromeTraceTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::clear_trace(); }
  void TearDown() override {
    obs::disable_tracing();
    obs::clear_trace();
  }
};

TEST_F(ChromeTraceTest, ExportRoundTrip) {
  obs::enable_tracing();
  {
    obs::ScopedSpan outer("outer", "test", "arg", 42);
    obs::instant("tick", "test", "n", 7);
    obs::ScopedSpan inner("inner", "test");
  }
  std::thread worker([] {
    obs::set_thread_sim_time_ps(123456);
    {
      obs::ScopedSpan span("worker", "test");
      obs::instant("worker.tick", "test");
    }
    obs::set_thread_sim_time_ps(obs::kNoSimTime);
  });
  worker.join();
  obs::disable_tracing();

  // Valid JSON with the Chrome trace_event top-level shape.
  const util::JsonValue doc = util::parse_json(obs::chrome_trace_json());
  const util::JsonArray& events = doc.at("traceEvents").as_array();
  ASSERT_GE(events.size(), 8u);  // 3 B + 3 E + 2 i

  std::map<std::uint64_t, int> depth;           // per-tid open-span depth
  std::map<std::uint64_t, double> last_ts;      // per-tid timestamp monotonicity
  std::map<std::string, int> names;
  for (const util::JsonValue& e : events) {
    const std::string& ph = e.at("ph").as_string();
    ASSERT_TRUE(ph == "B" || ph == "E" || ph == "i") << ph;
    const std::uint64_t tid = e.at("tid").as_uint();
    const double ts = e.at("ts").as_double();
    auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "non-monotonic ts on tid " << tid;
    }
    last_ts[tid] = ts;
    if (ph == "B") ++depth[tid];
    if (ph == "E") {
      --depth[tid];
      EXPECT_GE(depth[tid], 0) << "E without matching B on tid " << tid;
    }
    ++names[e.at("name").as_string()];
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
  EXPECT_EQ(names["outer"], 2);
  EXPECT_EQ(names["inner"], 2);
  EXPECT_EQ(names["worker"], 2);
  EXPECT_EQ(names["tick"], 1);

  // The worker thread published a simulated time: its events carry sim_ps.
  bool worker_sim_ps_seen = false;
  for (const util::JsonValue& e : events) {
    if (e.at("name").as_string() != "worker") continue;
    const util::JsonValue* args = e.find("args");
    ASSERT_NE(args, nullptr);
    const util::JsonValue* sim = args->find("sim_ps");
    ASSERT_NE(sim, nullptr);
    EXPECT_EQ(sim->as_uint(), 123456u);
    worker_sim_ps_seen = true;
  }
  EXPECT_TRUE(worker_sim_ps_seen);
}

TEST_F(ChromeTraceTest, RepairsUnbalancedSpans) {
  obs::enable_tracing();
  obs::emit('E', "orphan_end", "test");    // E with no B: must be dropped
  obs::emit('B', "dangling_begin", "test");  // B with no E: must be closed
  obs::instant("marker", "test");
  obs::disable_tracing();

  const util::JsonValue doc = util::parse_json(obs::chrome_trace_json());
  int balance = 0;
  int orphan_ends = 0;
  int dangling = 0;
  for (const util::JsonValue& e : doc.at("traceEvents").as_array()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "B") ++balance;
    if (ph == "E") {
      --balance;
      EXPECT_GE(balance, 0);
    }
    if (e.at("name").as_string() == "orphan_end") ++orphan_ends;
    if (e.at("name").as_string() == "dangling_begin") ++dangling;
  }
  EXPECT_EQ(balance, 0);
  EXPECT_EQ(orphan_ends, 0) << "orphan E events must not survive export";
  EXPECT_EQ(dangling, 2) << "dangling B must gain a synthesized E";
}

TEST_F(ChromeTraceTest, DisabledEmitsNothing) {
  ASSERT_FALSE(obs::tracing_enabled());
  {
    obs::ScopedSpan span("invisible", "test");
    obs::instant("invisible.tick", "test");
  }
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST_F(ChromeTraceTest, RingCapacityBoundsMemory) {
  // The capacity override only applies to rings created afterwards, so the
  // spam runs on a fresh thread (the main thread's ring already exists).
  obs::enable_tracing(64);
  std::thread spammer([] {
    for (int i = 0; i < 1000; ++i) obs::instant("spam", "test");
  });
  spammer.join();
  obs::disable_tracing();
  EXPECT_LE(obs::trace_event_count(), 64u);
  EXPECT_GE(obs::trace_dropped_count(), 900u);
  // Export still parses after heavy eviction.
  const util::JsonValue doc = util::parse_json(obs::chrome_trace_json());
  EXPECT_LE(doc.at("traceEvents").as_array().size(), 64u);
}

TEST_F(ChromeTraceTest, InternReturnsStablePointers) {
  const char* a = obs::intern("runtime.name");
  const char* b = obs::intern(std::string("runtime.") + "name");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "runtime.name");
}

// ---------------------------------------------------------------------------
// Cross-process snapshot + merge (DESIGN.md §10.5)

TEST_F(ChromeTraceTest, TraceSnapshotEncodeDecodeRoundTrip) {
  obs::enable_tracing();
  obs::set_thread_sim_time_ps(4242);
  {
    obs::ScopedSpan span("snap.span", "test", "k", 9);
    obs::flow_begin("snap.flow", "flow", 0xBEEF);
    obs::instant("snap.tick", "test");
  }
  obs::set_thread_sim_time_ps(obs::kNoSimTime);
  obs::disable_tracing();

  const obs::TraceSnapshot snap = obs::take_trace_snapshot();
  ASSERT_FALSE(snap.threads.empty());
  std::size_t events = 0;
  for (const auto& t : snap.threads) events += t.events.size();
  ASSERT_GE(events, 4u);  // B + s + i + E

  const std::vector<std::uint8_t> wire = obs::encode_trace_snapshot(snap);
  const obs::TraceSnapshot back = obs::decode_trace_snapshot(wire);
  EXPECT_EQ(back, snap);

  // The flow event and the sim_ps stamp survive the wire.
  bool flow_seen = false;
  for (const auto& t : back.threads) {
    for (const auto& e : t.events) {
      if (e.phase == 's') {
        EXPECT_EQ(e.flow_id, 0xBEEFu);
        EXPECT_EQ(e.sim_ps, 4242u);
        flow_seen = true;
      }
    }
  }
  EXPECT_TRUE(flow_seen);

  // Corruption is loud, not silent: bad magic and truncation both throw.
  std::vector<std::uint8_t> bad = wire;
  bad[0] ^= 0xFF;
  EXPECT_THROW(obs::decode_trace_snapshot(bad), util::RuntimeError);
  EXPECT_THROW(
      obs::decode_trace_snapshot(std::span<const std::uint8_t>(wire.data(), wire.size() - 1)),
      util::RuntimeError);
}

// Known answer for the snapshot format (magic "NTRC", version 1, then each
// thread's tid, dropped count and events with u32-length strings).
TEST(TraceSnapshotTest, EncodedBytesArePinned) {
  obs::TraceSnapshot snap;
  obs::TraceSnapshot::Thread thread;
  thread.tid = 3;
  thread.dropped = 1;
  thread.events.push_back({"span", "cat", "addr", 0x10, 100, 2000, 0, 'B'});
  thread.events.push_back({"end", "c", "", 0, 150, 2500, 0x0001000000000001ULL, 'E'});
  snap.threads.push_back(thread);
  const std::vector<std::uint8_t> expected = {
      0x4e, 0x54, 0x52, 0x43, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x03, 0x00,
      0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
      0x42, 0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x07, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x73, 0x70, 0x61, 0x6e, 0x03,
      0x00, 0x00, 0x00, 0x63, 0x61, 0x74, 0x04, 0x00, 0x00, 0x00, 0x61, 0x64, 0x64, 0x72,
      0x45, 0x96, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc4, 0x09, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x01, 0x00, 0x03, 0x00, 0x00, 0x00, 0x65, 0x6e, 0x64, 0x01, 0x00,
      0x00, 0x00, 0x63, 0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(obs::encode_trace_snapshot(snap), expected);
  EXPECT_EQ(obs::decode_trace_snapshot(expected), snap);
}

TEST_F(ChromeTraceTest, MergedExportAlignsClocksAndLinksFlows) {
  // Two hand-built process snapshots: a supervisor-side flow start and a
  // worker-side flow finish sharing one id, with the worker clock 5µs
  // behind (offset +5000ns rebases it).
  obs::TraceSnapshot sup;
  sup.threads.push_back({1, 0, {
      {"sup.dev_write", "sup", "seq", 1, 10000, obs::kNoSimTime, 0, 'B'},
      {"dev_access", "flow", "", 0, 10500, obs::kNoSimTime, 77, 's'},
      {"sup.dev_write", "sup", "", 0, 11000, obs::kNoSimTime, 0, 'E'},
  }});
  obs::TraceSnapshot wrk;
  wrk.threads.push_back({2, 3, {
      {"worker.ecall", "worker", "addr", 0x200, 5200, 7000, 0, 'B'},
      {"dev_access", "flow", "", 0, 5400, 7000, 77, 'f'},
      {"worker.ecall", "worker", "", 0, 5600, 7000, 0, 'E'},
  }});
  std::vector<obs::ProcessTrace> procs;
  procs.push_back({"m/supervisor", 1, 0, std::move(sup)});
  procs.push_back({"m/worker", 2, 5000, std::move(wrk)});

  const util::JsonValue doc = util::parse_json(obs::chrome_trace_json(procs));
  const util::JsonArray& events = doc.at("traceEvents").as_array();

  std::map<std::string, unsigned> process_names;  // name -> pid
  double flow_start_ts = -1, flow_finish_ts = -1;
  unsigned flow_start_pid = 0, flow_finish_pid = 0;
  std::string flow_start_id, flow_finish_id;
  for (const util::JsonValue& e : events) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M" && e.at("name").as_string() == "process_name") {
      process_names[e.at("args").at("name").as_string()] =
          static_cast<unsigned>(e.at("pid").as_uint());
    }
    if (ph == "s") {
      flow_start_ts = e.at("ts").as_double();
      flow_start_pid = static_cast<unsigned>(e.at("pid").as_uint());
      flow_start_id = e.at("id").as_string();
    }
    if (ph == "f") {
      flow_finish_ts = e.at("ts").as_double();
      flow_finish_pid = static_cast<unsigned>(e.at("pid").as_uint());
      flow_finish_id = e.at("id").as_string();
      EXPECT_EQ(e.at("bp").as_string(), "e");
    }
  }
  EXPECT_EQ(process_names["m/supervisor"], 1u);
  EXPECT_EQ(process_names["m/worker"], 2u);
  // Same flow id on both sides, different pids: the Perfetto arrow.
  EXPECT_EQ(flow_start_id, flow_finish_id);
  EXPECT_NE(flow_start_id, "");
  EXPECT_EQ(flow_start_pid, 1u);
  EXPECT_EQ(flow_finish_pid, 2u);
  // Worker ts 5400ns + offset 5000ns = 10400ns = 10.4µs: lands between the
  // supervisor's flow start (10.5µs) minus slack and span end.
  EXPECT_DOUBLE_EQ(flow_finish_ts, 10.4);
  EXPECT_DOUBLE_EQ(flow_start_ts, 10.5);

  // Worker events keep their sim_ps args through the merge.
  bool sim_seen = false;
  for (const util::JsonValue& e : events) {
    if (e.at("ph").as_string() != "B") continue;
    if (e.at("name").as_string() != "worker.ecall") continue;
    EXPECT_EQ(e.at("args").at("sim_ps").as_uint(), 7000u);
    EXPECT_EQ(e.at("args").at("addr").as_uint(), 0x200u);
    sim_seen = true;
  }
  EXPECT_TRUE(sim_seen);
}

TEST_F(ChromeTraceTest, DroppedEventsSurfaceAsCounter) {
  const std::uint64_t before = obs::counter("trace.dropped_events").value();
  obs::enable_tracing(32);
  std::thread spammer([] {
    for (int i = 0; i < 500; ++i) obs::instant("spam", "test");
  });
  spammer.join();
  obs::disable_tracing();
  // At least 500-32 evictions landed on the registry counter (S1: the same
  // counter `cosim_stat stats` prints).
  EXPECT_GE(obs::counter("trace.dropped_events").value(), before + 468);
  const util::JsonValue doc =
      util::parse_json(obs::MetricsRegistry::instance().render_json());
  EXPECT_GE(doc.at("counters").at("trace.dropped_events").as_uint(), before + 468);

  // The per-thread dropped count also rides in the snapshot.
  const obs::TraceSnapshot snap = obs::take_trace_snapshot();
  std::uint64_t snap_dropped = 0;
  for (const auto& t : snap.threads) snap_dropped += t.dropped;
  EXPECT_GE(snap_dropped, 468u);
}

// ---------------------------------------------------------------------------
// Concurrency (S3): export and render while writers are live. Run under
// TSan these must stay clean — rings are field-atomic, the registry locks.

TEST(MetricsConcurrencyTest, RenderAndSnapshotUnderConcurrentUpdates) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&stop, w] {
      obs::Counter& c = obs::counter("test.concurrent_counter");
      obs::Gauge& g = obs::gauge("test.concurrent_gauge");
      obs::Histogram& h = obs::histogram("test.concurrent_hist", {10, 100, 1000});
      // A fixed floor of iterations, then spin until the readers finish —
      // guarantees real overlap regardless of scheduling.
      for (std::uint64_t i = 0; i < 1000 || !stop.load(std::memory_order_relaxed); ++i) {
        c.add();
        g.set(static_cast<std::int64_t>(i) * (w % 2 ? 1 : -1));
        h.observe(i % 2000);
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    const std::string json = obs::MetricsRegistry::instance().render_json();
    const util::JsonValue doc = util::parse_json(json);
    EXPECT_EQ(doc.at("schema").as_int(), 1);
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
    const util::JsonValue doc2 = util::parse_json(obs::render_snapshot_json(snap));
    EXPECT_EQ(doc2.at("schema").as_int(), 1);
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_GE(obs::counter("test.concurrent_counter").value(), 1u);
}

TEST_F(ChromeTraceTest, ExportWhileRecording) {
  obs::enable_tracing(1024);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        obs::ScopedSpan span("live.span", "test", "n", 1);
        obs::flow_step("live.flow", "flow", 0x1234);
        obs::instant("live.tick", "test");
      }
    });
  }
  // Snapshots and full JSON exports taken mid-recording must stay
  // well-formed (torn slots are skipped or repaired, never emitted raw).
  for (int round = 0; round < 20; ++round) {
    const obs::TraceSnapshot snap = obs::take_trace_snapshot();
    const std::vector<std::uint8_t> wire = obs::encode_trace_snapshot(snap);
    EXPECT_EQ(obs::decode_trace_snapshot(wire), snap);
    const util::JsonValue doc = util::parse_json(obs::chrome_trace_json());
    int balance = 0;
    for (const util::JsonValue& e : doc.at("traceEvents").as_array()) {
      const std::string& ph = e.at("ph").as_string();
      if (ph == "B") ++balance;
      if (ph == "E") {
        --balance;
        EXPECT_GE(balance, 0);
      }
    }
    EXPECT_EQ(balance, 0);
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  obs::disable_tracing();
}

}  // namespace
