// Tests of the benchmark's own arithmetic and plumbing: self time over
// hand-built traces, medians and histogram percentiles, metric and workload
// names, and the seed reaching the testbench and the kill point.
#include <gtest/gtest.h>

#include <regex>
#include <set>
#include <string>
#include <string_view>

#include "stats.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace cosimbench {
namespace {

using Event = nisc::obs::TraceSnapshot::Event;

/// At most 64 of [A-Za-z0-9_.-], starting with a letter or digit.
bool valid_name(std::string_view name) {
  static const std::regex form("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  return std::regex_match(name.begin(), name.end(), form);
}

Event ev(char phase, const char* name, std::uint64_t ts_ns) {
  Event e;
  e.phase = phase;
  e.name = name;
  e.ts_ns = ts_ns;
  return e;
}

nisc::obs::TraceSnapshot one_thread(std::vector<Event> events) {
  nisc::obs::TraceSnapshot snapshot;
  snapshot.threads.push_back({1, 0, std::move(events)});
  return snapshot;
}

TEST(SpanTimes, NestedSpansSubtractChildren) {
  // run [0,100) holds send [10,30) and recv [50,90), recv holds send [60,70).
  const auto snap = one_thread({ev('B', "run", 0), ev('B', "send", 10), ev('E', "send", 30),
                                ev('B', "recv", 50), ev('B', "send", 60), ev('E', "send", 70),
                                ev('E', "recv", 90), ev('E', "run", 100)});
  const SpanTimes t = span_times({&snap, 1});
  EXPECT_DOUBLE_EQ(t.total.at("run"), 100e-9);
  EXPECT_DOUBLE_EQ(t.self.at("run"), 40e-9);
  EXPECT_DOUBLE_EQ(t.total.at("recv"), 40e-9);
  EXPECT_DOUBLE_EQ(t.self.at("recv"), 30e-9);
  EXPECT_DOUBLE_EQ(t.total.at("send"), 30e-9);
  EXPECT_DOUBLE_EQ(t.self.at("send"), 30e-9);
}

TEST(SpanTimes, InterleavedSpansGiveTheOverlapToTheLaterOne) {
  // a [0,40), b [20,60): the overlap [20,40) belongs to b.
  const auto snap =
      one_thread({ev('B', "a", 0), ev('B', "b", 20), ev('E', "a", 40), ev('E', "b", 60)});
  const SpanTimes t = span_times({&snap, 1});
  EXPECT_DOUBLE_EQ(t.total.at("a"), 40e-9);
  EXPECT_DOUBLE_EQ(t.self.at("a"), 20e-9);
  EXPECT_DOUBLE_EQ(t.total.at("b"), 40e-9);
  EXPECT_DOUBLE_EQ(t.self.at("b"), 40e-9);
}

TEST(SpanTimes, ThreadsAndProcessesAddUpAndOrphansAreIgnored) {
  nisc::obs::TraceSnapshot kernel = one_thread({ev('E', "x", 5), ev('B', "run", 10),
                                                ev('i', "mark", 15), ev('E', "run", 30)});
  kernel.threads.push_back({2, 0, {ev('B', "run", 0), ev('B', "send", 5)}});  // left open
  const nisc::obs::TraceSnapshot worker = one_thread({ev('B', "send", 100), ev('E', "send", 110)});
  const std::vector<nisc::obs::TraceSnapshot> snaps{kernel, worker};
  const SpanTimes t = span_times(snaps);
  EXPECT_EQ(t.total.count("x"), 0u);
  EXPECT_DOUBLE_EQ(t.total.at("run"), 25e-9);  // 20 + (0..5, closed at last event)
  EXPECT_DOUBLE_EQ(t.self.at("run"), 25e-9);
  EXPECT_DOUBLE_EQ(t.total.at("send"), 10e-9);  // the open one closes at its own begin
}

TEST(Arithmetic, MedianAndRates) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(per(500.0, 0.25), 2000.0);
  EXPECT_DOUBLE_EQ(per(7.0, 0.0), 0.0);
}

TEST(Arithmetic, BucketQuantileInterpolatesInsideTheBucket) {
  const std::vector<std::uint64_t> bounds{10, 20, 40};
  // 10 samples in (0,10], 10 in (10,20], none in (20,40], 0 overflow.
  const std::vector<std::uint64_t> buckets{10, 10, 0, 0};
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, buckets, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, buckets, 0.25), 5.0);
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, buckets, 0.75), 15.0);
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, buckets, 1.0), 20.0);
  // Overflow samples read as the last bound; an empty histogram as 0.
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, std::vector<std::uint64_t>{0, 0, 1, 99}, 0.99),
                   40.0);
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, std::vector<std::uint64_t>{0, 0, 0, 0}, 0.5), 0.0);
}

TEST(Names, WorkloadAndMetricNamesAreWellFormedAndUnique) {
  EXPECT_TRUE(valid_name("cosim.gdbk.roundtrip_us.p99"));
  EXPECT_FALSE(valid_name(""));
  EXPECT_FALSE(valid_name(".hidden"));
  EXPECT_FALSE(valid_name("a b"));
  EXPECT_FALSE(valid_name("a/b"));
  std::set<std::string> seen;
  for (const Workload& w : workloads()) {
    EXPECT_TRUE(valid_name(w.name)) << w.name;
    EXPECT_TRUE(seen.insert(w.name).second) << w.name;
  }
  for (const auto metrics : {end_to_end_metrics(), per_layer_metrics()}) {
    for (const MetricDecl& m : metrics) {
      EXPECT_TRUE(valid_name(m.name)) << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << m.name;
    }
  }
}

TEST(Names, BenchmarkJsonListsExactlyTheDriversWorkloadsAndMetrics) {
  const nisc::util::JsonValue doc = nisc::util::parse_json_file(COSIMBENCH_JSON);
  auto names = [&](const char* key) {
    std::vector<std::string> out;
    for (const nisc::util::JsonValue& v : doc.at(key).as_array()) {
      out.push_back(v.at("name").as_string());
    }
    return out;
  };
  std::vector<std::string> expected;
  for (const Workload& w : workloads()) expected.push_back(w.name);
  EXPECT_EQ(names("workloads"), expected);
  for (const auto& [key, decls] : {std::pair{"end_to_end", end_to_end_metrics()},
                                   std::pair{"per_layer", per_layer_metrics()}}) {
    expected.clear();
    for (const MetricDecl& m : decls) expected.push_back(m.name);
    EXPECT_EQ(names(key), expected) << key;
    std::size_t i = 0;
    for (const nisc::util::JsonValue& v : doc.at(key).as_array()) {
      EXPECT_EQ(v.at("unit").as_string(), decls[i++].unit) << v.at("name").as_string();
    }
  }
}

TEST(Seed, ReachesTheTestbenchConfig) {
  for (const Workload& w : workloads()) {
    if (w.family == Family::Supervised) continue;
    EXPECT_EQ(router_config(w, 1234).seed, 1234u) << w.name;
    EXPECT_EQ(router_config(w, 7).scheme, w.scheme) << w.name;
  }
}

TEST(Seed, PicksTheKillPoint) {
  constexpr std::uint64_t kInstret = 40000;
  std::set<std::uint64_t> points;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::uint64_t at = kill_point(seed, 0, kInstret);
    EXPECT_EQ(at, kill_point(seed, 0, kInstret));
    EXPECT_GE(at, 1u);
    EXPECT_LE(at, kInstret - 1);
    points.insert(at);
  }
  EXPECT_GT(points.size(), 15u);
  EXPECT_NE(kill_point(3, 0, kInstret), kill_point(3, 1, kInstret));
}

}  // namespace
}  // namespace cosimbench
