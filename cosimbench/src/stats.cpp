#include "stats.hpp"

#include <algorithm>

namespace cosimbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

double bucket_quantile(std::span<const std::uint64_t> bounds,
                       std::span<const std::uint64_t> buckets, double q) {
  std::uint64_t total = 0;
  for (std::uint64_t c : buckets) total += c;
  if (total == 0 || bounds.empty()) return 0.0;
  const double target = q * static_cast<double>(total);
  double below = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double here = static_cast<double>(buckets[i]);
    if (here > 0.0 && below + here >= target) {
      if (i >= bounds.size()) return static_cast<double>(bounds.back());
      const double lo = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
      const double hi = static_cast<double>(bounds[i]);
      return lo + (hi - lo) * std::max(0.0, target - below) / here;
    }
    below += here;
  }
  return static_cast<double>(bounds.back());
}

double per(double count, double base) { return base == 0.0 ? 0.0 : count / base; }

SpanTimes span_times(std::span<const nisc::obs::TraceSnapshot> snapshots) {
  struct Open {
    const std::string* name;
    std::uint64_t begin_ns;
  };
  SpanTimes times;
  for (const nisc::obs::TraceSnapshot& snapshot : snapshots) {
    for (const nisc::obs::TraceSnapshot::Thread& thread : snapshot.threads) {
      std::vector<Open> open;
      std::uint64_t last_ns = 0;
      auto close = [&](std::size_t i, std::uint64_t at_ns) {
        times.total[*open[i].name] += static_cast<double>(at_ns - open[i].begin_ns) * 1e-9;
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
      };
      for (const nisc::obs::TraceSnapshot::Event& event : thread.events) {
        const std::uint64_t ts = std::max(event.ts_ns, last_ns);
        if (!open.empty()) times.self[*open.back().name] += static_cast<double>(ts - last_ns) * 1e-9;
        last_ns = ts;
        if (event.phase == 'B') {
          open.push_back({&event.name, ts});
        } else if (event.phase == 'E') {
          for (std::size_t i = open.size(); i-- > 0;) {
            if (*open[i].name == event.name) {
              close(i, ts);
              break;
            }
          }
        }
      }
      while (!open.empty()) close(open.size() - 1, last_ns);
    }
  }
  return times;
}

}  // namespace cosimbench
