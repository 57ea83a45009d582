#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace nisc::obs {
namespace {

std::atomic<bool>& exists_flag() noexcept {
  static std::atomic<bool> flag{false};
  return flag;
}

void append_json_escaped(std::ostream& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      default: out << c; break;
    }
  }
}

}  // namespace

std::uint64_t Histogram::quantile(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  const double target = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += bucket_count(i);
    if (static_cast<double>(seen) >= target) {
      return i < bounds_.size() ? bounds_[i] : bounds_.empty() ? 0 : bounds_.back();
    }
  }
  return bounds_.empty() ? 0 : bounds_.back();
}

std::vector<std::uint64_t> default_us_bounds() {
  return {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 50000, 100000};
}

std::vector<std::uint64_t> default_bytes_bounds() {
  return {1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144};
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  exists_flag().store(true, std::memory_order_release);
  return registry;
}

bool MetricsRegistry::exists() noexcept {
  return exists_flag().load(std::memory_order_acquire);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name),
                           std::unique_ptr<Counter>(new Counter(std::string(name)))).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name),
                         std::unique_ptr<Gauge>(new Gauge(std::string(name)))).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name, std::vector<std::uint64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    util::require(!bounds.empty(), "histogram: empty bucket bounds for " + std::string(name));
    util::require(std::is_sorted(bounds.begin(), bounds.end()) &&
                      std::adjacent_find(bounds.begin(), bounds.end()) == bounds.end(),
                  "histogram: bounds must be strictly increasing for " + std::string(name));
    it = histograms_
             .emplace(std::string(name), std::unique_ptr<Histogram>(
                                             new Histogram(std::string(name), std::move(bounds))))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c->value());
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g->value());
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramValue hv;
    hv.name = name;
    hv.bounds = h->bounds();
    hv.buckets.resize(h->bucket_slots());
    for (std::size_t i = 0; i < hv.buckets.size(); ++i) hv.buckets[i] = h->bucket_count(i);
    hv.count = h->count();
    hv.sum = h->sum();
    hv.p50 = h->quantile(0.5);
    hv.p90 = h->quantile(0.9);
    snap.histograms.push_back(std::move(hv));
  }
  return snap;
}

std::string MetricsRegistry::render_json() const { return render_snapshot_json(snapshot()); }

void MetricsRegistry::reset() noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->value_.store(0, std::memory_order_relaxed);
  for (auto& [name, g] : gauges_) g->value_.store(0, std::memory_order_relaxed);
  for (auto& [name, h] : histograms_) {
    for (auto& b : h->buckets_) b.store(0, std::memory_order_relaxed);
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_.store(0, std::memory_order_relaxed);
  }
}

std::string render_snapshot_json(const MetricsSnapshot& snap) {
  std::ostringstream out;
  out << "{\"schema\":1,\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out << ',';
    first = false;
    out << '"';
    append_json_escaped(out, name);
    out << "\":" << value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) out << ',';
    first = false;
    out << '"';
    append_json_escaped(out, name);
    out << "\":" << value;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& hv : snap.histograms) {
    if (!first) out << ',';
    first = false;
    out << '"';
    append_json_escaped(out, hv.name);
    out << "\":{\"bounds\":[";
    for (std::size_t i = 0; i < hv.bounds.size(); ++i) {
      if (i) out << ',';
      out << hv.bounds[i];
    }
    out << "],\"buckets\":[";
    for (std::size_t i = 0; i < hv.buckets.size(); ++i) {
      if (i) out << ',';
      out << hv.buckets[i];
    }
    out << "],\"count\":" << hv.count << ",\"sum\":" << hv.sum << ",\"p50\":" << hv.p50
        << ",\"p90\":" << hv.p90 << '}';
  }
  out << "}}";
  return out.str();
}

}  // namespace nisc::obs
