#include "bench_json.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/metrics.hpp"

namespace nisc::bench {

bool quick_mode() {
  const char* env = std::getenv("NISC_BENCH_QUICK");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

int repetitions() {
  if (const char* env = std::getenv("NISC_BENCH_REPS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  return quick_mode() ? 9 : 3;
}

Recorder::Recorder(std::string bench_name) : bench_(std::move(bench_name)) {}

Recorder::Series& Recorder::series(const std::string& name, const char* unit) {
  for (Series& s : series_) {
    if (s.name == name) return s;
  }
  series_.push_back(Series{name, unit, {}});
  return series_.back();
}

void Recorder::record(const std::string& result, double value, const char* unit) {
  series(result, unit).values.push_back(value);
}

std::string Recorder::path() const {
  std::string dir = ".";
  if (const char* env = std::getenv("NISC_BENCH_OUT")) {
    if (env[0] != '\0') dir = env;
  }
  return dir + "/BENCH_" + bench_ + ".json";
}

namespace {

/// Nearest-rank quantile of an already-sorted sample.
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

}  // namespace

std::string Recorder::render_json() const {
  std::string out = "{\"schema\":1,\"bench\":\"" + bench_ + "\",\"quick\":";
  out += quick_mode() ? "true" : "false";
  out += ",\"results\":[";
  bool first = true;
  for (const Series& s : series_) {
    if (!first) out += ',';
    first = false;
    std::vector<double> sorted = s.values;
    std::sort(sorted.begin(), sorted.end());
    out += "{\"name\":\"" + s.name + "\",\"unit\":\"" + s.unit + "\",\"runs\":[";
    for (std::size_t i = 0; i < s.values.size(); ++i) {
      if (i > 0) out += ',';
      append_double(out, s.values[i]);
    }
    out += "],\"median\":";
    append_double(out, quantile_sorted(sorted, 0.5));
    out += ",\"p90\":";
    append_double(out, quantile_sorted(sorted, 0.9));
    out += '}';
  }
  out += "],\"metrics\":";
  // Embed the registry snapshot only if the run touched it: writing the
  // report must not be the first registry touch.
  if (obs::MetricsRegistry::exists()) {
    out += obs::MetricsRegistry::instance().render_json();
  } else {
    out += "null";
  }
  out += "}\n";
  return out;
}

bool Recorder::write() const {
  const std::string file = path();
  std::ofstream out(file);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", file.c_str());
    return false;
  }
  out << render_json();
  std::printf("wrote %s\n", file.c_str());
  return true;
}

}  // namespace nisc::bench
