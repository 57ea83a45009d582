// Machine-readable bench output: every bench_* binary writes a
// BENCH_<name>.json next to its console report so CI (and cosim_stat) can
// diff runs without scraping stdout.
//
// Environment knobs, honoured by every bench:
//   NISC_BENCH_OUT=DIR   directory for BENCH_<name>.json (default: cwd)
//   NISC_BENCH_REPS=N    repetitions per measured result (default: 3, or
//                        9 short ones in quick mode)
//   NISC_BENCH_QUICK=1   CI smoke mode: shrink workloads, shorter reps
//
// File shape (schema 1):
//   {"schema":1,"bench":"kernel","quick":false,
//    "results":[{"name":"BM_DeltaCycles","unit":"s",
//                "runs":[...],"median":...,"p90":...}],
//    "metrics":{...}}            // obs registry snapshot, null if untouched
#pragma once

#include <string>
#include <vector>

namespace nisc::bench {

/// True when NISC_BENCH_QUICK is set non-empty (CI smoke mode).
bool quick_mode();

/// Repetitions per measured result: NISC_BENCH_REPS (min 1), default 3, or
/// 9 in quick mode, where the CI gates compare each result's fastest run.
int repetitions();

/// Collects repeated measurements and renders BENCH_<bench>.json.
class Recorder {
 public:
  explicit Recorder(std::string bench_name);

  /// Appends one run of `result` (insertion order of first touch is kept).
  void record(const std::string& result, double value, const char* unit = "s");

  /// Destination path: $NISC_BENCH_OUT/BENCH_<bench>.json (or cwd).
  std::string path() const;

  /// Renders the JSON document (median/p90 per result, metrics snapshot).
  std::string render_json() const;

  /// Writes path(); returns false (with a stderr note) on I/O failure.
  bool write() const;

 private:
  struct Series {
    std::string name;
    std::string unit;
    std::vector<double> values;
  };
  Series& series(const std::string& name, const char* unit);

  std::string bench_;
  std::vector<Series> series_;
};

/// Drop-in replacement for BENCHMARK_MAIN(): forces repetitions so
/// median/p90 are meaningful, captures every per-repetition run, and writes
/// BENCH_<bench_name>.json after the console report.
int run_gbench_main(const char* bench_name, int argc, char** argv);

}  // namespace nisc::bench
