// run_gbench_main: BENCHMARK_MAIN() plus a BENCH_<name>.json side channel.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"

namespace nisc::bench {

namespace {

/// Forwards to the stock console output while siphoning every
/// per-repetition run (aggregates excluded) into the Recorder.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(Recorder& recorder) : recorder_(recorder) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type == Run::RT_Aggregate || run.error_occurred) continue;
      const double seconds =
          run.iterations > 0 ? run.real_accumulated_time / static_cast<double>(run.iterations)
                             : 0.0;
      recorder_.record(run.run_name.str(), seconds);
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  Recorder& recorder_;
};

bool has_flag(int argc, char** argv, const char* prefix) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0) return true;
  }
  return false;
}

}  // namespace

int run_gbench_main(const char* bench_name, int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  // Injected flags need stable storage across Initialize().
  static std::string reps_flag;
  static std::string min_time_flag;
  static std::string interleave_flag;
  if (!has_flag(argc, argv, "--benchmark_repetitions")) {
    reps_flag = "--benchmark_repetitions=" + std::to_string(repetitions());
    args.push_back(reps_flag.data());
  }
  // Quick mode runs short repetitions in random interleaved order, so a
  // slow stretch of a shared host slows only some repetitions of a result
  // and the gate's fastest run stays clear of it.
  if (quick_mode() && !has_flag(argc, argv, "--benchmark_min_time")) {
    min_time_flag = "--benchmark_min_time=0.02";
    args.push_back(min_time_flag.data());
  }
  if (quick_mode() && !has_flag(argc, argv, "--benchmark_enable_random_interleaving")) {
    interleave_flag = "--benchmark_enable_random_interleaving=true";
    args.push_back(interleave_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) return 1;

  Recorder recorder(bench_name);
  CapturingReporter reporter(recorder);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return recorder.write() ? 0 : 1;
}

}  // namespace nisc::bench
