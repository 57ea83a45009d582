// The benchmark's workloads and the metrics it reports. Each workload runs
// one co-simulation scheme (or the supervised session), so every metric
// reads the same way on every workload; BENCHMARK.json records why each
// workload exists and METRICS.md what each per-layer metric should move.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "cosim/supervisor.hpp"
#include "router/testbench.hpp"

namespace cosimbench {

enum class Family {
  Table1,      ///< paper Table 1 traffic: unbounded producers, fast CPU
  Sparse,      ///< Figure 7 set-up at 160 us delay: per-cycle cost dominates
  Supervised,  ///< cosim::Supervisor session with one seeded worker kill
};

struct Workload {
  const char* name;
  Family family;
  nisc::router::Scheme scheme;  ///< ignored for Family::Supervised
};

std::span<const Workload> workloads();
const Workload* find_workload(std::string_view name) noexcept;

/// The router testbench one unit of `workload` runs; `seed` becomes
/// TestbenchConfig::seed.
nisc::router::TestbenchConfig router_config(const Workload& workload, std::uint64_t seed);

/// How a router unit advances: a fixed window (unbounded producers) or until
/// every produced packet is received or dropped.
bool runs_until_drained(const Workload& workload) noexcept;
nisc::sysc::sc_time unit_duration(const Workload& workload) noexcept;

/// The supervised session without a fault; the benchmark adds the kill.
nisc::cosim::SupervisorConfig supervised_config(std::string worker_path);

/// Guest instruction at which unit `unit` of a run seeded `seed` kills the
/// worker: in [1, total_instret - 1], fixed by (seed, unit).
std::uint64_t kill_point(std::uint64_t seed, std::uint64_t unit, std::uint64_t total_instret);

struct MetricDecl {
  const char* name;
  const char* unit;
};

/// Printed by an untraced run (--trace 0), in this order.
std::span<const MetricDecl> end_to_end_metrics();
/// Printed by a traced run (--trace 1), in this order.
std::span<const MetricDecl> per_layer_metrics();

}  // namespace cosimbench
