// Arithmetic behind the co-simulation benchmark's metrics: medians over
// repeated units, percentiles from a fixed-bucket histogram, and per-layer
// self time from recorded trace spans. Kept free of any simulation code so
// the benchmark's tests can check it on hand-built inputs.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace cosimbench {

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double median(std::vector<double> values);

/// Quantile `q` in [0,1] of a histogram with upper-bound-inclusive
/// `bounds` and `bounds.size()+1` bucket counts (the last is overflow),
/// interpolated linearly inside the bucket that holds it. Samples in the
/// overflow bucket read as the last bound. 0 when the histogram is empty.
double bucket_quantile(std::span<const std::uint64_t> bounds,
                       std::span<const std::uint64_t> buckets, double q);

/// `count / base`, or 0 when `base` is 0 (a layer the workload never
/// reaches reads as no work, not as a division error).
double per(double count, double base);

/// Seconds each span name covered, summed over every thread of every
/// process: `total` is begin-to-end time, `self` the part of it during
/// which the span was the innermost open span on its thread. Interleaved
/// spans (B a, B b, E a, E b) give the overlap to the later one. Orphan
/// ends are ignored; spans still open at a thread's last event close there.
struct SpanTimes {
  std::map<std::string, double> total;
  std::map<std::string, double> self;
};
SpanTimes span_times(std::span<const nisc::obs::TraceSnapshot> snapshots);

}  // namespace cosimbench
