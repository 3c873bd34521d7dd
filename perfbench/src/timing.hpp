// Micro-timing helper for the per-layer kernel measurements.
#pragma once

#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Median wall time of `reps` calls of `fn`, after one untimed warm-up call.
template <typename Fn>
double median_time(int reps, Fn&& fn) {
  fn();
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(times);
}

}  // namespace perfbench
