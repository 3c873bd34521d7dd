// Reference kernel: a fixed piece of work that belongs to the harness, not
// to the program under test. The host's speed drifts by up to ~1.9x in
// phases that last seconds and hit every core together; timing this
// kernel next to each round measures that drift so round times can be
// reported at reference speed.
#include <cmath>
#include <map>
#include <random>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

// Dense elimination (floating point, cache resident) plus ordered-map and
// small-vector churn (allocation, pointer chasing): the two kinds of work
// the simulator mixes.
double kernel() {
  std::mt19937_64 rng(12345);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  double acc = 0.0;
  constexpr std::size_t kN = 48;
  std::vector<double> a(kN * kN);
  for (int rep = 0; rep < 8; ++rep) {
    for (double& v : a) v = u(rng);
    for (std::size_t i = 0; i < kN; ++i) a[i * kN + i] += kN;
    for (std::size_t k = 0; k < kN; ++k) {
      for (std::size_t i = k + 1; i < kN; ++i) {
        const double f = a[i * kN + k] / a[k * kN + k];
        for (std::size_t j = k; j < kN; ++j) a[i * kN + j] -= f * a[k * kN + j];
      }
    }
    acc += a[kN * kN - 1];
  }
  for (int rep = 0; rep < 3; ++rep) {
    std::map<std::uint64_t, double> m;
    std::vector<std::vector<double>> vs;
    for (std::size_t i = 0; i < 2000; ++i) {
      m[rng() % 4096] += 1.0;
      vs.emplace_back(8 + i % 16, 1.0);
    }
    for (int i = 0; i < 4000; ++i) {
      const auto it = m.find(rng() % 4096);
      if (it != m.end()) acc += it->second;
    }
    for (std::size_t i = 0; i < 500; ++i) {
      acc += std::exp(-static_cast<double>(i) / 100.0) + static_cast<double>(vs[i].size());
    }
  }
  return acc;
}

}  // namespace

double reference_seconds() {
  const auto t0 = Clock::now();
  volatile double sink = kernel();
  (void)sink;
  return seconds_between(t0, Clock::now());
}

}  // namespace perfbench
