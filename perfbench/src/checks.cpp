#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

using softfet::core::MonteCarloStats;

double mesh_load_current(const MeshTranSpec& spec, double t) {
  // Must mirror the SourceSpec built in mesh.cpp: 1 ns delay, 100 ps
  // edges, staircase = four quarter steps 500 ps apart.
  constexpr double kT0 = 1e-9;
  constexpr double kEdge = 100e-12;
  const auto ramp = [](double x) { return std::clamp(x, 0.0, 1.0); };
  if (!spec.staircase) return spec.i_step * ramp((t - kT0) / kEdge);
  double i = 0.0;
  for (int k = 0; k < 4; ++k) {
    i += 0.25 * spec.i_step * ramp((t - kT0 - k * 500e-12) / kEdge);
  }
  return i;
}

bool charge_balanced(double q_supply, double q_load, double q_decaps,
                     double rtol) {
  return std::fabs(q_supply - q_load - q_decaps) <= rtol * std::fabs(q_load);
}

bool droops_agree(const std::vector<double>& a, const std::vector<double>& b,
                  double tol_v) {
  if (a.size() != b.size() || a.empty()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(std::fabs(a[i] - b[i]) <= tol_v)) return false;
  }
  return true;
}

bool staircase_below_hard(double staircase_worst, double hard_worst) {
  return staircase_worst > 0.0 && staircase_worst < hard_worst;
}

bool worst_at(const std::vector<double>& tile_droop, std::size_t tile) {
  if (tile >= tile_droop.size()) return false;
  const auto it = std::max_element(tile_droop.begin(), tile_droop.end());
  return static_cast<std::size_t>(it - tile_droop.begin()) == tile;
}

bool dc_balanced(const DcMeshRun& run, double rtol) {
  return std::fabs(run.i_supply - run.i_load) <= rtol * std::fabs(run.i_load) &&
         run.max_tile_v <= run.vcc;
}

bool stats_bitwise(const MonteCarloStats& a, const MonteCarloStats& b) {
  const double av[] = {a.imax_mean,  a.imax_std,  a.imax_worst,
                       a.delay_mean, a.delay_std, a.delay_worst,
                       a.fraction_below_baseline};
  const double bv[] = {b.imax_mean,  b.imax_std,  b.imax_worst,
                       b.delay_mean, b.delay_std, b.delay_worst,
                       b.fraction_below_baseline};
  return a.samples == b.samples && a.failed_samples == b.failed_samples &&
         std::memcmp(av, bv, sizeof av) == 0;
}

bool relaxed_counts_match(const MonteCarloStats& relaxed,
                          const MonteCarloStats& bitwise) {
  const int survivors = bitwise.samples - bitwise.failed_samples;
  return relaxed.samples == bitwise.samples &&
         relaxed.failed_samples == bitwise.failed_samples &&
         std::fabs(relaxed.fraction_below_baseline -
                   bitwise.fraction_below_baseline) <=
             (survivors > 0 ? 1.0 / survivors : 0.0) + 1e-12;
}

bool relaxed_stats_close(const MonteCarloStats& relaxed,
                         const MonteCarloStats& bitwise, double rtol) {
  const auto close = [rtol](double a, double b) {
    return std::fabs(a - b) <= rtol * std::max(std::fabs(a), std::fabs(b));
  };
  return relaxed_counts_match(relaxed, bitwise) &&
         close(relaxed.imax_mean, bitwise.imax_mean) &&
         close(relaxed.imax_std, bitwise.imax_std) &&
         close(relaxed.imax_worst, bitwise.imax_worst) &&
         close(relaxed.delay_mean, bitwise.delay_mean) &&
         close(relaxed.delay_std, bitwise.delay_std) &&
         close(relaxed.delay_worst, bitwise.delay_worst);
}

bool zero_sigma_matches(const MonteCarloStats& stats, double nominal_imax,
                        double nominal_delay) {
  const auto same = [](double a, double b) {
    return std::fabs(a - b) <= 1e-12 * std::fabs(b);
  };
  // Summing identical samples rounds, so "0" and "equal" hold to 1e-12.
  return stats.failed_samples == 0 &&
         stats.imax_std <= 1e-12 * std::fabs(nominal_imax) &&
         stats.delay_std <= 1e-12 * std::fabs(nominal_delay) &&
         same(stats.imax_mean, nominal_imax) &&
         same(stats.delay_mean, nominal_delay);
}

bool reduced(double soft, double baseline) {
  return soft > 0.0 && soft < baseline;
}

bool switches_near(double v_switch, double v_card, double step) {
  return std::fabs(v_switch - v_card) <= step;
}

bool matches_closed_form(const std::vector<double>& t,
                         const std::vector<double>& v,
                         const std::function<double(double)>& f,
                         double tol_abs) {
  if (t.size() != v.size() || t.size() < 8) return false;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!(std::fabs(v[i] - f(t[i])) <= tol_abs)) return false;
  }
  return true;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && !a.empty() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool is_terminal(const std::string& event) {
  return event == "result" || event == "error" || event == "cancelled";
}

bool lifecycle_ok(const std::vector<JobEvent>& events) {
  if (events.empty()) return false;
  std::size_t terminals = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].seq != static_cast<long>(i)) return false;
    if (is_terminal(events[i].event)) ++terminals;
  }
  if (terminals != 1 || !is_terminal(events.back().event)) return false;
  // A job is admitted before it runs; a control answers in one line.
  return events.size() == 1 ||
         (events[0].event == "accepted" && events[1].event == "started");
}

}  // namespace perfbench
