// Correctness predicates of the benchmark and the library calls that feed
// them. Each predicate compares an output with an independent computation
// or a property the method must have; none compares with saved output.
// The self-test feeds every predicate a deliberately wrong expectation.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/variation.hpp"
#include "sim/options.hpp"

namespace perfbench {

// ---- mesh_droop ----------------------------------------------------------

/// Aggressor load of a mesh transient.
struct MeshTranSpec {
  double i_step = 20e-3;    ///< aggressor current [A]
  bool staircase = false;   ///< Soft-FET staircase edge instead of a hard one
};

struct MeshTranRun {
  std::vector<double> tile_droop;  ///< row-major per-tile worst droop [V]
  double q_supply = 0.0;  ///< charge delivered by the regulator [C]
  double q_load = 0.0;    ///< charge drawn by the aggressor [C]
  double q_decaps = 0.0;  ///< sum of C * dV over the tile decaps [C]
  std::size_t accepted_steps = 0;
  std::size_t rejected_steps = 0;
  std::size_t newton_iterations = 0;
  std::size_t symbolic_analyses = 0;
  std::size_t refactorizations = 0;
  std::size_t krylov_iterations = 0;
  std::size_t krylov_fallbacks = 0;
};

/// Aggressor current of `spec` at time t [A] (hard pulse or staircase).
[[nodiscard]] double mesh_load_current(const MeshTranSpec& spec, double t);

struct DcMeshRun {
  double i_supply = 0.0;   ///< current out of the regulator [A]
  double i_load = 0.0;     ///< constant aggressor current [A]
  double max_tile_v = 0.0;
  double vcc = 0.0;
};

bool charge_balanced(double q_supply, double q_load, double q_decaps,
                     double rtol);
bool droops_agree(const std::vector<double>& a, const std::vector<double>& b,
                  double tol_v);
bool staircase_below_hard(double staircase_worst, double hard_worst);
bool worst_at(const std::vector<double>& tile_droop, std::size_t tile);
bool dc_balanced(const DcMeshRun& run, double rtol);

// ---- mc_variation --------------------------------------------------------

bool stats_bitwise(const softfet::core::MonteCarloStats& a,
                   const softfet::core::MonteCarloStats& b);
/// Survivor and failure counts exact, the below-baseline fraction within
/// the quantum one flipped sample would cause.
bool relaxed_counts_match(const softfet::core::MonteCarloStats& relaxed,
                          const softfet::core::MonteCarloStats& bitwise);
/// The relaxed-mode statistics oracle of
/// tests/core_relaxed_equivalence_test: counts as above, and the six
/// means/spreads/worsts within `rtol` relative of bitwise.
bool relaxed_stats_close(const softfet::core::MonteCarloStats& relaxed,
                         const softfet::core::MonteCarloStats& bitwise,
                         double rtol);
/// The documented tolerance of relaxed statistics.
inline constexpr double kRelaxedStatsRtol = 2e-3;
bool zero_sigma_matches(const softfet::core::MonteCarloStats& stats,
                        double nominal_imax, double nominal_delay);

// ---- paper_repro ---------------------------------------------------------

bool reduced(double soft, double baseline);
/// The PTM fired/released within one sweep step of its card threshold.
bool switches_near(double v_switch, double v_card, double step);

// ---- service_mix ---------------------------------------------------------

/// Every sample of (t, v) within tol_abs of f(t).
bool matches_closed_form(const std::vector<double>& t,
                         const std::vector<double>& v,
                         const std::function<double(double)>& f,
                         double tol_abs);
bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b);

/// One response line of a job, reduced to what the lifecycle needs.
struct JobEvent {
  long seq = -1;
  std::string event;
};
[[nodiscard]] bool is_terminal(const std::string& event);
/// accepted -> ... -> exactly one terminal, seq contiguous from 0. Control
/// requests answer with a single seq-0 result.
bool lifecycle_ok(const std::vector<JobEvent>& events);

}  // namespace perfbench
