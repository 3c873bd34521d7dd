// mesh_droop: seeded cells::make_pdn_grid rail meshes hit by an aggressor
// load. Transient meshes (hard and staircase edge, direct and iterative
// policy, per-tile droop extraction) stay at sizes whose solve fits a
// core's L2 (<= 20x20); DC operating points go to 48x48, where the
// symbolic analysis dominates.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cells/pdn.hpp"
#include "checks.hpp"
#include "devices/sources.hpp"
#include "measure/metrics.hpp"
#include "measure/waveform.hpp"
#include "numeric/sparse_lu.hpp"
#include "numeric/sparse_matrix.hpp"
#include "sim/analyses.hpp"
#include "sim/mna_system.hpp"
#include "timing.hpp"

namespace perfbench {

namespace {

using namespace softfet;

constexpr double kTstop = 6e-9;

devices::SourceSpec load_edge(const MeshTranSpec& spec) {
  if (!spec.staircase) {
    return devices::SourceSpec::pulse(0.0, spec.i_step, 1e-9, 100e-12, 100e-12,
                                      1.0);
  }
  std::vector<numeric::PwlPoint> pts{{0.0, 0.0}, {1e-9, 0.0}};
  for (int k = 1; k <= 4; ++k) {
    const double t = 1e-9 + (k - 1) * 500e-12;
    pts.push_back({t + 100e-12, spec.i_step * k / 4.0});
    if (k < 4) pts.push_back({t + 500e-12, spec.i_step * k / 4.0});
  }
  return devices::SourceSpec::pwl(std::move(pts));
}

/// One mesh with its aggressor source; the edge is swapped per run.
struct Mesh {
  std::size_t n = 0;
  std::size_t row = 0;
  std::size_t col = 0;
  double i_load = 0.0;
  cells::PdnGridParams params;
  std::unique_ptr<sim::Circuit> circuit;
  cells::PdnGrid grid;
  devices::ISource* load = nullptr;
  std::vector<std::string> tile_signals;
  std::vector<std::string> decap_signals;
};

Mesh build_mesh(std::size_t n, std::size_t row, std::size_t col, double i_load,
                bool dc_load) {
  Mesh m;
  m.n = n;
  m.row = row;
  m.col = col;
  m.i_load = i_load;
  m.params = cells::PdnGridParams::from_lumped(
      cells::PdnParams::zhang_islped13(), n, n);
  m.circuit = std::make_unique<sim::Circuit>();
  m.grid = cells::make_pdn_grid(*m.circuit, "grid", m.params);
  m.load = m.circuit->add<devices::ISource>(
      "Iload", m.grid.tile(row, col), sim::kGroundNode,
      dc_load ? devices::SourceSpec::dc(i_load) : devices::SourceSpec::dc(0.0));
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      m.tile_signals.push_back(m.grid.tile_signal(r, c));
      m.decap_signals.push_back("v(grid.d" + std::to_string(r) + "_" +
                                std::to_string(c) + ")");
    }
  }
  m.circuit->prepare();
  return m;
}

MeshTranRun run_tran(Mesh& m, bool staircase, numeric::SolverPolicy policy,
                     Tracer* tracer) {
  const MeshTranSpec spec{m.i_load, staircase};
  m.load->set_spec(load_edge(spec));
  sim::SimOptions options;
  options.solver_policy = policy;
  sim::TranResult result;
  {
    auto span = tracer->span(policy == numeric::SolverPolicy::kIterative
                                 ? "sim.tran_iterative"
                                 : "sim.tran_direct");
    result = sim::run_transient(*m.circuit, kTstop, options);
  }
  MeshTranRun run;
  {
    auto span = tracer->span("measure.droop_extract");
    run.tile_droop.reserve(m.tile_signals.size());
    for (const auto& name : m.tile_signals) {
      run.tile_droop.push_back(measure::worst_droop(
          measure::Waveform::from_tran(result, name), m.params.vcc));
    }
  }
  const auto& t = result.time;
  const auto& i_src = result.table.signal("i(grid.vsrc)");
  for (std::size_t k = 1; k < t.size(); ++k) {
    const double dt = t[k] - t[k - 1];
    // The regulator's branch current flows into its + terminal, so the
    // charge it delivers is the negated integral.
    run.q_supply -= 0.5 * dt * (i_src[k] + i_src[k - 1]);
    run.q_load += 0.5 * dt *
                  (mesh_load_current(spec, t[k]) + mesh_load_current(spec, t[k - 1]));
  }
  const double c_tile = m.params.c_decap / static_cast<double>(m.n * m.n);
  for (const auto& name : m.decap_signals) {
    const auto& v = result.table.signal(name);
    run.q_decaps += c_tile * (v.back() - v.front());
  }
  run.accepted_steps = result.accepted_steps;
  run.rejected_steps = result.rejected_steps;
  run.newton_iterations = result.newton_iterations;
  run.symbolic_analyses = result.diagnostics.symbolic_analyses;
  run.refactorizations = result.diagnostics.refactorizations;
  run.krylov_iterations = result.diagnostics.krylov_iterations;
  run.krylov_fallbacks = result.diagnostics.krylov_fallbacks;
  return run;
}

DcMeshRun run_dc(Mesh& m, Tracer* tracer) {
  sim::OpResult op;
  {
    auto span = tracer->span("sim.op");
    op = sim::dc_operating_point(*m.circuit, sim::SimOptions{});
  }
  DcMeshRun run;
  run.i_supply = -op.unknown("i(grid.vsrc)");
  run.i_load = m.i_load;
  run.vcc = m.params.vcc;
  for (const auto node : m.grid.nodes) {
    const int k = m.circuit->node_unknown(node);
    run.max_tile_v = std::max(run.max_tile_v, op.x[static_cast<std::size_t>(k)]);
  }
  return run;
}

struct TranPair {
  MeshTranRun direct;
  MeshTranRun iterative;
};

class MeshSection final : public Section {
 public:
  MeshSection(Context& ctx, Scale scale) : ctx_(ctx) {
    if (scale == Scale::kFull) {
      tran_sizes_ = {12, 16, 20};
      dc_sizes_ = {32, 48};
    } else {
      tran_sizes_ = {10};
      dc_sizes_ = {24};
    }
  }

  const char* name() const override { return "mesh"; }

  void setup() override {
    auto rng = rng_for(ctx_.options.seed, "mesh");
    const auto pick = [&rng](std::size_t n) {
      // Keep the aggressor off the mesh border (a border tile is still
      // valid, but the interior exercises the 2-D spreading).
      return std::uniform_int_distribution<std::size_t>(1, n - 2)(rng);
    };
    std::uniform_real_distribution<double> amp(10e-3, 30e-3);
    const auto t0 = Clock::now();
    {
      auto span = ctx_.tracer->span("cells.grid_build");
      for (const std::size_t n : tran_sizes_) {
        const std::size_t r = pick(n);
        const std::size_t c = pick(n);
        tran_.push_back(build_mesh(n, r, c, amp(rng), false));
      }
      for (const std::size_t n : dc_sizes_) {
        const std::size_t r = pick(n);
        const std::size_t c = pick(n);
        dc_.push_back(build_mesh(n, r, c, amp(rng), true));
      }
    }
    grid_build_ms_ = 1e3 * seconds_between(t0, Clock::now());
    Counts warm;
    run_round(warm, &first_, false);
  }

  double round(Counts& counts) override {
    Outputs out;
    const double s = run_round(counts, &out, true);
    for (std::size_t i = 0; i < out.tran.size(); ++i) {
      const bool same =
          bitwise_equal(out.tran[i].direct.tile_droop,
                        first_.tran[i].direct.tile_droop) &&
          bitwise_equal(out.tran[i].iterative.tile_droop,
                        first_.tran[i].iterative.tile_droop);
      if (!same) ++repeat_mismatches_;
    }
    return s;
  }

  void check(Checker& checker) override {
    checker.expect(repeat_mismatches_ == 0,
                   "mesh: repeated rounds reproduce the first round bitwise");
    for (std::size_t i = 0; i < tran_.size(); ++i) {
      const Mesh& m = tran_[i];
      const std::string tag = "mesh " + std::to_string(m.n) + "x" +
                              std::to_string(m.n) + ": ";
      const TranPair& hard = first_.tran[2 * i];
      const TranPair& soft = first_.tran[2 * i + 1];
      for (const TranPair* p : {&hard, &soft}) {
        checker.expect(charge_balanced(p->direct.q_supply, p->direct.q_load,
                                       p->direct.q_decaps, kChargeRtol),
                       tag + "supply charge = load charge + sum C dV");
        checker.expect(droops_agree(p->direct.tile_droop,
                                    p->iterative.tile_droop, kDroopTolV),
                       tag + "direct and iterative per-tile droop agree");
        checker.expect(worst_at(p->direct.tile_droop, m.row * m.n + m.col),
                       tag + "worst droop tile is the aggressor");
      }
      checker.expect(
          staircase_below_hard(worst(soft.direct), worst(hard.direct)),
          tag + "staircase droop below hard-edge droop");
    }
    for (std::size_t i = 0; i < dc_.size(); ++i) {
      checker.expect(dc_balanced(first_.dc[i], kDcRtol),
                     "mesh dc " + std::to_string(dc_[i].n) +
                         ": supply current = load current, no tile above VCC");
    }
  }

  void report(Report& report) override {
    report.add("mesh_direct_s", median(direct_s_), "s");
    report.add("mesh_iterative_s", median(iterative_s_), "s");
  }

  void layers(Report& report) override {
    const Tracer& tr = *ctx_.tracer;
    report.add("cells.grid_build_ms", grid_build_ms_, "ms");
    report.add("sim.op_ms", tr.total_ms("sim.op") / tr_rounds(), "ms");
    report.add("sim.tran_direct_ms", tr.total_ms("sim.tran_direct") / tr_rounds(), "ms");
    report.add("sim.tran_iterative_ms",
               tr.total_ms("sim.tran_iterative") / tr_rounds(), "ms");
    report.add("measure.droop_extract_ms",
               tr.total_ms("measure.droop_extract") / tr_rounds(), "ms");

    // Kernel timings on the Jacobian of the largest DC mesh.
    Mesh& big = dc_.back();
    const auto op = sim::dc_operating_point(*big.circuit, sim::SimOptions{});
    sim::SimOptions options;
    sim::LoadContext lctx;
    sim::MnaSystem system(*big.circuit, options, lctx);
    numeric::SparseMatrix jac(system.size());
    std::vector<double> residual(system.size(), 0.0);
    report.add("sim.mna_load_us", 1e6 * median_time(25, [&] {
                 jac.set_zero_keep_structure();
                 system.load(op.x, jac, residual);
               }), "us");
    report.add("numeric.analyze_ms", 1e3 * median_time(5, [&] {
                 numeric::SparseLu lu;
                 lu.factor(jac);
               }), "ms");
    numeric::SparseLu lu;
    lu.factor(jac);
    report.add("numeric.refactor_ms",
               1e3 * median_time(25, [&] { lu.factor(jac); }), "ms");
    report.add("numeric.solve_us",
               1e6 * median_time(25, [&] { (void)lu.solve(residual); }), "us");
    report.add("numeric.fill_ratio", lu.fill_ratio(), "ratio");

    // Solver counts of one round. TranResult::diagnostics leaves out the
    // analysis and iterations of the transient's initial operating point,
    // so that point is solved again on its own and added.
    std::size_t analyses = 0;
    std::size_t refactors = 0;
    std::size_t newton = 0;
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    std::size_t krylov_iters = 0;
    std::size_t krylov_fallbacks = 0;
    for (std::size_t i = 0; i < tran_.size(); ++i) {
      const auto op0 = sim::dc_operating_point(*tran_[i].circuit, sim::SimOptions{});
      for (const TranPair* p : {&first_.tran[2 * i], &first_.tran[2 * i + 1]}) {
        analyses += p->direct.symbolic_analyses + op0.diagnostics.symbolic_analyses;
        refactors += p->direct.refactorizations + op0.diagnostics.refactorizations;
        newton += p->direct.newton_iterations +
                  static_cast<std::size_t>(op0.iterations);
        accepted += p->direct.accepted_steps;
        rejected += p->direct.rejected_steps;
        krylov_iters += p->iterative.krylov_iterations;
        krylov_fallbacks += p->iterative.krylov_fallbacks;
      }
    }
    for (Mesh& m : dc_) {
      const auto dc = sim::dc_operating_point(*m.circuit, sim::SimOptions{});
      analyses += dc.diagnostics.symbolic_analyses;
      refactors += dc.diagnostics.refactorizations;
      newton += static_cast<std::size_t>(dc.iterations);
    }
    report.add("numeric.symbolic_analyses", static_cast<double>(analyses), "count");
    report.add("numeric.refactorizations", static_cast<double>(refactors), "count");
    report.add("numeric.krylov_iterations", static_cast<double>(krylov_iters), "count");
    report.add("numeric.krylov_fallbacks", static_cast<double>(krylov_fallbacks), "count");
    report.add("sim.accepted_steps", static_cast<double>(accepted), "count");
    report.add("sim.rejected_steps", static_cast<double>(rejected), "count");
    report.add("sim.newton_iterations", static_cast<double>(newton), "count");
  }

 private:
  static constexpr double kChargeRtol = 1e-5;
  static constexpr double kDroopTolV = 1e-5;
  static constexpr double kDcRtol = 1e-6;

  struct Outputs {
    std::vector<TranPair> tran;  ///< [mesh][hard, staircase]
    std::vector<DcMeshRun> dc;
  };

  static double worst(const MeshTranRun& run) {
    return *std::max_element(run.tile_droop.begin(), run.tile_droop.end());
  }

  /// Rounds the tracer saw (the warm-up round included).
  [[nodiscard]] double tr_rounds() const {
    return static_cast<double>(ctx_.tracer->count("mesh.round"));
  }

  double run_round(Counts& counts, Outputs* out, bool timed) {
    auto span = ctx_.tracer->span("mesh.round");
    double direct = 0.0;
    double iterative = 0.0;
    for (Mesh& m : dc_) {
      const auto t0 = Clock::now();
      out->dc.push_back(run_dc(m, ctx_.tracer));
      direct += seconds_between(t0, Clock::now());
      ++counts.attempted;
    }
    for (Mesh& m : tran_) {
      for (const bool staircase : {false, true}) {
        TranPair pair;
        const auto t0 = Clock::now();
        pair.direct = run_tran(m, staircase, numeric::SolverPolicy::kDirect,
                               ctx_.tracer);
        const auto t1 = Clock::now();
        pair.iterative = run_tran(m, staircase,
                                  numeric::SolverPolicy::kIterative, ctx_.tracer);
        const auto t2 = Clock::now();
        direct += seconds_between(t0, t1);
        iterative += seconds_between(t1, t2);
        counts.attempted += 2;
        out->tran.push_back(std::move(pair));
      }
    }
    if (timed) {
      direct_s_.push_back(direct * ctx_.speed);
      iterative_s_.push_back(iterative * ctx_.speed);
    }
    return direct + iterative;
  }

  Context& ctx_;
  std::vector<std::size_t> tran_sizes_;
  std::vector<std::size_t> dc_sizes_;
  std::vector<Mesh> tran_;
  std::vector<Mesh> dc_;
  Outputs first_;
  std::size_t repeat_mismatches_ = 0;
  double grid_build_ms_ = 0.0;
  std::vector<double> direct_s_;
  std::vector<double> iterative_s_;
};

}  // namespace

void self_test_mesh(SelfTest& st) {
  Tracer off(false);
  Mesh m = build_mesh(8, 3, 4, 20e-3, false);
  const auto run = [&](bool staircase, numeric::SolverPolicy policy) {
    return run_tran(m, staircase, policy, &off);
  };
  const MeshTranRun hard = run(false, numeric::SolverPolicy::kDirect);
  const MeshTranRun hard_it = run(false, numeric::SolverPolicy::kIterative);
  const MeshTranRun soft = run(true, numeric::SolverPolicy::kDirect);
  const double worst_hard =
      *std::max_element(hard.tile_droop.begin(), hard.tile_droop.end());
  const double worst_soft =
      *std::max_element(soft.tile_droop.begin(), soft.tile_droop.end());
  st.expect_case("mesh charge balance (load charge 5% high)",
                 charge_balanced(hard.q_supply, hard.q_load, hard.q_decaps, 1e-5),
                 charge_balanced(hard.q_supply, 1.05 * hard.q_load,
                                 hard.q_decaps, 1e-5));
  st.expect_case("mesh direct vs iterative droop (against the staircase run)",
                 droops_agree(hard.tile_droop, hard_it.tile_droop, 1e-5),
                 droops_agree(hard.tile_droop, soft.tile_droop, 1e-5));
  st.expect_case("mesh staircase below hard edge (edges swapped)",
                 staircase_below_hard(worst_soft, worst_hard),
                 staircase_below_hard(worst_hard, worst_soft));
  st.expect_case("mesh worst tile at aggressor (neighbour tile expected)",
                 worst_at(hard.tile_droop, 3 * 8 + 4),
                 worst_at(hard.tile_droop, 3 * 8 + 5));
  Mesh dc = build_mesh(10, 5, 2, 15e-3, true);
  DcMeshRun dc_run = run_dc(dc, &off);
  DcMeshRun wrong_load = dc_run;
  wrong_load.i_load *= 1.01;
  st.expect_case("mesh dc supply = load (load 1% high)", dc_balanced(dc_run, 1e-6),
                 dc_balanced(wrong_load, 1e-6));
  DcMeshRun wrong_vcc = dc_run;
  wrong_vcc.vcc = dc_run.max_tile_v - 1e-3;
  st.expect_case("mesh dc no tile above VCC (VCC 1 mV below the top tile)",
                 dc_balanced(dc_run, 1e-6), dc_balanced(wrong_vcc, 1e-6));
}

std::unique_ptr<Section> make_mesh_section(Context& ctx, Scale scale) {
  return std::make_unique<MeshSection>(ctx, scale);
}

}  // namespace perfbench
