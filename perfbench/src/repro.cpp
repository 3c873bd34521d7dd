// paper_repro: the library calls behind fig02-fig11, table1 and sec3a at
// their paper settings, one process, one thread. The core studies and the
// scalar transient engine with PTM event location do most of the work.
#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cells/hyperfet.hpp"
#include "cells/inverter.hpp"
#include "checks.hpp"
#include "core/case_studies.hpp"
#include "core/characterize.hpp"
#include "core/iso_imax.hpp"
#include "core/sweeps.hpp"
#include "devices/capacitor.hpp"
#include "devices/ptm.hpp"
#include "devices/resistor.hpp"
#include "devices/sources.hpp"
#include "devices/tech40.hpp"
#include "measure/waveform.hpp"
#include "sim/analyses.hpp"

namespace perfbench {

namespace {

using namespace softfet;
using measure::Waveform;

/// Named scalar outputs of one round plus the solver work they exposed.
struct RoundOut {
  std::map<std::string, double> values;
  std::size_t accepted_steps = 0;
  std::size_t newton_iterations = 0;
  std::size_t ptm_events = 0;

  void add(const sim::TranResult& tran) {
    accepted_steps += tran.accepted_steps;
    newton_iterations += tran.newton_iterations;
    ptm_events += tran.event_count;
  }
  void add(const core::TransitionMetrics& m) { add(m.tran); }
};

constexpr double kPtmSweepStep = 0.012;

cells::InverterTestbenchSpec softfet_bench() {
  cells::InverterTestbenchSpec base;
  base.vcc = 1.0;
  base.input_transition = 30e-12;
  base.input_rising = false;
  base.dut.ptm = devices::PtmParams{};
  return base;
}

cells::InverterTestbenchSpec baseline_bench() {
  auto spec = softfet_bench();
  spec.dut.ptm.reset();
  return spec;
}

core::TransitionMetrics characterize(const cells::InverterTestbenchSpec& spec,
                                     Tracer* tr, RoundOut& out) {
  auto span = tr->span("core.characterize");
  auto m = core::characterize_inverter(spec);
  out.add(m);
  return m;
}

/// fig02: PTM behind 1 kOhm swept 0 -> 0.6 -> 0 V; device voltage just
/// before the phase flips on each branch.
void fig02(Tracer* tr, RoundOut& out) {
  const devices::PtmParams ptm;
  sim::Circuit c;
  const auto in = c.node("in");
  const auto mid = c.node("mid");
  c.add<devices::VSource>("Vs", in, sim::kGroundNode, devices::SourceSpec::dc(0.0));
  c.add<devices::Resistor>("Rs", in, mid, 1e3);
  c.add<devices::Ptm>("P1", mid, sim::kGroundNode, ptm);
  std::vector<double> bias;
  for (int i = 0; i <= 50; ++i) bias.push_back(i * kPtmSweepStep);
  for (int i = 50; i >= 0; --i) bias.push_back(i * kPtmSweepStep);
  sim::SweepResult sweep;
  {
    auto span = tr->span("sim.dc_sweep");
    sweep = sim::dc_sweep(c, "Vs", bias);
  }
  const auto& v = sweep.table.signal("v(mid)");
  const auto& phase = sweep.table.signal("s(p1)");
  double fire = 0.0;
  double release = 0.0;
  for (std::size_t k = 1; k < bias.size(); ++k) {
    if (k <= bias.size() / 2 && fire == 0.0 && phase[k] > 0.5 && phase[k - 1] < 0.5) {
      fire = v[k - 1];
    }
    if (k > bias.size() / 2 && release == 0.0 && phase[k] < 0.5 &&
        phase[k - 1] > 0.5) {
      release = v[k - 1];
    }
  }
  out.values["fig02.v_fire"] = fire;
  out.values["fig02.v_release"] = release;
}

/// fig03: staircase charging of a cap through a PTM vs a constant R_INS.
void fig03(Tracer* tr, RoundOut& out) {
  devices::PtmParams ptm;
  ptm.v_imt = 0.3;
  ptm.v_mit = 0.15;
  const auto build = [&](sim::Circuit& c, bool soft) {
    const auto in = c.node("in");
    const auto vc = c.node("vc");
    c.add<devices::VSource>("Vin", in, sim::kGroundNode,
                            devices::SourceSpec::ramp(0.0, 1.0, 20e-12, 60e-12));
    if (soft) {
      c.add<devices::Ptm>("P1", in, vc, ptm);
    } else {
      c.add<devices::Resistor>("R1", in, vc, ptm.r_ins);
    }
    c.add<devices::Capacitor>("C1", vc, sim::kGroundNode, 0.5e-15);
  };
  sim::Circuit soft;
  sim::Circuit rc;
  build(soft, true);
  build(rc, false);
  auto span = tr->span("sim.tran");
  const auto a = sim::run_transient(soft, 1.5e-9);
  const auto b = sim::run_transient(rc, 1.5e-9);
  out.add(a);
  out.add(b);
  out.values["fig03.vc_soft_200ps"] = Waveform::from_tran(a, "v(vc)").value(200e-12);
  out.values["fig03.vc_rc_200ps"] = Waveform::from_tran(b, "v(vc)").value(200e-12);
  out.values["fig03.events"] = static_cast<double>(a.event_count);
}

void fig04(Tracer* tr, RoundOut& out) {
  const auto soft = characterize(softfet_bench(), tr, out);
  const auto plain = characterize(baseline_bench(), tr, out);
  out.values["fig04.imax_soft"] = soft.i_max;
  out.values["fig04.imax_base"] = plain.i_max;
  out.values["fig04.didt_soft"] = soft.max_didt;
  out.values["fig04.didt_base"] = plain.max_didt;
}

void fig05(Tracer* tr, RoundOut& out) {
  core::IsoImaxSpec spec;
  spec.base = softfet_bench();
  spec.vcc_sweep = {0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
  core::IsoImaxResult result;
  {
    auto span = tr->span("core.iso_imax");
    result = core::run_iso_imax_study(spec);
  }
  const auto& soft = result.curves.at("softfet");
  const auto& hvt = result.curves.at("hvt");
  out.values["fig05.soft_blowup"] = soft.front().delay / soft.back().delay;
  out.values["fig05.hvt_blowup"] = hvt.front().delay / hvt.back().delay;
}

void fig06(Tracer* tr, RoundOut& out) {
  std::vector<core::DesignSpacePoint> points;
  {
    auto span = tr->span("core.sweeps");
    points = core::sweep_vimt_vmit(softfet_bench(), {0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55},
                                   {0.15, 0.2, 0.25, 0.3});
  }
  double sum = 0.0;
  for (const auto& p : points) {
    out.add(p.metrics);
    sum += p.metrics.i_max;
  }
  for (const double imt : {0.3, 0.4, 0.5}) {
    auto spec = softfet_bench();
    spec.dut.ptm->v_imt = imt;
    spec.dut.ptm->v_mit = std::min(0.3, imt - 0.05);
    sum += characterize(spec, tr, out).i_max;
  }
  out.values["fig06.imax_sum"] = sum;
}

void fig07(Tracer* tr, RoundOut& out) {
  core::IsoImaxSpec iso;
  iso.base = softfet_bench();
  iso.vcc_sweep = {1.0};
  core::IsoImaxResult calib;
  {
    auto span = tr->span("core.iso_imax");
    calib = core::run_iso_imax_study(iso);
  }
  std::vector<cells::InverterTestbenchSpec> variants(5, iso.base);
  for (std::size_t i = 1; i < variants.size(); ++i) variants[i].dut.ptm.reset();
  variants[2].dut.nmos_model.vt0 += calib.hvt_delta_vt;
  variants[2].dut.pmos_model.vt0 += calib.hvt_delta_vt;
  variants[3].dut.gate_series_r = calib.series_r;
  variants[4].dut.stack = 2;
  variants[4].dut.m = calib.stack_width_mult;
  double q = 0.0;
  for (const auto& spec : variants) q += characterize(spec, tr, out).q_short;
  out.values["fig07.q_short_sum"] = q;
}

void fig08(Tracer* tr, RoundOut& out) {
  (void)characterize(baseline_bench(), tr, out);
  std::vector<core::TptmPoint> points;
  {
    auto span = tr->span("core.sweeps");
    points = core::sweep_tptm(softfet_bench(), {1e-12, 2e-12, 5e-12, 10e-12, 20e-12,
                                                50e-12, 100e-12, 200e-12});
  }
  double sum = 0.0;
  for (const auto& p : points) {
    out.add(p.metrics);
    sum += p.metrics.i_max;
  }
  out.values["fig08.imax_sum"] = sum;
}

void fig09(Tracer* tr, RoundOut& out) {
  for (const double slew : {15e-12, 60e-12, 240e-12}) {
    auto spec = softfet_bench();
    spec.input_transition = slew;
    (void)characterize(spec, tr, out);
  }
  std::vector<core::SlewPoint> points;
  {
    auto span = tr->span("core.sweeps");
    points = core::sweep_slew(softfet_bench(), {10e-12, 20e-12, 30e-12, 60e-12,
                                                120e-12, 240e-12, 480e-12});
  }
  for (const auto& p : points) {
    out.add(p.soft);
    out.add(p.baseline);
  }
  out.values["fig09.imax_reduction_10ps"] = points.front().imax_reduction_pct();
}

void fig10(Tracer* tr, RoundOut& out) {
  core::PowerGateStudy study;
  {
    auto span = tr->span("core.case_studies");
    study = core::run_power_gate_study(cells::PowerGateSpec{});
  }
  out.add(study.baseline.tran);
  out.add(study.soft.tran);
  out.values["fig10.droop_soft"] = study.soft.droop;
  out.values["fig10.droop_base"] = study.baseline.droop;
  out.values["fig10.inrush_soft"] = study.soft.peak_current;
  out.values["fig10.inrush_base"] = study.baseline.peak_current;
}

void fig11(Tracer* tr, RoundOut& out) {
  auto span = tr->span("core.case_studies");
  const auto study = core::run_io_buffer_study(cells::IoBufferSpec{});
  out.add(study.baseline.tran);
  out.add(study.soft.tran);
  out.values["fig11.ssn_soft"] = study.soft.ssn;
  out.values["fig11.ssn_base"] = study.baseline.ssn;
  double trend = 0.0;
  for (const double t : {50e-12, 100e-12, 200e-12, 400e-12}) {
    cells::IoBufferSpec spec;
    spec.input_transition = t;
    const auto st = core::run_io_buffer_study(spec);
    out.add(st.baseline.tran);
    out.add(st.soft.tran);
    trend += st.ssn_reduction_pct();
  }
  out.values["fig11.trend_sum"] = trend;
}

void table1(Tracer* tr, RoundOut& out) {
  namespace t40 = devices::tech40;
  devices::PtmParams hyper_ptm;
  hyper_ptm.r_ins = 2.5e9;
  hyper_ptm.r_met = 200.0;
  hyper_ptm.v_imt = 0.2;
  hyper_ptm.v_mit = 5e-5;
  auto span = tr->span("sim.dc_sweep");
  const auto dims = t40::min_nmos_dims();
  const auto plain = cells::mosfet_transfer_curve(t40::nmos(), dims, 1.0, 1.0, 41);
  const auto hyper =
      cells::hyperfet_transfer_curve(t40::nmos(), dims, hyper_ptm, 1.0, 1.0, 41);
  const devices::PtmParams selector{500e3, 5e3, 0.4, 0.3, 10e-12};
  const auto with = cells::crossbar_read(6, 10e3, 1e6, true, selector, 1.0);
  const auto without = cells::crossbar_read(6, 10e3, 1e6, false, selector, 1.0);
  out.values["table1.on_off_plain"] = plain.id.back() / plain.id.front();
  out.values["table1.on_off_hyper"] = hyper.id.back() / hyper.id.front();
  out.values["table1.margin_with"] = with.selected_current / with.sneak_current;
  out.values["table1.margin_without"] =
      without.selected_current / without.sneak_current;
}

void sec3a(Tracer* tr, RoundOut& out) {
  double worst = 0.0;
  std::vector<double> base;
  for (const bool soft : {false, true}) {
    sim::Circuit c;
    const auto vdd = c.node("vdd");
    const auto in = c.node("in");
    const auto o = c.node("out");
    c.add<devices::VSource>("Vdd", vdd, sim::kGroundNode, devices::SourceSpec::dc(1.0));
    c.add<devices::VSource>("Vin", in, sim::kGroundNode, devices::SourceSpec::dc(0.0));
    cells::InverterSpec spec;
    if (soft) spec.ptm = devices::PtmParams{};
    cells::add_inverter(c, "dut", in, o, vdd, sim::kGroundNode, spec);
    std::vector<double> vin;
    for (int i = 0; i <= 100; ++i) vin.push_back(i * 0.01);
    auto span = tr->span("sim.dc_sweep");
    const auto vout = sim::dc_sweep(c, "Vin", vin).table.signal("v(out)");
    if (!soft) {
      base = vout;
    } else {
      for (std::size_t i = 0; i < vout.size(); ++i) {
        worst = std::max(worst, std::fabs(vout[i] - base[i]));
      }
    }
  }
  out.values["sec3a.vtc_shift"] = worst;
}

struct Item {
  const char* name;
  void (*run)(Tracer*, RoundOut&);
};

const std::vector<Item>& all_items() {
  static const std::vector<Item> items{
      {"fig02", fig02}, {"fig03", fig03}, {"fig04", fig04}, {"fig05", fig05},
      {"fig06", fig06}, {"fig07", fig07}, {"fig08", fig08}, {"fig09", fig09},
      {"fig10", fig10}, {"fig11", fig11}, {"table1", table1}, {"sec3a", sec3a}};
  return items;
}

class ReproSection final : public Section {
 public:
  ReproSection(Context& ctx, Scale scale) : ctx_(ctx) {
    for (const Item& item : all_items()) {
      const std::string n = item.name;
      // The probe keeps one call of every layer the per-layer metrics
      // name: dc sweep, characterize, iso-I_MAX, sweeps, case studies.
      if (scale == Scale::kFull || n == "fig02" || n == "fig04" ||
          n == "fig07" || n == "fig08" || n == "fig10" || n == "sec3a") {
        items_.push_back(item);
      }
    }
  }

  const char* name() const override { return "repro"; }

  void setup() override {
    // The paper settings are fixed; the seed only orders the calls, so no
    // call always runs on caches warmed by the same predecessor.
    auto rng = rng_for(ctx_.options.seed, "repro");
    std::shuffle(items_.begin(), items_.end(), rng);
    Counts warm;
    run_round(warm, &first_);
  }

  double round(Counts& counts) override {
    RoundOut out;
    const double s = run_round(counts, &out);
    round_s_.push_back(s * ctx_.speed);
    if (out.values != first_.values) ++repeat_mismatches_;
    return s;
  }

  void check(Checker& c) override {
    c.expect(repeat_mismatches_ == 0,
             "repro: repeated rounds reproduce the first round bitwise");
    const auto& v = first_.values;
    const auto has = [&v](const char* key) { return v.count(key) != 0; };
    const auto at = [&v](const char* key) { return v.at(key); };
    if (has("fig02.v_fire")) {
      const devices::PtmParams card;
      c.expect(switches_near(at("fig02.v_fire"), card.v_imt, kPtmSweepStep),
               "repro fig02: IMT within one sweep step of V_IMT");
      c.expect(switches_near(at("fig02.v_release"), card.v_mit, kPtmSweepStep),
               "repro fig02: MIT within one sweep step of V_MIT");
    }
    if (has("fig03.vc_soft_200ps")) {
      c.expect(at("fig03.events") >= 4.0, "repro fig03: staircase charging");
      c.expect(reduced(at("fig03.vc_rc_200ps"), at("fig03.vc_soft_200ps")),
               "repro fig03: soft path charges faster than constant R_INS");
    }
    if (has("fig04.imax_soft")) {
      c.expect(reduced(at("fig04.imax_soft"), at("fig04.imax_base")),
               "repro fig04: I_MAX reduced");
      c.expect(reduced(at("fig04.didt_soft"), at("fig04.didt_base")),
               "repro fig04: di/dt reduced");
    }
    if (has("fig05.hvt_blowup")) {
      c.expect(reduced(at("fig05.soft_blowup"), at("fig05.hvt_blowup")),
               "repro fig05: HVT delay grows more at low VCC than Soft-FET");
    }
    if (has("fig09.imax_reduction_10ps")) {
      c.expect(at("fig09.imax_reduction_10ps") > 0.0,
               "repro fig09: I_MAX reduced at the fastest slew");
    }
    if (has("fig10.droop_soft")) {
      c.expect(reduced(at("fig10.droop_soft"), at("fig10.droop_base")),
               "repro fig10: power-gate wake-up droop reduced");
      c.expect(reduced(at("fig10.inrush_soft"), at("fig10.inrush_base")),
               "repro fig10: inrush current reduced");
    }
    if (has("fig11.ssn_soft")) {
      c.expect(reduced(at("fig11.ssn_soft"), at("fig11.ssn_base")),
               "repro fig11: SSN reduced");
    }
    if (has("table1.margin_with")) {
      c.expect(reduced(at("table1.on_off_plain"), at("table1.on_off_hyper")),
               "repro table1: Hyper-FET steeper on/off ratio");
      c.expect(reduced(at("table1.margin_without"), at("table1.margin_with")),
               "repro table1: PTM selector improves read margin");
    }
  }

  void report(Report& report) override {
    report.add("repro_s", median(round_s_), "s");
  }

  void layers(Report& report) override {
    const Tracer& tr = *ctx_.tracer;
    const double rounds = static_cast<double>(tr.count("repro.round"));
    report.add("core.characterize_ms", tr.total_ms("core.characterize") / rounds, "ms");
    report.add("core.iso_imax_ms", tr.total_ms("core.iso_imax") / rounds, "ms");
    report.add("core.sweeps_ms", tr.total_ms("core.sweeps") / rounds, "ms");
    report.add("core.case_studies_ms", tr.total_ms("core.case_studies") / rounds, "ms");
    report.add("sim.dc_sweep_ms", tr.total_ms("sim.dc_sweep") / rounds, "ms");
    report.add("core.repro_accepted_steps",
               static_cast<double>(first_.accepted_steps), "count");
    report.add("core.repro_newton_iterations",
               static_cast<double>(first_.newton_iterations), "count");
    report.add("core.repro_ptm_events", static_cast<double>(first_.ptm_events),
               "count");
  }

 private:
  double run_round(Counts& counts, RoundOut* out) {
    auto span = ctx_.tracer->span("repro.round");
    const auto t0 = Clock::now();
    for (const Item& item : items_) {
      item.run(ctx_.tracer, *out);
      ++counts.attempted;
    }
    return seconds_between(t0, Clock::now());
  }

  Context& ctx_;
  std::vector<Item> items_;
  RoundOut first_;
  std::size_t repeat_mismatches_ = 0;
  std::vector<double> round_s_;
};

}  // namespace

void self_test_repro(SelfTest& st) {
  Tracer off(false);
  RoundOut out;
  fig02(&off, out);
  fig04(&off, out);
  const devices::PtmParams card;
  const double v_fire = out.values.at("fig02.v_fire");
  st.expect_case("repro PTM switch near V_IMT (card V_IMT 3 steps higher)",
                 switches_near(v_fire, card.v_imt, kPtmSweepStep),
                 switches_near(v_fire, card.v_imt + 3 * kPtmSweepStep, kPtmSweepStep));
  st.expect_case("repro I_MAX reduced (soft and baseline swapped)",
                 reduced(out.values.at("fig04.imax_soft"), out.values.at("fig04.imax_base")),
                 reduced(out.values.at("fig04.imax_base"), out.values.at("fig04.imax_soft")));
}

std::unique_ptr<Section> make_repro_section(Context& ctx, Scale scale) {
  return std::make_unique<ReproSection>(ctx, scale);
}

}  // namespace perfbench
