// softfet_perfbench: one run of one benchmark workload.
//
//   softfet_perfbench --workload <name> --seed N --seconds S --trace 0|1
//                     --server <softfet_server binary> --out <dir>
//   softfet_perfbench --self-test
//
// Every run executes four sections: mesh (cells/sim/numeric/measure), mc
// (core Monte-Carlo, batch engine, vecmath), repro (the paper's core
// studies) and service (softfet_server over its socket). The workload
// names the section that runs on its full inputs and gets half of the
// measured time; the other three run small probe inputs, because a
// result line must carry every end-to-end metric of BENCHMARK.json,
// measured in that run. Rounds of the sections interleave so a slow
// phase of the machine spreads over all of them.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (end-to-end ones untraced, per-layer ones with --trace 1).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using namespace perfbench;

// Captured before main() so set-up time counts from process start.
const Clock::time_point g_process_start = Clock::now();

const std::map<std::string, std::string> kWorkloads{
    {"mesh_droop", "mesh"},
    {"mc_variation", "mc"},
    {"paper_repro", "repro"},
    {"service_mix", "service"},
};

/// Share of the measured time the workload's own section gets.
constexpr double kMainShare = 0.5;
/// Every section runs at least this many timed rounds.
constexpr std::size_t kMinRounds = 3;
/// Reference-kernel times the speed estimate takes the median of.
constexpr std::size_t kSpeedWindow = 9;

int usage() {
  std::fprintf(stderr,
               "usage: softfet_perfbench --workload <mesh_droop|mc_variation|"
               "paper_repro|service_mix> --seed N --seconds S --trace 0|1 "
               "--server PATH --out DIR\n       softfet_perfbench --self-test\n");
  return 2;
}

int run(const Options& options) {
  const std::string primary = kWorkloads.at(options.workload);
  Tracer tracer(options.trace);
  Context ctx{options, &tracer};
  std::vector<std::unique_ptr<Section>> sections;
  sections.push_back(make_service_section(ctx, primary == "service" ? Scale::kFull : Scale::kProbe));
  sections.push_back(make_mesh_section(ctx, primary == "mesh" ? Scale::kFull : Scale::kProbe));
  sections.push_back(make_mc_section(ctx, primary == "mc" ? Scale::kFull : Scale::kProbe));
  sections.push_back(make_repro_section(ctx, primary == "repro" ? Scale::kFull : Scale::kProbe));

  // Set-up is the workload's own: process start until its section's inputs
  // are built and warmed up (for the service: daemon spawn, hello and a
  // warm-up job per connection). It is one cold start, scaled like every
  // round to reference speed, by reference-kernel times taken right after
  // it. The probe sections are set up after it.
  std::size_t main_index = 0;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (primary == sections[i]->name()) main_index = i;
  }
  {
    auto span = tracer.span(sections[main_index]->name());
    sections[main_index]->setup();
  }
  const auto setup_end = Clock::now();
  std::vector<double> setup_reference;
  for (int i = 0; i < 5; ++i) setup_reference.push_back(reference_seconds());
  const double setup_s = seconds_between(g_process_start, setup_end) *
                         kReferenceSeconds / median(setup_reference);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (i == main_index) continue;
    auto span = tracer.span(sections[i]->name());
    sections[i]->setup();
  }

  // Weighted round robin: run the section furthest below its time share.
  const std::size_t n = sections.size();
  std::vector<double> share(n, (1.0 - kMainShare) / static_cast<double>(n - 1));
  std::vector<double> used(n, 0.0);
  std::vector<std::size_t> rounds(n, 0);
  share[main_index] = kMainShare;
  // Round times are scaled by the host's current speed, taken as the
  // median of the last few reference-kernel times (one before each round).
  std::vector<double> reference;
  const auto measure_speed = [&] {
    reference.push_back(reference_seconds());
    const std::size_t from = reference.size() > kSpeedWindow ? reference.size() - kSpeedWindow : 0;
    ctx.speed = kReferenceSeconds /
                median(std::vector<double>(reference.begin() + static_cast<long>(from), reference.end()));
  };
  for (std::size_t i = 1; i < kSpeedWindow; ++i) measure_speed();

  Counts counts;
  std::vector<double> main_traced;
  std::vector<double> main_untraced;
  const auto start = Clock::now();
  for (;;) {
    const double elapsed = seconds_between(start, Clock::now());
    bool short_of_rounds = false;
    for (const std::size_t r : rounds) short_of_rounds |= r < kMinRounds;
    if (elapsed >= options.seconds && !short_of_rounds) break;
    std::size_t pick = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (used[i] / share[i] < used[pick] / share[pick]) pick = i;
    }
    // A traced run alternates traced and untraced rounds of the main
    // section; the two medians give the tracing overhead.
    const bool traced = options.trace && (pick != main_index || rounds[pick] % 2 == 0);
    measure_speed();
    tracer.set_enabled(traced);
    const double s = sections[pick]->round(counts);
    tracer.set_enabled(options.trace);
    if (pick == main_index) (traced ? main_traced : main_untraced).push_back(s * ctx.speed);
    used[pick] += s;
    ++rounds[pick];
  }

  Checker checker;
  for (auto& s : sections) s->check(checker);
  for (const auto& f : checker.failures()) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  }

  Report report;
  if (options.trace) {
    for (auto& s : sections) s->layers(report);
    report.add("trace.overhead_pct",
               100.0 * (median(main_traced) / median(main_untraced) - 1.0), "%");
    report.add("bench.reference_ms", 1e3 * median(reference), "ms");
    if (!options.out_dir.empty()) {
      const std::string path = options.out_dir + "/trace-" + options.workload +
                               "-" + std::to_string(options.seed) + ".json";
      tracer.write_chrome(path);
      std::fprintf(stderr, "perfbench: trace written to %s\n", path.c_str());
    }
  } else {
    report.add("setup_s", setup_s, "s");
    for (auto& s : sections) s->report(report);
    if (!report.has("peak_rss_mb")) report.add("peak_rss_mb", peak_rss_mb(0), "MB");
  }
  for (auto& s : sections) s->stop();

  for (std::size_t i = 0; i < n; ++i) {
    std::fprintf(stderr, "perfbench: %-8s %3zu rounds, %.2f s\n", sections[i]->name(),
                 rounds[i], used[i]);
  }
  std::fprintf(stderr, "perfbench: reference kernel median %.4f ms (reference speed: %.4f ms)\n",
               1e3 * median(reference), 1e3 * kReferenceSeconds);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              checker.ok() ? "true" : "false", counts.attempted, counts.failed,
              report.json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

namespace perfbench {

void SelfTest::expect_case(const std::string& name, bool with_right,
                           bool with_wrong) {
  const bool ok = with_right && !with_wrong;
  if (!ok) ++failures_;
  std::printf("%s  %s%s%s\n", ok ? "ok  " : "FAIL", name.c_str(),
              with_right ? "" : " [right expectation rejected]",
              with_wrong ? " [wrong expectation accepted]" : "");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  ::setenv("SOFTFET_THREADS", "1", 1);
  Options options;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() == "1";
      } else if (arg == "--server") {
        options.server = value();
      } else if (arg == "--out") {
        options.out_dir = value();
      } else if (arg == "--self-test") {
        self_test = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  try {
    if (self_test) {
      SelfTest st;
      self_test_mesh(st);
      self_test_mc(st);
      self_test_repro(st);
      self_test_service(st, options);
      std::printf("self-test: %d failure(s)\n", st.failures());
      return st.failures() == 0 ? 0 : 1;
    }
    if (kWorkloads.count(options.workload) == 0) return usage();
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
