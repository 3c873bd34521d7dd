// Shared pieces of the benchmark harness: run options, the span tracer,
// the metric report, the correctness checker and the section interface
// every workload part implements.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;   ///< path of the softfet_server binary
  std::string out_dir;  ///< where the traced run writes its Chrome trace
};

/// Median / quartiles of a sample (linear interpolation between ranks).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);

/// Deterministic per-purpose random stream derived from the run seed.
[[nodiscard]] std::mt19937_64 rng_for(std::uint64_t seed, std::string_view purpose);

/// Span recorder. Spans are kept in memory and written at the end as
/// Chrome trace-event JSON. A disabled tracer records nothing: span()
/// then costs one branch.
class Tracer {
 public:
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  explicit Tracer(bool enabled);
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] Span span(const char* name) { return Span(this, name); }

  /// Record a finished span measured elsewhere (e.g. on a client thread),
  /// as a child of the innermost open span. `lane` becomes the trace tid.
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           int lane);

  /// Sum and count of the durations of every span called `name`.
  [[nodiscard]] double total_ms(std::string_view name) const;
  [[nodiscard]] std::size_t count(std::string_view name) const;

  void write_chrome(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    int lane;
  };
  friend class Span;
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  int open_ = -1;
};

/// Metric lines of the final result object, in insertion order.
class Report {
 public:
  void add(std::string name, double value, std::string unit);
  [[nodiscard]] std::string json() const;
  [[nodiscard]] bool has(std::string_view name) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Collects failed correctness checks. Every predicate returns whether it
/// held so the self-test can feed it deliberately wrong expectations.
class Checker {
 public:
  bool expect(bool ok, const std::string& what);
  [[nodiscard]] bool ok() const noexcept { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

/// Operation counters of the timed rounds.
struct Counts {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// Full: the workload's own inputs. Probe: a small fixed-shape version run
/// on every other workload so each run reports every end-to-end metric.
enum class Scale { kFull, kProbe };

/// One part of a workload. Lifecycle: setup() (inputs, warm-up round),
/// round() repeatedly under the clock, then check(), report() and, in a
/// traced run, layers().
class Section {
 public:
  virtual ~Section() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  virtual void setup() = 0;
  /// One timed round; returns its wall time in seconds.
  virtual double round(Counts& counts) = 0;
  virtual void check(Checker& checker) = 0;
  virtual void report(Report& report) = 0;
  virtual void layers(Report& report) = 0;
  /// Release external resources (the service daemon) before exit.
  virtual void stop() {}
};

struct Context {
  Options options;
  Tracer* tracer = nullptr;
  /// Converts this round's wall seconds to reference-speed seconds:
  /// kReferenceSeconds / (median of the last reference-kernel times).
  double speed = 1.0;
};

/// Wall time of one run of the harness's reference kernel.
[[nodiscard]] double reference_seconds();
/// The reference kernel's time on the machine that defines "reference
/// speed" (a fast phase of the 4-core Xeon box the README describes).
inline constexpr double kReferenceSeconds = 3.0e-3;

[[nodiscard]] std::unique_ptr<Section> make_mesh_section(Context& ctx, Scale scale);
[[nodiscard]] std::unique_ptr<Section> make_mc_section(Context& ctx, Scale scale);
[[nodiscard]] std::unique_ptr<Section> make_repro_section(Context& ctx, Scale scale);
[[nodiscard]] std::unique_ptr<Section> make_service_section(Context& ctx, Scale scale);

/// Peak resident set of a process in MB (VmHWM), 0 when unreadable.
[[nodiscard]] double peak_rss_mb(long pid);

/// Self-test bookkeeping: each case runs a correctness predicate on real
/// outputs once with the right expectation (must pass) and once with a
/// deliberately wrong one (must be rejected).
class SelfTest {
 public:
  void expect_case(const std::string& name, bool with_right, bool with_wrong);
  [[nodiscard]] int failures() const noexcept { return failures_; }

 private:
  int failures_ = 0;
};

void self_test_mesh(SelfTest& st);
void self_test_mc(SelfTest& st);
void self_test_repro(SelfTest& st);
void self_test_service(SelfTest& st, const Options& options);

}  // namespace perfbench
