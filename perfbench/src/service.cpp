// service_mix: softfet_server over its Unix socket. Two connections run a
// closed loop (each sends its next job only after the previous one
// finished) against a daemon with two workers. The seeded mix: the four
// examples/netlists circuits, RC and RLC step responses with closed-form
// answers (a fixed pool that hits the netlist cache and fresh variants
// that miss it), small monte_carlo jobs and ping/stats controls.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "core/variation.hpp"
#include "netlist/elaborate.hpp"
#include "netlist/measure_eval.hpp"
#include "netlist/parser.hpp"
#include "service/json.hpp"
#include "sim/ac.hpp"
#include "sim/analyses.hpp"
#include "timing.hpp"

namespace perfbench {

namespace {

using namespace softfet;
using service::JsonValue;

// ---- closed forms ------------------------------------------------------------

/// Response to a 0 -> 1 V input ramp of `rise` seconds, from S(t), the
/// integral of the unit step response: v(t) = (S(t) - S(t - rise)) / rise.
double ramp_response(const std::function<double(double)>& step_integral,
                     double rise, double t) {
  return (step_integral(t) - step_integral(std::max(0.0, t - rise))) / rise;
}

struct RcParams {
  double r = 1e3;
  double c = 1e-12;
  [[nodiscard]] double tau() const { return r * c; }
  [[nodiscard]] double rise() const { return tau() / 100.0; }
  [[nodiscard]] double tstop() const { return 5.0 * tau(); }
  [[nodiscard]] double expected(double t) const {
    const double tau_ = tau();
    return ramp_response(
        [tau_](double u) { return u - tau_ * (1.0 - std::exp(-u / tau_)); },
        rise(), t);
  }
};

struct RlcParams {
  double r = 10.0;
  double l = 10e-9;
  double c = 1e-12;
  [[nodiscard]] double alpha() const { return r / (2.0 * l); }
  [[nodiscard]] double omega() const {
    const double w0 = 1.0 / std::sqrt(l * c);
    return std::sqrt(w0 * w0 - alpha() * alpha());
  }
  [[nodiscard]] double period() const { return 2.0 * M_PI / omega(); }
  [[nodiscard]] double rise() const { return period() / 200.0; }
  [[nodiscard]] double tstop() const { return 4.0 * period(); }
  [[nodiscard]] double expected(double t) const {
    const double a = alpha();
    const double w = omega();
    const double k = a * a + w * w;
    // S(t) = t - Ic(t) - (a/w) Is(t) with Ic, Is the damped cos/sin
    // integrals of the underdamped series-RLC step response.
    const auto s = [a, w, k](double u) {
      const double e = std::exp(-a * u);
      const double ic = (e * (-a * std::cos(w * u) + w * std::sin(w * u)) + a) / k;
      const double is = (e * (-a * std::sin(w * u) - w * std::cos(w * u)) + w) / k;
      return u - ic - (a / w) * is;
    };
    return ramp_response(s, rise(), t);
  }
};

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string rc_netlist(const RcParams& p, const std::string& title) {
  return title + "\nV1 in 0 PWL(0 0 " + g17(p.rise()) + " 1)\nR1 in out " +
         g17(p.r) + "\nC1 out 0 " + g17(p.c) + "\n.tran " +
         g17(p.tstop() / 4000.0) + " " + g17(p.tstop()) + "\n.end\n";
}

std::string rlc_netlist(const RlcParams& p, const std::string& title) {
  return title + "\nV1 in 0 PWL(0 0 " + g17(p.rise()) + " 1)\nR1 in mid " +
         g17(p.r) + "\nL1 mid out " + g17(p.l) + "\nC1 out 0 " + g17(p.c) +
         "\n.tran " + g17(p.period() / 2000.0) + " " + g17(p.tstop()) +
         "\n.end\n";
}

// ---- jobs --------------------------------------------------------------------

enum class Kind { kExample, kRc, kRlc, kMc, kControl };

struct Job {
  Kind kind = Kind::kControl;
  std::string id;
  std::string line;     ///< request line without the newline
  std::string netlist;  ///< netlist jobs
  RcParams rc;
  RlcParams rlc;
  unsigned mc_seed = 0;
};

constexpr int kMcSamples = 8;

/// Client-side view of one job's exchange.
struct Exchange {
  const Job* job = nullptr;
  Clock::time_point send, accepted, started, terminal;
  std::vector<JobEvent> events;
  std::vector<std::string> lines;  ///< kept only when capturing
  std::size_t bytes = 0;
};

/// Parse the `"seq":N,"event":"E"` prefix every response line carries.
JobEvent scan_event(const std::string& line) {
  JobEvent ev;
  const auto seq = line.find("\"seq\":");
  if (seq != std::string::npos) ev.seq = std::strtol(line.c_str() + seq + 6, nullptr, 10);
  const auto event = line.find("\"event\":\"");
  if (event != std::string::npos) {
    const auto begin = event + 9;
    ev.event = line.substr(begin, line.find('"', begin) - begin);
  }
  return ev;
}

class Connection {
 public:
  // softfet_server prints hello before it binds its socket, so connect is
  // retried: every 100 us, which keeps the wait out of set-up time.
  explicit Connection(const std::string& path) {
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    for (;;) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) throw std::runtime_error("socket() failed");
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) return;
      ::close(fd_);
      fd_ = -1;
      if (Clock::now() > deadline) throw std::runtime_error("cannot connect to " + path);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::string& line) {
    std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("daemon connection closed on write");
      off += static_cast<std::size_t>(n);
    }
  }

  std::string read_line() {
    for (;;) {
      const auto nl = buffer_.find('\n', scan_);
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        scan_ = 0;
        return line;
      }
      scan_ = buffer_.size();
      pollfd p{fd_, POLLIN, 0};
      const int ready = ::poll(&p, 1, 60000);
      if (ready == 0) throw std::runtime_error("daemon silent for 60 s");
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("poll failed");
      }
      char block[65536];
      const ssize_t n = ::read(fd_, block, sizeof block);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("daemon connection closed on read");
      buffer_.append(block, static_cast<std::size_t>(n));
    }
  }

  /// Send one request and read until its terminal event.
  Exchange exchange(const Job& job, bool capture) {
    Exchange ex;
    ex.job = &job;
    ex.send = Clock::now();
    send(job.line);
    for (;;) {
      std::string line = read_line();
      const auto now = Clock::now();
      JobEvent ev = scan_event(line);
      ex.bytes += line.size() + 1;
      if (ev.event == "accepted") ex.accepted = now;
      if (ev.event == "started") ex.started = now;
      const bool done = is_terminal(ev.event);
      ex.events.push_back(std::move(ev));
      if (capture) ex.lines.push_back(std::move(line));
      if (done) {
        ex.terminal = now;
        return ex;
      }
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t scan_ = 0;
};

// ---- direct library calls ----------------------------------------------------

/// What a netlist job returns, recomputed by direct library calls in the
/// order the daemon's handler runs them.
struct DirectNetlist {
  std::map<std::string, std::vector<double>> columns;  ///< "<kind>:<name>"
  std::map<std::string, double> measures;
};

DirectNetlist run_netlist_direct(const std::string& text, Tracer* tracer) {
  DirectNetlist out;
  netlist::NetlistAst ast;
  {
    auto span = tracer->span("netlist.parse");
    ast = netlist::parse(text);
  }
  netlist::ElaboratedNetlist net;
  {
    auto span = tracer->span("netlist.elaborate");
    net = netlist::elaborate(ast);
  }
  net.circuit->prepare();
  const sim::SimOptions options;
  if (net.op || (!net.tran && !net.dc && !net.ac)) {
    (void)sim::dc_operating_point(*net.circuit, options);
  }
  if (net.dc) {
    const auto sweep = sim::dc_sweep(*net.circuit, net.dc->source,
                                     net.dc->points(), options);
    out.columns["dc:" + net.dc->source] = sweep.axis;
    for (const auto& name : sweep.table.names()) {
      out.columns["dc:" + name] = sweep.table.signal(name);
    }
  }
  if (net.tran) {
    sim::SimOptions tran_options = options;
    if (net.tran->tstep > 0.0) tran_options.dtmax = net.tran->tstep * 10.0;
    const auto tran = sim::run_transient(*net.circuit, net.tran->tstop, tran_options);
    out.columns["tran:time"] = tran.time;
    for (const auto& name : tran.table.names()) {
      out.columns["tran:" + name] = tran.table.signal(name);
    }
    if (!net.measures.empty()) {
      auto span = tracer->span("netlist.measure");
      for (const auto& m : netlist::evaluate_measures(net.measures, tran)) {
        out.measures[m.name] = m.value;
      }
    }
  }
  if (net.ac) {
    const auto freqs = net.ac->frequencies();
    const auto ac = sim::ac_sweep(*net.circuit, freqs);
    out.columns["ac:freq"] = freqs;
    for (const auto& name : ac.names()) {
      out.columns["ac:mag(" + name + ")"] = ac.magnitude(name);
    }
  }
  return out;
}

/// Reassemble a job's chunk events and result from its captured lines.
DirectNetlist from_responses(const std::vector<std::string>& lines,
                             JsonValue* result) {
  DirectNetlist out;
  for (const auto& line : lines) {
    const JsonValue v = service::json_parse(line);
    const std::string event = v.string_or("event", "");
    if (event == "chunk") {
      const std::string kind = v.string_or("kind", "");
      const auto& names = v.get("columns")->items();
      for (const auto& row : v.get("rows")->items()) {
        const auto& cells = row.items();
        for (std::size_t i = 0; i < names.size() && i < cells.size(); ++i) {
          out.columns[kind + ":" + names[i].as_string()].push_back(cells[i].as_number());
        }
      }
    } else if (is_terminal(event)) {
      if (const JsonValue* m = v.get("measures")) {
        for (const auto& [name, value] : m->members()) out.measures[name] = value.as_number();
      }
      if (result != nullptr) *result = v;
    }
  }
  return out;
}

core::MonteCarloStats run_mc_direct(unsigned seed) {
  // Mirrors the daemon's monte_carlo handler defaults.
  cells::InverterTestbenchSpec base;
  base.dut.ptm = devices::PtmParams{};
  core::MonteCarloSpec mc;
  mc.samples = kMcSamples;
  mc.seed = seed;
  mc.threads = 1;
  return core::ptm_monte_carlo(base, mc);
}

core::MonteCarloStats mc_from_result(const JsonValue& r) {
  core::MonteCarloStats s;
  s.samples = static_cast<int>(r.number_or("samples", -1));
  s.failed_samples = static_cast<int>(r.number_or("failed_samples", -1));
  s.imax_mean = r.number_or("imax_mean", NAN);
  s.imax_std = r.number_or("imax_std", NAN);
  s.imax_worst = r.number_or("imax_worst", NAN);
  s.delay_mean = r.number_or("delay_mean", NAN);
  s.delay_std = r.number_or("delay_std", NAN);
  s.delay_worst = r.number_or("delay_worst", NAN);
  s.fraction_below_baseline = r.number_or("fraction_below_baseline", NAN);
  return s;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---- daemon process ------------------------------------------------------------

class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket_path)
      : socket_path_(socket_path) {
    int out[2];
    if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int devnull = ::open("/dev/null", O_RDONLY);
      ::dup2(devnull, 0);
      ::dup2(out[1], 1);
      ::close(out[0]);
      ::close(out[1]);
      ::setenv("SOFTFET_THREADS", "1", 1);
      const char* argv[] = {binary.c_str(), "--socket", socket_path.c_str(),
                            "--workers",    "2",        nullptr};
      ::execv(binary.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(out[1]);
    stdout_fd_ = out[0];
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(false); }

  /// Block until the hello line (the daemon's first stdout line).
  std::string hello() {
    std::string line;
    char c = 0;
    for (;;) {
      pollfd p{stdout_fd_, POLLIN, 0};
      if (::poll(&p, 1, 20000) <= 0) throw std::runtime_error("no hello from daemon");
      const ssize_t n = ::read(stdout_fd_, &c, 1);
      if (n <= 0) throw std::runtime_error("daemon exited before hello");
      if (c == '\n') return line;
      line.push_back(c);
    }
  }

  [[nodiscard]] long pid() const noexcept { return pid_; }

  /// Wait for exit after a shutdown request (SIGTERM first when none could
  /// be sent); SIGKILL after 20 s.
  void stop(bool asked) {
    if (pid_ <= 0) return;
    if (!asked) ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    ::close(stdout_fd_);
    ::unlink(socket_path_.c_str());
  }

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

// ---- section -------------------------------------------------------------------

class ServiceSection final : public Section {
 public:
  ServiceSection(Context& ctx, Scale scale) : ctx_(ctx), full_(scale == Scale::kFull) {}
  ~ServiceSection() override { stop(); }

  const char* name() const override { return "service"; }

  void setup() override {
    if (ctx_.options.server.empty()) throw std::runtime_error("--server not given");
    for (const char* name : {"softfet_inverter", "buffer_chain", "ptm_iv", "pdn_impedance"}) {
      examples_.push_back(read_file(std::string("examples/netlists/") + name + ".sp"));
    }
    rng_ = rng_for(ctx_.options.seed, "service");
    std::uniform_real_distribution<double> u(0.0, 1.0);
    for (int i = 0; i < 2; ++i) {
      rc_pool_.push_back(draw_rc(u));
      rlc_pool_.push_back(draw_rlc(u));
    }
    const std::string sock = ctx_.options.out_dir + "/svc-" +
                             std::to_string(::getpid()) + ".sock";
    daemon_ = std::make_unique<Daemon>(ctx_.options.server, sock);
    (void)daemon_->hello();
    conns_[0] = std::make_unique<Connection>(sock);
    conns_[1] = std::make_unique<Connection>(sock);
    // Set-up ends with a warm-up job per connection. The round whose
    // outputs are checked is drawn here, so its inputs depend only on the
    // seed, and run untimed by check().
    wake();
    checked_jobs_ = make_jobs();
    stats_before_ = query_stats();
  }

  double round(Counts& counts) override {
    const auto t0 = Clock::now();
    Round r = run_round(make_jobs(), false);
    const double s = seconds_between(t0, Clock::now());
    // Throughput counts the timed jobs only: first send to last terminal.
    Clock::time_point first = Clock::time_point::max();
    Clock::time_point last = Clock::time_point::min();
    std::size_t jobs = 0;
    for (const auto& events : wake_events_) {
      ++counts.attempted;
      if (!lifecycle_ok(events)) ++lifecycle_failures_;
      if (events.empty() || events.back().event != "result") ++counts.failed;
    }
    for (const Exchange& ex : r.exchanges) {
      ++counts.attempted;
      // A job that ends in an error event failed; a broken lifecycle
      // (seq gap, no or two terminal events) is a wrong output.
      if (!lifecycle_ok(ex.events)) ++lifecycle_failures_;
      if (ex.events.back().event != "result") ++counts.failed;
      first = std::min(first, ex.send);
      last = std::max(last, ex.terminal);
      if (ex.job->kind == Kind::kControl) continue;
      ++jobs;
      const double k = ctx_.speed;
      latency_ms_.push_back(k * ms(ex.send, ex.terminal));
      admit_ms_.push_back(k * ms(ex.send, ex.accepted));
      queue_ms_.push_back(k * ms(ex.accepted, ex.started));
      run_ms_.push_back(k * ms(ex.started, ex.terminal));
      response_bytes_.push_back(static_cast<double>(ex.bytes));
    }
    round_jobs_per_s_.push_back(static_cast<double>(jobs) /
                                (seconds_between(first, last) * ctx_.speed));
    return s;
  }

  void check(Checker& c) override {
    checked_round_ = run_round(std::move(checked_jobs_), true);
    c.expect(lifecycle_failures_ == 0,
             "service: every timed job has one terminal event and contiguous seq");
    std::size_t direct_mismatch = 0;
    std::size_t closed_form_fail = 0;
    std::size_t mc_mismatch = 0;
    std::size_t lifecycle_fail = 0;
    Tracer off(false);
    for (const Exchange& ex : checked_round_.exchanges) {
      if (!lifecycle_ok(ex.events) || ex.events.back().event != "result") {
        ++lifecycle_fail;
        continue;
      }
      const Job& job = *ex.job;
      JsonValue result;
      const DirectNetlist got = from_responses(ex.lines, &result);
      switch (job.kind) {
        case Kind::kExample: {
          const DirectNetlist want = run_netlist_direct(job.netlist, &off);
          bool same = want.columns.size() == got.columns.size() &&
                      want.measures.size() == got.measures.size();
          for (const auto& [key, column] : want.columns) {
            const auto it = got.columns.find(key);
            same = same && it != got.columns.end() && bitwise_equal(column, it->second);
          }
          for (const auto& [key, value] : want.measures) {
            const auto it = got.measures.find(key);
            same = same && it != got.measures.end() &&
                   std::memcmp(&value, &it->second, sizeof value) == 0;
          }
          if (!same) ++direct_mismatch;
          break;
        }
        case Kind::kRc:
        case Kind::kRlc: {
          const auto t = got.columns.find("tran:time");
          const auto v = got.columns.find("tran:v(out)");
          const bool ok =
              t != got.columns.end() && v != got.columns.end() &&
              (job.kind == Kind::kRc
                   ? matches_closed_form(t->second, v->second,
                                         [&job](double x) { return job.rc.expected(x); },
                                         kRcTolV)
                   : matches_closed_form(t->second, v->second,
                                         [&job](double x) { return job.rlc.expected(x); },
                                         kRlcTolV));
          if (!ok) ++closed_form_fail;
          break;
        }
        case Kind::kMc:
          if (!stats_bitwise(mc_from_result(result), run_mc_direct(job.mc_seed))) {
            ++mc_mismatch;
          }
          break;
        case Kind::kControl:
          break;
      }
    }
    c.expect(lifecycle_fail == 0,
             "service: every checked job has one terminal result and contiguous seq");
    c.expect(direct_mismatch == 0,
             "service: example netlist waveforms and measures equal direct library calls");
    c.expect(closed_form_fail == 0, "service: RC/RLC waveforms match their closed forms");
    c.expect(mc_mismatch == 0,
             "service: monte_carlo equals ptm_monte_carlo with the same seed");
  }

  void report(Report& report) override {
    report.add("service_latency_p50_ms", quantile(latency_ms_, 0.5), "ms");
    if (full_) report.add("peak_rss_mb", peak_rss_mb(daemon_->pid()), "MB");
  }

  void layers(Report& report) override {
    report.add("service.admit_ms", mean(admit_ms_), "ms");
    report.add("service.queue_wait_ms", mean(queue_ms_), "ms");
    report.add("service.run_ms", mean(run_ms_), "ms");
    report.add("service.jobs_per_s", median(round_jobs_per_s_), "1/s");
    const JsonValue after = query_stats();
    const auto cache = [](const JsonValue& s, const char* key) {
      const JsonValue* c = s.get("stats")->get("cache");
      return c->number_or(key, 0.0);
    };
    report.add("service.cache_hits", cache(after, "hits") - cache(stats_before_, "hits"),
               "count");
    report.add("service.cache_misses",
               cache(after, "misses") - cache(stats_before_, "misses"), "count");
    report.add("service.response_bytes", mean(response_bytes_), "bytes");

    // JSON codec cost per KB on the checked round's response lines.
    std::vector<std::string> lines;
    double kb = 0.0;
    for (const Exchange& ex : checked_round_.exchanges) {
      for (const auto& l : ex.lines) {
        lines.push_back(l);
        kb += static_cast<double>(l.size()) / 1024.0;
      }
    }
    std::vector<JsonValue> parsed;
    report.add("service.json_parse_us", 1e6 / kb * median_time(9, [&] {
                 parsed.clear();
                 for (const auto& l : lines) parsed.push_back(service::json_parse(l));
               }), "us/KB");
    report.add("service.json_emit_us", 1e6 / kb * median_time(9, [&] {
                 std::size_t n = 0;
                 for (const auto& v : parsed) n += v.dump().size();
                 if (n == 0) throw std::runtime_error("empty emit");
               }), "us/KB");

    // Netlist front end and the same jobs as direct library calls.
    Tracer& tr = *ctx_.tracer;
    const bool was = tr.enabled();
    tr.set_enabled(true);
    std::vector<double> direct_ms;
    for (const Exchange& ex : checked_round_.exchanges) {
      const Job& job = *ex.job;
      if (job.kind == Kind::kControl) continue;
      const auto t0 = Clock::now();
      auto span = tr.span("sim.direct_job");
      if (job.kind == Kind::kMc) {
        (void)run_mc_direct(job.mc_seed);
      } else {
        (void)run_netlist_direct(job.netlist, &tr);
      }
      direct_ms.push_back(ms(t0, Clock::now()));
    }
    tr.set_enabled(was);
    const auto per = [&tr](const char* name) {
      return 1e3 * tr.total_ms(name) / static_cast<double>(std::max<std::size_t>(1, tr.count(name)));
    };
    report.add("netlist.parse_us", per("netlist.parse"), "us");
    report.add("netlist.elaborate_us", per("netlist.elaborate"), "us");
    report.add("netlist.measure_us", per("netlist.measure"), "us");
    report.add("sim.direct_job_ms", mean(direct_ms), "ms");
  }

  void stop() override {
    if (!daemon_) return;
    bool asked = false;
    if (conns_[0]) {
      try {
        Job bye;
        bye.line = R"({"id":"bye","type":"shutdown"})";
        (void)conns_[0]->exchange(bye, false);
        asked = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: daemon shutdown: %s\n", e.what());
      }
    }
    conns_[0].reset();
    conns_[1].reset();
    daemon_->stop(asked);
    daemon_.reset();
  }

 private:
  static constexpr double kRcTolV = 2e-3;
  static constexpr double kRlcTolV = 1e-2;

  struct Round {
    std::vector<Job> jobs;
    std::vector<Exchange> exchanges;
  };

  static double ms(Clock::time_point a, Clock::time_point b) {
    return 1e3 * seconds_between(a, b);
  }

  RcParams draw_rc(std::uniform_real_distribution<double>& u) {
    RcParams p;
    p.r = 1e3 * (1.0 + 9.0 * u(rng_));
    p.c = 1e-12 * (0.5 + 1.5 * u(rng_));
    return p;
  }

  RlcParams draw_rlc(std::uniform_real_distribution<double>& u) {
    RlcParams p;
    p.l = 1e-9 * (5.0 + 15.0 * u(rng_));
    p.c = 1e-12 * (0.5 + 1.5 * u(rng_));
    const double zeta = 0.1 + 0.2 * u(rng_);
    p.r = 2.0 * zeta * std::sqrt(p.l / p.c);
    return p;
  }

  /// The round's job list: fixed make-up, seeded parameters and order.
  std::vector<Job> make_jobs() {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::vector<Job> jobs;
    const auto add_netlist = [&](Kind kind, std::string text, const std::string& signals) {
      Job j;
      j.kind = kind;
      j.netlist = std::move(text);
      j.line = ",\"type\":\"netlist\",\"netlist\":" + service::json_quote(j.netlist) +
               signals + "}";
      jobs.push_back(std::move(j));
      return &jobs.back();
    };
    const std::string out_only = ",\"signals\":[\"v(out)\"]";
    const std::size_t per_kind = full_ ? 2 : 1;
    for (const auto& text : examples_) add_netlist(Kind::kExample, text, "");
    for (std::size_t i = 0; i < per_kind; ++i) {
      const RcParams hit = rc_pool_[i % rc_pool_.size()];
      add_netlist(Kind::kRc, rc_netlist(hit, "rc pool " + std::to_string(i)), out_only)->rc = hit;
      const RcParams miss = draw_rc(u);
      add_netlist(Kind::kRc, rc_netlist(miss, "rc " + std::to_string(serial_)), out_only)->rc = miss;
      const RlcParams hit2 = rlc_pool_[i % rlc_pool_.size()];
      add_netlist(Kind::kRlc, rlc_netlist(hit2, "rlc pool " + std::to_string(i)), out_only)->rlc = hit2;
      const RlcParams miss2 = draw_rlc(u);
      add_netlist(Kind::kRlc, rlc_netlist(miss2, "rlc " + std::to_string(serial_)), out_only)->rlc = miss2;
      Job mc;
      mc.kind = Kind::kMc;
      mc.mc_seed = static_cast<unsigned>(rng_() % 1000000u) + 1u;
      mc.line = ",\"type\":\"monte_carlo\",\"samples\":" + std::to_string(kMcSamples) +
                ",\"seed\":" + std::to_string(mc.mc_seed) + "}";
      jobs.push_back(std::move(mc));
      ++serial_;
    }
    for (const char* type : {"ping", "stats"}) {
      Job j;
      j.line = std::string(",\"type\":\"") + type + "\"}";
      jobs.push_back(std::move(j));
    }
    std::shuffle(jobs.begin(), jobs.end(), rng_);
    for (Job& j : jobs) {
      j.id = "j" + std::to_string(next_id_++);
      j.line = "{\"id\":\"" + j.id + "\"" + j.line;
    }
    return jobs;
  }

  /// One operating-point job per connection, each on its own thread.
  void wake() {
    on_both_lanes([this](int lane) { wake_lane(lane); });
  }

  // The daemon idles between rounds while other sections run; one
  // untimed operating-point job per connection wakes its connection and
  // worker threads before the timed jobs.
  void wake_lane(int lane) {
    Job job;
    job.line = "{\"id\":\"w" + std::to_string(lane) +
               "\",\"type\":\"netlist\",\"netlist\":\"wake\\nV1 a 0 1\\nR1 a 0 1k\\n.op\\n.end\"}";
    wake_events_[lane] = conns_[lane]->exchange(job, false).events;
  }

  template <typename Drive>
  void on_both_lanes(const Drive& drive) {
    std::exception_ptr error;
    std::thread other([&] {
      try {
        drive(1);
      } catch (...) {
        error = std::current_exception();
      }
    });
    try {
      drive(0);
    } catch (...) {
      other.join();
      throw;
    }
    other.join();
    if (error) std::rethrow_exception(error);
  }

  Round run_round(std::vector<Job> jobs, bool capture) {
    Round r;
    r.jobs = std::move(jobs);
    std::vector<Exchange> lanes[2];
    on_both_lanes([&](int lane) {
      wake_lane(lane);
      for (std::size_t i = static_cast<std::size_t>(lane); i < r.jobs.size(); i += 2) {
        lanes[lane].push_back(conns_[lane]->exchange(r.jobs[i], capture));
      }
    });
    for (int lane = 0; lane < 2; ++lane) {
      for (Exchange& ex : lanes[lane]) {
        if (ctx_.tracer->enabled() && ex.job->kind != Kind::kControl) {
          ctx_.tracer->add("service.admit", ex.send, ex.accepted, lane + 1);
          ctx_.tracer->add("service.queue_wait", ex.accepted, ex.started, lane + 1);
          ctx_.tracer->add("service.run", ex.started, ex.terminal, lane + 1);
        }
        r.exchanges.push_back(std::move(ex));
      }
    }
    return r;
  }

  JsonValue query_stats() {
    Job q;
    q.line = "{\"id\":\"s" + std::to_string(next_id_++) + "\",\"type\":\"stats\"}";
    Exchange ex = conns_[0]->exchange(q, true);
    return service::json_parse(ex.lines.back());
  }

  Context& ctx_;
  bool full_;
  std::mt19937_64 rng_;
  std::vector<std::string> examples_;
  std::vector<RcParams> rc_pool_;
  std::vector<RlcParams> rlc_pool_;
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<Connection> conns_[2];
  std::vector<JobEvent> wake_events_[2];
  std::vector<Job> checked_jobs_;
  Round checked_round_;
  JsonValue stats_before_;
  std::size_t serial_ = 0;
  std::size_t next_id_ = 0;
  std::size_t lifecycle_failures_ = 0;
  std::vector<double> latency_ms_;
  std::vector<double> admit_ms_;
  std::vector<double> queue_ms_;
  std::vector<double> run_ms_;
  std::vector<double> response_bytes_;
  std::vector<double> round_jobs_per_s_;
};

}  // namespace

void self_test_service(SelfTest& st, const Options&) {
  Tracer off(false);
  RcParams rc;
  rc.r = 2e3;
  rc.c = 1e-12;
  const DirectNetlist rc_run = run_netlist_direct(rc_netlist(rc, "rc"), &off);
  RcParams rc_wrong = rc;
  rc_wrong.r *= 1.1;
  const auto& t = rc_run.columns.at("tran:time");
  const auto& v = rc_run.columns.at("tran:v(out)");
  st.expect_case("service RC closed form (time constant 10% longer)",
                 matches_closed_form(t, v, [&](double x) { return rc.expected(x); }, 2e-3),
                 matches_closed_form(t, v, [&](double x) { return rc_wrong.expected(x); }, 2e-3));
  RlcParams rlc;
  RlcParams rlc_wrong = rlc;
  rlc_wrong.l *= 1.1;
  const DirectNetlist rlc_run = run_netlist_direct(rlc_netlist(rlc, "rlc"), &off);
  const auto& t2 = rlc_run.columns.at("tran:time");
  const auto& v2 = rlc_run.columns.at("tran:v(out)");
  st.expect_case("service RLC closed form (inductance 10% higher)",
                 matches_closed_form(t2, v2, [&](double x) { return rlc.expected(x); }, 1e-2),
                 matches_closed_form(t2, v2, [&](double x) { return rlc_wrong.expected(x); }, 1e-2));
  RcParams rc_other = rc;
  rc_other.c *= 1.01;
  const DirectNetlist other = run_netlist_direct(rc_netlist(rc_other, "rc"), &off);
  st.expect_case("service waveform equals direct call (direct C 1% higher)",
                 bitwise_equal(v, run_netlist_direct(rc_netlist(rc, "rc"), &off)
                                      .columns.at("tran:v(out)")),
                 bitwise_equal(v, other.columns.at("tran:v(out)")));
  st.expect_case("service monte_carlo equals direct (direct with another seed)",
                 stats_bitwise(run_mc_direct(5), run_mc_direct(5)),
                 stats_bitwise(run_mc_direct(5), run_mc_direct(6)));
  const std::vector<JobEvent> good{{0, "accepted"}, {1, "started"}, {2, "chunk"}, {3, "result"}};
  const std::vector<JobEvent> gap{{0, "accepted"}, {1, "started"}, {3, "result"}};
  const std::vector<JobEvent> twice{{0, "accepted"}, {1, "started"}, {2, "result"}, {3, "error"}};
  st.expect_case("service lifecycle (a seq gap)", lifecycle_ok(good), lifecycle_ok(gap));
  st.expect_case("service lifecycle (two terminal events)", lifecycle_ok(good),
                 lifecycle_ok(twice));
}

std::unique_ptr<Section> make_service_section(Context& ctx, Scale scale) {
  return std::make_unique<ServiceSection>(ctx, scale);
}

}  // namespace perfbench
