#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::mt19937_64 rng_for(std::uint64_t seed, std::string_view purpose) {
  // FNV-1a of the purpose keeps the streams of different sections apart.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : purpose) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(h),
                    static_cast<std::uint32_t>(h >> 32)};
  return std::mt19937_64(seq);
}

// ---- Tracer ----------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  index_ = static_cast<int>(tracer_->records_.size());
  tracer_->records_.push_back(
      {name, Clock::now(), Clock::time_point{}, tracer_->open_, 0});
  tracer_->open_ = index_;
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  auto& record = tracer_->records_[static_cast<std::size_t>(index_)];
  record.end = Clock::now();
  tracer_->open_ = record.parent;
}

void Tracer::add(const char* name, Clock::time_point start,
                 Clock::time_point end, int lane) {
  if (!enabled_) return;
  records_.push_back({name, start, end, open_, lane});
}

double Tracer::total_ms(std::string_view name) const {
  double total = 0.0;
  for (const auto& r : records_) {
    if (name == r.name) {
      total += std::chrono::duration<double, std::milli>(r.end - r.start).count();
    }
  }
  return total;
}

std::size_t Tracer::count(std::string_view name) const {
  return static_cast<std::size_t>(std::count_if(
      records_.begin(), records_.end(),
      [name](const Record& r) { return name == r.name; }));
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", r.name, r.lane, us(r.start),
                  us(r.end) - us(r.start), i, r.parent);
    out << buf;
  }
  out << "\n]}\n";
}

// ---- Report / Checker ------------------------------------------------------

void Report::add(std::string name, double value, std::string unit) {
  entries_.push_back({std::move(name), value, std::move(unit)});
}

bool Report::has(std::string_view name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [name](const Entry& e) { return e.name == name; });
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out << (i == 0 ? "" : ", ") << "\"" << entries_[i].name
        << "\": {\"value\": " << buf << ", \"unit\": \"" << entries_[i].unit
        << "\"}";
  }
  out << "}";
  return out.str();
}

bool Checker::expect(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
  return ok;
}

double peak_rss_mb(long pid) {
  std::ifstream status(pid > 0 ? "/proc/" + std::to_string(pid) + "/status"
                               : std::string("/proc/self/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
