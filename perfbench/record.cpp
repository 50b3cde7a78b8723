#include "record.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double now_seconds() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double>(clock::now() - origin).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int Trace::begin(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  const int id = int(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(id);
  spans_[id].t0 = now_seconds(); // last, so bookkeeping stays outside
  return id;
}

void Trace::end(int id) {
  const double t = now_seconds();
  spans_[id].t1 = t;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Trace::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.t1 >= 0 && s.name == name) out.push_back(s.t1 - s.t0);
  return out;
}

namespace {
std::string escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}
} // namespace

bool Trace::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.t1 < 0) continue;
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", s.t0 * 1e6,
                  (s.t1 - s.t0) * 1e6);
    f << (first ? "\n" : ",\n") << "{\"name\":\"" << escape(s.name)
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":0," << buf
      << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    first = false;
  }
  f << "\n]}\n";
  return bool(f);
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_seconds = double(ru.ru_utime.tv_sec) + 1e-6 * ru.ru_utime.tv_usec +
                  double(ru.ru_stime.tv_sec) + 1e-6 * ru.ru_stime.tv_usec;
  u.invol_cs = ru.ru_nivcsw;
  return u;
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kib = 0;
      is >> kib;
      return kib / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& it : items_)
    if (it.first == name) {
      it.second = {value, unit};
      return;
    }
  items_.push_back({name, {value, unit}});
}

bool Metrics::all_finite() const {
  for (const auto& it : items_)
    if (!std::isfinite(it.second.first)) return false;
  return true;
}

std::string Metrics::json() const {
  std::string o = "{";
  char buf[64];
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const double v = items_[i].second.first;
    // JSON has no NaN; main() rejects a run with a non-finite metric.
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : -1.0);
    o += (i ? ", \"" : "\"") + items_[i].first + "\": {\"value\": " + buf +
         ", \"unit\": \"" + items_[i].second.second + "\"}";
  }
  return o + "}";
}

} // namespace perfbench
