// Measurement plumbing of the benchmark: a span recorder written out as a
// Chrome trace, the metric list printed as the result line, and the
// process-level software counters (task clock, context switches, peak RSS)
// that expose a run disturbed by a shared host.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

double now_seconds(); ///< steady clock, seconds since the first call

/// Median of a sample (0 for an empty one).
double median(std::vector<double> v);

/// Spans recorded around calls into the program. Disabled recorders cost one
/// branch per span, so the untraced runs carry no recording work at all.
class Trace {
public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Open/close a span; spans nest, and each records the span that was open
  /// when it began as its parent.
  int begin(const std::string& name);
  void end(int id);

  /// Durations (seconds) of every closed span with this name.
  std::vector<double> durations(const std::string& name) const;

  /// Chrome trace_event JSON ("ph":"X" complete events, one lane).
  bool write_chrome(const std::string& path) const;

private:
  struct Span {
    std::string name;
    double t0 = 0, t1 = -1;
    int parent = -1;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
public:
  Scope(Trace& t, const std::string& name)
      : t_(t), id_(t.enabled() ? t.begin(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) t_.end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  Trace& t_;
  int id_;
};

/// Process CPU time (user + system, all threads) and involuntary context
/// switches from getrusage on the benchmark process itself.
struct Usage {
  double cpu_seconds = 0;
  long invol_cs = 0;
  static Usage now();
};

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mib();

/// Ordered metric list; json() renders the "metrics" member of the result.
class Metrics {
public:
  void set(const std::string& name, double value, const std::string& unit);
  bool all_finite() const;
  /// {"name": {"value": v, "unit": u}, ...}
  std::string json() const;

private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

} // namespace perfbench
