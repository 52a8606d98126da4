// Shared vocabulary of the repository benchmark: the in-memory span recorder
// of the traced run, exact order statistics, and the result every workload
// returns.
//
// The benchmark drives the library only through its public functions and
// times each layer from outside, around those calls. Spans are recorded by
// this code alone (the library's own CBM_TRACE/CBM_METRICS/CBM_PERF stay
// off), kept in memory, and written out as a Chrome trace when a traced run
// ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Exact order statistic of a sample: the value at index floor(q·(n−1)) of
/// the sorted copy. NaN for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

/// One timed interval of the traced run. `work` is the operation count of
/// the call (FLOPs for kernels, 0 otherwise); `parent` indexes the
/// enclosing span (−1 at top level).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  double work = 0.0;
};

/// Single-threaded span recorder. Disabled recorders record nothing, so the
/// same code paths serve the timed and the traced run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; returns its index (−1
  /// when disabled).
  int begin(const char* name, double work = 0.0);
  void end(int id);

  /// Durations in seconds of every span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Σwork / Σduration over spans called `name` (operations per second).
  [[nodiscard]] double rate(const std::string& name) const;

  /// Writes the spans as a Chrome trace (JSON array of complete events).
  /// Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, double work = 0.0)
      : tracer_(tracer), id_(tracer.begin(name, work)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: operations attempted and failed (an output that
/// disagrees with its reference counts as failed), the metrics, and the
/// provenance labels (threads, SIMD tier, the plan that ran).
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> labels;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Run parameters, fixed by the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  ///< tiny inputs and short phases (metric-shape check)
};

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// 64-bit mix of the run seed with a per-input salt (splitmix64 finaliser),
/// so every generated input depends on --seed and nothing else.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

RunResult run_gcn_workload(const RunConfig& config, Tracer& tracer);
RunResult run_serve_workload(const RunConfig& config, Tracer& tracer);

/// OpenMP team size the workload runs with (its thread budget).
int workload_threads(const std::string& workload);

}  // namespace perfbench
