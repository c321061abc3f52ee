#pragma once
/// \file common.hpp
/// Shared pieces of the end-to-end benchmark: the seeded input generator,
/// timing and order statistics, process probes, the benchmark's own span
/// tracer, output checks that must be able to fail, and the result line.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "svc/scenario.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// SplitMix64: the benchmark's own input generator, so generated inputs
/// depend on the seed alone and not on the program under test.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform double in [0, 1).
  double uniform() { return double(next() >> 11) * 0x1.0p-53; }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [lo, hi].
  int uniform_int(int lo, int hi);

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from (seed, stream).
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Linear-interpolated quantile (q in [0, 1]) of `values` (copied, sorted).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double sum(const std::vector<double>& values);

/// Logical CPUs this process may run on (what `nproc` prints).
[[nodiscard]] int available_cpus();
/// Peak resident set size of this process (MB).
[[nodiscard]] double peak_rss_mb();
/// Current resident set size of this process (KB).
[[nodiscard]] double current_rss_kb();
/// User + system CPU seconds consumed by this process so far.
[[nodiscard]] double process_cpu_s();

/// True when both reports describe the same scenario and carry bitwise
/// equal times, figures of merit and metrics.
[[nodiscard]] bool same_report(const exa::svc::Report& a, const exa::svc::Report& b);

/// One traced interval. `name` and `detail` point at string literals or
/// at strings owned by the workload for the whole run.
struct Span {
  const char* name = "";
  const char* detail = "";
  std::uint64_t id = 0;     ///< grid point, job or engine run it belongs to
  std::int64_t parent = -1; ///< index of the enclosing span, -1 for roots
  double start_s = 0.0;     ///< seconds since the tracer's origin
  double end_s = 0.0;
  int thread = 0;
};

/// In-memory span recorder. Each thread records into its own `Lane`;
/// lanes are merged once the threads have joined. Disabled tracers
/// record nothing and cost one branch per call.
class Tracer {
 public:
  class Lane {
   public:
    /// Opens a span and returns its handle (-1 when tracing is off).
    std::int64_t open(const char* name, std::uint64_t id,
                      std::int64_t parent = -1, const char* detail = "");
    void close(std::int64_t handle);

   private:
    friend class Tracer;
    const Tracer* owner_ = nullptr;
    int thread_ = 0;
    std::vector<Span> spans_;
  };

  Tracer(bool enabled, Clock::time_point origin);
  /// A fresh lane for thread `thread`; merge it back with `merge`.
  [[nodiscard]] Lane lane(int thread) const;
  void merge(Lane&& lane);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: duration minus the time its same-thread
  /// children cover.
  [[nodiscard]] std::vector<double> self_times() const;
  /// Self times of the spans named `name`.
  [[nodiscard]] std::vector<double> self_times_of(const std::string& name) const;
  /// Writes the spans as Chrome trace-event JSON (first `limit` spans).
  void write_json(const std::string& path, std::size_t limit) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Named output checks. Each check inspects an observation and returns
/// an empty string when it holds, else what it found. `run_checks`
/// evaluates every check on the real observation, then re-evaluates each
/// one on a copy corrupted by that check's own corruption, which the
/// check must reject: a check that cannot fail shows nothing.
template <typename Obs>
struct Check {
  std::string name;
  std::function<std::string(const Obs&)> holds;
  std::function<void(Obs&)> corrupt;
};

struct CheckReport {
  int passed = 0;
  int failed = 0;
  int corruptions_caught = 0;
  int corruptions_missed = 0;
  [[nodiscard]] bool ok() const { return failed == 0 && corruptions_missed == 0; }
  void merge(const CheckReport& other);
};

/// Prints one line per check and returns the tally.
CheckReport report_check(const std::string& name, const std::string& real,
                         const std::string& corrupted);

template <typename Obs>
CheckReport run_checks(const Obs& obs, const std::vector<Check<Obs>>& checks) {
  CheckReport total;
  for (const Check<Obs>& check : checks) {
    const std::string real = check.holds(obs);
    Obs bad = obs;
    check.corrupt(bad);
    total.merge(report_check(check.name, real, check.holds(bad)));
  }
  return total;
}

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: a line per metric, then the JSON result line.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void print() const;
};

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  int cpus = 1;
};

/// Spans a trace file holds at most; metrics use every recorded span.
constexpr std::size_t kTraceFileSpans = 50000;

/// Path of the trace file a traced run writes.
[[nodiscard]] std::string trace_path(const Options& options);

/// Workload entry points (one translation unit each).
RunResult run_campaign_faults(const Options& options);
RunResult run_campaign_solvers(const Options& options);
RunResult run_svc_flood(const Options& options);
RunResult run_engine_ring(const Options& options);

}  // namespace perfbench
