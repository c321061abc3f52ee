#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int Rng::uniform_int(int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(next() % span);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed ^ (stream * 0xd1b54a32d192ed03ull));
  return rng.next();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * double(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - double(lo)) * (values[hi] - values[lo]);
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB on Linux
}

double current_rss_kb() {
  long pages_total = 0;
  long pages_resident = 0;
  std::ifstream statm("/proc/self/statm");
  statm >> pages_total >> pages_resident;
  return double(pages_resident) * double(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return double(tv.tv_sec) + 1e-6 * double(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

namespace {

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

bool same_report(const exa::svc::Report& a, const exa::svc::Report& b) {
  const exa::svc::Scenario& x = a.scenario;
  const exa::svc::Scenario& y = b.scenario;
  if (x.app != y.app || x.machine != y.machine || x.nodes != y.nodes ||
      x.io_preset != y.io_preset || x.topology != y.topology ||
      x.congestion != y.congestion || !same_bits(x.straggler_fraction, y.straggler_fraction) ||
      !same_bits(x.straggler_slowdown, y.straggler_slowdown) || x.params != y.params) {
    return false;
  }
  if (!same_bits(a.time_s, b.time_s) || !same_bits(a.fom, b.fom) ||
      a.metrics.size() != b.metrics.size()) {
    return false;
  }
  auto ib = b.metrics.begin();
  for (const auto& [name, value] : a.metrics) {
    if (name != ib->first || !same_bits(value, ib->second)) return false;
    ++ib;
  }
  return true;
}

std::int64_t Tracer::Lane::open(const char* name, std::uint64_t id,
                                std::int64_t parent, const char* detail) {
  if (owner_ == nullptr || !owner_->enabled_) return -1;
  Span span;
  span.name = name;
  span.detail = detail;
  span.id = id;
  span.parent = parent;
  span.thread = thread_;
  span.start_s = std::chrono::duration<double>(Clock::now() - owner_->origin_).count();
  spans_.push_back(span);
  return std::int64_t(spans_.size()) - 1;
}

void Tracer::Lane::close(std::int64_t handle) {
  if (handle < 0) return;
  spans_[std::size_t(handle)].end_s =
      std::chrono::duration<double>(Clock::now() - owner_->origin_).count();
}

Tracer::Tracer(bool enabled, Clock::time_point origin)
    : enabled_(enabled), origin_(origin) {}

Tracer::Lane Tracer::lane(int thread) const {
  Lane lane;
  lane.owner_ = this;
  lane.thread_ = thread;
  return lane;
}

void Tracer::merge(Lane&& lane) {
  // Lane-local parent handles become indices into the merged list.
  const auto base = std::int64_t(spans_.size());
  for (Span span : lane.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
  lane.spans_.clear();
}

std::vector<double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[std::size_t(span.parent)] -= span.end_s - span.start_s;
    }
  }
  return self;
}

std::vector<double> Tracer::self_times_of(const std::string& name) const {
  const std::vector<double> self = self_times();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      out.push_back(self[i]);
    }
  }
  return out;
}

void Tracer::write_json(const std::string& path, std::size_t limit) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  const std::size_t n = std::min(limit, spans_.size());
  std::fprintf(f, "{\"spans_total\": %zu, \"spans_written\": %zu, \"traceEvents\": [\n",
               spans_.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"span\":%zu,"
                 "\"parent\":%lld}}%s\n",
                 s.name, s.detail, s.thread, 1e6 * s.start_s,
                 1e6 * (s.end_s - s.start_s), (unsigned long long)s.id, i,
                 (long long)s.parent, i + 1 < n ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

void CheckReport::merge(const CheckReport& other) {
  passed += other.passed;
  failed += other.failed;
  corruptions_caught += other.corruptions_caught;
  corruptions_missed += other.corruptions_missed;
}

CheckReport report_check(const std::string& name, const std::string& real,
                         const std::string& corrupted) {
  CheckReport r;
  (real.empty() ? r.passed : r.failed) += 1;
  (corrupted.empty() ? r.corruptions_missed : r.corruptions_caught) += 1;
  std::printf("check %-34s %s; corrupted input %s\n", name.c_str(),
              real.empty() ? "holds" : ("FAILS: " + real).c_str(),
              corrupted.empty() ? "NOT REJECTED" : "rejected");
  return r;
}

void RunResult::print() const {
  std::printf("attempted %llu failed %llu correct %s\n",
              (unsigned long long)attempted, (unsigned long long)failed,
              correct ? "true" : "false");
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string trace_path(const Options& options) {
  return options.out_dir + "/" + options.workload + "-seed" +
         std::to_string(options.seed) + ".trace.json";
}

}  // namespace perfbench
