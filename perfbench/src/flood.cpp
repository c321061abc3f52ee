/// svc_flood: a closed loop against one long-lived `svc::Server` per
/// round. Client threads each `submit` a job and `wait` for it before
/// sending the next, drawing from a seeded plan: Zipf popularity over a
/// pool of cheap scenarios plus a small share of fresh cold keys, so most
/// jobs are dedupe hits and the server's queue, dedupe and job table do
/// nearly all the work.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "common.hpp"
#include "svc/scenario.hpp"
#include "svc/server.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kJobsPerRound = 40000;  ///< jobs one server serves
constexpr std::size_t kPoolSize = 256;        ///< hot scenario pool
constexpr double kZipfSkew = 1.1;             ///< popularity ~ 1/rank^s
constexpr double kColdShare = 0.01;           ///< jobs with a fresh key
constexpr int kExtraSetups = 41;              ///< server builds before round 1
/// One closed-loop client against one server worker, all on one CPU.
/// With more threads every submit, pop and completion contends on the
/// server's one mutex and its notify_all wakeups, and throughput swung
/// between 9k and 38k jobs/s from round to round on a 4-CPU host. Even
/// one client and one worker on separate CPUs swung between 8k and 33k
/// jobs/s from run to run, as the handoff became a wakeup of an idle CPU
/// or not. On one CPU each handoff is a plain context switch.
constexpr int kClients = 1;
constexpr std::size_t kWorkers = 1;

/// Restricts the calling thread, and every thread it creates from now
/// on, to the first CPU it may run on.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

struct PlannedJob {
  std::uint32_t scenario = 0;  ///< index into the round's scenario table
  bool cold = false;
};

/// The hot pool: comet and exasky scenarios on a quiet fat-tree, cheap to
/// run, each with a distinct key.
std::vector<exa::svc::Scenario> make_pool(std::uint64_t seed) {
  Rng rng(mix_seed(seed, 10));
  std::vector<exa::svc::Scenario> pool;
  for (std::size_t k = 0; k < kPoolSize; ++k) {
    exa::svc::Scenario s;
    s.machine = rng.uniform() < 0.5 ? "frontier" : "summit";
    s.nodes = rng.uniform_int(1, 64);
    if (k % 2 == 0) {
      s.app = exa::svc::App::kComet;
      s.params["vectors_per_device"] = 4096.0 + 16.0 * double(k);
    } else {
      s.app = exa::svc::App::kExaSky;
      s.params["particles_per_rank"] = 1.0e7 + 1.0e5 * double(k);
    }
    pool.push_back(std::move(s));
  }
  return pool;
}

/// A fresh key: an exasky run with a particle count no other job uses.
exa::svc::Scenario cold_scenario(std::uint64_t serial, Rng& rng) {
  exa::svc::Scenario s;
  s.app = exa::svc::App::kExaSky;
  s.machine = rng.uniform() < 0.5 ? "frontier" : "summit";
  s.nodes = rng.uniform_int(1, 64);
  s.params["particles_per_rank"] = 2.0e7 + double(serial);
  return s;
}

/// One round's plan: jobs reference `table`, the pool followed by the
/// round's cold scenarios.
struct RoundPlan {
  std::vector<exa::svc::Scenario> table;
  std::vector<PlannedJob> jobs;
  std::size_t distinct = 0;
};

RoundPlan make_plan(const std::vector<exa::svc::Scenario>& pool,
                    const std::vector<double>& zipf_cdf,
                    const std::vector<std::uint32_t>& rank_to_pool,
                    std::uint64_t seed, std::size_t round) {
  Rng rng(mix_seed(seed, 1000 + round));
  RoundPlan plan;
  plan.table = pool;
  std::set<std::uint32_t> used;
  for (std::size_t j = 0; j < kJobsPerRound; ++j) {
    PlannedJob job;
    if (rng.uniform() < kColdShare) {
      job.cold = true;
      job.scenario = std::uint32_t(plan.table.size());
      plan.table.push_back(cold_scenario(round * kJobsPerRound + j, rng));
    } else {
      const double u = rng.uniform();
      const auto rank = std::size_t(
          std::upper_bound(zipf_cdf.begin(), zipf_cdf.end(), u) - zipf_cdf.begin());
      job.scenario = rank_to_pool[std::min(rank, kPoolSize - 1)];
    }
    used.insert(job.scenario);
    plan.jobs.push_back(job);
  }
  plan.distinct = used.size();
  return plan;
}

struct RoundStats {
  exa::svc::ServerStats server;
  std::size_t planned_distinct = 0;
  std::size_t not_completed = 0;  ///< jobs that ended cancelled or with an error
  std::size_t mismatches = 0;     ///< reports differing from direct svc::run
};

struct FloodObs {
  std::vector<RoundStats> rounds;
  exa::svc::Report sample_report;  ///< one served report, kept for the check
  exa::svc::Report sample_direct;  ///< its direct svc::run
};

std::vector<Check<FloodObs>> flood_checks() {
  using Obs = FloodObs;
  return {
      {"no job cancelled or failed",
       [](const Obs& o) -> std::string {
         for (const RoundStats& r : o.rounds) {
           if (r.not_completed != 0 || r.server.cancelled != 0) return "a job did not complete";
         }
         return "";
       },
       [](Obs& o) { o.rounds[0].not_completed += 1; }},
      {"ledger submitted = completed = plan",
       [](const Obs& o) -> std::string {
         for (const RoundStats& r : o.rounds) {
           if (r.server.submitted != kJobsPerRound || r.server.completed != kJobsPerRound ||
               r.server.executed + r.server.dedupe_hits != r.server.submitted) {
             return "server ledger does not balance";
           }
         }
         return "";
       },
       [](Obs& o) { o.rounds[0].server.completed -= 1; }},
      {"executed = distinct keys in own plan",
       [](const Obs& o) -> std::string {
         for (const RoundStats& r : o.rounds) {
           if (r.server.executed != r.planned_distinct) {
             return "executed " + std::to_string(r.server.executed) + ", plan has " +
                    std::to_string(r.planned_distinct) + " distinct keys";
           }
         }
         return "";
       },
       [](Obs& o) { o.rounds[0].server.executed += 1; }},
      {"every report equals direct svc::run",
       [](const Obs& o) -> std::string {
         if (!same_report(o.sample_report, o.sample_direct)) return "sample report differs";
         for (const RoundStats& r : o.rounds) {
           if (r.mismatches != 0) return std::to_string(r.mismatches) + " reports differ";
         }
         return "";
       },
       [](Obs& o) { o.sample_report.fom = std::nextafter(o.sample_report.fom, 1e300); }},
  };
}

/// Per-job timings of one round, indexed by job.
struct RoundTimes {
  std::vector<double> latency;
  std::vector<char> cold;
};

/// Runs one round on a fresh server; returns its wall time (seconds).
double run_round(const RoundPlan& plan, const std::vector<exa::svc::Report>& direct,
                 int clients, std::size_t workers, std::uint64_t job_base,
                 Tracer& tracer, bool trace_jobs, std::vector<double>& setup,
                 RoundStats& stats, RoundTimes& times,
                 std::vector<std::pair<double, double>>* rss_samples,
                 exa::svc::Report* first_report) {
  exa::svc::ServerConfig config;
  config.workers = workers;
  const Clock::time_point s0 = Clock::now();
  exa::svc::Server server(config);
  setup.push_back(seconds_since(s0));

  times.latency.assign(plan.jobs.size(), 0.0);
  times.cold.assign(plan.jobs.size(), 0);
  std::atomic<std::size_t> done{0};
  std::vector<std::size_t> not_completed(std::size_t(clients), 0);
  std::vector<std::size_t> mismatches(std::size_t(clients), 0);
  std::vector<Tracer::Lane> lanes;
  for (int c = 0; c < clients; ++c) lanes.push_back(tracer.lane(c + 1));

  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Tracer::Lane& lane = lanes[std::size_t(c)];
      const std::int64_t client_span =
          trace_jobs ? lane.open("svc.client", job_base, -1) : -1;
      for (std::size_t j = std::size_t(c); j < plan.jobs.size(); j += std::size_t(clients)) {
        const PlannedJob& job = plan.jobs[j];
        const std::int64_t hj = trace_jobs ? lane.open("svc.job", job_base + j, client_span,
                                                       job.cold ? "cold" : "hit")
                                           : -1;
        const Clock::time_point a = Clock::now();
        std::int64_t h = trace_jobs ? lane.open("svc.submit", job_base + j, hj) : -1;
        const exa::svc::JobId id = server.submit(plan.table[job.scenario]);
        lane.close(h);
        h = trace_jobs ? lane.open("svc.wait", job_base + j, hj) : -1;
        const exa::svc::JobStatus status = server.wait(id);
        lane.close(h);
        times.latency[j] = seconds_since(a);
        lane.close(hj);
        times.cold[j] = job.cold ? 1 : 0;
        if (status.state != exa::svc::JobState::kCompleted || !status.error.empty()) {
          ++not_completed[std::size_t(c)];
        } else if (!same_report(status.report, direct[job.scenario])) {
          ++mismatches[std::size_t(c)];
        }
        if (j == 0 && first_report != nullptr) *first_report = status.report;
        if (rss_samples != nullptr) done.fetch_add(1, std::memory_order_relaxed);
      }
      lane.close(client_span);
    });
  }
  if (rss_samples != nullptr) {
    // Resident memory against jobs served, sampled while the clients run.
    std::size_t served = 0;
    while ((served = done.load(std::memory_order_relaxed)) < plan.jobs.size()) {
      rss_samples->emplace_back(double(served), current_rss_kb());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  for (std::thread& t : threads) t.join();
  const double wall = seconds_since(t0);
  for (Tracer::Lane& lane : lanes) tracer.merge(std::move(lane));

  stats.server = server.stats();
  stats.planned_distinct = plan.distinct;
  for (int c = 0; c < clients; ++c) {
    stats.not_completed += not_completed[std::size_t(c)];
    stats.mismatches += mismatches[std::size_t(c)];
  }
  return wall;
}

/// Least-squares slope of y against x.
double slope(const std::vector<std::pair<double, double>>& xy) {
  if (xy.size() < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (const auto& [x, y] : xy) {
    mx += x;
    my += y;
  }
  mx /= double(xy.size());
  my /= double(xy.size());
  double sxy = 0.0, sxx = 0.0;
  for (const auto& [x, y] : xy) {
    sxy += (x - mx) * (y - my);
    sxx += (x - mx) * (x - mx);
  }
  return sxx > 0.0 ? sxy / sxx : 0.0;
}

}  // namespace

RunResult run_svc_flood(const Options& options) {
  pin_to_one_cpu();
  std::printf("svc_flood: %d closed-loop clients, %zu server workers, %zu jobs per "
              "server, pool %zu, zipf s=%.2f, cold share %.3f\n",
              kClients, kWorkers, kJobsPerRound, kPoolSize, kZipfSkew, kColdShare);

  const std::vector<exa::svc::Scenario> pool = make_pool(options.seed);
  std::vector<double> zipf_cdf(kPoolSize);
  double total = 0.0;
  for (std::size_t k = 0; k < kPoolSize; ++k) {
    total += 1.0 / std::pow(double(k + 1), kZipfSkew);
    zipf_cdf[k] = total;
  }
  for (double& c : zipf_cdf) c /= total;
  std::vector<std::uint32_t> rank_to_pool(kPoolSize);
  for (std::size_t k = 0; k < kPoolSize; ++k) rank_to_pool[k] = std::uint32_t(k);
  {
    Rng rng(mix_seed(options.seed, 11));
    for (std::size_t k = kPoolSize - 1; k > 0; --k) {
      std::swap(rank_to_pool[k], rank_to_pool[std::size_t(rng.next() % (k + 1))]);
    }
  }
  std::vector<exa::svc::Report> pool_direct;
  for (const exa::svc::Scenario& s : pool) pool_direct.push_back(exa::svc::run(s));

  Tracer tracer(options.trace, Clock::now());
  std::vector<double> setup;
  for (int i = 0; i < kExtraSetups; ++i) {
    exa::svc::ServerConfig config;
    config.workers = kWorkers;
    const Clock::time_point s0 = Clock::now();
    const exa::svc::Server server(config);
    setup.push_back(seconds_since(s0));
  }

  FloodObs obs;
  RunResult out;
  double rss_kb_per_job = 0.0;
  std::size_t round = 0;
  const auto plan_round = [&](std::size_t r, std::vector<exa::svc::Report>& direct) {
    RoundPlan plan = make_plan(pool, zipf_cdf, rank_to_pool, options.seed, r);
    direct = pool_direct;
    for (std::size_t k = pool.size(); k < plan.table.size(); ++k) {
      direct.push_back(exa::svc::run(plan.table[k]));
    }
    return plan;
  };
  if (options.trace) {
    // Memory probe: the first server of the process, untraced, so the
    // resident-memory slope holds only what the server keeps per job.
    std::vector<exa::svc::Report> direct;
    const RoundPlan plan = plan_round(round, direct);
    std::vector<std::pair<double, double>> rss;
    RoundStats stats;
    RoundTimes times;
    std::vector<double> probe_setup;
    run_round(plan, direct, kClients, kWorkers, 0, tracer, false, probe_setup, stats, times,
              &rss, nullptr);
    rss_kb_per_job = slope(rss);
    ++round;
  }

  std::vector<double> round_s, latency, hit_latency, cold_latency;
  double executed = 0.0, hits = 0.0, submitted = 0.0;
  const double cpu0 = process_cpu_s();
  const Clock::time_point loop0 = Clock::now();
  do {
    std::vector<exa::svc::Report> direct;
    const RoundPlan plan = plan_round(round, direct);
    RoundStats stats;
    RoundTimes times;
    const bool first = obs.rounds.empty();
    const double wall = run_round(plan, direct, kClients, kWorkers, round * kJobsPerRound,
                                  tracer, options.trace, setup, stats, times, nullptr,
                                  first ? &obs.sample_report : nullptr);
    if (first) obs.sample_direct = direct[plan.jobs[0].scenario];
    obs.rounds.push_back(stats);
    round_s.push_back(wall);
    std::printf("round %zu: %.0f jobs/s\n", round, double(kJobsPerRound) / wall);
    out.attempted += plan.jobs.size();
    out.failed += stats.not_completed;
    executed += double(stats.server.executed);
    hits += double(stats.server.dedupe_hits);
    submitted += double(stats.server.submitted);
    for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
      latency.push_back(times.latency[j]);
      (times.cold[j] ? cold_latency : hit_latency).push_back(times.latency[j]);
    }
    ++round;
  } while (seconds_since(loop0) < options.seconds);
  const double loop_cpu_s = process_cpu_s() - cpu0;

  const CheckReport checks = run_checks(obs, flood_checks());
  out.correct = checks.ok();
  std::vector<double> rates;
  for (const double t : round_s) rates.push_back(double(kJobsPerRound) / t);
  std::printf("rounds %zu, hit share %.4f, executed per round %.1f\n", round_s.size(),
              hits / submitted, executed / double(round_s.size()));
  if (!options.trace) {
    out.add("ops_per_s", median(rates), "ops/s");
    out.add("latency_p50_s", median(latency), "s");
    out.add("setup_s", median(setup), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }
  out.add("svc.submit_p50_s", median(tracer.self_times_of("svc.submit")), "s");
  out.add("svc.wait_p50_s", median(tracer.self_times_of("svc.wait")), "s");
  out.add("svc.hit_latency_p50_s", median(hit_latency), "s");
  out.add("svc.cold_latency_p50_s", median(cold_latency), "s");
  out.add("svc.latency_p99_s", quantile(latency, 0.99), "s");
  out.add("svc.hit_share", hits / submitted, "ratio");
  out.add("svc.executed", executed / double(round_s.size()), "count");
  out.add("svc.rss_kb_per_job", rss_kb_per_job, "KB");
  out.add("proc.cpu_s", loop_cpu_s, "s");
  out.add("trace.ops_per_s", median(rates), "ops/s");
  tracer.write_json(trace_path(options), kTraceFileSpans);
  return out;
}

}  // namespace perfbench
