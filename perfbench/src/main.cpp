/// End-to-end benchmark of the simulation service.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--out-dir <dir>]
///
/// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
/// (--trace 1) record spans around every call into a layer and print the
/// per-layer metrics. Both print attempted/failed operation counts, run
/// the workload's output checks, and end with one JSON result line. See
/// perfbench/README.md for the workloads and what each metric should move.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Metric;

/// Every metric a run prints, in print order. A workload that never
/// reaches a layer reports that layer's per-layer metrics as 0.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"ops_per_s", "ops/s"},
    {"latency_p50_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"campaign.parse_s", "s"},
    {"campaign.expand_s", "s"},
    {"campaign.dedupe_hits", "count"},
    {"svc.run_s", "s"},
    {"svc.run_p50_s", "s"},
    {"svc.run_p99_s", "s"},
    {"svc.run_s.pele", "s"},
    {"svc.run_s.gests", "s"},
    {"svc.run_s.lammps", "s"},
    {"svc.run_s.comet", "s"},
    {"svc.run_s.exasky", "s"},
    {"svc.run_s.sparse_cg", "s"},
    {"svc.run_s.fabric_event", "s"},
    {"svc.run_s.fabric_quiet", "s"},
    {"svc.worker_busy", "ratio"},
    {"svc.submit_p50_s", "s"},
    {"svc.wait_p50_s", "s"},
    {"svc.hit_latency_p50_s", "s"},
    {"svc.cold_latency_p50_s", "s"},
    {"svc.latency_p99_s", "s"},
    {"svc.hit_share", "ratio"},
    {"svc.executed", "count"},
    {"svc.rss_kb_per_job", "KB"},
    {"apps.sparse.cg_solve_s", "s"},
    {"apps.sparse.cg_iterations", "count"},
    {"apps.sparse.spmv_gbytes_per_s", "GB/s"},
    {"apps.lammps.qeq_s", "s"},
    {"apps.gests.step_time_s", "s"},
    {"net.fabric_build_s", "s"},
    {"net.transfer_s", "s"},
    {"engine.serial_events_per_s", "events/s"},
    {"engine.parallel1_events_per_s", "events/s"},
    {"engine.thread_speedup", "ratio"},
    {"engine.windows", "count"},
    {"engine.messages", "count"},
    {"engine.retries", "count"},
    {"io.checkpoint_s.quiet", "s"},
    {"io.checkpoint_s.lustre", "s"},
    {"io.checkpoint_s.bb", "s"},
    {"proc.cpu_s", "s"},
    {"trace.ops_per_s", "ops/s"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<campaign_faults|campaign_solvers|svc_flood|engine_ring> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  return 2;
}

/// Orders the workload's metrics by the declared table and fills the
/// layers it never reached with 0. Unknown or missing end-to-end metrics
/// are a benchmark bug.
bool normalize(perfbench::RunResult& result, bool trace) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : result.metrics) by_name[m.name] = m;
  const auto& table = trace ? kPerLayer : kEndToEnd;
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : table) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      if (!trace) {
        std::fprintf(stderr, "perfbench: workload did not report %s\n", name);
        return false;
      }
      ordered.push_back({name, 0.0, unit});
      continue;
    }
    if (it->second.unit != unit) {
      std::fprintf(stderr, "perfbench: %s reported in %s, declared %s\n", name,
                   it->second.unit.c_str(), unit);
      return false;
    }
    ordered.push_back(it->second);
    by_name.erase(it);
  }
  for (const auto& [name, metric] : by_name) {
    std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
    return false;
  }
  result.metrics = std::move(ordered);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // The process-wide pool serves nested loops inside the program (fabric
  // phase sums, SpMV). Pinning it to one thread keeps each workload's
  // explicit parallelism (server workers, engine pool, client threads)
  // the only parallelism, within `nproc` runnable threads in total.
  setenv("EXA_THREADS", "1", 1);

  perfbench::Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (arg == "--out-dir") {
        options.out_dir = value;
      } else {
        return usage(("unknown option " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  options.cpus = perfbench::available_cpus();

  perfbench::RunResult result;
  try {
    if (options.workload == "campaign_faults") {
      result = perfbench::run_campaign_faults(options);
    } else if (options.workload == "campaign_solvers") {
      result = perfbench::run_campaign_solvers(options);
    } else if (options.workload == "svc_flood") {
      result = perfbench::run_svc_flood(options);
    } else if (options.workload == "engine_ring") {
      result = perfbench::run_engine_ring(options);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!normalize(result, options.trace)) return 1;
  result.print();
  return 0;
}
