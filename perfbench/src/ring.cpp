/// engine_ring: a congested, faulty ring program of 16k ranks run through
/// `net::EventEngine::run_parallel` on a pool of `nproc` threads (calling
/// thread included). Jittered compute, send distances that shift every
/// round, and seven message sizes exercise `Fabric::transfer`'s
/// per-message link cursors rather than the collective phase sums.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "arch/machine.hpp"
#include "common.hpp"
#include "net/engine.hpp"
#include "net/fabric.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 16384;
constexpr int kRanksPerNode = 8;   ///< one rank per Frontier GCD
constexpr int kProgramRounds = 7;  ///< compute, send, recv per round
constexpr int kSetupRepeats = 9;

using exa::net::RankOp;
using Programs = std::vector<std::vector<RankOp>>;

Programs ring_programs(std::uint64_t seed) {
  Rng rng(mix_seed(seed, 20));
  const int shift0 = rng.uniform_int(0, 4);
  Programs programs(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    auto& prog = programs[std::size_t(r)];
    for (int round = 0; round < kProgramRounds; ++round) {
      const int shift = 1 + ((round + shift0) % 5) * 3;
      prog.push_back(RankOp::compute(1.0e-6 * (1.0 + 0.2 * rng.uniform())));
      prog.push_back(RankOp::send((r + shift) % kRanks,
                                  1024.0 * (1 + (round + r) % 7), round));
      prog.push_back(RankOp::recv((r - shift + kRanks) % kRanks, round));
    }
  }
  return programs;
}

exa::net::FabricConfig stressed_config(std::uint64_t seed) {
  exa::net::FabricConfig config;
  config.congestion = true;
  config.faults.drop_probability = 0.05;
  config.faults.straggler_fraction = 0.1;
  config.faults.straggler_slowdown = 1.7;
  config.faults.degraded_link_fraction = 0.1;
  config.faults.seed = mix_seed(seed, 21);
  return config;
}

struct RingObs {
  exa::net::EngineResult parallel;  ///< first timed run
  exa::net::EngineResult serial;
  std::uint64_t expected_events = 0;
  std::size_t expected_messages = 0;
  std::vector<double> compute_s;  ///< per-rank sum of compute ops
  double lookahead_s = 0.0;
  std::size_t rounds = 0;
  std::size_t rounds_reproducing_first = 0;
};

std::vector<Check<RingObs>> ring_checks() {
  using Obs = RingObs;
  return {
      {"parallel same_outcome as serial",
       [](const Obs& o) -> std::string {
         return o.parallel.same_outcome(o.serial) ? "" : "parallel run diverged from serial";
       },
       [](Obs& o) { o.parallel.clocks[0] = std::nextafter(o.parallel.clocks[0], 1e300); }},
      {"event and message counts = program",
       [](const Obs& o) -> std::string {
         if (o.parallel.events != o.expected_events) return "event count differs from program";
         if (o.parallel.messages.size() != o.expected_messages) {
           return "message count differs from program";
         }
         return "";
       },
       [](Obs& o) { o.parallel.events += 1; }},
      {"delivered >= posted + lookahead",
       [](const Obs& o) -> std::string {
         for (const exa::net::MessageRecord& m : o.parallel.messages) {
           if (!(m.delivered_s >= m.posted_s + o.lookahead_s)) {
             return "message " + std::to_string(m.src) + "->" + std::to_string(m.dst) +
                    " delivered inside the lookahead window";
           }
         }
         return "";
       },
       [](Obs& o) { o.parallel.messages[0].delivered_s = o.parallel.messages[0].posted_s; }},
      {"final clock >= compute seconds",
       [](const Obs& o) -> std::string {
         for (std::size_t r = 0; r < o.compute_s.size(); ++r) {
           if (!(o.parallel.clocks[r] >= o.compute_s[r])) {
             return "rank " + std::to_string(r) + " finished before its compute";
           }
         }
         return "";
       },
       [](Obs& o) { o.parallel.clocks[0] = 0.5 * o.compute_s[0]; }},
      {"every round reproduces round 1",
       [](const Obs& o) -> std::string {
         return o.rounds_reproducing_first == o.rounds ? "" : "a round diverged";
       },
       [](Obs& o) { o.rounds_reproducing_first -= 1; }},
  };
}

}  // namespace

RunResult run_engine_ring(const Options& options) {
  const Programs programs = ring_programs(options.seed);
  const exa::arch::Machine frontier = exa::arch::machines::frontier();
  const exa::net::FabricConfig config = stressed_config(options.seed);
  std::printf("engine_ring: %d ranks x %d rounds on %d Frontier nodes, pool of %d threads\n",
              kRanks, kProgramRounds, kRanks / kRanksPerNode, options.cpus);

  RingObs obs;
  obs.expected_events = std::uint64_t(kRanks) * kProgramRounds * 3;
  obs.expected_messages = std::size_t(kRanks) * kProgramRounds;
  for (const auto& prog : programs) {
    double s = 0.0;
    for (const RankOp& op : prog) {
      if (op.kind == RankOp::Kind::kCompute) s += op.value;
    }
    obs.compute_s.push_back(s);
  }

  Tracer tracer(options.trace, Clock::now());
  Tracer::Lane lane = tracer.lane(0);
  // Set-up: the program's own Fabric and EventEngine construction.
  std::vector<double> setup;
  std::unique_ptr<exa::net::Fabric> fabric;
  std::unique_ptr<exa::net::EventEngine> engine;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Programs copy = programs;
    engine.reset();
    const std::int64_t h = lane.open("engine.setup", std::uint64_t(i));
    const Clock::time_point t0 = Clock::now();
    fabric = std::make_unique<exa::net::Fabric>(frontier, kRanksPerNode, config);
    engine = std::make_unique<exa::net::EventEngine>(*fabric, std::move(copy));
    setup.push_back(seconds_since(t0));
    lane.close(h);
  }
  obs.lookahead_s = engine->lookahead_s();

  exa::support::ThreadPool pool(std::size_t(std::max(1, options.cpus - 1)));
  std::vector<double> round_s;
  RunResult out;
  const double cpu0 = process_cpu_s();
  const Clock::time_point loop0 = Clock::now();
  do {
    const std::int64_t h = lane.open("engine.run", round_s.size());
    const Clock::time_point t0 = Clock::now();
    exa::net::EngineResult result = engine->run_parallel(&pool);
    round_s.push_back(seconds_since(t0));
    lane.close(h);
    out.attempted += obs.expected_events;
    ++obs.rounds;
    if (obs.rounds == 1) {
      obs.parallel = std::move(result);
      ++obs.rounds_reproducing_first;
    } else {
      obs.rounds_reproducing_first += result.same_outcome(obs.parallel) ? 1 : 0;
    }
  } while (seconds_since(loop0) < options.seconds);
  const double loop_cpu_s = process_cpu_s() - cpu0;

  std::int64_t h = lane.open("engine.run_serial", 0);
  Clock::time_point t0 = Clock::now();
  obs.serial = engine->run_serial();
  const double serial_s = seconds_since(t0);
  lane.close(h);

  const CheckReport checks = run_checks(obs, ring_checks());
  out.correct = checks.ok();
  const double events = double(obs.expected_events);
  std::vector<double> rates;
  for (const double t : round_s) rates.push_back(events / t);
  std::printf("events/s per round: min %.4g median %.4g max %.4g\n",
              quantile(rates, 0.0), median(rates), quantile(rates, 1.0));
  std::printf("rounds %zu, windows %d, messages %zu, retries %lld\n", round_s.size(),
              obs.parallel.windows, obs.parallel.messages.size(),
              static_cast<long long>(obs.parallel.total_retries()));
  if (!options.trace) {
    out.add("ops_per_s", median(rates), "ops/s");
    out.add("latency_p50_s", median(round_s), "s");
    out.add("setup_s", median(setup), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  exa::support::ThreadPool pool1(1);
  h = lane.open("engine.run_parallel1", 0);
  t0 = Clock::now();
  const exa::net::EngineResult one = engine->run_parallel(&pool1);
  const double parallel1_s = seconds_since(t0);
  lane.close(h);
  if (!one.same_outcome(obs.serial)) out.correct = false;

  // The serial floor: the engine's messages, in application order, through
  // Fabric::transfer on a reset fabric.
  fabric->reset_transport();
  h = lane.open("net.transfer_replay", 0);
  std::size_t replay_same = 0;
  for (const exa::net::MessageRecord& m : obs.serial.messages) {
    const auto t = fabric->transfer(m.src, m.dst, m.bytes, m.posted_s);
    replay_same += t.delivered_s == m.delivered_s ? 1 : 0;
  }
  lane.close(h);
  tracer.merge(std::move(lane));
  std::printf("transfer replay reproduced %zu of %zu deliveries\n", replay_same,
              obs.serial.messages.size());

  out.add("net.transfer_s", sum(tracer.self_times_of("net.transfer_replay")), "s");
  out.add("engine.serial_events_per_s", events / serial_s, "events/s");
  out.add("engine.parallel1_events_per_s", events / parallel1_s, "events/s");
  out.add("engine.thread_speedup", median(rates) / (events / parallel1_s), "ratio");
  out.add("engine.windows", double(obs.parallel.windows), "count");
  out.add("engine.messages", double(obs.parallel.messages.size()), "count");
  out.add("engine.retries", double(obs.parallel.total_retries()), "count");
  out.add("proc.cpu_s", loop_cpu_s, "s");
  out.add("trace.ops_per_s", median(rates), "ops/s");
  tracer.write_json(trace_path(options), kTraceFileSpans);
  return out;
}

}  // namespace perfbench
