/// Unit tests of the always-on service (svc::Server): scheduling order,
/// cancellation, logical and wall-clock deadlines, content-keyed dedupe
/// (failed runs included), backpressure, metric integration, and
/// the conservation identity `submitted == completed + cancelled` — at
/// teardown too.
///
/// Execution order is observed through the deadline machinery rather
/// than timing: the server numbers every dequeue with a pop ordinal, so
/// giving job J `deadline_tick = k` asks "was J among the first k pops?"
/// — a deterministic probe of the priority/FIFO order that works at any
/// worker count.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/machine.hpp"
#include "support/assert.hpp"
#include "svc/metrics.hpp"
#include "svc/server.hpp"

namespace exa::svc {
namespace {

Scenario tiny_exasky(double particles = 1.0e5) {
  Scenario s;
  s.app = App::kExaSky;
  s.nodes = 1;
  s.params = {{"particles_per_rank", particles}};
  return s;
}

TEST(SvcServer, SubmitValidatesAndNumbersJobs) {
  ServerConfig config;
  config.workers = 2;
  Server server(config);

  Scenario bad = tiny_exasky();
  bad.params["no_such_knob"] = 1.0;
  EXPECT_THROW((void)server.submit(bad), support::Error);

  const JobId a = server.submit(tiny_exasky(1.0e5));
  const JobId b = server.submit(tiny_exasky(2.0e5));
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_THROW((void)server.status(99), support::Error);
  EXPECT_THROW((void)server.wait(99), support::Error);

  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(server.latencies().size(), 2u);
}

TEST(SvcServer, PriorityThenFifoOrder) {
  // Paused submit fixes the queue; deadline_tick probes the pop order.
  // Expected order: B (priority 1), then A, C, D (priority 0, FIFO).
  ServerConfig config;
  config.workers = 1;
  config.start_paused = true;
  Server server(config);

  SubmitOptions pri0;
  SubmitOptions pri1;
  pri1.priority = 1;

  // Distinct scenarios so dedupe never merges the probes.
  const JobId a = server.submit(tiny_exasky(1.0e5), pri0);
  const JobId b = server.submit(tiny_exasky(2.0e5), pri1);
  SubmitOptions pri0_tick2 = pri0;
  pri0_tick2.deadline_tick = 2;  // expires unless popped 1st or 2nd
  const JobId c = server.submit(tiny_exasky(3.0e5), pri0_tick2);
  SubmitOptions pri0_tick4 = pri0;
  pri0_tick4.deadline_tick = 4;  // survives anywhere in the first 4 pops
  const JobId d = server.submit(tiny_exasky(4.0e5), pri0_tick4);

  server.resume();
  server.drain();

  // Pops: B=1, A=2, C=3 (> 2 → expired), D=4 (≤ 4 → runs).
  EXPECT_EQ(server.status(b).state, JobState::kCompleted);
  EXPECT_EQ(server.status(a).state, JobState::kCompleted);
  EXPECT_EQ(server.status(c).state, JobState::kCancelled);
  EXPECT_EQ(server.status(d).state, JobState::kCompleted);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.cancelled, 1u);
}

TEST(SvcServer, DeadlineTickEdgeCases) {
  ServerConfig config;
  config.workers = 1;
  config.start_paused = true;
  Server server(config);

  SubmitOptions always_expires;
  always_expires.deadline_tick = 0;  // ordinals start at 1
  const JobId dead = server.submit(tiny_exasky(1.0e5), always_expires);

  SubmitOptions never_expires;
  never_expires.deadline_tick = -1;
  const JobId alive = server.submit(tiny_exasky(2.0e5), never_expires);

  server.resume();
  server.drain();
  EXPECT_EQ(server.status(dead).state, JobState::kCancelled);
  EXPECT_EQ(server.status(alive).state, JobState::kCompleted);
  EXPECT_EQ(server.stats().expired, 1u);
}

TEST(SvcServer, WallClockDeadlineExpiresAtPop) {
  ServerConfig config;
  config.workers = 1;
  config.start_paused = true;
  Server server(config);

  SubmitOptions expired_opts;
  expired_opts.deadline_s = 0.0;  // any queue wait exceeds it
  const JobId dead = server.submit(tiny_exasky(1.0e5), expired_opts);
  SubmitOptions generous;
  generous.deadline_s = 3600.0;
  const JobId alive = server.submit(tiny_exasky(2.0e5), generous);

  server.resume();
  server.drain();
  EXPECT_EQ(server.status(dead).state, JobState::kCancelled);
  EXPECT_EQ(server.status(alive).state, JobState::kCompleted);
}

TEST(SvcServer, CancelQueuedOnlyOnce) {
  ServerConfig config;
  config.workers = 1;
  config.start_paused = true;
  Server server(config);

  const JobId id = server.submit(tiny_exasky());
  EXPECT_THROW((void)server.cancel(99), support::Error);
  EXPECT_TRUE(server.cancel(id));
  EXPECT_EQ(server.status(id).state, JobState::kCancelled);
  EXPECT_FALSE(server.cancel(id));  // already cancelled

  const JobId done = server.submit(tiny_exasky());
  server.resume();
  server.drain();
  EXPECT_EQ(server.status(done).state, JobState::kCompleted);
  EXPECT_FALSE(server.cancel(done));  // already completed

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled);
}

TEST(SvcServer, DedupeCollapsesEqualScenarios) {
  ServerConfig config;
  config.workers = 4;
  Server server(config);

  const Scenario shared = tiny_exasky();
  std::vector<JobId> dups;
  for (int i = 0; i < 50; ++i) dups.push_back(server.submit(shared));
  const JobId other = server.submit(tiny_exasky(2.0e5));
  server.drain();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.dedupe_hits, 49u);
  EXPECT_EQ(stats.completed, 51u);

  // Every duplicate observed the same bitwise-identical report.
  const Report first = server.status(dups.front()).report;
  EXPECT_GT(first.time_s, 0.0);
  for (const JobId id : dups) {
    const JobStatus status = server.status(id);
    EXPECT_EQ(status.state, JobState::kCompleted);
    EXPECT_TRUE(status.error.empty());
    EXPECT_EQ(status.report.time_s, first.time_s);
    EXPECT_EQ(status.report.metrics, first.metrics);
  }
  EXPECT_NE(server.status(other).report.time_s, 0.0);
}

TEST(SvcServer, DedupeOptOutsAlwaysExecute) {
  ServerConfig config;
  config.workers = 2;
  Server server(config);
  SubmitOptions no_dedupe;
  no_dedupe.dedupe = false;
  for (int i = 0; i < 5; ++i) {
    (void)server.submit(tiny_exasky(), no_dedupe);
  }
  server.drain();
  EXPECT_EQ(server.stats().executed, 5u);
  EXPECT_EQ(server.stats().dedupe_hits, 0u);
}

TEST(SvcServer, FailedRunsCompleteWithCachedError) {
  // CoMet on more nodes than the machine has passes validate(), but the
  // driver (comet::scale_run) rejects it: the run throws, the job
  // completes with the error string, and dedupe serves that error to the
  // key's other jobs instead of re-running — from the finished outcome at
  // 1 worker, as followers or from the outcome at 4.
  Scenario bad;
  bad.app = App::kComet;
  bad.nodes = arch::machines::by_name(bad.machine).node_count + 1;
  ASSERT_NO_THROW(validate(bad));
  for (const std::size_t workers : {1, 4}) {
    ServerConfig config;
    config.workers = workers;
    config.start_paused = true;
    Server server(config);
    std::vector<JobId> ids;
    for (int i = 0; i < 8; ++i) ids.push_back(server.submit(bad));
    server.resume();
    server.drain();

    const JobStatus first = server.wait(ids.front());
    EXPECT_NE(first.error.find("node_count"), std::string::npos) << first.error;
    for (const JobId id : ids) {
      const JobStatus status = server.wait(id);
      EXPECT_EQ(status.state, JobState::kCompleted);
      EXPECT_EQ(status.error, first.error);
    }
    EXPECT_EQ(server.stats().executed, 1u) << workers << " workers";
    EXPECT_EQ(server.stats().dedupe_hits, 7u) << workers << " workers";
  }
}

TEST(SvcServer, TrySubmitBackpressure) {
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  config.start_paused = true;
  Server server(config);

  const std::optional<JobId> first = server.try_submit(tiny_exasky(1.0e5));
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(server.try_submit(tiny_exasky(2.0e5)).has_value());

  // Cancelling the queued job frees the slot.
  EXPECT_TRUE(server.cancel(*first));
  const std::optional<JobId> second = server.try_submit(tiny_exasky(2.0e5));
  ASSERT_TRUE(second.has_value());

  server.resume();
  server.drain();
  EXPECT_EQ(server.status(*second).state, JobState::kCompleted);
}

TEST(SvcServer, ShutdownCancelsQueuedJobsAndKeepsConservation) {
  MetricProxy metrics;
  {
    ServerConfig config;
    config.workers = 2;
    config.start_paused = true;  // nothing executes; teardown must cancel
    config.metrics = &metrics;
    Server server(config);
    for (int i = 0; i < 10; ++i) (void)server.submit(tiny_exasky());
  }
  // The proxy outlives the server: its counters are the audit trail.
  const MetricSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.values.at("svc_jobs_submitted_total"), 10.0);
  EXPECT_EQ(snap.values.at("svc_jobs_cancelled_total"), 10.0);
  EXPECT_EQ(snap.values.at("svc_jobs_completed_total"), 0.0);
  EXPECT_EQ(snap.values.at("svc_queue_depth"), 0.0);
}

TEST(SvcServer, MetricsMirrorStatsAndProfilesFeedFits) {
  MetricProxy metrics;
  metrics.enable_profiles();
  ServerConfig config;
  config.workers = 2;
  config.metrics = &metrics;
  Server server(config);

  const Scenario shared = tiny_exasky();
  for (int i = 0; i < 4; ++i) (void)server.submit(shared);
  for (const int nodes : {2, 4}) {
    Scenario s = shared;
    s.nodes = nodes;
    (void)server.submit(s);
  }
  server.drain();

  const ServerStats stats = server.stats();
  const MetricSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.values.at("svc_jobs_submitted_total"),
            double(stats.submitted));
  EXPECT_EQ(snap.values.at("svc_jobs_completed_total"),
            double(stats.completed));
  EXPECT_EQ(snap.values.at("svc_dedupe_hits_total"),
            double(stats.dedupe_hits));
  EXPECT_EQ(snap.values.at("svc_jobs_executed_total"), double(stats.executed));

  // One profile sample per distinct execution, at p = nodes: enough for a
  // live scaling fit over the exasky callpath.
  const auto samples = metrics.profile_samples();
  EXPECT_EQ(samples.size(), stats.executed);
  const auto fits = metrics.fit_live();
  ASSERT_EQ(fits.count("svc/exasky"), 1u);
  EXPECT_EQ(fits.at("svc/exasky").points, 3u);  // nodes 1, 2, 4
}

TEST(SvcServer, WaitBlocksUntilTerminal) {
  ServerConfig config;
  config.workers = 2;
  Server server(config);
  const JobId id = server.submit(tiny_exasky());
  const JobStatus status = server.wait(id);
  EXPECT_EQ(status.state, JobState::kCompleted);
  EXPECT_GT(status.report.time_s, 0.0);
  EXPECT_EQ(to_string(status.state), "completed");
}

TEST(SvcServer, FreshServerAfterTeardown) {
  auto server = std::make_unique<Server>(ServerConfig{});
  const JobId id = server->submit(tiny_exasky());
  (void)server->wait(id);
  server.reset();  // full teardown; a fresh server still accepts work
  Server fresh;
  (void)fresh.submit(tiny_exasky());
  fresh.drain();
  EXPECT_EQ(fresh.stats().completed, 1u);
}

}  // namespace
}  // namespace exa::svc
