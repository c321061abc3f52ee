#pragma once
/// \file server.hpp
/// Always-on simulation service: a long-lived `Server` accepts `Scenario`
/// submissions into a bounded priority queue and executes them on a
/// fixed worker pool built on `support::ThreadPool`, with cancellation,
/// deadlines, and content-keyed dedupe.
///
/// ## Scheduling
/// The queue orders by (priority descending, submission order ascending):
/// strict priority, FIFO within a priority. `submit` blocks while the
/// queue is full (backpressure); `try_submit` returns nullopt instead.
///
/// ## Dedupe — one outcome table, decided at pop time
/// Scenarios are content-addressed by `Scenario::key()`. One table maps a
/// key to the followers of its running execution (jobs that popped the
/// key meanwhile), then to the execution's immutable outcome — Report or
/// error — which the leader, its followers and every later pop of the key
/// share by pointer. Followers and later pops are dedupe hits; a job with
/// `SubmitOptions::dedupe = false` bypasses the table. Because the
/// decision happens under the queue lock at pop time, the invariant
///
///     dedupe_hits == popped_for_execution − distinct_keys_executed
///
/// holds for any worker count and any thread timing: the hit count
/// depends only on the multiset of keys that reach execution, not on the
/// race between workers. (Which job *leads* an execution can vary; every
/// job's observable result — its Report — cannot, because `svc::run` is a
/// pure function of the scenario.)
///
/// ## Job records
/// A queued job's Scenario, key and options live in its queue node. Once
/// it pops, the server keeps only a small record (state, outcome pointer,
/// priority, submit time) and a latency sample per job.
///
/// ## Deadlines — logical, not wall-clock
/// A job may carry `deadline_tick`: an absolute **pop ordinal** (the
/// server numbers every dequeue 1, 2, 3, ...) after which the job expires.
/// A job popped with ordinal > deadline_tick is cancelled instead of
/// executed. Tick 0 therefore always expires, −1 (default) never does.
/// Logical deadlines make expiry replayable in tests; a wall-clock
/// `deadline_s` (seconds after submit) is also supported for real
/// deployments but is deliberately not used by the deterministic suites.
///
/// ## Conservation (golden-gated)
/// After `drain()` — or after shutdown, which cancels still-queued jobs —
///
///     submitted == completed + cancelled
///
/// exactly: every accepted job reaches exactly one terminal state.
///
/// ## Determinism for the property suite
/// A paused server (`start_paused`, or `pause()`) admits submissions and
/// cancellations without executing anything; `resume()` + `drain()` then
/// executes the queue in its fully-determined priority/FIFO order. In
/// that regime completion sets, cancellation sets, and dedupe counts are
/// identical for 1 or N workers — `tests/svc` checks this against a
/// single-threaded reference scheduler under random interleavings.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "support/thread_pool.hpp"
#include "svc/metrics.hpp"
#include "svc/scenario.hpp"

namespace exa::svc {

/// Server-assigned job handle (dense, starting at 1).
using JobId = std::uint64_t;

/// Lifecycle of one submitted job; kCompleted/kCancelled are terminal.
enum class JobState {
  kQueued,     ///< accepted, waiting in the queue
  kRunning,    ///< popped by a worker (or attached to a running leader)
  kCompleted,  ///< report available
  kCancelled,  ///< cancelled, expired, or shut down while queued
};

/// Human-readable state name ("queued" | "running" | ...).
[[nodiscard]] std::string to_string(JobState state);

/// Per-submission options.
struct SubmitOptions {
  int priority = 0;  ///< higher runs first; FIFO within equal priority
  /// Absolute pop ordinal after which the job expires (−1 = never; 0 =
  /// always, since ordinals start at 1). See the header comment.
  std::int64_t deadline_tick = -1;
  /// Wall-clock deadline, seconds after submission (< 0 = none). Checked
  /// at pop time, like the logical deadline.
  double deadline_s = -1.0;
  /// Opt this job out of dedupe (it will always execute).
  bool dedupe = true;
};

/// Terminal (or current) view of one job.
struct JobStatus {
  JobId id = 0;
  JobState state = JobState::kQueued;
  Report report;      ///< valid when state == kCompleted
  std::string error;  ///< nonempty when the scenario run threw
};

/// Server construction knobs.
struct ServerConfig {
  /// Worker count; 0 resolves like the global pool: EXA_THREADS when set,
  /// else hardware concurrency.
  std::size_t workers = 0;
  /// Queue slots; submit blocks (try_submit fails) while full.
  std::size_t queue_capacity = 65536;
  /// Start with workers idle; resume() begins execution.
  bool start_paused = false;
  /// Optional metric proxy; when set the server registers and maintains
  /// svc_* counters/gauges and records one per-job profile sample
  /// ("svc/<app>" at p = nodes) for live scaling fits.
  MetricProxy* metrics = nullptr;
};

/// Aggregate accounting. All counts are since construction.
struct ServerStats {
  std::uint64_t submitted = 0;   ///< jobs accepted into the queue
  std::uint64_t completed = 0;   ///< jobs with a report (incl. dedupe hits)
  std::uint64_t cancelled = 0;   ///< explicit + expired + shutdown-drained
  std::uint64_t dedupe_hits = 0; ///< popped jobs served by another execution
  std::uint64_t executed = 0;    ///< distinct svc::run invocations
  std::uint64_t expired = 0;     ///< cancellations due to deadlines
  std::uint64_t queue_depth = 0; ///< current queued jobs
  std::uint64_t peak_queue_depth = 0;
};

/// The always-on scheduler described in the file comment: bounded
/// priority queue, fixed worker pool, logical deadlines, pop-time dedupe.
class Server {
 public:
  /// Starts the worker pool immediately unless config.start_paused.
  explicit Server(ServerConfig config = {});
  /// Cancels still-queued jobs, waits for running jobs, joins the pool.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Resolved worker-pool width (after EXA_THREADS resolution).
  [[nodiscard]] std::size_t workers() const { return workers_; }

  /// Validates and accepts a job; blocks while the queue is full; throws
  /// support::Error for an invalid scenario or after shutdown.
  JobId submit(Scenario scenario, SubmitOptions options = {});
  /// Non-blocking variant: nullopt when the queue is full.
  std::optional<JobId> try_submit(Scenario scenario, SubmitOptions options = {});

  /// Cancels a queued job. Returns true when this call moved it to
  /// kCancelled; false when it already ran, finished, or was cancelled.
  bool cancel(JobId id);

  /// Blocks until the job is terminal and returns its status; throws for
  /// unknown ids.
  [[nodiscard]] JobStatus wait(JobId id);
  /// Current status without blocking; throws for unknown ids.
  [[nodiscard]] JobStatus status(JobId id) const;

  /// Stops workers from popping (running jobs finish). Idempotent.
  void pause();
  /// Resumes popping. Idempotent.
  void resume();
  /// Blocks until the queue is empty and no job is running. Call resume()
  /// first on a paused server (a paused queue never drains).
  void drain();

  /// Aggregate counters since construction (see ServerStats).
  [[nodiscard]] ServerStats stats() const;

  /// Wall-clock submit→terminal latencies (seconds) of every terminal job
  /// so far, in completion order. For load-test percentile reporting.
  [[nodiscard]] std::vector<double> latencies() const;

 private:
  /// What one execution produced; immutable, shared by every job it served.
  struct Outcome {
    Report report;
    std::string error;  ///< nonempty when run() threw
  };
  using OutcomePtr = std::shared_ptr<const Outcome>;
  /// A key's dedupe entry: the followers of its running execution, then
  /// that execution's outcome.
  using DedupeEntry = std::variant<std::vector<JobId>, OutcomePtr>;
  /// A queued job's payload; it leaves the server with its queue node.
  struct QueuedJob {
    Scenario scenario;
    std::string key;  ///< scenario.key(), computed once at submit
    SubmitOptions opts;
  };
  /// What the server keeps of a job for its lifetime, at jobs_[id − 1].
  struct JobRecord {
    JobState state = JobState::kQueued;
    int priority = 0;    ///< with the id, the queue position while kQueued
    OutcomePtr outcome;  ///< set once kCompleted
    std::chrono::steady_clock::time_point submit_time;
  };

  void worker_loop();
  /// jobs_ index of `id`; throws for unknown ids. Caller holds mutex_.
  [[nodiscard]] std::size_t index_locked(JobId id) const;
  /// Reads `job` under `lock`, releases it, then copies the Report.
  [[nodiscard]] static JobStatus unlock_status(
      std::unique_lock<std::mutex>& lock, JobId id, const JobRecord& job);
  /// Terminal transition helpers; caller holds mutex_.
  void complete_locked(JobRecord& job, const OutcomePtr& outcome);
  void cancel_locked(JobRecord& job, bool expired);

  std::size_t workers_ = 0;
  ServerConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable cv_pop_;     ///< workers: work available / unpause
  std::condition_variable cv_space_;   ///< producers: queue has room
  std::condition_variable cv_done_;    ///< waiters: a job became terminal

  bool paused_ = false;
  bool stop_ = false;

  std::uint64_t pop_ordinal_ = 0; ///< logical clock for deadline_tick
  std::uint64_t inflight_ = 0;    ///< leader executions outside the lock

  /// Ready queue ordered by (−priority, id): begin() is the next job to
  /// pop (ids rise in submission order, so FIFO within a priority).
  std::map<std::pair<int, JobId>, QueuedJob> queue_;
  /// Every job ever accepted. A deque, so a worker's record reference
  /// survives submits while it runs outside the lock.
  std::deque<JobRecord> jobs_;
  /// Dedupe: scenario key → entry. Entries are never erased, so pointers
  /// to them stay valid across rehashes.
  std::unordered_map<std::string, DedupeEntry> dedupe_;

  ServerStats stats_;
  std::vector<double> latencies_;

  std::unique_ptr<support::ThreadPool> pool_;
  std::thread control_;  ///< dispatches worker_loop onto the pool

  // Optional metric handles (valid while config_.metrics lives).
  Counter* m_submitted_ = nullptr;
  Counter* m_completed_ = nullptr;
  Counter* m_cancelled_ = nullptr;
  Counter* m_dedupe_hits_ = nullptr;
  Counter* m_executed_ = nullptr;
  Gauge* m_queue_depth_ = nullptr;
};

}  // namespace exa::svc
