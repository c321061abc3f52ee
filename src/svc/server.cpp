#include "svc/server.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "support/assert.hpp"
#include "support/log.hpp"

namespace exa::svc {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

std::string to_string(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kCompleted:
      return "completed";
    case JobState::kCancelled:
      return "cancelled";
  }
  throw support::Error("unhandled JobState");
}

Server::Server(ServerConfig config) : config_(config) {
  if (config_.queue_capacity == 0) {
    throw support::Error("svc::Server queue_capacity must be >= 1");
  }
  paused_ = config_.start_paused;
  std::size_t workers = config_.workers;
  if (workers == 0) workers = support::ThreadPool::threads_from_env();
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_ = workers;
  if (config_.metrics != nullptr) {
    m_submitted_ = &config_.metrics->counter("svc_jobs_submitted_total");
    m_completed_ = &config_.metrics->counter("svc_jobs_completed_total");
    m_cancelled_ = &config_.metrics->counter("svc_jobs_cancelled_total");
    m_dedupe_hits_ = &config_.metrics->counter("svc_dedupe_hits_total");
    m_executed_ = &config_.metrics->counter("svc_jobs_executed_total");
    m_queue_depth_ = &config_.metrics->gauge("svc_queue_depth");
  }
  // The worker pool: a dedicated ThreadPool whose one dispatch is the W
  // until-shutdown worker loops (grain 1 → one loop per chunk). The
  // control thread submits the dispatch and, per ThreadPool contract,
  // helps run chunks — so all W loops run concurrently even while the
  // pool's own threads wake up, and a 1-worker server runs its loop
  // inline on the control thread.
  pool_ = std::make_unique<support::ThreadPool>(workers_);
  control_ = std::thread([this] {
    try {
      pool_->for_each(
          0, workers_, [this](std::size_t) { worker_loop(); }, 1);
    } catch (const std::exception& e) {
      // worker_loop contains run() exceptions; anything surfacing here is
      // a server bug, but must not std::terminate the process.
      support::log_error("svc worker dispatch failed: ", e.what());
    }
  });
}

Server::~Server() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    // Jobs still queued never run: cancel them so submitted ==
    // completed + cancelled holds at teardown too.
    for (const auto& queued : queue_) {
      cancel_locked(jobs_[queued.first.second - 1], /*expired=*/false);
    }
    queue_.clear();
    if (m_queue_depth_ != nullptr) m_queue_depth_->set(0.0);
  }
  cv_pop_.notify_all();
  cv_space_.notify_all();
  control_.join();
  pool_.reset();
}

JobId Server::submit(Scenario scenario, SubmitOptions options) {
  validate(scenario);
  std::string key = scenario.key();
  std::unique_lock<std::mutex> lock(mutex_);
  cv_space_.wait(lock, [&] {
    return stop_ || queue_.size() < config_.queue_capacity;
  });
  if (stop_) throw support::Error("svc::Server is shut down");

  jobs_.push_back({JobState::kQueued, options.priority, nullptr,
                   std::chrono::steady_clock::now()});
  const JobId id = jobs_.size();
  queue_.emplace(std::pair{-options.priority, id},
                 QueuedJob{std::move(scenario), std::move(key), options});

  ++stats_.submitted;
  stats_.peak_queue_depth =
      std::max<std::uint64_t>(stats_.peak_queue_depth, queue_.size());
  if (m_submitted_ != nullptr) m_submitted_->add();
  if (m_queue_depth_ != nullptr) m_queue_depth_->set(double(queue_.size()));
  cv_pop_.notify_one();
  return id;
}

std::optional<JobId> Server::try_submit(Scenario scenario,
                                        SubmitOptions options) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) throw support::Error("svc::Server is shut down");
    if (queue_.size() >= config_.queue_capacity) return std::nullopt;
  }
  // The queue can only have shrunk since the check (we are the submitter);
  // a racing producer may still fill it, in which case submit blocks
  // briefly — acceptable for the advisory try_ form.
  return submit(std::move(scenario), options);
}

bool Server::cancel(JobId id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  JobRecord& job = jobs_[index_locked(id)];
  if (job.state != JobState::kQueued) return false;
  queue_.erase({-job.priority, id});
  if (m_queue_depth_ != nullptr) m_queue_depth_->set(double(queue_.size()));
  cancel_locked(job, /*expired=*/false);
  cv_space_.notify_one();
  return true;
}

JobStatus Server::wait(JobId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const JobRecord& job = jobs_[index_locked(id)];
  cv_done_.wait(lock, [&] {
    return job.state == JobState::kCompleted ||
           job.state == JobState::kCancelled;
  });
  return unlock_status(lock, id, job);
}

JobStatus Server::status(JobId id) const {
  std::unique_lock<std::mutex> lock(mutex_);
  return unlock_status(lock, id, jobs_[index_locked(id)]);
}

std::size_t Server::index_locked(JobId id) const {
  if (id == 0 || id > jobs_.size()) throw support::Error("unknown job id");
  return std::size_t(id - 1);
}

JobStatus Server::unlock_status(std::unique_lock<std::mutex>& lock, JobId id,
                                const JobRecord& job) {
  JobStatus out{id, job.state, {}, {}};
  const OutcomePtr outcome = job.outcome;
  lock.unlock();
  // The outcome is immutable and `outcome` keeps it alive: copy unlocked.
  if (outcome != nullptr) {
    out.report = outcome->report;
    out.error = outcome->error;
  }
  return out;
}

void Server::pause() {
  const std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void Server::resume() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  cv_pop_.notify_all();
}

void Server::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [&] { return queue_.empty() && inflight_ == 0; });
}

ServerStats Server::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ServerStats out = stats_;
  out.queue_depth = queue_.size();
  return out;
}

std::vector<double> Server::latencies() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return latencies_;
}

void Server::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_pop_.wait(lock, [&] {
      return stop_ || (!paused_ && !queue_.empty());
    });
    if (stop_) return;  // the destructor already cancelled queued jobs

    auto node = queue_.extract(queue_.begin());
    const JobId id = node.key().second;
    QueuedJob& queued = node.mapped();
    if (m_queue_depth_ != nullptr) m_queue_depth_->set(double(queue_.size()));
    cv_space_.notify_one();
    JobRecord& job = jobs_[id - 1];
    const std::uint64_t ordinal = ++pop_ordinal_;

    // Deadlines: the logical pop-ordinal one (deterministic), then the
    // wall-clock one.
    bool expired = queued.opts.deadline_tick >= 0 &&
                   std::int64_t(ordinal) > queued.opts.deadline_tick;
    if (!expired && queued.opts.deadline_s >= 0.0) {
      expired = seconds_since(job.submit_time) > queued.opts.deadline_s;
    }
    if (expired) {
      cancel_locked(job, /*expired=*/true);
      continue;
    }

    DedupeEntry* entry = nullptr;
    if (queued.opts.dedupe) {
      const auto [it, inserted] = dedupe_.try_emplace(std::move(queued.key));
      entry = &it->second;
      if (!inserted) {
        ++stats_.dedupe_hits;
        if (m_dedupe_hits_ != nullptr) m_dedupe_hits_->add();
        if (const OutcomePtr* finished = std::get_if<OutcomePtr>(entry)) {
          complete_locked(job, *finished);
        } else {  // still running: its leader completes this job
          job.state = JobState::kRunning;
          std::get<std::vector<JobId>>(*entry).push_back(id);
        }
        continue;
      }
    }

    // Leader: execute outside the lock.
    job.state = JobState::kRunning;
    ++inflight_;
    const Scenario scenario = std::move(queued.scenario);
    lock.unlock();

    auto outcome = std::make_shared<Outcome>();
    try {
      outcome->report = run(scenario);
    } catch (const std::exception& e) {
      outcome->error = e.what();
    }
    if (config_.metrics != nullptr && outcome->error.empty()) {
      config_.metrics->record_profile("svc/" + to_string(scenario.app),
                                      double(scenario.nodes),
                                      outcome->report.time_s);
    }
    const OutcomePtr done = std::move(outcome);

    lock.lock();
    ++stats_.executed;
    if (m_executed_ != nullptr) m_executed_->add();
    complete_locked(job, done);
    if (entry != nullptr) {
      for (const JobId follower : std::get<std::vector<JobId>>(*entry)) {
        complete_locked(jobs_[follower - 1], done);
      }
      *entry = done;
    }
    --inflight_;
    cv_done_.notify_all();
  }
}

void Server::complete_locked(JobRecord& job, const OutcomePtr& outcome) {
  job.state = JobState::kCompleted;
  job.outcome = outcome;
  ++stats_.completed;
  if (m_completed_ != nullptr) m_completed_->add();
  latencies_.push_back(seconds_since(job.submit_time));
  cv_done_.notify_all();
}

void Server::cancel_locked(JobRecord& job, bool expired) {
  job.state = JobState::kCancelled;
  ++stats_.cancelled;
  if (expired) ++stats_.expired;
  if (m_cancelled_ != nullptr) m_cancelled_->add();
  latencies_.push_back(seconds_since(job.submit_time));
  cv_done_.notify_all();
}

}  // namespace exa::svc
