#include "par/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <string>
#include <utility>

#include "obs/obs.h"
#include "util/check.h"
#include "util/env.h"

namespace retia::par {

namespace {

// Depth of ParallelRun shard execution on this thread; > 0 means a nested
// ParallelRun must fall back to serial.
thread_local int tls_region_depth = 0;

struct RegionGuard {
  RegionGuard() { ++tls_region_depth; }
  ~RegionGuard() { --tls_region_depth; }
};

}  // namespace

struct ThreadPool::Job {
  std::function<void(int64_t)> fn;
  int64_t num_shards = 0;
  // Next shard to claim; >= num_shards once all shards are handed out.
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> completed{0};
  // Fire-and-forget Submit job: nobody waits on `done`, shards must not
  // mark the parallel region (so the task itself may ParallelRun), and an
  // escaped exception is fatal.
  bool detached = false;
  std::mutex mu;
  std::condition_variable done;
  // The lowest failing shard's error, so the rethrown error does not
  // depend on which shard threw first in time (guarded by mu).
  std::exception_ptr error;
  int64_t error_shard = 0;
};

ThreadPool::ThreadPool(int threads) {
  const int workers = threads > 1 ? threads - 1 : 0;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::InParallelRegion() { return tls_region_depth > 0; }

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stopping, queue drained
      job = jobs_.front();
      if (job->next.load() >= job->num_shards) {
        // All shards already claimed; retire the job and look again.
        jobs_.pop_front();
        continue;
      }
    }
    RunShards(*job, /*on_worker=*/true);
  }
}

void ThreadPool::RunShards(Job& job, bool on_worker) {
  for (;;) {
    const int64_t shard = job.next.fetch_add(1);
    if (shard >= job.num_shards) return;
    if (on_worker) {
      RETIA_OBS_COUNTER_ADD("par.worker_shards", 1);
    } else {
      RETIA_OBS_COUNTER_ADD("par.caller_shards", 1);
    }
    if (job.detached) {
      // Serve ticks and other fire-and-forget tasks may themselves issue
      // ParallelRun, so they do not mark the parallel region.
      try {
        job.fn(shard);
      } catch (...) {
        util::CheckFailure(__FILE__, __LINE__,
                           "exception escaped a detached ThreadPool task");
      }
    } else {
      RegionGuard guard;
      try {
        RETIA_OBS_TRACE_SPAN("par.shard");
        job.fn(shard);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.mu);
        if (!job.error || shard < job.error_shard) {
          job.error = std::current_exception();
          job.error_shard = shard;
        }
      }
    }
    if (job.completed.fetch_add(1) + 1 == job.num_shards) {
      std::lock_guard<std::mutex> lock(job.mu);
      job.done.notify_all();
    }
  }
}

void ThreadPool::ParallelRun(int64_t num_shards,
                             const std::function<void(int64_t)>& fn) {
  if (num_shards <= 0) return;
  if (num_shards == 1 || workers_.empty() || InParallelRegion()) {
    // Serial fallback: shards run in order on the calling thread. Still
    // marked as a parallel region so doubly-nested calls stay serial too.
    RETIA_OBS_COUNTER_ADD("par.jobs_serial", 1);
    RegionGuard guard;
    for (int64_t shard = 0; shard < num_shards; ++shard) {
      RETIA_OBS_TRACE_SPAN("par.shard");
      fn(shard);
    }
    return;
  }
  RETIA_OBS_TIMED_SCOPE("par.job.us");
  RETIA_OBS_COUNTER_ADD("par.jobs", 1);
  RETIA_OBS_COUNTER_ADD("par.shards", num_shards);
  auto job = std::make_shared<Job>();
  job->fn = fn;
  job->num_shards = num_shards;
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(job);
    RETIA_OBS_GAUGE_SET("par.queue_depth",
                        static_cast<double>(jobs_.size()));
  }
  cv_.notify_all();
  RunShards(*job, /*on_worker=*/false);
  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->done.wait(lock,
                   [&] { return job->completed.load() == job->num_shards; });
  }
  {
    // Retire eagerly so exhausted jobs don't linger at the queue front.
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
      if (it->get() == job.get()) {
        jobs_.erase(it);
        break;
      }
    }
  }
  if (job->error) {
    // Rethrow from a local: a worker may still hold `job` and drop the
    // last reference to it after we return, and that must not free the
    // exception the caller is handling.
    std::exception_ptr error = std::move(job->error);
    std::rethrow_exception(error);
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  RETIA_OBS_COUNTER_ADD("par.submitted", 1);
  if (workers_.empty()) {
    task();
    return;
  }
  auto job = std::make_shared<Job>();
  job->detached = true;
  job->num_shards = 1;
  job->fn = [moved = std::move(task)](int64_t) { moved(); };
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(std::move(job));
    RETIA_OBS_GAUGE_SET("par.queue_depth",
                        static_cast<double>(jobs_.size()));
  }
  cv_.notify_one();
}

int ParseThreadCount(const char* value, int fallback) {
  int64_t parsed = 0;
  if (!util::Env::ParseInt(value, &parsed)) return fallback;
  if (parsed < 1 || parsed > 4096) return fallback;
  return static_cast<int>(parsed);
}

int DefaultThreads() {
  static const int threads = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    const int fallback = hw > 0 ? static_cast<int>(hw) : 1;
    return ParseThreadCount(util::Env::Raw("RETIA_NUM_THREADS"), fallback);
  }();
  return threads;
}

namespace {
std::atomic<ThreadPool*> g_override_pool{nullptr};
}  // namespace

ThreadPool* DefaultPool() {
  ThreadPool* override_pool = g_override_pool.load();
  if (override_pool != nullptr) return override_pool;
  static ThreadPool* pool = new ThreadPool(DefaultThreads());
  return pool;
}

ScopedDefaultPool::ScopedDefaultPool(ThreadPool* pool)
    : previous_(g_override_pool.exchange(pool)) {}

ScopedDefaultPool::~ScopedDefaultPool() { g_override_pool.store(previous_); }

}  // namespace retia::par
