#ifndef RETIA_PAR_THREAD_POOL_H_
#define RETIA_PAR_THREAD_POOL_H_

// Work-sharing thread pool behind retia's deterministic intra-op
// parallelism (see parallel_for.h for the fixed-shard helpers and
// DESIGN.md §7 for the bit-identity contract).
//
// Ownership / threading contract: a ThreadPool owns `threads - 1` worker
// threads; the caller of ParallelRun always participates, so progress
// never depends on free workers. ParallelRun may be called from any
// thread (concurrently from several), shard bodies must write disjoint
// outputs, and a nested ParallelRun runs serially. The process-wide
// DefaultPool() is shared by the tensor kernels, the optimizer, and
// serve::ServeEngine; it is created on first use and never destroyed.
// Queue depth, shard counts and caller-participation are exported as
// `par.*` metrics (docs/OBSERVABILITY.md).
//
// Usage:
//   par::ThreadPool pool(4);                  // or par::DefaultPool()
//   pool.ParallelRun(num_shards, [&](int64_t shard) {
//     const par::Range r = par::ShardRange(n, num_shards, shard);
//     for (int64_t i = r.begin; i < r.end; ++i) out[i] = f(i);
//   });

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace retia::par {

// Work-sharing thread pool used for intra-op parallelism.
//
// Determinism contract: ParallelRun executes `fn(shard)` for a FIXED set of
// shards whose boundaries callers derive from the problem size alone (see
// parallel_for.h), never from the thread count. Which thread runs which
// shard is unspecified, so shard bodies must write disjoint outputs; any
// cross-shard combine happens afterwards on the caller, in shard order.
// Under that contract every result is bit-identical for every pool size.
class ThreadPool {
 public:
  // `threads` is the total parallelism: the pool spawns `threads - 1`
  // workers and the calling thread participates in ParallelRun. With
  // threads <= 1 there are no workers and everything runs inline.
  explicit ThreadPool(int threads);

  // Drains queued work, then joins the workers. Destroying a pool while a
  // ParallelRun on it is still blocked is a usage error.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total parallelism (workers + the participating caller).
  int threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Runs fn(shard) for every shard in [0, num_shards) and blocks until all
  // of them finished. The calling thread executes shards alongside the
  // workers, so progress is guaranteed even when every worker is busy.
  // When shards throw, the error of the lowest failing shard is rethrown
  // on the caller once the job has fully finished — the same error the
  // serial path surfaces, whatever the thread count. A ParallelRun issued
  // from INSIDE a shard (nested parallelism) runs its shards serially on
  // that thread.
  void ParallelRun(int64_t num_shards, const std::function<void(int64_t)>& fn);

  // Fire-and-forget task (retia::serve drain ticks). With no workers the
  // task runs inline on the caller before Submit returns. Tasks must not
  // throw: an escaped exception aborts the process.
  void Submit(std::function<void()> task);

  // True while the current thread is executing a ParallelRun shard; used
  // for the nested-parallelism serial fallback.
  static bool InParallelRegion();

 private:
  struct Job;

  void WorkerLoop();
  // Claims and runs shards of `job` until none are left. `on_worker`
  // distinguishes pool workers from the participating caller in the
  // par.worker_shards / par.caller_shards metrics.
  static void RunShards(Job& job, bool on_worker);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// Parses a RETIA_NUM_THREADS-style value: returns the parsed positive
// thread count, or `fallback` when `value` is null, empty, non-numeric, or
// not positive. Exposed separately so the parsing is unit-testable.
int ParseThreadCount(const char* value, int fallback);

// Thread count the process-wide pool uses: RETIA_NUM_THREADS when set to a
// positive integer, otherwise std::thread::hardware_concurrency() (min 1).
int DefaultThreads();

// Process-wide shared pool, built lazily on first use with
// DefaultThreads() threads. Every parallel kernel and retia::serve engine
// without an explicit pool shares it, so the process never oversubscribes
// the machine with per-subsystem worker fleets.
ThreadPool* DefaultPool();

// Test hook: makes DefaultPool() return `pool` for the guard's lifetime
// (nullptr restores the real default). Swapping pools while other threads
// are running kernels is a data race; tests swap only from a quiescent
// main thread.
class ScopedDefaultPool {
 public:
  explicit ScopedDefaultPool(ThreadPool* pool);
  ~ScopedDefaultPool();
  ScopedDefaultPool(const ScopedDefaultPool&) = delete;
  ScopedDefaultPool& operator=(const ScopedDefaultPool&) = delete;

 private:
  ThreadPool* previous_;
};

}  // namespace retia::par

#endif  // RETIA_PAR_THREAD_POOL_H_
