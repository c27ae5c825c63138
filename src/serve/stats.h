#ifndef RETIA_SERVE_STATS_H_
#define RETIA_SERVE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "serve/lru_cache.h"
#include "util/timer.h"

namespace retia::serve {

// Point-in-time view of an engine's serving behaviour since the last
// ResetStats(). All latencies are end-to-end (submit to result, including
// queueing and batching delay). Counts and the batch histogram cover the
// whole window; the latency percentiles cover the most recent
// StatsRecorder::kWindow samples of each series.
struct ServeStats {
  int64_t completed = 0;       // requests answered
  double wall_seconds = 0.0;   // observation window
  double qps = 0.0;            // completed / wall_seconds
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;

  // Decomposition of the end-to-end latency for requests that reached the
  // batcher (cache hits have neither): time spent queued before a drain
  // tick picked the request up, and time spent inside the batched decode.
  double p50_queue_wait_ms = 0.0;
  double p99_queue_wait_ms = 0.0;
  double p50_compute_ms = 0.0;
  double p99_compute_ms = 0.0;

  // batch_size_histogram[b] = number of decode batches of size b (index 0
  // is unused; cache hits never reach the batcher).
  std::vector<int64_t> batch_size_histogram;
  int64_t batches = 0;
  double mean_batch_size = 0.0;

  CacheCounters cache;  // hits/misses/evictions since engine construction
  double cache_hit_rate = 0.0;

  // SwapSnapshot() installations since engine construction (not reset by
  // ResetStats: like the cache counters, it describes the engine, not the
  // observation window).
  int64_t snapshot_swaps = 0;

  // Single-line JSON rendering of every field above.
  std::string ToJson() const;
};

// Whose latency decomposition a StatsRecorder accounts for. The engine and
// the cluster router record the identical queue-wait vs compute split
// through the same methods (this is the single accounting site — callers
// never emit the serve.*queue_wait/compute histograms themselves); the
// scope only selects which obs metric names the samples land in.
enum class StatsScope : uint8_t {
  kEngine = 0,  // serve.queue_wait.us / serve.compute.us
  kRouter = 1,  // serve.router.queue_wait.us / serve.router.compute.us
};

// Thread-safe accumulator behind ServeEngine::Stats() and Router stats:
// callers record one latency per completed request, workers record one
// entry per decoded micro-batch (the router's "batches" are single
// requests: wait = connection checkout, compute = replica round-trip).
// Each latency series keeps only its kWindow most recent samples, so a
// recorder that is never reset stays bounded in memory and Snapshot() time.
class StatsRecorder {
 public:
  // Samples kept per latency series.
  static constexpr size_t kWindow = size_t{1} << 16;

  explicit StatsRecorder(int64_t max_batch,
                         StatsScope scope = StatsScope::kEngine);

  void RecordRequest(double latency_ms);
  void RecordBatch(int64_t batch_size);
  // One sample per batched request: submission-to-decode-start wait. Also
  // feeds the scope's queue-wait obs histogram.
  void RecordQueueWait(double wait_ms);
  // One sample per decoded micro-batch: the batched decode duration. Also
  // feeds the scope's compute obs histogram.
  void RecordCompute(double compute_ms);

  // Snapshot over the window since construction or the last Reset();
  // `cache` is merged in verbatim (cache counters live in the cache).
  ServeStats Snapshot(const CacheCounters& cache) const;

  void Reset();

 private:
  // The kWindow most recent samples of one series, in a ring.
  struct Samples {
    std::vector<float> ring;
    size_t next = 0;  // slot the next sample overwrites once ring is full

    void Add(double value);
    void Clear();
  };

  mutable std::mutex mu_;
  StatsScope scope_;
  util::Timer timer_;
  int64_t completed_ = 0;
  Samples latencies_ms_;
  Samples queue_wait_ms_;
  Samples compute_ms_;
  std::vector<int64_t> batch_hist_;
};

}  // namespace retia::serve

#endif  // RETIA_SERVE_STATS_H_
