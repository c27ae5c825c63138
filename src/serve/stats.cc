#include "serve/stats.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/obs.h"
#include "util/check.h"

namespace retia::serve {

namespace {

// Latency at quantile `q` in [0, 1] of an unsorted sample (nearest-rank).
double Quantile(std::vector<float> sample, double q) {
  if (sample.empty()) return 0.0;
  const auto rank = static_cast<size_t>(q * (sample.size() - 1));
  std::nth_element(sample.begin(), sample.begin() + rank, sample.end());
  return sample[rank];
}

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string ServeStats::ToJson() const {
  std::ostringstream out;
  out << "{\"completed\":" << completed
      << ",\"wall_seconds\":" << FormatDouble(wall_seconds)
      << ",\"qps\":" << FormatDouble(qps)
      << ",\"p50_latency_ms\":" << FormatDouble(p50_latency_ms)
      << ",\"p99_latency_ms\":" << FormatDouble(p99_latency_ms)
      << ",\"p50_queue_wait_ms\":" << FormatDouble(p50_queue_wait_ms)
      << ",\"p99_queue_wait_ms\":" << FormatDouble(p99_queue_wait_ms)
      << ",\"p50_compute_ms\":" << FormatDouble(p50_compute_ms)
      << ",\"p99_compute_ms\":" << FormatDouble(p99_compute_ms)
      << ",\"batches\":" << batches
      << ",\"mean_batch_size\":" << FormatDouble(mean_batch_size)
      << ",\"batch_size_histogram\":[";
  for (size_t b = 1; b < batch_size_histogram.size(); ++b) {
    if (b > 1) out << ",";
    out << batch_size_histogram[b];
  }
  out << "],\"cache\":{\"hits\":" << cache.hits
      << ",\"misses\":" << cache.misses
      << ",\"evictions\":" << cache.evictions
      << ",\"entries\":" << cache.entries
      << ",\"hit_rate\":" << FormatDouble(cache_hit_rate) << "}"
      << ",\"snapshot_swaps\":" << snapshot_swaps << "}";
  return out.str();
}

StatsRecorder::StatsRecorder(int64_t max_batch, StatsScope scope)
    : scope_(scope), batch_hist_(static_cast<size_t>(max_batch) + 1, 0) {
  RETIA_CHECK(max_batch > 0);
}

void StatsRecorder::Samples::Add(double value) {
  if (ring.size() < kWindow) {
    ring.push_back(static_cast<float>(value));
    return;
  }
  ring[next] = static_cast<float>(value);
  next = (next + 1) % kWindow;
}

void StatsRecorder::Samples::Clear() {
  ring.clear();
  next = 0;
}

void StatsRecorder::RecordRequest(double latency_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  ++completed_;
  latencies_ms_.Add(latency_ms);
}

void StatsRecorder::RecordQueueWait(double wait_ms) {
  const auto us = static_cast<int64_t>(wait_ms * 1000.0);
  if (scope_ == StatsScope::kEngine) {
    RETIA_OBS_HIST_RECORD("serve.queue_wait.us", us);
  } else {
    RETIA_OBS_HIST_RECORD("serve.router.queue_wait.us", us);
  }
  std::lock_guard<std::mutex> lock(mu_);
  queue_wait_ms_.Add(wait_ms);
}

void StatsRecorder::RecordCompute(double compute_ms) {
  const auto us = static_cast<int64_t>(compute_ms * 1000.0);
  if (scope_ == StatsScope::kEngine) {
    RETIA_OBS_HIST_RECORD("serve.compute.us", us);
  } else {
    RETIA_OBS_HIST_RECORD("serve.router.compute.us", us);
  }
  std::lock_guard<std::mutex> lock(mu_);
  compute_ms_.Add(compute_ms);
}

void StatsRecorder::RecordBatch(int64_t batch_size) {
  std::lock_guard<std::mutex> lock(mu_);
  RETIA_CHECK(batch_size > 0);
  RETIA_CHECK_LT(batch_size, static_cast<int64_t>(batch_hist_.size()));
  ++batch_hist_[batch_size];
}

ServeStats StatsRecorder::Snapshot(const CacheCounters& cache) const {
  std::lock_guard<std::mutex> lock(mu_);
  ServeStats stats;
  stats.completed = completed_;
  stats.wall_seconds = timer_.Seconds();
  stats.qps = stats.wall_seconds > 0.0 ? stats.completed / stats.wall_seconds
                                       : 0.0;
  stats.p50_latency_ms = Quantile(latencies_ms_.ring, 0.50);
  stats.p99_latency_ms = Quantile(latencies_ms_.ring, 0.99);
  stats.p50_queue_wait_ms = Quantile(queue_wait_ms_.ring, 0.50);
  stats.p99_queue_wait_ms = Quantile(queue_wait_ms_.ring, 0.99);
  stats.p50_compute_ms = Quantile(compute_ms_.ring, 0.50);
  stats.p99_compute_ms = Quantile(compute_ms_.ring, 0.99);
  stats.batch_size_histogram = batch_hist_;
  int64_t weighted = 0;
  for (size_t b = 1; b < batch_hist_.size(); ++b) {
    stats.batches += batch_hist_[b];
    weighted += static_cast<int64_t>(b) * batch_hist_[b];
  }
  stats.mean_batch_size =
      stats.batches > 0 ? static_cast<double>(weighted) / stats.batches : 0.0;
  stats.cache = cache;
  stats.cache_hit_rate = cache.HitRate();
  return stats;
}

void StatsRecorder::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  timer_.Reset();
  completed_ = 0;
  latencies_ms_.Clear();
  queue_wait_ms_.Clear();
  compute_ms_.Clear();
  std::fill(batch_hist_.begin(), batch_hist_.end(), 0);
}

}  // namespace retia::serve
