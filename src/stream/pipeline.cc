#include "stream/pipeline.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/snapshot.h"
#include "stream/grow.h"
#include "util/check.h"

namespace retia::stream {

StreamPipeline::StreamPipeline(std::unique_ptr<core::RetiaModel> model,
                               std::unique_ptr<tkg::TkgDataset> live,
                               const StreamPipelineConfig& config)
    : config_(config), live_(std::move(live)) {
  RETIA_CHECK(live_ != nullptr);
  RETIA_CHECK(model != nullptr);
  RETIA_CHECK(config_.window >= 1);
  trainer_ = std::make_unique<OnlineTrainer>(std::move(model), live_.get(),
                                             config_.trainer);
  ingest_ = std::make_unique<StreamIngest>(live_.get(), config_.ingest);
  engine_ = std::make_unique<serve::ServeEngine>(
      FrozenSnapshot(trainer_->model(), *live_), config_.serve);
}

int64_t StreamPipeline::AdvanceTo(int64_t now) {
  std::vector<SealedBucket> sealed = ingest_->SealBefore(now);
  for (SealedBucket& bucket : sealed) staged_.push_back(std::move(bucket));
  int64_t published = 0;
  while (static_cast<int64_t>(staged_.size()) >= config_.window) {
    std::vector<SealedBucket> chunk;
    chunk.reserve(static_cast<size_t>(config_.window));
    for (int64_t i = 0; i < config_.window; ++i) {
      chunk.push_back(std::move(staged_.front()));
      staged_.pop_front();
    }
    TrainAndPublish(std::move(chunk));
    ++published;
  }
  RETIA_OBS_GAUGE_SET("stream.window_lag",
                      static_cast<int64_t>(staged_.size()));
  return published;
}

int64_t StreamPipeline::FlushAndPublish() {
  std::vector<SealedBucket> sealed = ingest_->Flush();
  for (SealedBucket& bucket : sealed) staged_.push_back(std::move(bucket));
  if (staged_.empty()) return 0;
  std::vector<SealedBucket> chunk(std::make_move_iterator(staged_.begin()),
                                  std::make_move_iterator(staged_.end()));
  staged_.clear();
  TrainAndPublish(std::move(chunk));
  RETIA_OBS_GAUGE_SET("stream.window_lag", 0);
  return 1;
}

void StreamPipeline::TrainAndPublish(std::vector<SealedBucket> chunk) {
  RETIA_CHECK(!chunk.empty());
  trainer_->SyncVocab();
  trainer_->FineTuneThrough(chunk.back().time);
  Publish();
  // The facts of this chunk are now visible to queries: record each
  // fact's arrival → publish latency.
  const int64_t published_ns = obs::NowNs();
  for (const SealedBucket& bucket : chunk) {
    for (int64_t arrival : bucket.arrival_ns) {
      const int64_t us = (published_ns - arrival) / 1000;
      staleness_us_.push_back(us);
      RETIA_OBS_HIST_RECORD("stream.staleness.us", us);
    }
  }
}

void StreamPipeline::Publish() {
  RETIA_OBS_TIMED_SCOPE("stream.publish.us");
  serve::EngineSnapshot snapshot =
      FrozenSnapshot(trainer_->model(), *live_, &trainer_->graphs());
  if (!config_.snapshot_prefix.empty()) {
    const ckpt::Result saved = serve::SaveModelSnapshot(
        *snapshot.model, config_.snapshot_prefix, live_->name());
    RETIA_CHECK_MSG(saved.ok(),
                    "publish snapshot failed: " << saved.ToString());
  }
  engine_->SwapSnapshot(std::move(snapshot));
  ++publishes_;
}

ckpt::Result StreamPipeline::Resume() {
  RETIA_CKPT_RETURN_IF_ERROR(trainer_->Resume());
  // Serving must reflect the restored state, and the on-disk serve
  // snapshot (old-or-new after a crash) must converge to the restored
  // model: republish.
  Publish();
  return ckpt::Result::Ok();
}

StreamStatus StreamPipeline::Status() const {
  StreamStatus status;
  status.frontier = ingest_->frontier();
  status.last_trained_time = trainer_->last_trained_time();
  status.pending_facts = ingest_->pending();
  status.staged_buckets = static_cast<int64_t>(staged_.size());
  status.publishes = publishes_;
  status.updates = trainer_->updates();
  status.ingest = ingest_->counters();
  return status;
}

}  // namespace retia::stream
