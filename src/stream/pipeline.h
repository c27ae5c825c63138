#ifndef RETIA_STREAM_PIPELINE_H_
#define RETIA_STREAM_PIPELINE_H_

// retia::stream::StreamPipeline — the end-to-end online extrapolation
// driver: ingest → fine-tune → zero-downtime publish.
//
//   StreamPipeline pipeline(std::move(model), std::move(live), config);
//   pipeline.Offer({s, r, o, t});          // events arrive
//   pipeline.AdvanceTo(now);               // watermark: seal, train, publish
//   auto top = pipeline.engine().Submit(               // any thread, any time
//       serve::Query::Entity(s, r, t, 10));
//
// One driver thread owns Offer/AdvanceTo/FlushAndPublish/Resume; queries
// against engine() are safe from any number of threads concurrently,
// including across a publish — readers pin the snapshot epoch they started
// on (ServeEngine::SwapSnapshot), so no request is ever dropped or torn.
//
// Data flow per window: once `config.window` sealed timestep buckets are
// staged, the pipeline (1) grows the model if ingestion grew the entity
// vocabulary, (2) fine-tunes through the window's newest timestep —
// checkpointing the full trainer state atomically when
// config.trainer.checkpoint_path is set — and (3) publishes a frozen deep
// copy of model + dataset into the serving engine (optionally persisting a
// serve snapshot at config.snapshot_prefix first). A SIGKILL between (2)
// and (3) is recovered by Resume(): the checkpoint restores bit-exactly
// and the republished snapshot equals the one the crash pre-empted
// (tests/stream_test.cc proves both with a real SIGKILL).
//
// Staleness: each accepted fact's arrival clock is kept until the publish
// that makes it visible to queries; the arrival→publish latency is
// recorded per fact in `stream.staleness.us` and kept in staleness_us()
// for bench_stream's p50/p95.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/result.h"
#include "core/retia.h"
#include "serve/engine.h"
#include "stream/ingest.h"
#include "stream/online_trainer.h"
#include "tkg/dataset.h"

namespace retia::stream {

struct StreamPipelineConfig {
  // Sealed timestep buckets per fine-tune window: the pipeline trains and
  // publishes once this many buckets are staged (and on FlushAndPublish).
  int64_t window = 1;
  IngestConfig ingest;
  OnlineTrainerConfig trainer;
  serve::ServeConfig serve;
  // When non-empty, every publish also persists the published model as a
  // serve snapshot at <prefix>.ckpt (atomic; old-or-new on crash).
  std::string snapshot_prefix;
};

// Point-in-time pipeline counters (Status()).
struct StreamStatus {
  int64_t frontier = -1;           // newest sealed timestep
  int64_t last_trained_time = -1;  // newest fine-tuned timestep
  int64_t pending_facts = 0;       // buffered in open buckets
  int64_t staged_buckets = 0;      // sealed, awaiting a full window
  int64_t publishes = 0;           // snapshot swaps into the engine
  int64_t updates = 0;             // gradient steps applied
  IngestCounters ingest;
};

class StreamPipeline {
 public:
  // Takes ownership of the warm-started model and the live dataset the
  // stream appends to. The serving engine starts on a frozen copy of both.
  StreamPipeline(std::unique_ptr<core::RetiaModel> model,
                 std::unique_ptr<tkg::TkgDataset> live,
                 const StreamPipelineConfig& config);

  // Event entry points (driver thread only).
  IngestStatus Offer(const tkg::Quadruple& q) { return ingest_->Offer(q); }
  int64_t OfferBatch(const std::vector<tkg::Quadruple>& quads) {
    return ingest_->OfferBatch(quads);
  }

  // Watermark: seals every buffered bucket with time < now, then runs one
  // fine-tune + publish cycle per complete window of sealed buckets.
  // Returns the number of publishes performed.
  int64_t AdvanceTo(int64_t now);

  // Seals everything buffered and, if any sealed bucket is still
  // unpublished, runs one final fine-tune + publish (end of stream).
  int64_t FlushAndPublish();

  // Crash recovery: restores the trainer checkpoint
  // (config.trainer.checkpoint_path) and republishes, so serving reflects
  // the restored state. Call before re-offering the replayed stream; facts
  // at already-trained timesteps are appended for history but not
  // re-trained, keeping the resumed run bit-exact with an uninterrupted
  // one.
  [[nodiscard]] ckpt::Result Resume();

  // The serving tier. Queries are thread-safe and may race with publishes.
  serve::ServeEngine& engine() { return *engine_; }
  const OnlineTrainer& trainer() const { return *trainer_; }
  const StreamIngest& ingest() const { return *ingest_; }
  const tkg::TkgDataset& live() const { return *live_; }

  // Arrival→publish latency of every fact published so far, in
  // microseconds, append order (also exported as `stream.staleness.us`).
  const std::vector<int64_t>& staleness_us() const { return staleness_us_; }

  StreamStatus Status() const;

 private:
  // Fine-tunes through the staged chunk's newest timestep and publishes.
  void TrainAndPublish(std::vector<SealedBucket> chunk);
  void Publish();

  StreamPipelineConfig config_;
  std::unique_ptr<tkg::TkgDataset> live_;
  std::unique_ptr<OnlineTrainer> trainer_;
  std::unique_ptr<StreamIngest> ingest_;
  std::unique_ptr<serve::ServeEngine> engine_;
  std::deque<SealedBucket> staged_;
  std::vector<int64_t> staleness_us_;
  int64_t publishes_ = 0;
};

}  // namespace retia::stream

#endif  // RETIA_STREAM_PIPELINE_H_
