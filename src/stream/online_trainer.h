#ifndef RETIA_STREAM_ONLINE_TRAINER_H_
#define RETIA_STREAM_ONLINE_TRAINER_H_

// retia::stream::OnlineTrainer — incremental fine-tuning of a live model
// on freshly sealed frontier timesteps, with crash-safe checkpoints.
//
// The update rule is the CEN-style online continuous training the offline
// Trainer already implements (DESIGN.md, Sec. III-F): for each newly
// observed timestep, a few gradient steps on that timestep's facts
// predicting it from its trailing history window. RE-Net's autoregressive
// formulation is why this is principled — the recurrent encoder only ever
// consumes the last k timesteps, so fine-tuning on the frontier is the
// full-information update.
//
// Crash safety: when configured with a checkpoint path, every fine-tune
// window ends with one atomic RETIACKPT2 artifact holding the complete
// trainer state (params + Adam + RNG + cursor, via train::Trainer) plus a
// `stream.cursor` section (last trained timestep, vocabulary bounds,
// update count). A SIGKILL anywhere — including between fine-tune and
// snapshot publication — resumes bit-exact via Resume() (tests/stream_test
// proves it with a real SIGKILL).
//
// Vocabulary growth: SyncVocab() grows the model (stream::GrowEntityVocab)
// when the ingest policy grew the dataset. Growth rebuilds the trainer, so
// Adam moments reset at the growth boundary — documented in
// docs/STREAMING.md; both an uninterrupted and a resumed run reset at the
// same boundary, preserving bit-exactness.
//
// Threading: not thread-safe; the pipeline driver thread owns it.

#include <cstdint>
#include <memory>
#include <string>

#include "ckpt/result.h"
#include "core/retia.h"
#include "graph/graph_cache.h"
#include "tkg/dataset.h"
#include "train/trainer.h"

namespace retia::stream {

struct OnlineTrainerConfig {
  // Gradient steps per newly sealed timestep.
  int64_t steps_per_time = 1;
  float lr = 1e-3f;
  float grad_clip = 1.0f;
  // When non-empty, every fine-tune window saves the full state here
  // atomically; Resume() restores it.
  std::string checkpoint_path;
};

class OnlineTrainer {
 public:
  // Takes ownership of the live (training) model. `live` must outlive the
  // trainer. Timesteps up to live->max_time() at construction are treated
  // as already covered by the offline training run.
  OnlineTrainer(std::unique_ptr<core::RetiaModel> model,
                tkg::TkgDataset* live, const OnlineTrainerConfig& config);

  // Grows the model to the live dataset's entity vocabulary when the
  // ingest policy grew it. Returns true when the model was rebuilt.
  bool SyncVocab();

  // Fine-tunes on every sealed timestep in (last_trained_time, through],
  // ascending, then checkpoints. Returns the number of gradient steps
  // applied.
  int64_t FineTuneThrough(int64_t through);

  // Restores the checkpoint at config.checkpoint_path: grows the model to
  // the recorded vocabulary first, then resumes the trainer state
  // bit-exactly. The live dataset must already contain the recorded
  // timesteps (the caller replays or reloads the stream).
  [[nodiscard]] ckpt::Result Resume();

  const core::RetiaModel& model() const { return *model_; }
  int64_t last_trained_time() const { return last_trained_time_; }
  // Gradient steps applied across the stream (survives Resume).
  int64_t updates() const { return updates_; }

 private:
  ckpt::Result SaveCheckpoint() const;
  void RebuildTrainer();

  OnlineTrainerConfig config_;
  tkg::TkgDataset* live_;
  std::unique_ptr<core::RetiaModel> model_;
  std::unique_ptr<graph::GraphCache> cache_;
  std::unique_ptr<train::Trainer> trainer_;
  int64_t last_trained_time_;
  int64_t updates_ = 0;
};

}  // namespace retia::stream

#endif  // RETIA_STREAM_ONLINE_TRAINER_H_
