#ifndef RETIA_TRAIN_TRAINER_H_
#define RETIA_TRAIN_TRAINER_H_

// Training / evaluation driver for any core::EvolutionModel: the general
// training process with validation early stopping (Sec. IV-D1) and split
// evaluation with optional online continuous training (Sec. III-F).
//
// Ownership / threading contract: a Trainer borrows the model and the
// graph cache (both must outlive it) and owns only the Adam state. All
// methods must be called from one thread. Timestamps are trained in
// program order; parallelism happens on par::DefaultPool() inside each
// step — the tensor kernels and Evolve's snapshot builds (DESIGN.md §12) —
// and never reorders the math, so training results (and checkpoint
// resume) stay bit-identical for every thread count. Per-phase timings
// (forward, backward, clip, step, epoch) and loss / grad-norm gauges are
// exported as `train.*` metrics (docs/OBSERVABILITY.md).
//
// Crash safety: when TrainConfig::checkpoint_path is set, the full
// training state — model parameters, Adam moments, the model's RNG
// stream, the epoch cursor, the best-validation parameters and the epoch
// records — is written as one atomic retia::ckpt artifact after every
// epoch. A killed run resumed with ResumeState() continues to
// bit-identical parameters and records (wall-clock `seconds` excepted);
// see docs/CHECKPOINTS.md.
//
// Usage:
//   train::Trainer trainer(&model, &cache, {.max_epochs = 30});
//   std::vector<train::EpochRecord> curve = trainer.TrainGeneral();
//   eval::EvalResult test =
//       trainer.Evaluate(cache.dataset().test_times(), /*online=*/true);

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/result.h"
#include "core/evolution_model.h"
#include "eval/evaluator.h"
#include "graph/graph_cache.h"
#include "nn/optimizer.h"

namespace retia::train {

struct TrainConfig {
  int64_t max_epochs = 30;
  // Early stopping: stop after this many consecutive epochs whose
  // validation score is below the historical best (Sec. IV-D1 uses 5).
  int64_t patience = 5;
  float lr = 1e-3f;
  float grad_clip = 1.0f;
  // Gradient steps per newly observed timestamp during online continuous
  // training (the time-variability strategy, Sec. III-F).
  int64_t online_steps = 1;
  float online_lr = 1e-3f;
  bool verbose = false;
  // When non-empty, TrainGeneral saves the full training state here after
  // every epoch (atomically; a crash leaves the previous epoch's state
  // intact). A save failure is a warning, not an abort.
  std::string checkpoint_path;
};

// Per-epoch record of the general training process; the loss curves of
// Figs. 3/4 are these values. `seconds` is wall clock and therefore the
// one field that is not bit-identical across a resumed run.
struct EpochRecord {
  double joint_loss = 0.0;
  double entity_loss = 0.0;
  double relation_loss = 0.0;
  double valid_entity_mrr = 0.0;
  double seconds = 0.0;
};

// Trains and evaluates any core::EvolutionModel: general training with
// validation early stopping, and split evaluation with optional online
// continuous training. One timestamp is one batch (Sec. III-F).
class Trainer {
 public:
  Trainer(core::EvolutionModel* model, graph::GraphCache* cache,
          const TrainConfig& config);

  // General training on the train split, starting from the current epoch
  // cursor (0 for a fresh trainer, the interrupted epoch after
  // ResumeState). Returns the per-epoch records of the whole run so far
  // (loss curve + validation MRR). The best-validation parameters are
  // restored before returning.
  std::vector<EpochRecord> TrainGeneral();

  // Evaluates the facts of `times`, scoring both tasks of a timestamp on
  // one eval-mode Evolve. With `online` true, the model is fine-tuned on
  // each timestamp's facts after that timestamp has been evaluated (online
  // continuous training, one FineTuneOnTimes({t}) each).
  // `result.predict_seconds` excludes the online updates.
  eval::EvalResult Evaluate(const std::vector<int64_t>& times, bool online,
                            const eval::EvalOptions& options = {});

  // Incremental fine-tuning entry for the streaming path (retia::stream):
  // applies config.online_steps gradient steps at config.online_lr on each
  // timestamp of `times` (ascending), without evaluating anything. Exactly
  // the update rule Evaluate(online=true) applies after each evaluated
  // timestamp. Returns the number of gradient steps actually applied
  // (timestamps without facts or history are skipped).
  int64_t FineTuneOnTimes(const std::vector<int64_t>& times);

  // Writes the complete training state (model parameters, Adam moments,
  // model RNG stream, epoch cursor, best-validation parameters, epoch
  // records) as one atomic RETIACKPT2 artifact. `extra_sections` lets a
  // caller ride its own cursor along in the same atomic artifact (the
  // stream pipeline stores its ingest cursor this way); names must not
  // collide with the standard `ckpt::kSection*` names. ResumeState ignores
  // unknown sections, so callers read them back through ckpt::ArtifactReader.
  ckpt::Result SaveState(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& extra_sections =
          {}) const;

  // Restores a SaveState artifact into this trainer. The trainer must
  // wrap a model of the same architecture (parameter names and shapes are
  // validated; mismatches return kSchemaMismatch). On success the next
  // TrainGeneral() call continues exactly where the saved run stopped; on
  // any error the trainer, its model and its optimizer are untouched.
  [[nodiscard]] ckpt::Result ResumeState(const std::string& path);

  // Epoch the next TrainGeneral() call starts at (== epochs completed).
  int64_t next_epoch() const { return next_epoch_; }

  // Number of online fine-tuning updates applied by Evaluate so far.
  int64_t online_updates() const { return online_updates_; }

  const std::vector<EpochRecord>& records() const { return records_; }

 private:
  // One optimisation step on the facts at `t` (predicting t from its
  // history). Returns the loss parts; no-op when t has no history.
  bool StepOnTimestamp(int64_t t, core::EvolutionModel::LossParts* parts);

  double ValidationEntityMrr();

  std::vector<std::vector<float>> SnapshotParams() const;
  void RestoreParams(const std::vector<std::vector<float>>& snapshot);

  core::EvolutionModel* model_;
  graph::GraphCache* cache_;
  TrainConfig config_;
  std::vector<tensor::Tensor> params_;
  nn::Adam optimizer_;

  // Training cursor — everything TrainGeneral needs to continue mid-run.
  int64_t next_epoch_ = 0;
  double best_mrr_ = -1.0;
  int64_t below_best_ = 0;
  std::vector<std::vector<float>> best_params_;
  std::vector<EpochRecord> records_;
  int64_t online_updates_ = 0;
};

}  // namespace retia::train

#endif  // RETIA_TRAIN_TRAINER_H_
