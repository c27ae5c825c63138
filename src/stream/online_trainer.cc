#include "stream/online_trainer.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "ckpt/artifact.h"
#include "ckpt/bytes.h"
#include "obs/obs.h"
#include "stream/grow.h"
#include "util/check.h"

namespace retia::stream {

namespace {
// Extra RETIACKPT2 section riding in the trainer artifact: the stream
// fine-tune cursor (see docs/STREAMING.md).
constexpr char kSectionStreamCursor[] = "stream.cursor";
}  // namespace

OnlineTrainer::OnlineTrainer(std::unique_ptr<core::RetiaModel> model,
                             tkg::TkgDataset* live,
                             const OnlineTrainerConfig& config)
    : config_(config), live_(live), model_(std::move(model)) {
  RETIA_CHECK(live_ != nullptr);
  RETIA_CHECK(model_ != nullptr);
  RETIA_CHECK_EQ(model_->config().num_entities, live_->num_entities());
  RETIA_CHECK_EQ(model_->config().num_relations, live_->num_relations());
  model_->SetTraining(true);
  last_trained_time_ = live_->max_time();
  cache_ = std::make_unique<graph::GraphCache>(live_);
  RebuildTrainer();
}

void OnlineTrainer::RebuildTrainer() {
  train::TrainConfig tc;
  tc.lr = config_.lr;
  tc.grad_clip = config_.grad_clip;
  tc.online_steps = config_.steps_per_time;
  tc.online_lr = config_.lr;
  trainer_ = std::make_unique<train::Trainer>(model_.get(), cache_.get(), tc);
}

bool OnlineTrainer::SyncVocab() {
  const int64_t live_n = live_->num_entities();
  if (live_n <= model_->config().num_entities) return false;
  model_ = GrowEntityVocab(*model_, live_n);
  model_->SetTraining(true);
  // Vocabulary growth invalidates cached subgraphs and resets Adam (the
  // trainer is rebuilt against the grown parameter list).
  cache_ = std::make_unique<graph::GraphCache>(live_);
  RebuildTrainer();
  RETIA_OBS_COUNTER_ADD("stream.vocab_growths", 1);
  return true;
}

int64_t OnlineTrainer::FineTuneThrough(int64_t through) {
  RETIA_OBS_TIMED_SCOPE("stream.finetune.us");
  const std::vector<int64_t>& all_times = live_->all_times();
  std::vector<int64_t> todo;
  for (auto it = std::upper_bound(all_times.begin(), all_times.end(),
                                  last_trained_time_);
       it != all_times.end() && *it <= through; ++it) {
    todo.push_back(*it);
  }
  const int64_t applied = trainer_->FineTuneOnTimes(todo);
  updates_ += applied;
  last_trained_time_ = std::max(last_trained_time_, through);
  // Every later step, and a query past `through`, reads the same history:
  // keep only its graphs, built now, so the cache stays k entries long and
  // Publish can hand them to the serving snapshot.
  const std::vector<int64_t> next =
      cache_->HistoryBefore(through + 1, model_->history_len());
  if (!next.empty()) cache_->EvictBefore(next.front());
  cache_->Prefetch(next, model_->uses_hypergraphs());
  if (!config_.checkpoint_path.empty()) {
    const ckpt::Result saved = SaveCheckpoint();
    RETIA_CHECK_MSG(saved.ok(),
                    "stream checkpoint failed: " << saved.ToString());
  }
  return applied;
}

ckpt::Result OnlineTrainer::SaveCheckpoint() const {
  ckpt::ByteWriter w;
  w.I64(last_trained_time_);
  w.I64(model_->config().num_entities);
  w.I64(model_->config().num_relations);
  w.I64(updates_);
  return trainer_->SaveState(config_.checkpoint_path,
                             {{kSectionStreamCursor, w.Take()}});
}

ckpt::Result OnlineTrainer::Resume() {
  if (config_.checkpoint_path.empty()) {
    return ckpt::Result::Error(ckpt::ErrorCode::kIoError,
                               "OnlineTrainer::Resume without a configured "
                               "checkpoint_path");
  }
  ckpt::ArtifactReader reader;
  RETIA_CKPT_RETURN_IF_ERROR(
      ckpt::ArtifactReader::Open(config_.checkpoint_path, &reader));
  std::string_view payload;
  RETIA_CKPT_RETURN_IF_ERROR(reader.Section(kSectionStreamCursor, &payload));
  ckpt::ByteReader r(payload, kSectionStreamCursor);
  int64_t last_trained = 0, num_entities = 0, num_relations = 0, updates = 0;
  RETIA_CKPT_RETURN_IF_ERROR(r.I64(&last_trained));
  RETIA_CKPT_RETURN_IF_ERROR(r.I64(&num_entities));
  RETIA_CKPT_RETURN_IF_ERROR(r.I64(&num_relations));
  RETIA_CKPT_RETURN_IF_ERROR(r.I64(&updates));
  RETIA_CKPT_RETURN_IF_ERROR(r.ExpectEnd());
  if (num_relations != model_->config().num_relations) {
    return ckpt::Result::Error(
        ckpt::ErrorCode::kSchemaMismatch,
        "stream.cursor records " + std::to_string(num_relations) +
            " relations, model has " +
            std::to_string(model_->config().num_relations));
  }
  if (num_entities < model_->config().num_entities) {
    return ckpt::Result::Error(
        ckpt::ErrorCode::kSchemaMismatch,
        "stream.cursor records " + std::to_string(num_entities) +
            " entities, model already has " +
            std::to_string(model_->config().num_entities));
  }
  // Rebuild the world the checkpoint was taken in: dataset and model grown
  // to the recorded vocabulary (the replayed stream may not have repeated
  // the growth yet), then the full trainer state restored bit-exactly.
  if (live_->num_entities() < num_entities) {
    live_->GrowVocab(num_entities, live_->num_relations());
  }
  if (num_entities > model_->config().num_entities) {
    model_ = GrowEntityVocab(*model_, num_entities);
    model_->SetTraining(true);
    cache_ = std::make_unique<graph::GraphCache>(live_);
    RebuildTrainer();
  }
  RETIA_CKPT_RETURN_IF_ERROR(trainer_->ResumeState(config_.checkpoint_path));
  last_trained_time_ = last_trained;
  updates_ = updates;
  return ckpt::Result::Ok();
}

}  // namespace retia::stream
