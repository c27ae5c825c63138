#include "train/trainer.h"

#include <iostream>
#include <utility>

#include "ckpt/artifact.h"
#include "ckpt/bytes.h"
#include "ckpt/model_io.h"
#include "obs/obs.h"
#include "util/timer.h"

namespace retia::train {

namespace {

constexpr char kTrainerArtifactKind[] = "retia.trainer_state";

std::string EncodeCursor(int64_t next_epoch, double best_mrr,
                         int64_t below_best, int64_t online_updates) {
  ckpt::ByteWriter w;
  w.I64(next_epoch);
  w.F64(best_mrr);
  w.I64(below_best);
  w.I64(online_updates);
  return w.Take();
}

std::string EncodeParamVectors(const std::vector<std::vector<float>>& params) {
  ckpt::ByteWriter w;
  w.U64(params.size());
  for (const std::vector<float>& p : params) {
    w.FloatArray(p.data(), static_cast<int64_t>(p.size()));
  }
  return w.Take();
}

std::string EncodeRecords(const std::vector<EpochRecord>& records) {
  ckpt::ByteWriter w;
  w.U64(records.size());
  for (const EpochRecord& r : records) {
    w.F64(r.joint_loss);
    w.F64(r.entity_loss);
    w.F64(r.relation_loss);
    w.F64(r.valid_entity_mrr);
    w.F64(r.seconds);
  }
  return w.Take();
}

ckpt::Result DecodeRecords(std::string_view payload,
                           std::vector<EpochRecord>* out) {
  ckpt::ByteReader r(payload, ckpt::kSectionRecords);
  uint64_t count = 0;
  RETIA_CKPT_RETURN_IF_ERROR(r.U64(&count));
  std::vector<EpochRecord> records(count);
  for (uint64_t i = 0; i < count; ++i) {
    RETIA_CKPT_RETURN_IF_ERROR(r.F64(&records[i].joint_loss));
    RETIA_CKPT_RETURN_IF_ERROR(r.F64(&records[i].entity_loss));
    RETIA_CKPT_RETURN_IF_ERROR(r.F64(&records[i].relation_loss));
    RETIA_CKPT_RETURN_IF_ERROR(r.F64(&records[i].valid_entity_mrr));
    RETIA_CKPT_RETURN_IF_ERROR(r.F64(&records[i].seconds));
  }
  RETIA_CKPT_RETURN_IF_ERROR(r.ExpectEnd());
  *out = std::move(records);
  return ckpt::Result::Ok();
}

}  // namespace

Trainer::Trainer(core::EvolutionModel* model, graph::GraphCache* cache,
                 const TrainConfig& config)
    : model_(model),
      cache_(cache),
      config_(config),
      params_(model->Parameters()),
      optimizer_(params_, nn::Adam::Options{.lr = config.lr}) {}

bool Trainer::StepOnTimestamp(int64_t t,
                              core::EvolutionModel::LossParts* parts) {
  const std::vector<tkg::Quadruple>& facts = cache_->dataset().FactsAt(t);
  if (facts.empty()) return false;
  const std::vector<int64_t> history =
      cache_->HistoryBefore(t, model_->history_len());
  if (history.empty()) return false;
  model_->SetTraining(true);
  model_->ZeroGrad();
  core::EvolutionModel::LossParts loss;
  {
    RETIA_OBS_TIMED_SCOPE("train.forward.us");
    std::vector<core::EvolutionModel::StepState> states =
        model_->Evolve(*cache_, history);
    loss = model_->ComputeLoss(states, facts);
  }
  {
    RETIA_OBS_TIMED_SCOPE("train.backward.us");
    loss.joint.Backward();
  }
  float grad_norm = 0.0f;
  {
    RETIA_OBS_TIMED_SCOPE("train.clip.us");
    grad_norm = nn::ClipGradNorm(params_, config_.grad_clip);
  }
  {
    RETIA_OBS_TIMED_SCOPE("train.step.us");
    optimizer_.Step();
  }
  RETIA_OBS_GAUGE_SET("train.grad_norm", grad_norm);
  RETIA_OBS_GAUGE_SET("train.loss.joint", loss.joint.Item());
  RETIA_OBS_GAUGE_SET("train.loss.entity", loss.entity_loss);
  RETIA_OBS_GAUGE_SET("train.loss.relation", loss.relation_loss);
  if (parts != nullptr) *parts = loss;
  return true;
}

double Trainer::ValidationEntityMrr() {
  eval::EvalOptions options;
  options.evaluate_relations = false;
  eval::EvalResult r =
      Evaluate(cache_->dataset().valid_times(), /*online=*/false, options);
  return r.entity.Mrr();
}

std::vector<std::vector<float>> Trainer::SnapshotParams() const {
  std::vector<std::vector<float>> snapshot;
  snapshot.reserve(params_.size());
  for (const tensor::Tensor& p : params_) {
    const tensor::FloatBuffer& data = p.impl().data;
    snapshot.emplace_back(data.begin(), data.end());
  }
  return snapshot;
}

void Trainer::RestoreParams(const std::vector<std::vector<float>>& snapshot) {
  RETIA_CHECK_EQ(snapshot.size(), params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    params_[i].impl().data.assign(snapshot[i].begin(), snapshot[i].end());
  }
}

std::vector<EpochRecord> Trainer::TrainGeneral() {
  for (int64_t epoch = next_epoch_;
       epoch < config_.max_epochs && below_best_ < config_.patience; ++epoch) {
    RETIA_OBS_TIMED_SCOPE("train.epoch.us");
    util::Timer timer;
    EpochRecord rec;
    int64_t batches = 0;
    for (int64_t t : cache_->dataset().train_times()) {
      core::EvolutionModel::LossParts parts;
      if (!StepOnTimestamp(t, &parts)) continue;
      rec.joint_loss += parts.joint.Item();
      rec.entity_loss += parts.entity_loss;
      rec.relation_loss += parts.relation_loss;
      ++batches;
    }
    if (batches > 0) {
      rec.joint_loss /= batches;
      rec.entity_loss /= batches;
      rec.relation_loss /= batches;
    }
    rec.valid_entity_mrr = ValidationEntityMrr();
    rec.seconds = timer.Seconds();
    records_.push_back(rec);
    if (config_.verbose) {
      std::cout << "epoch " << epoch << " loss " << rec.joint_loss
                << " (e " << rec.entity_loss << ", r " << rec.relation_loss
                << ") valid MRR " << rec.valid_entity_mrr << " ["
                << util::FormatDuration(rec.seconds) << "]\n";
    }
    if (rec.valid_entity_mrr > best_mrr_) {
      best_mrr_ = rec.valid_entity_mrr;
      below_best_ = 0;
      best_params_ = SnapshotParams();
    } else {
      ++below_best_;
    }
    next_epoch_ = epoch + 1;
    // Persist the pre-restore training state: a resumed run must see the
    // live parameters the next epoch would have trained from, not the
    // best-validation parameters restored below.
    if (!config_.checkpoint_path.empty()) {
      ckpt::Result saved = SaveState(config_.checkpoint_path);
      if (!saved.ok()) {
        std::cerr << "[train] WARNING: failed to save training state to '"
                  << config_.checkpoint_path << "': " << saved.ToString()
                  << "\n";
      }
    }
  }
  if (!best_params_.empty()) RestoreParams(best_params_);
  return records_;
}

ckpt::Result Trainer::SaveState(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& extra_sections)
    const {
  ckpt::ArtifactWriter writer;
  ckpt::Meta meta = {{"artifact", kTrainerArtifactKind}};
  writer.AddSection(ckpt::kSectionMeta, ckpt::EncodeMeta(meta));
  writer.AddSection(ckpt::kSectionParams, ckpt::EncodeParams(*model_));
  writer.AddSection(ckpt::kSectionAdam, ckpt::EncodeAdam(optimizer_));
  if (const util::Rng* rng = model_->MutableRng(); rng != nullptr) {
    writer.AddSection(ckpt::kSectionRng, ckpt::EncodeRng(*rng));
  }
  writer.AddSection(
      ckpt::kSectionCursor,
      EncodeCursor(next_epoch_, best_mrr_, below_best_, online_updates_));
  if (!best_params_.empty()) {
    writer.AddSection(ckpt::kSectionBestParams,
                      EncodeParamVectors(best_params_));
  }
  writer.AddSection(ckpt::kSectionRecords, EncodeRecords(records_));
  for (const auto& [name, payload] : extra_sections) {
    writer.AddSection(name, payload);
  }
  return writer.WriteFile(path);
}

ckpt::Result Trainer::ResumeState(const std::string& path) {
  ckpt::ArtifactReader reader;
  RETIA_CKPT_RETURN_IF_ERROR(ckpt::ArtifactReader::Open(path, &reader));

  std::string_view meta_bytes;
  RETIA_CKPT_RETURN_IF_ERROR(reader.Section(ckpt::kSectionMeta, &meta_bytes));
  ckpt::Meta meta;
  RETIA_CKPT_RETURN_IF_ERROR(ckpt::DecodeMeta(meta_bytes, &meta));
  std::string kind;
  RETIA_CKPT_RETURN_IF_ERROR(ckpt::MetaLookup(meta, "artifact", &kind));
  if (kind != kTrainerArtifactKind) {
    return ckpt::Result::Error(
        ckpt::ErrorCode::kSchemaMismatch,
        "artifact is a '" + kind + "', not a " + kTrainerArtifactKind);
  }

  // Decode everything into locals before mutating the trainer: a
  // mismatching artifact must leave this trainer untouched.
  std::string_view params_bytes;
  RETIA_CKPT_RETURN_IF_ERROR(
      reader.Section(ckpt::kSectionParams, &params_bytes));
  std::vector<std::vector<float>> params;
  RETIA_CKPT_RETURN_IF_ERROR(
      ckpt::DecodeParams(*model_, params_bytes, &params));

  std::string_view cursor_bytes;
  RETIA_CKPT_RETURN_IF_ERROR(
      reader.Section(ckpt::kSectionCursor, &cursor_bytes));
  ckpt::ByteReader cursor(cursor_bytes, ckpt::kSectionCursor);
  int64_t next_epoch = 0, below_best = 0, online_updates = 0;
  double best_mrr = -1.0;
  RETIA_CKPT_RETURN_IF_ERROR(cursor.I64(&next_epoch));
  RETIA_CKPT_RETURN_IF_ERROR(cursor.F64(&best_mrr));
  RETIA_CKPT_RETURN_IF_ERROR(cursor.I64(&below_best));
  RETIA_CKPT_RETURN_IF_ERROR(cursor.I64(&online_updates));
  RETIA_CKPT_RETURN_IF_ERROR(cursor.ExpectEnd());
  if (next_epoch < 0 || below_best < 0 || online_updates < 0) {
    return ckpt::Result::Error(ckpt::ErrorCode::kCorrupt,
                               "negative value in training cursor");
  }

  std::vector<std::vector<float>> best_params;
  if (reader.Has(ckpt::kSectionBestParams)) {
    std::string_view best_bytes;
    RETIA_CKPT_RETURN_IF_ERROR(
        reader.Section(ckpt::kSectionBestParams, &best_bytes));
    ckpt::ByteReader r(best_bytes, ckpt::kSectionBestParams);
    uint64_t count = 0;
    RETIA_CKPT_RETURN_IF_ERROR(r.U64(&count));
    if (count != params_.size()) {
      return ckpt::Result::Error(
          ckpt::ErrorCode::kSchemaMismatch,
          "artifact best-params cover " + std::to_string(count) +
              " parameters, model has " + std::to_string(params_.size()));
    }
    best_params.resize(count);
    for (uint64_t i = 0; i < count; ++i) {
      RETIA_CKPT_RETURN_IF_ERROR(r.FloatArray(&best_params[i]));
      if (best_params[i].size() != params_[i].impl().data.size()) {
        return ckpt::Result::Error(
            ckpt::ErrorCode::kSchemaMismatch,
            "artifact best-params entry " + std::to_string(i) +
                " has wrong size");
      }
    }
    RETIA_CKPT_RETURN_IF_ERROR(r.ExpectEnd());
  }

  std::vector<EpochRecord> records;
  std::string_view records_bytes;
  RETIA_CKPT_RETURN_IF_ERROR(
      reader.Section(ckpt::kSectionRecords, &records_bytes));
  RETIA_CKPT_RETURN_IF_ERROR(DecodeRecords(records_bytes, &records));

  // The RNG state decodes into a scratch engine, so the Adam decode is the
  // one fallible step that writes trainer state, and it validates every
  // moment before restoring any.
  util::Rng* rng = model_->MutableRng();
  const bool restore_rng = rng != nullptr && reader.Has(ckpt::kSectionRng);
  util::Rng decoded_rng;
  if (restore_rng) {
    std::string_view rng_bytes;
    RETIA_CKPT_RETURN_IF_ERROR(reader.Section(ckpt::kSectionRng, &rng_bytes));
    RETIA_CKPT_RETURN_IF_ERROR(ckpt::DecodeRngInto(&decoded_rng, rng_bytes));
  }
  std::string_view adam_bytes;
  RETIA_CKPT_RETURN_IF_ERROR(reader.Section(ckpt::kSectionAdam, &adam_bytes));
  RETIA_CKPT_RETURN_IF_ERROR(ckpt::DecodeAdamInto(&optimizer_, adam_bytes));

  RestoreParams(params);
  if (restore_rng) rng->engine() = decoded_rng.engine();
  next_epoch_ = next_epoch;
  best_mrr_ = best_mrr;
  below_best_ = below_best;
  online_updates_ = online_updates;
  best_params_ = std::move(best_params);
  records_ = std::move(records);
  return ckpt::Result::Ok();
}

int64_t Trainer::FineTuneOnTimes(const std::vector<int64_t>& times) {
  RETIA_OBS_TIMED_SCOPE("train.finetune.us");
  const float general_lr = optimizer_.lr();
  optimizer_.set_lr(config_.online_lr);
  int64_t applied = 0;
  for (int64_t t : times) {
    for (int64_t step = 0; step < config_.online_steps; ++step) {
      if (StepOnTimestamp(t, nullptr)) {
        ++applied;
        ++online_updates_;
      }
    }
  }
  optimizer_.set_lr(general_lr);
  return applied;
}

eval::EvalResult Trainer::Evaluate(const std::vector<int64_t>& times,
                                   bool online,
                                   const eval::EvalOptions& options) {
  // The evaluator scores a timestamp's object queries, then its relation
  // queries, then calls `after`; both scores share one eval-mode Evolve,
  // which the online update invalidates.
  std::vector<core::EvolutionModel::StepState> states;
  int64_t states_at = -1;
  auto evolved = [&](int64_t t) -> const auto& {
    if (states.empty() || states_at != t) {
      model_->SetTraining(false);
      states = model_->Evolve(*cache_,
                              cache_->HistoryBefore(t, model_->history_len()));
      states_at = t;
    }
    return states;
  };
  eval::ObjectScoreFn object_fn =
      [&](int64_t t, const std::vector<std::pair<int64_t, int64_t>>& queries) {
        tensor::NoGradGuard guard;
        return model_->ScoreObjects(evolved(t), queries);
      };
  eval::RelationScoreFn relation_fn =
      [&](int64_t t, const std::vector<std::pair<int64_t, int64_t>>& queries) {
        tensor::NoGradGuard guard;
        return model_->ScoreRelations(evolved(t), queries);
      };
  eval::AfterTimestampFn after = nullptr;
  if (online) {
    after = [&](int64_t t) {
      states.clear();
      FineTuneOnTimes({t});
    };
  }
  eval::EvalResult result = eval::EvaluateTimes(
      cache_->dataset(), times, object_fn, relation_fn, options, after);
  model_->SetTraining(true);
  return result;
}

}  // namespace retia::train
