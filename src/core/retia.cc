#include "core/retia.h"

#include <cmath>
#include <utility>

#include "nn/init.h"
#include "obs/obs.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace retia::core {

using tensor::Tensor;

namespace {

// Copies `src`'s values into `dst`'s storage; both are undefined, or both
// have the same shape.
void CopyValues(const Tensor& src, Tensor& dst) {
  RETIA_CHECK_EQ(src.defined(), dst.defined());
  if (!src.defined()) return;
  RETIA_CHECK(src.Shape() == dst.Shape());
  dst.impl().data = src.impl().data;
}

}  // namespace

RetiaModel::RetiaModel(const RetiaConfig& config)
    : RetiaModel(config, /*draw_init=*/true) {}

RetiaModel::RetiaModel(const RetiaConfig& config, bool draw_init)
    : config_(config), rng_(config.seed) {
  RETIA_CHECK(config.num_entities > 0);
  RETIA_CHECK(config.num_relations > 0);
  const int64_t d = config.dim;
  const int64_t rel_aug = 2 * config.num_relations;
  util::Rng* const rng = draw_init ? &rng_ : nullptr;

  entity_init_ = std::make_unique<nn::Embedding>(config.num_entities, d, rng);
  relation_init_ = std::make_unique<nn::Embedding>(rel_aug, d, rng);
  hyper_init_ =
      std::make_unique<nn::Embedding>(graph::kNumHyperRelationsAug, d, rng);
  RegisterModule("entity_init", entity_init_.get());
  RegisterModule("relation_init", relation_init_.get());
  RegisterModule("hyper_init", hyper_init_.get());
  // Ablation protocol (Sec. IV-C / IV-D1): the ablated side keeps its
  // *randomly initialized* embeddings "unchanged", i.e. frozen constants,
  // not trainable parameters.
  if (!config.use_eam) {
    frozen_entities_ = nn::XavierUniform({config.num_entities, d}, rng);
  }
  if (!config.use_ram) {
    frozen_relations_ = nn::XavierUniform({rel_aug, d}, rng);
  }
  if (!config.use_tim) {
    // The EAM's private relation embeddings when the TIM channel is cut:
    // "two different and inconsistent individuals".
    eam_static_relations_ = nn::XavierUniform({rel_aug, d}, rng);
  }

  entity_rgcn_ = std::make_unique<EntityRgcnStack>(
      d, rel_aug, config.num_bases, config.rgcn_layers, config.dropout, rng);
  relation_rgcn_ = std::make_unique<RelationRgcnStack>(
      d, config.rgcn_layers, config.dropout, rng);
  entity_gru_ = std::make_unique<nn::GruCell>(d, d, rng);
  relation_gru_ = std::make_unique<nn::GruCell>(d, d, rng);
  relation_lstm_ = std::make_unique<nn::ProjectedLstmCell>(
      /*input_size=*/2 * d, /*hidden_size=*/d, /*cell_size=*/2 * d, rng);
  hyper_lstm_ = std::make_unique<nn::ProjectedLstmCell>(
      /*input_size=*/2 * d, /*hidden_size=*/d, /*cell_size=*/2 * d, rng);
  mp_proj_ = std::make_unique<nn::Linear>(2 * d, d, rng);
  RegisterModule("entity_rgcn", entity_rgcn_.get());
  RegisterModule("relation_rgcn", relation_rgcn_.get());
  RegisterModule("entity_gru", entity_gru_.get());
  RegisterModule("relation_gru", relation_gru_.get());
  RegisterModule("relation_lstm", relation_lstm_.get());
  RegisterModule("hyper_lstm", hyper_lstm_.get());
  RegisterModule("mp_proj", mp_proj_.get());

  entity_decoder_ = std::make_unique<ConvTransEDecoder>(
      d, config.conv_kernels, config.conv_kernel_size, config.dropout, rng);
  relation_decoder_ = std::make_unique<ConvTransEDecoder>(
      d, config.conv_kernels, config.conv_kernel_size, config.dropout, rng);
  RegisterModule("entity_decoder", entity_decoder_.get());
  RegisterModule("relation_decoder", relation_decoder_.get());
}

void RetiaModel::SetEntityTypes(const std::vector<int64_t>& types,
                                int64_t num_types) {
  InstallEntityTypes(types, num_types, &rng_);
}

void RetiaModel::InstallEntityTypes(const std::vector<int64_t>& types,
                                    int64_t num_types, util::Rng* init_rng) {
  RETIA_CHECK_MSG(config_.use_static_constraint,
                  "enable config.use_static_constraint first");
  RETIA_CHECK_EQ(static_cast<int64_t>(types.size()), config_.num_entities);
  RETIA_CHECK(num_types > 0);
  for (int64_t t : types) RETIA_CHECK_LT(t, num_types);
  entity_types_ = types;
  num_static_types_ = num_types;
  static_type_init_ =
      std::make_unique<nn::Embedding>(num_types, config_.dim, init_rng);
  RegisterModule("static_type_init", static_type_init_.get());
}

std::unique_ptr<RetiaModel> RetiaModel::Clone() const {
  std::unique_ptr<RetiaModel> clone(
      new RetiaModel(config_, /*draw_init=*/false));
  if (has_entity_types()) {
    clone->InstallEntityTypes(entity_types_, num_static_types_,
                              /*init_rng=*/nullptr);
  }
  const auto src = NamedParameters();
  auto dst = clone->NamedParameters();
  RETIA_CHECK_EQ(src.size(), dst.size());
  for (size_t i = 0; i < src.size(); ++i) {
    RETIA_CHECK_MSG(src[i].first == dst[i].first,
                    "clone parameter order mismatch at '" << src[i].first
                                                          << "'");
    CopyValues(src[i].second, dst[i].second);
  }
  // Constants outside the parameter list.
  CopyValues(frozen_entities_, clone->frozen_entities_);
  CopyValues(frozen_relations_, clone->frozen_relations_);
  CopyValues(eam_static_relations_, clone->eam_static_relations_);
  clone->SetTraining(training());
  return clone;
}

std::vector<RetiaModel::StepState> RetiaModel::Evolve(
    graph::GraphCache& cache, const std::vector<int64_t>& history) {
  const Tensor e0 =
      config_.use_eam ? entity_init_->table() : frozen_entities_;
  const Tensor r0 =
      config_.use_ram ? relation_init_->table() : frozen_relations_;
  const Tensor hr0 = hyper_init_->table();

  Tensor e_prev = e0;
  Tensor r_prev = r0;
  Tensor hr_prev = hr0;
  Tensor lstm_cell;   // C_{t-1}, lazily set to R_Mean^0 (Eq. 8)
  Tensor hlstm_cell;  // HC_{t-1}, lazily set to HR_Mean^0 (Eq. 10)

  std::vector<StepState> states;
  if (history.empty()) {
    states.push_back({e0, r0});
    return states;
  }
  states.reserve(history.size());

  const bool run_ram = config_.use_ram &&
                       config_.relation_mode == RelationMode::kMpLstmAgg;

  // The snapshots (and twin hyperrelation subgraphs, Algorithm 1) of the
  // history depend on the dataset alone, so they build in parallel up
  // front. The loop below is the recurrence of Eqs. 2-10 (step t needs
  // E_{t-1}, R_{t-1}, HR_{t-1}) and runs in program order on the caller,
  // so the training RNG stream and the autograd tape advance exactly as
  // in a single-threaded run.
  cache.Prefetch(history, /*hypergraphs=*/run_ram);
  for (int64_t t : history) {
    const graph::Subgraph& g = cache.subgraph(t);
    g.CheckEntityRows(e_prev.Dim(0));
    const graph::HyperSubgraph* hg = run_ram ? &cache.hypergraph(t) : nullptr;

    // ---- TIM: the relation input R_t^in and the hyperrelations HR_t -----
    Tensor r_input;  // relation embeddings fed to the RAM / decoder
    Tensor hr_t;     // hyperrelation embeddings delivered to the RAM
    {
      RETIA_OBS_TRACE_SPAN("core.evolve.tim");
      if (!config_.use_ram) {
        // Table VI "wo. RAM": relations stay at their initial embeddings.
        r_input = r0;
      } else if (config_.relation_mode == RelationMode::kNone) {
        // Fig. 6/7 "wo. RM": raw initial embeddings, no modeling.
        r_input = r0;
      } else if (!config_.use_tim) {
        // Table IX / Fig. 3-4 "wo. TIM": no communication from the EAM;
        // the relation pipeline evolves on its own previous output.
        r_input = r_prev;
      } else {
        // Eq. 7: R_Mean^t = [R_0 ; MP(E_{t-1}, E_r^t)].
        Tensor r_mean = tensor::ConcatCols(
            r0, tensor::AggregateRows(e_prev, g.relation_pooling()));
        if (config_.relation_mode == RelationMode::kMp) {
          // Fig. 6/7 "w. MP": no LSTM evolution; a learned projection
          // brings the 2d-wide pooled features back to width d.
          r_input = mp_proj_->Forward(r_mean);
        } else {
          // Eq. 8, with C_0 = R_Mean^0.
          if (!lstm_cell.defined()) lstm_cell = r_mean;
          nn::ProjectedLstmCell::State state =
              relation_lstm_->Forward(r_mean, {r_prev, lstm_cell});
          r_input = state.h;
          lstm_cell = state.c;
        }
      }
      if (run_ram) {
        // Hyperrelation embeddings delivered to the RAM (Fig. 5).
        if (!config_.use_tim || config_.hyper_mode == HyperMode::kNone) {
          hr_t = hr0;
        } else if (config_.hyper_mode == HyperMode::kHmp) {
          // "w. HMP": hyperrelation representations replaced by the mean
          // of the immediately adjacent relation embeddings.
          hr_t = tensor::AggregateRows(r_input, hg->hyperrelation_pooling());
        } else {
          // Eq. 9/10, with HC_0 = HR_Mean^0.
          Tensor hr_mean = tensor::ConcatCols(
              hr0, tensor::AggregateRows(r_input, hg->hyperrelation_pooling()));
          if (!hlstm_cell.defined()) hlstm_cell = hr_mean;
          nn::ProjectedLstmCell::State state =
              hyper_lstm_->Forward(hr_mean, {hr_prev, hlstm_cell});
          hr_t = state.h;
          hlstm_cell = state.c;
        }
        hr_prev = hr_t;
      }
    }

    // ---- RAM: produce R_t --------------------------------------------------
    Tensor r_t = r_input;
    if (run_ram) {
      RETIA_OBS_TRACE_SPAN("core.evolve.ram");
      // Eq. 2 + Eq. 3: aggregate in the twin hyperrelation subgraph, then
      // gate against the input through the R-GRU.
      Tensor r_agg = relation_rgcn_->Forward(r_input, hr_t, *hg, &rng_);
      r_t = relation_gru_->Forward(r_agg, r_input);
    }

    // ---- EAM: produce E_t ------------------------------------------------
    Tensor e_t = e_prev;
    if (config_.use_eam) {
      RETIA_OBS_TRACE_SPAN("core.evolve.eam");
      // Table IX "wo. TIM" severs the channel from the RAM: the EAM sees
      // its own private static relation embeddings.
      const Tensor& eam_rel = config_.use_tim ? r_t : eam_static_relations_;
      // Eq. 5 + Eq. 6.
      Tensor e_agg = entity_rgcn_->Forward(e_prev, eam_rel, g, &rng_);
      e_t = entity_gru_->Forward(e_agg, e_prev);
    }

    states.push_back({e_t, r_t});
    e_prev = e_t;
    r_prev = r_t;
  }
  return states;
}

RetiaModel::LossParts RetiaModel::ComputeLoss(
    const std::vector<StepState>& states,
    const std::vector<tkg::Quadruple>& facts) {
  LossParts parts = JointLoss(states, facts, config_.num_relations,
                              config_.lambda_entity);

  // Static-graph constraint (RE-GCN): at evolution step i the angle between
  // the evolved entity embeddings and the static per-type embeddings may
  // open by at most (i+1) * static_angle_step_deg.
  if (config_.use_static_constraint && static_type_init_ != nullptr) {
    Tensor static_rows = static_type_init_->Forward(entity_types_);
    Tensor static_total;
    for (size_t i = 0; i < states.size(); ++i) {
      const float angle_deg = std::min(
          90.0f, static_cast<float>(i + 1) * config_.static_angle_step_deg);
      const float min_cos =
          std::cos(angle_deg * 3.14159265f / 180.0f);
      Tensor step = tensor::CosineHingeLoss(states[i].entities, static_rows,
                                            min_cos);
      static_total =
          static_total.defined() ? tensor::Add(static_total, step) : step;
    }
    static_total = tensor::Scale(
        static_total, config_.static_weight /
                          static_cast<float>(states.size()));
    parts.joint = tensor::Add(parts.joint, static_total);
  }
  return parts;
}

Tensor RetiaModel::ScoreObjects(
    const std::vector<StepState>& states,
    const std::vector<std::pair<int64_t, int64_t>>& queries) {
  return DecodeObjects(*entity_decoder_, states,
                       config_.time_variability_decode, queries, &rng_);
}

Tensor RetiaModel::ScoreRelations(
    const std::vector<StepState>& states,
    const std::vector<std::pair<int64_t, int64_t>>& queries) {
  return DecodeRelations(*relation_decoder_, states,
                         config_.time_variability_decode,
                         config_.num_relations, queries, &rng_);
}

Tensor RetiaModel::ScoreObjectsFrozen(
    const std::vector<StepState>& states,
    const std::vector<std::pair<int64_t, int64_t>>& queries) const {
  RETIA_CHECK_MSG(!training(),
                  "frozen scoring requires eval mode (SetTraining(false))");
  return DecodeObjects(*entity_decoder_, states,
                       config_.time_variability_decode, queries, nullptr);
}

Tensor RetiaModel::ScoreRelationsFrozen(
    const std::vector<StepState>& states,
    const std::vector<std::pair<int64_t, int64_t>>& queries) const {
  RETIA_CHECK_MSG(!training(),
                  "frozen scoring requires eval mode (SetTraining(false))");
  return DecodeRelations(*relation_decoder_, states,
                         config_.time_variability_decode,
                         config_.num_relations, queries, nullptr);
}

Tensor RetiaModel::ScoreObjectsFrozenQuantized(
    const std::vector<StepState>& states,
    const std::vector<quant::QuantizedRows>& qcands,
    const std::vector<std::pair<int64_t, int64_t>>& queries) const {
  RETIA_CHECK_MSG(!training(),
                  "frozen scoring requires eval mode (SetTraining(false))");
  RETIA_CHECK_EQ(states.size(), qcands.size());
  RETIA_OBS_COUNTER_ADD("quant.decode.batches", 1);
  std::vector<int64_t> subj_idx;
  std::vector<int64_t> rel_idx;
  subj_idx.reserve(queries.size());
  rel_idx.reserve(queries.size());
  for (const auto& [s, r] : queries) {
    subj_idx.push_back(s);
    rel_idx.push_back(r);
  }
  const auto decode = [&](size_t i) {
    const StepState& st = states[i];
    Tensor s_emb = tensor::GatherRows(st.entities, subj_idx);
    Tensor r_emb = tensor::GatherRows(st.relations, rel_idx);
    Tensor logits =
        entity_decoder_->ForwardQuantized(s_emb, r_emb, qcands[i], nullptr);
    return tensor::Softmax(logits);
  };
  return SumStateDecodes(*entity_decoder_, states.size(),
                         config_.time_variability_decode, decode);
}

}  // namespace retia::core
