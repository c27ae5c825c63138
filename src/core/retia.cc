#include "core/retia.h"

#include <cmath>
#include <utility>

#include "nn/init.h"
#include "obs/obs.h"
#include "par/parallel_for.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace retia::core {

using tensor::Tensor;

RetiaModel::RetiaModel(const RetiaConfig& config)
    : config_(config), rng_(config.seed) {
  RETIA_CHECK(config.num_entities > 0);
  RETIA_CHECK(config.num_relations > 0);
  const int64_t d = config.dim;
  const int64_t rel_aug = 2 * config.num_relations;

  entity_init_ =
      std::make_unique<nn::Embedding>(config.num_entities, d, &rng_);
  relation_init_ = std::make_unique<nn::Embedding>(rel_aug, d, &rng_);
  hyper_init_ = std::make_unique<nn::Embedding>(
      graph::kNumHyperRelationsAug, d, &rng_);
  RegisterModule("entity_init", entity_init_.get());
  RegisterModule("relation_init", relation_init_.get());
  RegisterModule("hyper_init", hyper_init_.get());
  // Ablation protocol (Sec. IV-C / IV-D1): the ablated side keeps its
  // *randomly initialized* embeddings "unchanged", i.e. frozen constants,
  // not trainable parameters.
  if (!config.use_eam) {
    frozen_entities_ = nn::XavierUniform({config.num_entities, d}, &rng_);
  }
  if (!config.use_ram) {
    frozen_relations_ = nn::XavierUniform({rel_aug, d}, &rng_);
  }
  if (!config.use_tim) {
    // The EAM's private relation embeddings when the TIM channel is cut:
    // "two different and inconsistent individuals".
    eam_static_relations_ = nn::XavierUniform({rel_aug, d}, &rng_);
  }

  entity_rgcn_ = std::make_unique<EntityRgcnStack>(
      d, rel_aug, config.num_bases, config.rgcn_layers, config.dropout, &rng_);
  relation_rgcn_ = std::make_unique<RelationRgcnStack>(
      d, config.rgcn_layers, config.dropout, &rng_);
  entity_gru_ = std::make_unique<nn::GruCell>(d, d, &rng_);
  relation_gru_ = std::make_unique<nn::GruCell>(d, d, &rng_);
  relation_lstm_ = std::make_unique<nn::ProjectedLstmCell>(
      /*input_size=*/2 * d, /*hidden_size=*/d, /*cell_size=*/2 * d, &rng_);
  hyper_lstm_ = std::make_unique<nn::ProjectedLstmCell>(
      /*input_size=*/2 * d, /*hidden_size=*/d, /*cell_size=*/2 * d, &rng_);
  mp_proj_ = std::make_unique<nn::Linear>(2 * d, d, &rng_);
  RegisterModule("entity_rgcn", entity_rgcn_.get());
  RegisterModule("relation_rgcn", relation_rgcn_.get());
  RegisterModule("entity_gru", entity_gru_.get());
  RegisterModule("relation_gru", relation_gru_.get());
  RegisterModule("relation_lstm", relation_lstm_.get());
  RegisterModule("hyper_lstm", hyper_lstm_.get());
  RegisterModule("mp_proj", mp_proj_.get());

  entity_decoder_ = std::make_unique<ConvTransEDecoder>(
      d, config.conv_kernels, config.conv_kernel_size, config.dropout, &rng_);
  relation_decoder_ = std::make_unique<ConvTransEDecoder>(
      d, config.conv_kernels, config.conv_kernel_size, config.dropout, &rng_);
  RegisterModule("entity_decoder", entity_decoder_.get());
  RegisterModule("relation_decoder", relation_decoder_.get());
}

void RetiaModel::SetEntityTypes(const std::vector<int64_t>& types,
                                int64_t num_types) {
  RETIA_CHECK_MSG(config_.use_static_constraint,
                  "enable config.use_static_constraint first");
  RETIA_CHECK_EQ(static_cast<int64_t>(types.size()), config_.num_entities);
  RETIA_CHECK(num_types > 0);
  for (int64_t t : types) RETIA_CHECK_LT(t, num_types);
  entity_types_ = types;
  num_static_types_ = num_types;
  static_type_init_ =
      std::make_unique<nn::Embedding>(num_types, config_.dim, &rng_);
  RegisterModule("static_type_init", static_type_init_.get());
}

RetiaModel::PoolPlan RetiaModel::EntityPoolPlan(const graph::Subgraph& g,
                                                int64_t rel_aug) {
  PoolPlan plan;
  plan.dst_rows = rel_aug;
  for (int64_t r : g.active_relations()) {
    const auto& ents = g.relation_entities()[r];
    const float w = 1.0f / static_cast<float>(ents.size());
    for (int64_t e : ents) {
      plan.src_idx.push_back(e);
      plan.dst_idx.push_back(r);
      plan.weights.push_back(w);
    }
  }
  return plan;
}

RetiaModel::PoolPlan RetiaModel::HyperPoolPlan(const graph::HyperSubgraph& hg) {
  PoolPlan plan;
  plan.dst_rows = graph::kNumHyperRelationsAug;
  for (int64_t hr = 0; hr < graph::kNumHyperRelationsAug; ++hr) {
    const auto& rels = hg.hyperrelation_relations()[hr];
    if (rels.empty()) continue;
    const float w = 1.0f / static_cast<float>(rels.size());
    for (int64_t r : rels) {
      plan.src_idx.push_back(r);
      plan.dst_idx.push_back(hr);
      plan.weights.push_back(w);
    }
  }
  return plan;
}

Tensor RetiaModel::ApplyPoolPlan(const Tensor& table,
                                 const PoolPlan& plan) const {
  if (plan.src_idx.empty()) {
    return Tensor::Zeros({plan.dst_rows, config_.dim});
  }
  Tensor gathered =
      tensor::ScaleRows(tensor::GatherRows(table, plan.src_idx), plan.weights);
  return tensor::ScatterAddRows(gathered, plan.dst_idx, plan.dst_rows);
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
  const int64_t rel_aug = 2 * config_.num_relations;

  // The snapshots (and twin hyperrelation subgraphs, Algorithm 1) of the
  // history depend on the dataset alone, so they build in parallel up
  // front. The loop below is the recurrence of Eqs. 2-10 (step t needs
  // E_{t-1}, R_{t-1}, HR_{t-1}) and runs in program order on the caller,
  // so the training RNG stream and the autograd tape advance exactly as
  // in a single-threaded run.
  cache.Prefetch(history, /*hypergraphs=*/run_ram);
  for (int64_t t : history) {
    const graph::Subgraph& g = cache.subgraph(t);

    // ---- TIM + RAM: produce R_t ----------------------------------------
    Tensor r_input;  // relation embeddings fed to the RAM / decoder
    if (!config_.use_ram) {
      // Table VI "wo. RAM": relations stay at their initial embeddings.
      r_input = r0;
    } else if (config_.relation_mode == RelationMode::kNone) {
      // Fig. 6/7 "wo. RM": raw initial embeddings, no modeling.
      r_input = r0;
    } else if (!config_.use_tim) {
      // Table IX / Fig. 3-4 "wo. TIM": no communication from the EAM; the
      // relation pipeline evolves on its own previous output.
      r_input = r_prev;
    } else {
      // Eq. 7: R_Mean^t = [R_0 ; MP(E_{t-1}, E_r^t)].
      Tensor pooled = ApplyPoolPlan(e_prev, EntityPoolPlan(g, rel_aug));
      Tensor r_mean = tensor::ConcatCols(r0, pooled);
      if (config_.relation_mode == RelationMode::kMp) {
        // Fig. 6/7 "w. MP": no LSTM evolution; a learned projection brings
        // the 2d-wide pooled features back to width d.
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

    Tensor r_t = r_input;
    if (run_ram) {
      const graph::HyperSubgraph& hg = cache.hypergraph(t);
      // Hyperrelation embeddings delivered to the RAM (Fig. 5).
      Tensor hr_t;
      if (!config_.use_tim || config_.hyper_mode == HyperMode::kNone) {
        hr_t = hr0;
      } else if (config_.hyper_mode == HyperMode::kHmp) {
        // "w. HMP": hyperrelation representations replaced by the mean of
        // the immediately adjacent relation embeddings.
        hr_t = ApplyPoolPlan(r_input, HyperPoolPlan(hg));
      } else {
        // Eq. 9/10, with HC_0 = HR_Mean^0.
        Tensor hr_mean =
            tensor::ConcatCols(hr0, ApplyPoolPlan(r_input, HyperPoolPlan(hg)));
        if (!hlstm_cell.defined()) hlstm_cell = hr_mean;
        nn::ProjectedLstmCell::State state =
            hyper_lstm_->Forward(hr_mean, {hr_prev, hlstm_cell});
        hr_t = state.h;
        hlstm_cell = state.c;
      }
      hr_prev = hr_t;
      // Eq. 2 + Eq. 3: aggregate in the twin hyperrelation subgraph, then
      // gate against the input through the R-GRU.
      Tensor r_agg = relation_rgcn_->Forward(r_input, hr_t, hg, &rng_);
      r_t = relation_gru_->Forward(r_agg, r_input);
    }

    // ---- EAM: produce E_t ------------------------------------------------
    Tensor e_t = e_prev;
    if (config_.use_eam) {
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
  RETIA_CHECK(!states.empty());
  RETIA_CHECK(!facts.empty());
  const int64_t m = config_.num_relations;

  // Entity task: object queries plus inverse subject queries (Sec. III-A).
  std::vector<std::pair<int64_t, int64_t>> entity_queries;
  std::vector<int64_t> entity_targets;
  entity_queries.reserve(facts.size() * 2);
  for (const tkg::Quadruple& q : facts) {
    entity_queries.emplace_back(q.subject, q.relation);
    entity_targets.push_back(q.object);
    entity_queries.emplace_back(q.object, q.relation + m);
    entity_targets.push_back(q.subject);
  }
  Tensor p_entity = ScoreObjects(states, entity_queries);
  Tensor loss_e = tensor::NllFromProbs(p_entity, entity_targets);

  // Relation task (Eq. 12/14).
  std::vector<std::pair<int64_t, int64_t>> relation_queries;
  std::vector<int64_t> relation_targets;
  relation_queries.reserve(facts.size());
  for (const tkg::Quadruple& q : facts) {
    relation_queries.emplace_back(q.subject, q.object);
    relation_targets.push_back(q.relation);
  }
  Tensor p_relation = ScoreRelations(states, relation_queries);
  Tensor loss_r = tensor::NllFromProbs(p_relation, relation_targets);

  LossParts parts;
  parts.entity_loss = loss_e.Item();
  parts.relation_loss = loss_r.Item();
  parts.joint = tensor::Add(tensor::Scale(loss_e, config_.lambda_entity),
                            tensor::Scale(loss_r, 1.0f - config_.lambda_entity));

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
  return ScoreObjectsImpl(states, queries, &rng_);
}

Tensor RetiaModel::ScoreRelations(
    const std::vector<StepState>& states,
    const std::vector<std::pair<int64_t, int64_t>>& queries) {
  return ScoreRelationsImpl(states, queries, &rng_);
}

Tensor RetiaModel::ScoreObjectsFrozen(
    const std::vector<StepState>& states,
    const std::vector<std::pair<int64_t, int64_t>>& queries) const {
  RETIA_CHECK_MSG(!training(),
                  "frozen scoring requires eval mode (SetTraining(false))");
  return ScoreObjectsImpl(states, queries, nullptr);
}

Tensor RetiaModel::ScoreRelationsFrozen(
    const std::vector<StepState>& states,
    const std::vector<std::pair<int64_t, int64_t>>& queries) const {
  RETIA_CHECK_MSG(!training(),
                  "frozen scoring requires eval mode (SetTraining(false))");
  return ScoreRelationsImpl(states, queries, nullptr);
}

Tensor RetiaModel::ScoreObjectsFrozenQuantized(
    const std::vector<StepState>& states,
    const std::vector<quant::QuantizedRows>& qcands,
    const std::vector<std::pair<int64_t, int64_t>>& queries) const {
  RETIA_CHECK_MSG(!training(),
                  "frozen scoring requires eval mode (SetTraining(false))");
  RETIA_CHECK(!states.empty());
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
  return SumStateDecodes(states.size(), [&](size_t i) {
    const StepState& st = states[i];
    Tensor s_emb = tensor::GatherRows(st.entities, subj_idx);
    Tensor r_emb = tensor::GatherRows(st.relations, rel_idx);
    Tensor logits =
        entity_decoder_->ForwardQuantized(s_emb, r_emb, qcands[i], nullptr);
    return tensor::Softmax(logits);
  });
}

Tensor RetiaModel::ScoreObjectsImpl(
    const std::vector<StepState>& states,
    const std::vector<std::pair<int64_t, int64_t>>& queries,
    util::Rng* rng) const {
  RETIA_CHECK(!states.empty());
  std::vector<int64_t> subj_idx;
  std::vector<int64_t> rel_idx;
  subj_idx.reserve(queries.size());
  rel_idx.reserve(queries.size());
  for (const auto& [s, r] : queries) {
    subj_idx.push_back(s);
    rel_idx.push_back(r);
  }
  return SumStateDecodes(states.size(), [&](size_t i) {
    const StepState& st = states[i];
    Tensor s_emb = tensor::GatherRows(st.entities, subj_idx);
    Tensor r_emb = tensor::GatherRows(st.relations, rel_idx);
    Tensor logits = entity_decoder_->Forward(s_emb, r_emb, st.entities, rng);
    return tensor::Softmax(logits);
  });
}

Tensor RetiaModel::ScoreRelationsImpl(
    const std::vector<StepState>& states,
    const std::vector<std::pair<int64_t, int64_t>>& queries,
    util::Rng* rng) const {
  RETIA_CHECK(!states.empty());
  const int64_t m = config_.num_relations;
  std::vector<int64_t> subj_idx;
  std::vector<int64_t> obj_idx;
  subj_idx.reserve(queries.size());
  obj_idx.reserve(queries.size());
  for (const auto& [s, o] : queries) {
    subj_idx.push_back(s);
    obj_idx.push_back(o);
  }
  return SumStateDecodes(states.size(), [&](size_t i) {
    const StepState& st = states[i];
    Tensor s_emb = tensor::GatherRows(st.entities, subj_idx);
    Tensor o_emb = tensor::GatherRows(st.entities, obj_idx);
    // Candidates are the M forward relations (the paper's p^r is
    // M-dimensional).
    Tensor candidates = tensor::SliceRows(st.relations, 0, m);
    Tensor logits = relation_decoder_->Forward(s_emb, o_emb, candidates, rng);
    return tensor::Softmax(logits);
  });
}

Tensor RetiaModel::SumStateDecodes(
    size_t num_states, const std::function<Tensor(size_t)>& decode) const {
  const size_t first =
      config_.time_variability_decode ? 0 : num_states - 1;
  const int64_t n = static_cast<int64_t>(num_states - first);
  // With no autograd tape to record and no RNG stream to keep ordered
  // (dropout is a pass-through outside training), the per-state decodes
  // are independent and fan out on the pool. The per-state math and the
  // state-order sum are those of the serial loop below, so the result is
  // bit-identical to it for every pool width.
  if (n > 1 && !training() && !tensor::GradModeEnabled()) {
    std::vector<Tensor> per_state(static_cast<size_t>(n));
    par::ParallelShards(n, [&](int64_t j) {
      tensor::NoGradGuard guard;  // grad mode is thread-local
      const size_t slot = static_cast<size_t>(j);
      per_state[slot] = decode(first + slot);
    });
    Tensor total = per_state[0];
    for (size_t j = 1; j < per_state.size(); ++j) {
      total = tensor::Add(total, per_state[j]);
    }
    return total;
  }
  Tensor total;
  for (size_t i = first; i < num_states; ++i) {
    Tensor p = decode(i);
    total = total.defined() ? tensor::Add(total, p) : p;
  }
  return total;
}

}  // namespace retia::core
