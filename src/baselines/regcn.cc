#include "baselines/regcn.h"

#include "tensor/ops.h"

namespace retia::baselines {

using tensor::Tensor;

RegcnModel::RegcnModel(const RegcnConfig& config)
    : config_(config), rng_(config.seed) {
  RETIA_CHECK(config.num_entities > 0);
  RETIA_CHECK(config.num_relations > 0);
  const int64_t d = config.dim;
  const int64_t rel_aug = 2 * config.num_relations;
  entity_init_ =
      std::make_unique<nn::Embedding>(config.num_entities, d, &rng_);
  relation_init_ = std::make_unique<nn::Embedding>(rel_aug, d, &rng_);
  entity_rgcn_ = std::make_unique<core::EntityRgcnStack>(
      d, rel_aug, config.num_bases, config.rgcn_layers, config.dropout,
      &rng_);
  entity_gru_ = std::make_unique<nn::GruCell>(d, d, &rng_);
  relation_gru_ = std::make_unique<nn::GruCell>(2 * d, d, &rng_);
  entity_decoder_ = std::make_unique<core::ConvTransEDecoder>(
      d, config.conv_kernels, 3, config.dropout, &rng_);
  relation_decoder_ = std::make_unique<core::ConvTransEDecoder>(
      d, config.conv_kernels, 3, config.dropout, &rng_);
  RegisterModule("entity_init", entity_init_.get());
  RegisterModule("relation_init", relation_init_.get());
  RegisterModule("entity_rgcn", entity_rgcn_.get());
  RegisterModule("entity_gru", entity_gru_.get());
  RegisterModule("relation_gru", relation_gru_.get());
  RegisterModule("entity_decoder", entity_decoder_.get());
  RegisterModule("relation_decoder", relation_decoder_.get());
}

std::vector<core::EvolutionModel::StepState> RegcnModel::Evolve(
    graph::GraphCache& cache, const std::vector<int64_t>& history) {
  const Tensor e0 = entity_init_->table();
  const Tensor r0 = relation_init_->table();
  std::vector<StepState> states;
  if (history.empty()) {
    states.push_back({e0, r0});
    return states;
  }
  Tensor e_prev = e0;
  Tensor r_prev = r0;
  for (int64_t t : history) {
    const graph::Subgraph& g = cache.subgraph(t);
    g.CheckEntityRows(e_prev.Dim(0));
    Tensor r_t = r_prev;
    if (config_.evolve_relations) {
      // RE-GCN relation evolution: r_t = GRU([R_0 ; MP(E_{t-1})], r_{t-1}).
      Tensor r_mean = tensor::ConcatCols(
          r0, tensor::AggregateRows(e_prev, g.relation_pooling()));
      r_t = relation_gru_->Forward(r_mean, r_prev);
    }
    Tensor e_agg = entity_rgcn_->Forward(e_prev, r_t, g, &rng_);
    Tensor e_t = entity_gru_->Forward(e_agg, e_prev);
    states.push_back({e_t, r_t});
    e_prev = e_t;
    r_prev = r_t;
  }
  return states;
}

core::EvolutionModel::LossParts RegcnModel::ComputeLoss(
    const std::vector<StepState>& states,
    const std::vector<tkg::Quadruple>& facts) {
  RETIA_CHECK(!states.empty());
  const int64_t m = config_.num_relations;
  std::vector<std::pair<int64_t, int64_t>> entity_queries;
  std::vector<int64_t> entity_targets;
  for (const tkg::Quadruple& q : facts) {
    entity_queries.emplace_back(q.subject, q.relation);
    entity_targets.push_back(q.object);
    entity_queries.emplace_back(q.object, q.relation + m);
    entity_targets.push_back(q.subject);
  }
  Tensor loss_e =
      tensor::NllFromProbs(ScoreObjects(states, entity_queries), entity_targets);
  std::vector<std::pair<int64_t, int64_t>> relation_queries;
  std::vector<int64_t> relation_targets;
  for (const tkg::Quadruple& q : facts) {
    relation_queries.emplace_back(q.subject, q.object);
    relation_targets.push_back(q.relation);
  }
  Tensor loss_r = tensor::NllFromProbs(ScoreRelations(states, relation_queries),
                                       relation_targets);
  LossParts parts;
  parts.entity_loss = loss_e.Item();
  parts.relation_loss = loss_r.Item();
  parts.joint =
      tensor::Add(tensor::Scale(loss_e, config_.lambda_entity),
                  tensor::Scale(loss_r, 1.0f - config_.lambda_entity));
  return parts;
}

Tensor RegcnModel::ScoreObjects(
    const std::vector<StepState>& states,
    const std::vector<std::pair<int64_t, int64_t>>& queries) {
  RETIA_CHECK(!states.empty());
  std::vector<int64_t> s_idx;
  std::vector<int64_t> r_idx;
  for (const auto& [s, r] : queries) {
    s_idx.push_back(s);
    r_idx.push_back(r);
  }
  const size_t first =
      config_.time_variability_decode ? 0 : states.size() - 1;
  Tensor total;
  for (size_t i = first; i < states.size(); ++i) {
    const StepState& st = states[i];
    Tensor logits = entity_decoder_->Forward(
        tensor::GatherRows(st.entities, s_idx),
        tensor::GatherRows(st.relations, r_idx), st.entities, &rng_);
    Tensor p = tensor::Softmax(logits);
    total = total.defined() ? tensor::Add(total, p) : p;
  }
  return total;
}

Tensor RegcnModel::ScoreRelations(
    const std::vector<StepState>& states,
    const std::vector<std::pair<int64_t, int64_t>>& queries) {
  RETIA_CHECK(!states.empty());
  const int64_t m = config_.num_relations;
  std::vector<int64_t> s_idx;
  std::vector<int64_t> o_idx;
  for (const auto& [s, o] : queries) {
    s_idx.push_back(s);
    o_idx.push_back(o);
  }
  const size_t first =
      config_.time_variability_decode ? 0 : states.size() - 1;
  Tensor total;
  for (size_t i = first; i < states.size(); ++i) {
    const StepState& st = states[i];
    Tensor logits = relation_decoder_->Forward(
        tensor::GatherRows(st.entities, s_idx),
        tensor::GatherRows(st.entities, o_idx),
        tensor::SliceRows(st.relations, 0, m), &rng_);
    Tensor p = tensor::Softmax(logits);
    total = total.defined() ? tensor::Add(total, p) : p;
  }
  return total;
}

}  // namespace retia::baselines
