#include "baselines/renet.h"

#include "tensor/ops.h"

namespace retia::baselines {

using tensor::Tensor;

RenetModel::RenetModel(const RenetConfig& config)
    : config_(config), rng_(config.seed) {
  RETIA_CHECK(config.num_entities > 0);
  RETIA_CHECK(config.num_relations > 0);
  const int64_t d = config.dim;
  entity_init_ =
      std::make_unique<nn::Embedding>(config.num_entities, d, &rng_);
  relation_init_ =
      std::make_unique<nn::Embedding>(2 * config.num_relations, d, &rng_);
  entity_gru_ = std::make_unique<nn::GruCell>(d, d, &rng_);
  entity_head_ = std::make_unique<nn::Linear>(2 * d, d, &rng_);
  relation_head_ = std::make_unique<nn::Linear>(2 * d, d, &rng_);
  RegisterModule("entity_init", entity_init_.get());
  RegisterModule("relation_init", relation_init_.get());
  RegisterModule("entity_gru", entity_gru_.get());
  RegisterModule("entity_head", entity_head_.get());
  RegisterModule("relation_head", relation_head_.get());
}

Tensor RenetModel::NeighborSummary(const Tensor& entities,
                                   const graph::Subgraph& g) const {
  g.CheckEntityRows(entities.Dim(0));
  // Every edge (s, r, o) deposits e_s into o's summary (inverse edges give
  // the other direction); per-entity means via in-degree normalisation.
  const int64_t n = g.num_entities();
  std::vector<int64_t> degree(n, 0);
  for (int64_t e = 0; e < g.num_edges(); ++e) ++degree[g.dst()[e]];
  std::vector<float> weights(g.num_edges());
  for (int64_t e = 0; e < g.num_edges(); ++e) {
    weights[e] = 1.0f / static_cast<float>(degree[g.dst()[e]]);
  }
  return tensor::AggregateRows(
      entities,
      tensor::MakeRowAggregation(n, 1, n, g.dst(), g.src(), weights));
}

std::vector<core::EvolutionModel::StepState> RenetModel::Evolve(
    graph::GraphCache& cache, const std::vector<int64_t>& history) {
  const Tensor e0 = entity_init_->table();
  const Tensor r0 = relation_init_->table();
  std::vector<StepState> states;
  if (history.empty()) {
    states.push_back({e0, r0});
    return states;
  }
  Tensor e_prev = e0;
  for (int64_t t : history) {
    const graph::Subgraph& g = cache.subgraph(t);
    Tensor summary = NeighborSummary(e_prev, g);
    Tensor e_t = entity_gru_->Forward(summary, e_prev);
    states.push_back({e_t, r0});  // relations stay static
    e_prev = e_t;
  }
  return states;
}

Tensor RenetModel::ScoreObjects(
    const std::vector<StepState>& states,
    const std::vector<std::pair<int64_t, int64_t>>& queries) {
  RETIA_CHECK(!states.empty());
  const StepState& st = states.back();
  std::vector<int64_t> s_idx;
  std::vector<int64_t> r_idx;
  for (const auto& [s, r] : queries) {
    s_idx.push_back(s);
    r_idx.push_back(r);
  }
  Tensor feat = tensor::Relu(entity_head_->Forward(
      tensor::ConcatCols(tensor::GatherRows(st.entities, s_idx),
                         tensor::GatherRows(st.relations, r_idx))));
  feat = tensor::Dropout(feat, config_.dropout, training(), &rng_);
  return tensor::Softmax(tensor::MatMulTransposeB(feat, st.entities));
}

Tensor RenetModel::ScoreRelations(
    const std::vector<StepState>& states,
    const std::vector<std::pair<int64_t, int64_t>>& queries) {
  RETIA_CHECK(!states.empty());
  const StepState& st = states.back();
  const int64_t m = config_.num_relations;
  std::vector<int64_t> s_idx;
  std::vector<int64_t> o_idx;
  for (const auto& [s, o] : queries) {
    s_idx.push_back(s);
    o_idx.push_back(o);
  }
  Tensor feat = tensor::Relu(relation_head_->Forward(
      tensor::ConcatCols(tensor::GatherRows(st.entities, s_idx),
                         tensor::GatherRows(st.entities, o_idx))));
  feat = tensor::Dropout(feat, config_.dropout, training(), &rng_);
  return tensor::Softmax(tensor::MatMulTransposeB(
      feat, tensor::SliceRows(st.relations, 0, m)));
}

}  // namespace retia::baselines
