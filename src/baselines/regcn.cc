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

Tensor RegcnModel::ScoreObjects(
    const std::vector<StepState>& states,
    const std::vector<std::pair<int64_t, int64_t>>& queries) {
  return core::DecodeObjects(*entity_decoder_, states,
                             config_.time_variability_decode, queries, &rng_);
}

Tensor RegcnModel::ScoreRelations(
    const std::vector<StepState>& states,
    const std::vector<std::pair<int64_t, int64_t>>& queries) {
  return core::DecodeRelations(*relation_decoder_, states,
                               config_.time_variability_decode,
                               config_.num_relations, queries, &rng_);
}

}  // namespace retia::baselines
