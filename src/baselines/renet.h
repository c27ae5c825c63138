#ifndef RETIA_BASELINES_RENET_H_
#define RETIA_BASELINES_RENET_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/evolution_model.h"
#include "nn/linear.h"
#include "nn/rnn_cells.h"
#include "util/rng.h"

namespace retia::baselines {

struct RenetConfig {
  int64_t num_entities = 0;
  int64_t num_relations = 0;
  int64_t dim = 32;
  int64_t history_len = 3;
  float dropout = 0.2f;
  float lambda_entity = 0.7f;
  uint64_t seed = 29;
};

// RE-NET-lite (Jin et al. 2020): autoregressive neighbourhood encoding
// without structural graph convolution. For each historical timestamp a
// *global* per-entity neighbourhood summary is computed (the mean of the
// embeddings of the entities each entity interacted with at that
// timestamp), and a GRU evolves each entity's representation over those
// summaries. Relations keep static learned embeddings (RE-NET does not
// model relation evolution — the gap the paper highlights). Decoding is an
// MLP over [s; r] against all candidates, as in the original's aggregate
// mode.
//
// This captures RE-NET's defining trait the paper leans on in Sec. IV-B1:
// it conditions on each entity's own interaction history but "does not
// aggregate the neighborhood information of entities" structurally
// (no R-GCN), and it has no relation modeling.
class RenetModel : public core::EvolutionModel {
 public:
  explicit RenetModel(const RenetConfig& config);

  std::vector<StepState> Evolve(graph::GraphCache& cache,
                                const std::vector<int64_t>& history) override;

  LossParts ComputeLoss(const std::vector<StepState>& states,
                        const std::vector<tkg::Quadruple>& facts) override {
    return JointLoss(states, facts, config_.num_relations,
                     config_.lambda_entity);
  }

  tensor::Tensor ScoreObjects(
      const std::vector<StepState>& states,
      const std::vector<std::pair<int64_t, int64_t>>& queries) override;

  tensor::Tensor ScoreRelations(
      const std::vector<StepState>& states,
      const std::vector<std::pair<int64_t, int64_t>>& queries) override;

  int64_t history_len() const override { return config_.history_len; }
  util::Rng* MutableRng() override { return &rng_; }

 private:
  // Mean embedding of each entity's interaction partners at one timestamp
  // (zero row for inactive entities).
  tensor::Tensor NeighborSummary(const tensor::Tensor& entities,
                                 const graph::Subgraph& g) const;

  RenetConfig config_;
  util::Rng rng_;
  std::unique_ptr<nn::Embedding> entity_init_;
  std::unique_ptr<nn::Embedding> relation_init_;  // 2M rows, static
  std::unique_ptr<nn::GruCell> entity_gru_;       // input: summary, state: e
  std::unique_ptr<nn::Linear> entity_head_;       // [s; r] -> d
  std::unique_ptr<nn::Linear> relation_head_;     // [s; o] -> d
};

}  // namespace retia::baselines

#endif  // RETIA_BASELINES_RENET_H_
