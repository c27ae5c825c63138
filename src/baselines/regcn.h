#ifndef RETIA_BASELINES_REGCN_H_
#define RETIA_BASELINES_REGCN_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/decoder.h"
#include "core/evolution_model.h"
#include "core/rgcn.h"
#include "nn/linear.h"
#include "nn/rnn_cells.h"
#include "util/rng.h"

namespace retia::baselines {

struct RegcnConfig {
  int64_t num_entities = 0;
  int64_t num_relations = 0;
  int64_t dim = 32;
  int64_t history_len = 3;
  int64_t rgcn_layers = 2;
  int64_t num_bases = 2;
  int64_t conv_kernels = 16;
  float dropout = 0.2f;
  float lambda_entity = 0.7f;
  // RE-GCN evolves relation embeddings via mean pooling + GRU; RGCRN keeps
  // them static (it only evolves entity embeddings).
  bool evolve_relations = true;
  // CEN-style multi-history decoding: sum decoder probabilities over every
  // history step instead of only the last.
  bool time_variability_decode = false;
  uint64_t seed = 23;
};

// RE-GCN (Li et al. 2021): the direct ancestor of RETIA and the key
// extrapolation baseline. Entities evolve through an entity-aggregating
// R-GCN + GRU; relations evolve through mean-pooled adjacent entities + a
// GRU (the "w. MP + GRU" level the paper identifies as suffering from the
// "message islands" problem — no relation-to-relation aggregation).
//
// Two paper baselines are configurations of this class:
//  * RGCRN: evolve_relations = false (GCN + GRU over entities only).
//  * CEN:   time_variability_decode = true and online evaluation, i.e.
//           RE-GCN + the online multi-length ensemble of CEN.
class RegcnModel : public core::EvolutionModel {
 public:
  explicit RegcnModel(const RegcnConfig& config);

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

  const RegcnConfig& config() const { return config_; }

 private:
  RegcnConfig config_;
  util::Rng rng_;
  std::unique_ptr<nn::Embedding> entity_init_;
  std::unique_ptr<nn::Embedding> relation_init_;
  std::unique_ptr<core::EntityRgcnStack> entity_rgcn_;
  std::unique_ptr<nn::GruCell> entity_gru_;
  std::unique_ptr<nn::GruCell> relation_gru_;  // input 2d, hidden d
  std::unique_ptr<core::ConvTransEDecoder> entity_decoder_;
  std::unique_ptr<core::ConvTransEDecoder> relation_decoder_;
};

}  // namespace retia::baselines

#endif  // RETIA_BASELINES_REGCN_H_
