#ifndef RETIA_CORE_EVOLUTION_MODEL_H_
#define RETIA_CORE_EVOLUTION_MODEL_H_

#include <utility>
#include <vector>

#include "graph/graph_cache.h"
#include "nn/module.h"
#include "tensor/tensor.h"
#include "tkg/dataset.h"
#include "util/rng.h"

namespace retia::core {

// Common interface of "evolutional representation" extrapolation models
// (RETIA and the RE-GCN family): unroll embeddings over a history of
// temporal subgraphs, then decode entity/relation queries against the
// evolved embeddings. The shared trainer and evaluator work against this
// interface.
class EvolutionModel : public nn::Module {
 public:
  // Evolved embeddings after one history timestamp.
  struct StepState {
    tensor::Tensor entities;   // [N, d]
    tensor::Tensor relations;  // [2M, d]
  };

  struct LossParts {
    tensor::Tensor joint;  // scalar loss to backpropagate
    float entity_loss = 0.0f;
    float relation_loss = 0.0f;
  };

  ~EvolutionModel() override = default;

  // Unrolls over `history` (ascending timestamps). An empty history must
  // yield one state holding the initial embeddings. The unroll is a
  // recurrence, so implementations evolve in program order; only the
  // snapshot builds may run ahead in parallel (GraphCache::Prefetch).
  virtual std::vector<StepState> Evolve(
      graph::GraphCache& cache, const std::vector<int64_t>& history) = 0;

  // Joint loss for the facts of one future timestamp.
  virtual LossParts ComputeLoss(const std::vector<StepState>& states,
                                const std::vector<tkg::Quadruple>& facts) = 0;

  // Probabilities for object queries (s, r), r in [0, 2M) -> [B, N].
  virtual tensor::Tensor ScoreObjects(
      const std::vector<StepState>& states,
      const std::vector<std::pair<int64_t, int64_t>>& queries) = 0;

  // Probabilities for relation queries (s, o) -> [B, M].
  virtual tensor::Tensor ScoreRelations(
      const std::vector<StepState>& states,
      const std::vector<std::pair<int64_t, int64_t>>& queries) = 0;

  // Length k of the history window the model was configured for.
  virtual int64_t history_len() const = 0;

  // The RNG stream the model consumes during training (dropout etc.), or
  // nullptr for RNG-free models. train::Trainer persists and restores it
  // through retia::ckpt so a resumed run replays the exact dropout masks
  // an uninterrupted run would have drawn.
  virtual util::Rng* MutableRng() { return nullptr; }
};

}  // namespace retia::core

#endif  // RETIA_CORE_EVOLUTION_MODEL_H_
