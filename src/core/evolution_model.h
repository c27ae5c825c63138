#ifndef RETIA_CORE_EVOLUTION_MODEL_H_
#define RETIA_CORE_EVOLUTION_MODEL_H_

#include <functional>
#include <utility>
#include <vector>

#include "graph/graph_cache.h"
#include "nn/module.h"
#include "tensor/tensor.h"
#include "tkg/dataset.h"
#include "util/rng.h"

namespace retia::core {

class ConvTransEDecoder;

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

 protected:
  // The joint training loss of Eqs. 13-14 over `num_relations` = M:
  // lambda_entity * NLL of ScoreObjects on the object queries (s, r) and
  // the inverse subject queries (o, r + M), plus (1 - lambda_entity) *
  // NLL of ScoreRelations on the relation queries (s, o).
  LossParts JointLoss(const std::vector<StepState>& states,
                      const std::vector<tkg::Quadruple>& facts,
                      int64_t num_relations, float lambda_entity);
};

// Sums decode(i), the softmax probabilities of state i, over the decoded
// states in state order: every state when `all_states` (the
// time-variability decode of Eqs. 13/14), else the last. With `decoder`
// in eval mode and no autograd tape, the per-state decodes are
// independent and run one per par::ParallelShards shard; otherwise the
// serial loop runs, so the tape and the RNG stream advance in state order
// (DESIGN.md §12). Both give the same bits.
tensor::Tensor SumStateDecodes(
    const nn::Module& decoder, size_t num_states, bool all_states,
    const std::function<tensor::Tensor(size_t)>& decode);

// Summed Conv-TransE probabilities for object queries (s, r), r in
// [0, 2M), against every entity of each decoded state -> [B, N] (Eqs. 11
// and 13). `rng` feeds dropout in training mode; eval callers may pass
// nullptr.
tensor::Tensor DecodeObjects(
    const ConvTransEDecoder& decoder,
    const std::vector<EvolutionModel::StepState>& states, bool all_states,
    const std::vector<std::pair<int64_t, int64_t>>& queries, util::Rng* rng);

// Summed Conv-TransE probabilities for relation queries (s, o) against
// the M forward relations of each decoded state -> [B, M] (Eqs. 12, 14).
tensor::Tensor DecodeRelations(
    const ConvTransEDecoder& decoder,
    const std::vector<EvolutionModel::StepState>& states, bool all_states,
    int64_t num_relations,
    const std::vector<std::pair<int64_t, int64_t>>& queries, util::Rng* rng);

}  // namespace retia::core

#endif  // RETIA_CORE_EVOLUTION_MODEL_H_
