#ifndef RETIA_BASELINES_TIRGN_H_
#define RETIA_BASELINES_TIRGN_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/regcn.h"
#include "core/evolution_model.h"
#include "tkg/dataset.h"

namespace retia::baselines {

struct TirgnConfig {
  RegcnConfig local;  // the local recurrent (RE-GCN style) component
  // Initial logit of the global-history gate; sigmoid(gate) mixes the
  // global repetition distribution into the local scores.
  float gate_init = 0.0f;
};

// TiRGN-lite (Li et al., IJCAI 2022): time-guided recurrent graph network
// with *local* and *global* historical patterns. The local component is the
// RE-GCN style evolution; the global component scores candidates by their
// repetition frequency over the entire observed past (not just the k-step
// window), and a learned gate mixes the two distributions:
//
//   p = (1 - sigma(g)) * p_local + sigma(g) * p_global.
//
// This captures the design the paper discusses: "TiRGN uses historical
// one-hop repetitive relations to limit the scope of the candidate set"
// (Sec. IV-B2) — the global distribution concentrates mass on candidates
// that ever co-occurred with the query, which also reproduces TiRGN's
// weakness of occasionally kicking genuinely novel answers out.
//
// Global counts are read from a time-indexed occurrence index built over
// the whole dataset; only facts at timestamps <= the end of the evolved
// history window are counted, so there is no test leakage.
class TirgnModel : public core::EvolutionModel {
 public:
  explicit TirgnModel(const TirgnConfig& config);

  // Must be called once before training; builds the global occurrence
  // index over all splits (queries only ever look strictly into the past).
  void SetDataset(const tkg::TkgDataset* dataset);

  std::vector<StepState> Evolve(graph::GraphCache& cache,
                                const std::vector<int64_t>& history) override;

  // The joint loss over the gated scores below.
  LossParts ComputeLoss(const std::vector<StepState>& states,
                        const std::vector<tkg::Quadruple>& facts) override {
    return JointLoss(states, facts, config_.local.num_relations,
                     config_.local.lambda_entity);
  }

  tensor::Tensor ScoreObjects(
      const std::vector<StepState>& states,
      const std::vector<std::pair<int64_t, int64_t>>& queries) override;

  tensor::Tensor ScoreRelations(
      const std::vector<StepState>& states,
      const std::vector<std::pair<int64_t, int64_t>>& queries) override;

  int64_t history_len() const override { return config_.local.history_len; }
  // TiRGN's trainable state lives in its local RE-GCN; so does its RNG.
  util::Rng* MutableRng() override { return local_->MutableRng(); }

 private:
  // Normalised global repetition distribution for object queries (s, r)
  // using facts with time <= `up_to`. Rows with no history are zero.
  tensor::Tensor GlobalObjectProbs(
      const std::vector<std::pair<int64_t, int64_t>>& queries,
      int64_t up_to) const;
  tensor::Tensor GlobalRelationProbs(
      const std::vector<std::pair<int64_t, int64_t>>& queries,
      int64_t up_to) const;

  float GateValue() const;

  TirgnConfig config_;
  std::unique_ptr<RegcnModel> local_;
  tensor::Tensor gate_;

  const tkg::TkgDataset* dataset_ = nullptr;
  // (s, r) -> object -> sorted occurrence timestamps; inverse direction
  // included with relation id r + M. Same layout for (s, o) -> relation.
  std::map<std::pair<int64_t, int64_t>, std::map<int64_t, std::vector<int64_t>>>
      object_index_;
  std::map<std::pair<int64_t, int64_t>, std::map<int64_t, std::vector<int64_t>>>
      relation_index_;
  // End of the last evolved history window (counts use time <= this).
  int64_t last_history_end_ = -1;
};

}  // namespace retia::baselines

#endif  // RETIA_BASELINES_TIRGN_H_
