#ifndef RETIA_CORE_RETIA_H_
#define RETIA_CORE_RETIA_H_

#include <memory>
#include <vector>

#include "core/decoder.h"
#include "core/evolution_model.h"
#include "core/rgcn.h"
#include "graph/graph_cache.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/rnn_cells.h"
#include "tkg/dataset.h"
#include "util/rng.h"

namespace retia::core {

// How much of the relation-modeling pipeline is active; the sweep of
// Fig. 6/7 ("wo.RM" / "w.MP" / "w.MP+LSTM" / "w.MP+LSTM+Agg"). The last
// level is full RETIA; the third is the RE-GCN/TiRGN level that suffers
// from the "message islands" problem.
enum class RelationMode {
  kNone,       // initial embeddings straight to the decoder
  kMp,         // mean pooling of adjacent entities only
  kMpLstm,     // mean pooling + LSTM evolution
  kMpLstmAgg,  // + hyperrelation-subgraph aggregation (RAM)
};

// How hyperrelation embeddings delivered to the RAM are produced; the sweep
// of Fig. 5 ("wo.HRM" / "w.HMP" / "w.HMP+HLSTM").
enum class HyperMode {
  kNone,      // static initial hyperrelation embeddings
  kHmp,       // hyper mean pooling of adjacent relations
  kHmpHlstm,  // + hyper LSTM evolution (full model)
};

struct RetiaConfig {
  int64_t num_entities = 0;
  int64_t num_relations = 0;  // M (before inverse augmentation)
  int64_t dim = 32;           // d
  int64_t history_len = 3;    // k
  int64_t rgcn_layers = 2;
  int64_t num_bases = 2;
  int64_t conv_kernels = 16;
  int64_t conv_kernel_size = 3;
  float dropout = 0.2f;
  float lambda_entity = 0.7f;  // loss weight of the entity task

  // Ablation switches (Tables VI/IX, Figs. 3-7).
  bool use_eam = true;
  bool use_ram = true;
  bool use_tim = true;
  HyperMode hyper_mode = HyperMode::kHmpHlstm;
  RelationMode relation_mode = RelationMode::kMpLstmAgg;
  // When true, decode against the embeddings of every historical timestamp
  // and sum the probabilities (Eq. 13/14, CEN-style time variability);
  // otherwise only the final evolved embeddings are used.
  bool time_variability_decode = true;

  // Optional static-graph constraint (inherited from RE-GCN, used by the
  // paper for the ICEWS datasets, Sec. IV-A4): evolving entity embeddings
  // are kept within a step-dependent angle of per-type static embeddings.
  // Enable with SetEntityTypes() after construction.
  bool use_static_constraint = false;
  float static_angle_step_deg = 10.0f;  // allowed angle opens by this/step
  float static_weight = 0.5f;           // weight of the constraint loss

  uint64_t seed = 7;
};

// The RETIA model (Sec. III): EAM + RAM + TIM over a k-length history of
// temporal subgraphs, with time-variability Conv-TransE decoders.
class RetiaModel : public EvolutionModel {
 public:
  explicit RetiaModel(const RetiaConfig& config);

  // Whether Evolve reads the twin hyperrelation subgraphs (Algorithm 1):
  // only the full relation pipeline's RAM aggregates over them.
  bool uses_hypergraphs() const {
    return config_.use_ram &&
           config_.relation_mode == RelationMode::kMpLstmAgg;
  }

  // Runs the RAM/EAM/TIM evolution over `history` (ascending timestamps,
  // typically GraphCache::HistoryBefore(t, k)). Returns one state per
  // history step; empty history yields a single state holding the initial
  // embeddings.
  std::vector<StepState> Evolve(graph::GraphCache& cache,
                                const std::vector<int64_t>& history) override;

  // Joint training loss (Eq. 13/14) for the facts of one future timestamp.
  // Entity loss covers both query directions via inverse relations.
  LossParts ComputeLoss(const std::vector<StepState>& states,
                        const std::vector<tkg::Quadruple>& facts) override;

  // Summed decoder probabilities for object queries (s, r) with r in
  // [0, 2M) (use r+M for subject queries) -> [B, N].
  tensor::Tensor ScoreObjects(
      const std::vector<StepState>& states,
      const std::vector<std::pair<int64_t, int64_t>>& queries) override;

  // Summed decoder probabilities for relation queries (s, o) -> [B, M].
  tensor::Tensor ScoreRelations(
      const std::vector<StepState>& states,
      const std::vector<std::pair<int64_t, int64_t>>& queries) override;

  // Frozen (serving) entry points: identical math to ScoreObjects /
  // ScoreRelations, but const and rng-free, so concurrent callers can decode
  // against the same pre-evolved states without any shared mutable state.
  // Requires eval mode (SetTraining(false)); every caller thread must hold
  // its own tensor::NoGradGuard (grad mode is thread-local, see tensor.h).
  tensor::Tensor ScoreObjectsFrozen(
      const std::vector<StepState>& states,
      const std::vector<std::pair<int64_t, int64_t>>& queries) const;
  tensor::Tensor ScoreRelationsFrozen(
      const std::vector<StepState>& states,
      const std::vector<std::pair<int64_t, int64_t>>& queries) const;

  // Quantized frozen decode (docs/QUANTIZATION.md): identical structure to
  // ScoreObjectsFrozen, but each state's entity-candidate inner products
  // run the exact-int32 int8 GEMM against `qcands[i]` — the pre-quantized
  // rows of states[i].entities (one QuantizeTensorRows per evolved
  // timestamp, built by the serving layer). Tolerance-bound against the
  // f32 path; bit-exact across simd backends and thread counts.
  tensor::Tensor ScoreObjectsFrozenQuantized(
      const std::vector<StepState>& states,
      const std::vector<quant::QuantizedRows>& qcands,
      const std::vector<std::pair<int64_t, int64_t>>& queries) const;

  int64_t history_len() const override { return config_.history_len; }

  // Installs the static typing information consumed by the static-graph
  // constraint: types[e] in [0, num_types) for every entity. Requires
  // config.use_static_constraint.
  void SetEntityTypes(const std::vector<int64_t>& types, int64_t num_types);

  // Deep copy: the same config and training mode, with the parameters,
  // the ablation protocol's frozen tables and the static-type table copied
  // tensor by tensor. The clone draws no initialization, so its RNG is
  // freshly seeded from config.seed.
  std::unique_ptr<RetiaModel> Clone() const;

  const RetiaConfig& config() const { return config_; }
  util::Rng& rng() { return rng_; }
  util::Rng* MutableRng() override { return &rng_; }

  // Static-constraint introspection, consumed by retia::ckpt so model
  // artifacts can serialize the SetEntityTypes() table as its own section.
  bool has_entity_types() const { return !entity_types_.empty(); }
  const std::vector<int64_t>& entity_types() const { return entity_types_; }
  int64_t num_static_types() const { return num_static_types_; }

 private:
  // Builds every module, drawing the initialization from rng_, or leaving
  // it zero-filled when !draw_init (Clone() copies every value in).
  RetiaModel(const RetiaConfig& config, bool draw_init);

  // SetEntityTypes with the per-type embedding drawn from `init_rng`, or
  // zero-filled when it is null.
  void InstallEntityTypes(const std::vector<int64_t>& types,
                          int64_t num_types, util::Rng* init_rng);

  RetiaConfig config_;
  util::Rng rng_;

  std::unique_ptr<nn::Embedding> entity_init_;    // E_0
  std::unique_ptr<nn::Embedding> relation_init_;  // R_0
  std::unique_ptr<nn::Embedding> hyper_init_;     // HR_0
  std::unique_ptr<nn::Embedding> static_type_init_;  // static constraint
  std::vector<int64_t> entity_types_;
  int64_t num_static_types_ = 0;
  // Frozen random embeddings used by the ablation protocols (Sec. IV-C /
  // IV-D1): the ablated side keeps its initialization "unchanged".
  tensor::Tensor frozen_entities_;       // when !use_eam
  tensor::Tensor frozen_relations_;      // when !use_ram
  tensor::Tensor eam_static_relations_;  // when !use_tim

  std::unique_ptr<EntityRgcnStack> entity_rgcn_;
  std::unique_ptr<RelationRgcnStack> relation_rgcn_;
  std::unique_ptr<nn::GruCell> entity_gru_;    // Eq. 6
  std::unique_ptr<nn::GruCell> relation_gru_;  // Eq. 3
  std::unique_ptr<nn::ProjectedLstmCell> relation_lstm_;  // Eq. 8
  std::unique_ptr<nn::ProjectedLstmCell> hyper_lstm_;     // Eq. 10
  std::unique_ptr<nn::Linear> mp_proj_;  // 2d->d for RelationMode::kMp

  std::unique_ptr<ConvTransEDecoder> entity_decoder_;
  std::unique_ptr<ConvTransEDecoder> relation_decoder_;
};

}  // namespace retia::core

#endif  // RETIA_CORE_RETIA_H_
