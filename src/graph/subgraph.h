#ifndef RETIA_GRAPH_SUBGRAPH_H_
#define RETIA_GRAPH_SUBGRAPH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/ops.h"
#include "tkg/dataset.h"

namespace retia::graph {

// One directed labelled edge of a temporal subgraph. Relations live in the
// augmented vocabulary [0, 2M): ids >= M are the inverse relations r^-1
// added per Sec. III-A so only in-degree edges need aggregation.
struct Edge {
  int64_t src = 0;
  int64_t rel = 0;
  int64_t dst = 0;
};

// A single timestamp's subgraph G_t, augmented with inverse edges and
// preprocessed for RGCN message passing and TIM mean pooling:
//  * flat src/rel/dst index vectors (gather friendly),
//  * per-edge normalisation 1/c_{o,r} with c_{o,r} = |E_o^r| (Eq. 4),
//  * relation -> incident entity lists (both directions) for Eq. 7's MP,
//  * the set of active relations at this timestamp,
//  * the tensor::AggregateRows plans of Eq. 4 and Eq. 7, built once here
//    and shared with the backward closures that use them.
// Ids must lie in [0, num_entities) and [0, num_relations).
class Subgraph {
 public:
  Subgraph(const std::vector<tkg::Quadruple>& facts, int64_t num_entities,
           int64_t num_relations);

  int64_t num_entities() const { return num_entities_; }
  // M: relation count before inverse augmentation.
  int64_t num_relations() const { return num_relations_; }
  // 2M: relation vocabulary used for modeling.
  int64_t num_relations_aug() const { return 2 * num_relations_; }

  int64_t num_edges() const { return static_cast<int64_t>(src_.size()); }
  const std::vector<int64_t>& src() const { return src_; }
  const std::vector<int64_t>& rel() const { return rel_; }
  const std::vector<int64_t>& dst() const { return dst_; }
  // 1/c_{dst,rel} per edge.
  const std::vector<float>& edge_norm() const { return edge_norm_; }

  // Entities incident to each augmented relation id (subjects and objects,
  // deduplicated). Empty for relations absent at this timestamp.
  const std::vector<std::vector<int64_t>>& relation_entities() const {
    return relation_entities_;
  }

  // Augmented relation ids with at least one edge, ascending.
  const std::vector<int64_t>& active_relations() const {
    return active_relations_;
  }

  // Eq. 7's MP: one entry per (r, e) with e in E_r^t, weight 1/|E_r^t|,
  // entities ascending within r. Maps the [N, d] entity table to [2M, d]
  // (zero rows for inactive relations).
  const std::shared_ptr<const tensor::RowAggregation>& relation_pooling()
      const {
    return relation_pooling_;
  }
  // Eq. 4's sum over in-edges: edge e into row dst[e], weight 1/c_{dst,rel}.
  // Maps the [E, d] per-edge message table to [N, d].
  const std::shared_ptr<const tensor::RowAggregation>& edge_aggregation()
      const {
    return edge_aggregation_;
  }

  // The plans fix the entity count: dies, naming both counts, unless an
  // entity table of `rows` rows belongs to this snapshot.
  void CheckEntityRows(int64_t rows) const;

 private:
  int64_t num_entities_;
  int64_t num_relations_;
  std::vector<int64_t> src_;
  std::vector<int64_t> rel_;
  std::vector<int64_t> dst_;
  std::vector<float> edge_norm_;
  std::vector<std::vector<int64_t>> relation_entities_;
  std::vector<int64_t> active_relations_;
  std::shared_ptr<const tensor::RowAggregation> relation_pooling_;
  std::shared_ptr<const tensor::RowAggregation> edge_aggregation_;
};

// The tensor::AggregateRows plan that means the table rows sets[s] into
// output row s of [sets.size(), d]: each member in order, weight
// 1/|sets[s]|; an empty set gives a zero row. Eqs. 7 and 9.
std::shared_ptr<const tensor::RowAggregation> MeanPoolingPlan(
    const std::vector<std::vector<int64_t>>& sets, int64_t table_rows);

}  // namespace retia::graph

#endif  // RETIA_GRAPH_SUBGRAPH_H_
