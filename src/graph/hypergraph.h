#ifndef RETIA_GRAPH_HYPERGRAPH_H_
#define RETIA_GRAPH_HYPERGRAPH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/subgraph.h"
#include "tensor/ops.h"

namespace retia::graph {

// The four positional hyperrelation types of Table II. Ids 4..7 are the
// inverse hyperrelations added per Sec. III-A (hyper-r^-1), so the modeled
// hyperrelation vocabulary has 2H = 8 entries.
enum HyperRelationType : int64_t {
  kObjectSubject = 0,  // o-s: object of r_s is subject of r_o
  kSubjectObject = 1,  // s-o: subject of r_s is object of r_o
  kObjectObject = 2,   // o-o: r_s and r_o share an object
  kSubjectSubject = 3, // s-s: r_s and r_o share a subject
};

inline constexpr int64_t kNumHyperRelations = 4;      // H
inline constexpr int64_t kNumHyperRelationsAug = 8;   // 2H

// Inverse hyperrelation id for an augmented id in [0, 8).
int64_t InverseHyperRelation(int64_t hr);

// The twin hyperrelation subgraph HG_t of a temporal subgraph G_t
// (Algorithm 1). Nodes are the 2M augmented relations of G_t; edges are
// hyperrelation facts (r_s, hyper-r, r_o).
//
// Construction follows Algorithm 1: the relation-object adjacency RO_t and
// relation-subject adjacency RS_t are assembled in one pass over the edges;
// the boolean products RO x RS, RS x RO, RO x RO, RS x RS then yield the
// o-s / s-o / o-o / s-s adjacency, with the diagonals of the o-o and s-s
// products zeroed to suppress self-loop relation pairs. Inverse hyperedges
// are appended so only in-neighbourhoods need aggregation.
class HyperSubgraph {
 public:
  explicit HyperSubgraph(const Subgraph& base);

  int64_t num_relation_nodes() const { return num_relation_nodes_; }

  int64_t num_edges() const { return static_cast<int64_t>(src_.size()); }
  const std::vector<int64_t>& src() const { return src_; }
  const std::vector<int64_t>& hyper_rel() const { return hyper_rel_; }
  const std::vector<int64_t>& dst() const { return dst_; }
  // 1/c_{r_o,hr} per hyperedge (Eq. 1).
  const std::vector<float>& edge_norm() const { return edge_norm_; }

  // The two tensor::AggregateRows plans of Eq. 1 with the transform
  // deferred. Both write [2M, 8 * d]: slot r_o * 8 + hr holds the sum over
  // R_{r_o}^{hr} of (1/c_{r_o,hr}) (r_s + hr), the input of W_hr.
  //  - relation_aggregation: one entry per hyperedge, from the relation
  //    table row r_s, weighted 1/c_{r_o,hr};
  //  - hyperrelation_aggregation: one entry per non-empty slot, from the
  //    hyperrelation table row hr, weighted 1, since the weights of a slot
  //    sum to one.
  const std::shared_ptr<const tensor::RowAggregation>& relation_aggregation()
      const {
    return relation_aggregation_;
  }
  const std::shared_ptr<const tensor::RowAggregation>&
  hyperrelation_aggregation() const {
    return hyperrelation_aggregation_;
  }

  // Relations incident to each of the 8 hyperrelation ids (deduplicated);
  // the R_hr^t sets consumed by hyper mean pooling (Eq. 9).
  const std::vector<std::vector<int64_t>>& hyperrelation_relations() const {
    return hyperrelation_relations_;
  }
  // Eq. 9's HMP as a tensor::AggregateRows plan: one entry per (hr, r)
  // with r in R_hr^t, weight 1/|R_hr^t|, relations ascending within hr.
  // Maps the [2M, d] relation table to [8, d] (zero rows for absent hr).
  const std::shared_ptr<const tensor::RowAggregation>& hyperrelation_pooling()
      const {
    return hyperrelation_pooling_;
  }

 private:
  int64_t num_relation_nodes_;
  std::vector<int64_t> src_;
  std::vector<int64_t> hyper_rel_;
  std::vector<int64_t> dst_;
  std::vector<float> edge_norm_;
  std::shared_ptr<const tensor::RowAggregation> relation_aggregation_;
  std::shared_ptr<const tensor::RowAggregation> hyperrelation_aggregation_;
  std::vector<std::vector<int64_t>> hyperrelation_relations_;
  std::shared_ptr<const tensor::RowAggregation> hyperrelation_pooling_;
};

}  // namespace retia::graph

#endif  // RETIA_GRAPH_HYPERGRAPH_H_
