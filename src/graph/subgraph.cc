#include "graph/subgraph.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "util/check.h"

namespace retia::graph {

std::shared_ptr<const tensor::RowAggregation> MeanPoolingPlan(
    const std::vector<std::vector<int64_t>>& sets, int64_t table_rows) {
  std::vector<int64_t> slot;
  std::vector<int64_t> src;
  std::vector<float> weight;
  for (size_t s = 0; s < sets.size(); ++s) {
    for (int64_t member : sets[s]) {
      slot.push_back(static_cast<int64_t>(s));
      src.push_back(member);
      weight.push_back(1.0f / static_cast<float>(sets[s].size()));
    }
  }
  return tensor::MakeRowAggregation(static_cast<int64_t>(sets.size()), 1,
                                    table_rows, slot, src, weight);
}

Subgraph::Subgraph(const std::vector<tkg::Quadruple>& facts,
                   int64_t num_entities, int64_t num_relations)
    : num_entities_(num_entities), num_relations_(num_relations) {
  const int64_t m = num_relations;
  src_.reserve(facts.size() * 2);
  rel_.reserve(facts.size() * 2);
  dst_.reserve(facts.size() * 2);
  for (const tkg::Quadruple& q : facts) {
    RETIA_CHECK_LE(0, q.subject);
    RETIA_CHECK_LT(q.subject, num_entities_);
    RETIA_CHECK_LE(0, q.object);
    RETIA_CHECK_LT(q.object, num_entities_);
    RETIA_CHECK_LE(0, q.relation);
    RETIA_CHECK_LT(q.relation, m);
    // Forward edge and its inverse (o, r^-1, s).
    src_.push_back(q.subject);
    rel_.push_back(q.relation);
    dst_.push_back(q.object);
    src_.push_back(q.object);
    rel_.push_back(q.relation + m);
    dst_.push_back(q.subject);
  }

  // c_{o,r}: number of in-edges of each (dst, rel) pair.
  std::map<std::pair<int64_t, int64_t>, int64_t> counts;
  for (size_t e = 0; e < src_.size(); ++e) {
    ++counts[{dst_[e], rel_[e]}];
  }
  edge_norm_.resize(src_.size());
  for (size_t e = 0; e < src_.size(); ++e) {
    edge_norm_[e] =
        1.0f / static_cast<float>(counts[{dst_[e], rel_[e]}]);
  }

  relation_entities_.assign(2 * m, {});
  for (size_t e = 0; e < src_.size(); ++e) {
    relation_entities_[rel_[e]].push_back(src_[e]);
    relation_entities_[rel_[e]].push_back(dst_[e]);
  }
  for (int64_t r = 0; r < 2 * m; ++r) {
    auto& ents = relation_entities_[r];
    std::sort(ents.begin(), ents.end());
    ents.erase(std::unique(ents.begin(), ents.end()), ents.end());
    if (!ents.empty()) active_relations_.push_back(r);
  }
  relation_pooling_ = MeanPoolingPlan(relation_entities_, num_entities_);
  std::vector<int64_t> edges(src_.size());
  std::iota(edges.begin(), edges.end(), int64_t{0});
  edge_aggregation_ = tensor::MakeRowAggregation(
      num_entities_, 1, num_edges(), dst_, edges, edge_norm_);
}

void Subgraph::CheckEntityRows(int64_t rows) const {
  RETIA_CHECK_MSG(rows == num_entities_, "the entity table has "
                                             << rows
                                             << " rows but the snapshot has "
                                             << num_entities_ << " entities");
}

}  // namespace retia::graph
