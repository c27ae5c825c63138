#include "graph/hypergraph.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/obs.h"
#include "util/check.h"

namespace retia::graph {

int64_t InverseHyperRelation(int64_t hr) {
  RETIA_CHECK_LT(hr, kNumHyperRelationsAug);
  RETIA_CHECK_LE(0, hr);
  return hr < kNumHyperRelations ? hr + kNumHyperRelations
                                 : hr - kNumHyperRelations;
}

namespace {

// One side of Algorithm 1's entity-relation adjacency (RO_t or RS_t): the
// entities that have any relation on that side, ascending, each with its
// relations sorted and deduplicated in rel[begin[i], begin[i + 1]).
struct Incidence {
  std::vector<int64_t> ent;
  std::vector<size_t> begin;
  std::vector<int64_t> rel;
};

Incidence BuildIncidence(const std::vector<int64_t>& ents,
                         const std::vector<int64_t>& rels, uint64_t num_rels) {
  // entity * R + r keys sort by entity, then relation.
  std::vector<uint64_t> keys(ents.size());
  for (size_t e = 0; e < ents.size(); ++e) {
    keys[e] = static_cast<uint64_t>(ents[e]) * num_rels +
              static_cast<uint64_t>(rels[e]);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  Incidence inc;
  inc.rel.reserve(keys.size());
  for (uint64_t key : keys) {
    const int64_t entity = static_cast<int64_t>(key / num_rels);
    if (inc.ent.empty() || inc.ent.back() != entity) {
      inc.ent.push_back(entity);
      inc.begin.push_back(inc.rel.size());
    }
    inc.rel.push_back(static_cast<int64_t>(key % num_rels));
  }
  inc.begin.push_back(inc.rel.size());
  return inc;
}

}  // namespace

HyperSubgraph::HyperSubgraph(const Subgraph& base)
    : num_relation_nodes_(base.num_relations_aug()) {
  RETIA_OBS_TRACE_SPAN("graph.hypergraph");
  // Hyperedges are sorted and deduplicated as packed u64 keys
  // (r_s * 8 + hr) * R + r_o, whose order is the (r_s, hr, r_o) order;
  // 8 * R^2 keys and the entity * R + r incidence keys must fit in 64 bits.
  const uint64_t num_rels = static_cast<uint64_t>(num_relation_nodes_);
  RETIA_CHECK_LE(num_relation_nodes_, int64_t{1} << 30);
  RETIA_CHECK_LE(base.num_entities(), int64_t{1} << 32);

  // RO_t and RS_t (Algorithm 1, lines 1-3): for each entity, the
  // relations having it as object / subject.
  const Incidence ro = BuildIncidence(base.dst(), base.rel(), num_rels);
  const Incidence rs = BuildIncidence(base.src(), base.rel(), num_rels);

  // (r_s, hr, r_o) keys, with duplicates until the sort below. `hr` is one
  // of the four base types, so its inverse is hr + H.
  std::vector<uint64_t> keys;
  auto add = [&](int64_t r_s, int64_t hr, int64_t r_o) {
    const uint64_t s = static_cast<uint64_t>(r_s);
    const uint64_t o = static_cast<uint64_t>(r_o);
    const uint64_t h = static_cast<uint64_t>(hr);
    keys.push_back((s * kNumHyperRelationsAug + h) * num_rels + o);
    // Inverse hyperrelation fact (r_o, hyper-r^-1, r_s), Sec. III-A.
    keys.push_back((o * kNumHyperRelationsAug + h + kNumHyperRelations) *
                       num_rels +
                   s);
  };

  // o-s (RO x RS, lines 4-6) and s-o (RS x RO, lines 7-9), over the
  // entities that are both an object and a subject.
  for (size_t i = 0, j = 0; i < ro.ent.size() && j < rs.ent.size();) {
    if (ro.ent[i] < rs.ent[j]) {
      ++i;
    } else if (rs.ent[j] < ro.ent[i]) {
      ++j;
    } else {
      for (size_t a = ro.begin[i]; a < ro.begin[i + 1]; ++a)
        for (size_t b = rs.begin[j]; b < rs.begin[j + 1]; ++b) {
          add(ro.rel[a], kObjectSubject, rs.rel[b]);
          add(rs.rel[b], kSubjectObject, ro.rel[a]);
        }
      ++i;
      ++j;
    }
  }
  // o-o (RO x RO, lines 10-12) and s-s (RS x RS, lines 13-15), zero
  // diagonal: relation pairs sharing an object / a subject.
  const auto same_side = [&](const Incidence& inc, int64_t hr) {
    for (size_t i = 0; i < inc.ent.size(); ++i)
      for (size_t a = inc.begin[i]; a < inc.begin[i + 1]; ++a)
        for (size_t b = inc.begin[i]; b < inc.begin[i + 1]; ++b)
          if (a != b) add(inc.rel[a], hr, inc.rel[b]);
  };
  same_side(ro, kObjectObject);
  same_side(rs, kSubjectSubject);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  src_.reserve(keys.size());
  hyper_rel_.reserve(keys.size());
  dst_.reserve(keys.size());
  for (uint64_t key : keys) {
    const uint64_t rs_hr = key / num_rels;
    src_.push_back(static_cast<int64_t>(rs_hr / kNumHyperRelationsAug));
    hyper_rel_.push_back(static_cast<int64_t>(rs_hr % kNumHyperRelationsAug));
    dst_.push_back(static_cast<int64_t>(key % num_rels));
  }

  // c_{r_o,hr} = |R_{r_o}^{hr}| (Eq. 1 normalisation), counted per slot
  // r_o * 8 + hr in a flat table.
  std::vector<int64_t> slot(src_.size());
  std::vector<int64_t> counts(num_rels * kNumHyperRelationsAug, 0);
  for (size_t e = 0; e < src_.size(); ++e) {
    slot[e] = dst_[e] * kNumHyperRelationsAug + hyper_rel_[e];
    ++counts[slot[e]];
  }
  edge_norm_.resize(src_.size());
  for (size_t e = 0; e < src_.size(); ++e) {
    edge_norm_[e] = 1.0f / static_cast<float>(counts[slot[e]]);
  }
  relation_aggregation_ =
      tensor::MakeRowAggregation(num_relation_nodes_, kNumHyperRelationsAug,
                                 num_relation_nodes_, slot, src_, edge_norm_);
  std::vector<int64_t> filled;
  std::vector<int64_t> filled_hr;
  for (size_t s = 0; s < counts.size(); ++s) {
    if (counts[s] == 0) continue;
    filled.push_back(static_cast<int64_t>(s));
    filled_hr.push_back(static_cast<int64_t>(s % kNumHyperRelationsAug));
  }
  hyperrelation_aggregation_ = tensor::MakeRowAggregation(
      num_relation_nodes_, kNumHyperRelationsAug, kNumHyperRelationsAug,
      filled, filled_hr, std::vector<float>(filled.size(), 1.0f));

  // R_hr^t: the relations incident to each hyperrelation, ascending.
  std::vector<char> incident(kNumHyperRelationsAug * num_rels, 0);
  for (size_t e = 0; e < src_.size(); ++e) {
    incident[hyper_rel_[e] * num_relation_nodes_ + src_[e]] = 1;
    incident[hyper_rel_[e] * num_relation_nodes_ + dst_[e]] = 1;
  }
  hyperrelation_relations_.assign(kNumHyperRelationsAug, {});
  for (int64_t hr = 0; hr < kNumHyperRelationsAug; ++hr) {
    for (int64_t r = 0; r < num_relation_nodes_; ++r) {
      if (incident[hr * num_relation_nodes_ + r]) {
        hyperrelation_relations_[hr].push_back(r);
      }
    }
  }
  hyperrelation_pooling_ =
      MeanPoolingPlan(hyperrelation_relations_, num_relation_nodes_);
}

}  // namespace retia::graph
