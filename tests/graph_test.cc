#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_cache.h"
#include "graph/hypergraph.h"
#include "graph/subgraph.h"
#include "tkg/synthetic.h"

namespace retia::graph {
namespace {

using tkg::Quadruple;

// ---------------------------------------------------------------------------
// Subgraph.

TEST(SubgraphTest, AddsInverseEdges) {
  Subgraph g({{0, 1, 2, 0}}, /*num_entities=*/3, /*num_relations=*/4);
  ASSERT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.src()[0], 0);
  EXPECT_EQ(g.rel()[0], 1);
  EXPECT_EQ(g.dst()[0], 2);
  // Inverse: (o, r + M, s).
  EXPECT_EQ(g.src()[1], 2);
  EXPECT_EQ(g.rel()[1], 1 + 4);
  EXPECT_EQ(g.dst()[1], 0);
}

TEST(SubgraphTest, EdgeNormIsInverseOfPerDstRelInDegree) {
  // Two facts with the same (relation, object): c_{o,r} = 2.
  Subgraph g({{0, 0, 2, 0}, {1, 0, 2, 0}}, 3, 1);
  std::map<std::pair<int64_t, int64_t>, float> norm;
  for (int64_t e = 0; e < g.num_edges(); ++e) {
    norm[{g.dst()[e], g.rel()[e]}] = g.edge_norm()[e];
  }
  const float norm_obj = norm[{2, 0}];  // two in-edges (0,0,2) and (1,0,2)
  const float norm_inv = norm[{0, 1}];  // single inverse edge
  EXPECT_FLOAT_EQ(norm_obj, 0.5f);
  EXPECT_FLOAT_EQ(norm_inv, 1.0f);
}

TEST(SubgraphTest, RelationEntitiesCoverBothDirectionsDeduplicated) {
  Subgraph g({{0, 0, 1, 0}, {1, 0, 2, 0}}, 3, 1);
  // Relation 0 touches entities {0, 1, 2}.
  EXPECT_EQ(g.relation_entities()[0], (std::vector<int64_t>{0, 1, 2}));
  // Inverse relation 1 mirrors the same incidence set.
  EXPECT_EQ(g.relation_entities()[1], (std::vector<int64_t>{0, 1, 2}));
}

TEST(SubgraphTest, ActiveRelationsOnlyListsPresentOnes) {
  Subgraph g({{0, 2, 1, 0}}, 3, 4);
  EXPECT_EQ(g.active_relations(), (std::vector<int64_t>{2, 6}));
}

TEST(SubgraphTest, EmptyFactListYieldsEmptyGraph) {
  Subgraph g({}, 3, 2);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_TRUE(g.active_relations().empty());
}

// A negative id would index relation_entities() and the plans out of
// bounds; the constructor rejects it first.
TEST(SubgraphTest, NegativeIdsDie) {
  EXPECT_DEATH(Subgraph({{-1, 0, 1, 0}}, 3, 2), "0 <= q.subject");
  EXPECT_DEATH(Subgraph({{0, -1, 1, 0}}, 3, 2), "0 <= q.relation");
  EXPECT_DEATH(Subgraph({{0, 0, -1, 0}}, 3, 2), "0 <= q.object");
}

// ---------------------------------------------------------------------------
// HyperSubgraph (Algorithm 1).

TEST(HypergraphTest, InverseHyperRelationPairsUp) {
  EXPECT_EQ(InverseHyperRelation(kObjectSubject), kObjectSubject + 4);
  EXPECT_EQ(InverseHyperRelation(kObjectSubject + 4), kObjectSubject);
  EXPECT_EQ(InverseHyperRelation(kSubjectSubject), kSubjectSubject + 4);
}

// Chain s --r0--> m --r1--> o: the object of r0 is the subject of r1.
TEST(HypergraphTest, ChainProducesObjectSubjectHyperedge) {
  Subgraph g({{0, 0, 1, 0}, {1, 1, 2, 0}}, 3, 2);
  HyperSubgraph hg(g);
  bool found = false;
  for (int64_t e = 0; e < hg.num_edges(); ++e) {
    if (hg.src()[e] == 0 && hg.hyper_rel()[e] == kObjectSubject &&
        hg.dst()[e] == 1) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "expected (r0, o-s, r1) hyperedge";
}

// Two facts sharing an object o: (s0, r0, o), (s1, r1, o) -> (r0, o-o, r1).
TEST(HypergraphTest, SharedObjectProducesObjectObjectHyperedge) {
  Subgraph g({{0, 0, 2, 0}, {1, 1, 2, 0}}, 3, 2);
  HyperSubgraph hg(g);
  bool found = false;
  for (int64_t e = 0; e < hg.num_edges(); ++e) {
    if (hg.src()[e] == 0 && hg.hyper_rel()[e] == kObjectObject &&
        hg.dst()[e] == 1) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// Two facts sharing a subject: (s, r0, o0), (s, r1, o1) -> (r0, s-s, r1).
TEST(HypergraphTest, SharedSubjectProducesSubjectSubjectHyperedge) {
  Subgraph g({{0, 0, 1, 0}, {0, 1, 2, 0}}, 3, 2);
  HyperSubgraph hg(g);
  bool found = false;
  for (int64_t e = 0; e < hg.num_edges(); ++e) {
    if (hg.src()[e] == 0 && hg.hyper_rel()[e] == kSubjectSubject &&
        hg.dst()[e] == 1) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// Algorithm 1 zeroes the diagonals of the o-o and s-s products: a relation
// must never be its own o-o / s-s neighbour.
TEST(HypergraphTest, NoSelfPairsInSymmetricHyperrelations) {
  tkg::TkgDataset ds =
      tkg::GenerateSynthetic(tkg::SyntheticConfig::YagoLike());
  GraphCache cache(&ds);
  for (int64_t t : {0L, 1L, 2L}) {
    const HyperSubgraph& hg = cache.hypergraph(t);
    for (int64_t e = 0; e < hg.num_edges(); ++e) {
      const int64_t hr = hg.hyper_rel()[e];
      if (hr == kObjectObject || hr == kSubjectSubject ||
          hr == kObjectObject + 4 || hr == kSubjectSubject + 4) {
        EXPECT_NE(hg.src()[e], hg.dst()[e]) << "self pair via hr " << hr;
      }
    }
  }
}

// Every hyperedge must have its inverse hyperedge present (Sec. III-A).
TEST(HypergraphTest, ClosedUnderInverseHyperedges) {
  tkg::TkgDataset ds =
      tkg::GenerateSynthetic(tkg::SyntheticConfig::WikiLike());
  GraphCache cache(&ds);
  const HyperSubgraph& hg = cache.hypergraph(0);
  std::set<std::tuple<int64_t, int64_t, int64_t>> edges;
  for (int64_t e = 0; e < hg.num_edges(); ++e) {
    edges.insert({hg.src()[e], hg.hyper_rel()[e], hg.dst()[e]});
  }
  for (const auto& [s, hr, d] : edges) {
    EXPECT_TRUE(edges.count({d, InverseHyperRelation(hr), s}))
        << "missing inverse of (" << s << "," << hr << "," << d << ")";
  }
}

// Per-(dst, hr) norms sum to exactly 1 over the incoming hyperedges.
TEST(HypergraphTest, NormsSumToOnePerDstHyperrelation) {
  tkg::TkgDataset ds =
      tkg::GenerateSynthetic(tkg::SyntheticConfig::Icews14Like());
  GraphCache cache(&ds);
  const HyperSubgraph& hg = cache.hypergraph(0);
  std::map<std::pair<int64_t, int64_t>, double> sums;
  for (int64_t e = 0; e < hg.num_edges(); ++e) {
    sums[{hg.dst()[e], hg.hyper_rel()[e]}] += hg.edge_norm()[e];
  }
  for (const auto& [key, total] : sums) {
    EXPECT_NEAR(total, 1.0, 1e-4);
  }
}

// Relation nodes mentioned by hyperedges must come from the augmented
// vocabulary of the base graph.
TEST(HypergraphTest, RelationNodesWithinAugmentedVocabulary) {
  tkg::TkgDataset ds =
      tkg::GenerateSynthetic(tkg::SyntheticConfig::Icews18Like());
  GraphCache cache(&ds);
  const HyperSubgraph& hg = cache.hypergraph(0);
  EXPECT_EQ(hg.num_relation_nodes(), 2 * ds.num_relations());
  for (int64_t e = 0; e < hg.num_edges(); ++e) {
    EXPECT_LT(hg.src()[e], hg.num_relation_nodes());
    EXPECT_LT(hg.dst()[e], hg.num_relation_nodes());
  }
}

TEST(HypergraphTest, EmptyBaseGraphYieldsEmptyHypergraph) {
  Subgraph g({}, 3, 2);
  HyperSubgraph hg(g);
  EXPECT_EQ(hg.num_edges(), 0);
}

// The motivating example of Fig. 1(b): two chained facts create message
// paths between the two relations in *both* directions via o-s and s-o.
TEST(HypergraphTest, MessageIslandsBridged) {
  Subgraph g({{0, 0, 1, 0}, {1, 1, 2, 0}}, 3, 2);
  HyperSubgraph hg(g);
  std::set<std::pair<int64_t, int64_t>> connected;  // (src, dst) rel pairs
  for (int64_t e = 0; e < hg.num_edges(); ++e) {
    connected.insert({hg.src()[e], hg.dst()[e]});
  }
  EXPECT_TRUE(connected.count({0, 1}));  // r0 -> r1
  EXPECT_TRUE(connected.count({1, 0}));  // r1 -> r0
}

// Algorithm 1 as HyperSubgraph built it through ordered maps and sets, kept
// as the reference the flat sort-and-unique build must match exactly.
struct ReferenceHypergraph {
  std::vector<int64_t> src, hyper_rel, dst;
  std::vector<float> edge_norm;
  std::vector<std::vector<int64_t>> hyperrelation_relations;
};

ReferenceHypergraph BuildReference(const Subgraph& base) {
  std::map<int64_t, std::set<int64_t>> rels_with_object;   // entity -> {r}
  std::map<int64_t, std::set<int64_t>> rels_with_subject;  // entity -> {r}
  for (int64_t e = 0; e < base.num_edges(); ++e) {
    rels_with_subject[base.src()[e]].insert(base.rel()[e]);
    rels_with_object[base.dst()[e]].insert(base.rel()[e]);
  }
  std::set<std::tuple<int64_t, int64_t, int64_t>> hyper_facts;
  auto add = [&](int64_t rs, int64_t hr, int64_t ro) {
    hyper_facts.insert({rs, hr, ro});
    hyper_facts.insert({ro, InverseHyperRelation(hr), rs});
  };
  for (const auto& [entity, objs] : rels_with_object) {
    auto it = rels_with_subject.find(entity);
    if (it == rels_with_subject.end()) continue;
    for (int64_t rs : objs)
      for (int64_t ro : it->second) add(rs, kObjectSubject, ro);
  }
  for (const auto& [entity, subs] : rels_with_subject) {
    auto it = rels_with_object.find(entity);
    if (it == rels_with_object.end()) continue;
    for (int64_t rs : subs)
      for (int64_t ro : it->second) add(rs, kSubjectObject, ro);
  }
  for (const auto& [entity, objs] : rels_with_object) {
    for (int64_t rs : objs)
      for (int64_t ro : objs)
        if (rs != ro) add(rs, kObjectObject, ro);
  }
  for (const auto& [entity, subs] : rels_with_subject) {
    for (int64_t rs : subs)
      for (int64_t ro : subs)
        if (rs != ro) add(rs, kSubjectSubject, ro);
  }
  ReferenceHypergraph ref;
  for (const auto& [rs, hr, ro] : hyper_facts) {
    ref.src.push_back(rs);
    ref.hyper_rel.push_back(hr);
    ref.dst.push_back(ro);
  }
  std::map<std::pair<int64_t, int64_t>, int64_t> counts;
  for (size_t e = 0; e < ref.src.size(); ++e) {
    ++counts[{ref.dst[e], ref.hyper_rel[e]}];
  }
  for (size_t e = 0; e < ref.src.size(); ++e) {
    ref.edge_norm.push_back(
        1.0f / static_cast<float>(counts[{ref.dst[e], ref.hyper_rel[e]}]));
  }
  ref.hyperrelation_relations.assign(kNumHyperRelationsAug, {});
  for (size_t e = 0; e < ref.src.size(); ++e) {
    ref.hyperrelation_relations[ref.hyper_rel[e]].push_back(ref.src[e]);
    ref.hyperrelation_relations[ref.hyper_rel[e]].push_back(ref.dst[e]);
  }
  for (auto& rels : ref.hyperrelation_relations) {
    std::sort(rels.begin(), rels.end());
    rels.erase(std::unique(rels.begin(), rels.end()), rels.end());
  }
  return ref;
}

// Slot s of a mean-pooling plan holds sets[s], ascending, each with weight
// 1/|sets[s]|.
void ExpectMeanPooling(const tensor::RowAggregation& plan,
                       const std::vector<std::vector<int64_t>>& sets,
                       int64_t table_rows) {
  ASSERT_EQ(plan.rows, static_cast<int64_t>(sets.size()));
  EXPECT_EQ(plan.blocks, 1);
  EXPECT_EQ(plan.table_rows, table_rows);
  for (size_t s = 0; s < sets.size(); ++s) {
    const auto first = plan.slot_src.begin() + plan.slot_begin[s];
    const auto last = plan.slot_src.begin() + plan.slot_begin[s + 1];
    EXPECT_EQ(std::vector<int64_t>(first, last), sets[s]) << "slot " << s;
    for (int64_t j = plan.slot_begin[s]; j < plan.slot_begin[s + 1]; ++j) {
      EXPECT_EQ(plan.slot_weight[j], 1.0f / static_cast<float>(sets[s].size()));
    }
  }
}

// Eq. 4's plan: row o sums the edges into o, in edge order, each weighted
// 1/c_{o,r}.
void ExpectEdgeAggregation(const Subgraph& g) {
  const tensor::RowAggregation& plan = *g.edge_aggregation();
  ASSERT_EQ(plan.rows, g.num_entities());
  EXPECT_EQ(plan.blocks, 1);
  EXPECT_EQ(plan.table_rows, g.num_edges());
  for (int64_t o = 0; o < g.num_entities(); ++o) {
    std::vector<int64_t> edges;
    std::vector<float> norms;
    for (int64_t e = 0; e < g.num_edges(); ++e) {
      if (g.dst()[e] != o) continue;
      edges.push_back(e);
      norms.push_back(g.edge_norm()[e]);
    }
    const int64_t begin = plan.slot_begin[o];
    const int64_t end = plan.slot_begin[o + 1];
    EXPECT_EQ(std::vector<int64_t>(plan.slot_src.begin() + begin,
                                   plan.slot_src.begin() + end),
              edges)
        << "row " << o;
    EXPECT_EQ(std::vector<float>(plan.slot_weight.begin() + begin,
                                 plan.slot_weight.begin() + end),
              norms)
        << "row " << o;
  }
}

void ExpectMatchesReference(const std::vector<Quadruple>& facts,
                            int64_t num_entities, int64_t num_relations) {
  const Subgraph g(facts, num_entities, num_relations);
  const HyperSubgraph hg(g);
  const ReferenceHypergraph ref = BuildReference(g);
  EXPECT_EQ(hg.src(), ref.src);
  EXPECT_EQ(hg.hyper_rel(), ref.hyper_rel);
  EXPECT_EQ(hg.dst(), ref.dst);
  ASSERT_EQ(hg.edge_norm().size(), ref.edge_norm.size());
  // memcmp may not be handed the null data() of an empty vector.
  if (!ref.edge_norm.empty()) {
    EXPECT_EQ(std::memcmp(hg.edge_norm().data(), ref.edge_norm.data(),
                          ref.edge_norm.size() * sizeof(float)),
              0);
  }
  EXPECT_EQ(hg.hyperrelation_relations(), ref.hyperrelation_relations);
  ExpectMeanPooling(*hg.hyperrelation_pooling(), ref.hyperrelation_relations,
                    g.num_relations_aug());
  ExpectMeanPooling(*g.relation_pooling(), g.relation_entities(),
                    num_entities);
  ExpectEdgeAggregation(g);
}

// The flat build reproduces the map/set build's hyperedges, in the same
// order, with the same norms and R_hr sets, over random subgraphs and the
// corner cases; the Eq. 7 and Eq. 9 pooling plans mean exactly those sets
// and the Eq. 4 plan sums each edge into its destination.
TEST(HypergraphTest, FlatBuildMatchesSetReference) {
  {
    SCOPED_TRACE("empty graph");
    ExpectMatchesReference({}, 4, 3);
  }
  {
    SCOPED_TRACE("single fact");
    ExpectMatchesReference({{2, 1, 0, 0}}, 3, 2);
  }
  {
    // Relation 0 has entity 1 as an object and as a subject.
    SCOPED_TRACE("relation on both sides");
    ExpectMatchesReference({{0, 0, 1, 0}, {1, 0, 2, 0}, {2, 1, 0, 0}}, 3, 2);
  }
  {
    SCOPED_TRACE("every fact on one entity");
    ExpectMatchesReference({{0, 0, 1, 0}, {2, 1, 0, 0}, {0, 2, 3, 0},
                            {0, 3, 0, 0}, {4, 0, 0, 0}},
                           5, 4);
  }
  uint64_t state = 2024;
  const auto pick = [&state](int64_t n) {  // uniform in [0, n)
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<int64_t>((state >> 33) % static_cast<uint64_t>(n));
  };
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE(::testing::Message() << "random subgraph " << round);
    const int64_t num_entities = 1 + pick(30);
    const int64_t num_relations = 1 + pick(8);
    std::vector<Quadruple> facts(static_cast<size_t>(pick(80)));
    for (Quadruple& q : facts) {
      q = {pick(num_entities), pick(num_relations), pick(num_entities), 0};
    }
    ExpectMatchesReference(facts, num_entities, num_relations);
  }
}

// ---------------------------------------------------------------------------
// GraphCache.

TEST(GraphCacheTest, HistoryBeforeReturnsLatestK) {
  tkg::SyntheticConfig config = tkg::SyntheticConfig::YagoLike();
  tkg::TkgDataset ds = tkg::GenerateSynthetic(config);
  GraphCache cache(&ds);
  std::vector<int64_t> h = cache.HistoryBefore(10, 3);
  EXPECT_EQ(h, (std::vector<int64_t>{7, 8, 9}));
}

TEST(GraphCacheTest, HistoryTruncatedAtDatasetStart) {
  tkg::TkgDataset ds = tkg::GenerateSynthetic(tkg::SyntheticConfig::YagoLike());
  GraphCache cache(&ds);
  EXPECT_EQ(cache.HistoryBefore(1, 5), (std::vector<int64_t>{0}));
  EXPECT_TRUE(cache.HistoryBefore(0, 5).empty());
}

TEST(GraphCacheTest, SubgraphsAreCachedByIdentity) {
  tkg::TkgDataset ds = tkg::GenerateSynthetic(tkg::SyntheticConfig::YagoLike());
  GraphCache cache(&ds);
  const Subgraph& a = cache.subgraph(3);
  const Subgraph& b = cache.subgraph(3);
  EXPECT_EQ(&a, &b);
  const HyperSubgraph& ha = cache.hypergraph(3);
  const HyperSubgraph& hb = cache.hypergraph(3);
  EXPECT_EQ(&ha, &hb);
}

TEST(GraphCacheTest, EvictBeforeDropsOlderEntries) {
  tkg::TkgDataset ds = tkg::GenerateSynthetic(tkg::SyntheticConfig::YagoLike());
  GraphCache cache(&ds);
  cache.Prefetch({2, 4, 6, 8}, /*hypergraphs=*/true);
  cache.EvictBefore(5);
  EXPECT_EQ(cache.cached_times(), (std::vector<int64_t>{6, 8}));
  // An evicted timestamp rebuilds on demand.
  EXPECT_EQ(cache.subgraph(2).num_edges(),
            Subgraph(ds.FactsAt(2), ds.num_entities(), ds.num_relations())
                .num_edges());
}

void ExpectSameEdges(const Subgraph& a, const Subgraph& b) {
  EXPECT_EQ(a.src(), b.src());
  EXPECT_EQ(a.rel(), b.rel());
  EXPECT_EQ(a.dst(), b.dst());
  ASSERT_EQ(a.edge_norm().size(), b.edge_norm().size());
  EXPECT_EQ(std::memcmp(a.edge_norm().data(), b.edge_norm().data(),
                        a.edge_norm().size() * sizeof(float)),
            0);
}

TEST(GraphCacheTest, AdoptedEntriesOutliveTheCacheThatBuiltThem) {
  tkg::TkgDataset ds = tkg::GenerateSynthetic(tkg::SyntheticConfig::YagoLike());
  const tkg::TkgDataset copy(ds);
  auto builder = std::make_unique<GraphCache>(&ds);
  builder->Prefetch({3, 4}, /*hypergraphs=*/true);
  GraphCache adopter(&copy);
  EXPECT_EQ(adopter.Adopt(*builder), 2);
  EXPECT_EQ(adopter.cached_times(), (std::vector<int64_t>{3, 4}));
  const Subgraph* g = &adopter.subgraph(3);
  const HyperSubgraph* hg = &adopter.hypergraph(3);
  EXPECT_EQ(g, &builder->subgraph(3));
  EXPECT_EQ(hg, &builder->hypergraph(3));

  builder->EvictBefore(100);
  EXPECT_TRUE(builder->cached_times().empty());
  builder.reset();

  // Still the adopted objects, and still what a fresh build gives.
  EXPECT_EQ(&adopter.subgraph(3), g);
  EXPECT_EQ(&adopter.hypergraph(3), hg);
  const Subgraph fresh(ds.FactsAt(3), ds.num_entities(), ds.num_relations());
  ExpectSameEdges(*g, fresh);
  const HyperSubgraph fresh_hg(fresh);
  EXPECT_EQ(hg->src(), fresh_hg.src());
  EXPECT_EQ(hg->hyper_rel(), fresh_hg.hyper_rel());
  EXPECT_EQ(hg->dst(), fresh_hg.dst());
}

TEST(GraphCacheTest, AdoptRefusesAnotherEntityCount) {
  tkg::TkgDataset ds = tkg::GenerateSynthetic(tkg::SyntheticConfig::YagoLike());
  tkg::TkgDataset grown(ds);
  grown.GrowVocab(ds.num_entities() + 5, ds.num_relations());
  GraphCache builder(&ds);
  builder.Prefetch({3, 4}, /*hypergraphs=*/true);
  GraphCache adopter(&grown);
  EXPECT_EQ(adopter.Adopt(builder), 0);
  EXPECT_TRUE(adopter.cached_times().empty());
  EXPECT_EQ(adopter.subgraph(3).num_entities(), ds.num_entities() + 5);
}

TEST(GraphCacheTest, AdoptRefusesFactsItDoesNotShare) {
  // Equal facts in separate buckets are not taken on trust.
  tkg::TkgDataset ds = tkg::GenerateSynthetic(tkg::SyntheticConfig::YagoLike());
  const tkg::TkgDataset twin =
      tkg::GenerateSynthetic(tkg::SyntheticConfig::YagoLike());
  ASSERT_EQ(twin.FactsAt(3), ds.FactsAt(3));
  GraphCache builder(&ds);
  builder.subgraph(3);
  GraphCache adopter(&twin);
  EXPECT_EQ(adopter.Adopt(builder), 0);
  EXPECT_NE(&adopter.subgraph(3), &builder.subgraph(3));
}

// Adopting from a cache while it evicts, and reading the adopter, from
// separate threads (run under ThreadSanitizer by scripts/check.sh).
TEST(GraphCacheTest, ConcurrentAdoptEvictAndLookups) {
  tkg::TkgDataset ds = tkg::GenerateSynthetic(tkg::SyntheticConfig::YagoLike());
  const tkg::TkgDataset copy(ds);
  const std::vector<int64_t> times = {0, 1, 2, 3, 4, 5, 6, 7};
  GraphCache builder(&ds);
  builder.Prefetch(times, /*hypergraphs=*/true);
  GraphCache adopter(&copy);
  std::vector<int64_t> edges;
  for (int64_t t : times) edges.push_back(builder.hypergraph(t).num_edges());

  std::thread evict([&] {
    for (int64_t t : times) {
      adopter.Adopt(builder);
      builder.EvictBefore(t + 1);
    }
  });
  std::thread read([&] {
    for (int round = 0; round < 4; ++round) {
      for (size_t i = 0; i < times.size(); ++i) {
        EXPECT_EQ(adopter.hypergraph(times[i]).num_edges(), edges[i]);
      }
    }
  });
  evict.join();
  read.join();
  EXPECT_EQ(adopter.cached_times(), times);
  EXPECT_TRUE(builder.cached_times().empty());
}

// Evicting a cache while it builds hypergraphs frees no subgraph that a
// build is still reading (ASan and TSan run this suite).
TEST(GraphCacheTest, EvictBeforeDuringBuildsOfTheSameCache) {
  tkg::TkgDataset ds = tkg::GenerateSynthetic(tkg::SyntheticConfig::YagoLike());
  const std::vector<int64_t> times = {0, 1, 2, 3, 4, 5, 6, 7};
  GraphCache reference(&ds);
  std::vector<int64_t> edges;
  for (int64_t t : times) edges.push_back(reference.hypergraph(t).num_edges());

  GraphCache cache(&ds);
  std::atomic<bool> done{false};
  std::thread evict([&] {
    while (!done.load()) cache.EvictBefore(times.back() + 1);
  });
  for (int round = 0; round < 20; ++round) {
    // The returned references go unused: the eviction may drop them.
    for (int64_t t : times) cache.hypergraph(t);
  }
  done.store(true);
  evict.join();
  for (size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(cache.hypergraph(times[i]).num_edges(), edges[i]);
  }
}

}  // namespace
}  // namespace retia::graph
