#include <cmath>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/decoder.h"
#include "core/retia.h"
#include "core/rgcn.h"
#include "grad_check.h"
#include "graph/graph_cache.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "tkg/synthetic.h"

namespace retia::core {
namespace {

using tensor::Tensor;
using ::retia::testing::ScatterPlan;
using ::retia::testing::TestTensor;

tkg::SyntheticConfig TinyConfig() {
  tkg::SyntheticConfig c;
  c.name = "tiny";
  c.num_entities = 30;
  c.num_relations = 5;
  c.num_timestamps = 12;
  c.facts_per_timestamp = 12;
  c.num_schemas = 30;
  c.max_period = 3;
  c.repeat_prob = 0.9;
  c.noise_frac = 0.1;
  c.seed = 99;
  return c;
}

RetiaConfig TinyModelConfig(const tkg::TkgDataset& ds) {
  RetiaConfig config;
  config.num_entities = ds.num_entities();
  config.num_relations = ds.num_relations();
  config.dim = 8;
  config.history_len = 3;
  config.conv_kernels = 4;
  config.num_bases = 2;
  return config;
}

// ---------------------------------------------------------------------------
// EntityRgcnLayer.

TEST(EntityRgcnLayerTest, OutputShape) {
  util::Rng rng(1);
  graph::Subgraph g({{0, 0, 1, 0}, {1, 1, 2, 0}}, 4, 2);
  EntityRgcnLayer layer(8, 4, 2, 0.0f, &rng);
  layer.SetTraining(false);
  Tensor out = layer.Forward(TestTensor({4, 8}, 2, false),
                             TestTensor({4, 8}, 3, false), g, &rng);
  EXPECT_EQ(out.Dim(0), 4);
  EXPECT_EQ(out.Dim(1), 8);
}

TEST(EntityRgcnLayerTest, IsolatedNodeOnlyGetsSelfLoop) {
  util::Rng rng(1);
  // Entity 3 has no edges; with zero node features and zero relation
  // features, every output row differs only via the self loop, which is
  // zero for a zero input row.
  graph::Subgraph g({{0, 0, 1, 0}}, 4, 1);
  EntityRgcnLayer layer(4, 2, 1, 0.0f, &rng);
  layer.SetTraining(false);
  Tensor nodes = Tensor::Zeros({4, 4});
  Tensor rels = TestTensor({2, 4}, 5, false);
  Tensor out = layer.Forward(nodes, rels, g, &rng);
  // Row 3 (isolated): self-loop of zero input = 0 before activation;
  // RReLU(0) = 0.
  for (int64_t j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(out.At(3, j), 0.0f);
  // Row 1 receives a message from entity 0 + relation 0: generally nonzero.
  float sum = 0.0f;
  for (int64_t j = 0; j < 4; ++j) sum += std::fabs(out.At(1, j));
  EXPECT_GT(sum, 1e-6f);
}

TEST(EntityRgcnLayerTest, GradientsReachAllParameters) {
  util::Rng rng(2);
  graph::Subgraph g({{0, 0, 1, 0}, {2, 1, 0, 0}}, 3, 2);
  EntityRgcnLayer layer(4, 4, 2, 0.0f, &rng);
  layer.SetTraining(false);
  Tensor nodes = TestTensor({3, 4}, 7);
  Tensor rels = TestTensor({4, 4}, 8);
  tensor::Sum(layer.Forward(nodes, rels, g, &rng)).Backward();
  EXPECT_TRUE(nodes.HasGrad());
  EXPECT_TRUE(rels.HasGrad());
  for (const Tensor& p : layer.Parameters()) {
    EXPECT_TRUE(p.HasGrad());
  }
}

TEST(EntityRgcnLayerTest, DegreeNormalizationAverationsParallelEdges) {
  util::Rng rng(3);
  // Two parallel facts (0,0,2) and (1,0,2): messages into 2 are averaged,
  // so doubling identical sources must not double the aggregate.
  EntityRgcnLayer layer(4, 2, 1, 0.0f, &rng);
  layer.SetTraining(false);
  Tensor nodes = TestTensor({3, 4}, 9, false);
  // Make the two source rows identical.
  for (int64_t j = 0; j < 4; ++j) nodes.At(1, j) = nodes.At(0, j);
  Tensor rels = TestTensor({2, 4}, 10, false);
  graph::Subgraph g1({{0, 0, 2, 0}}, 3, 1);
  graph::Subgraph g2({{0, 0, 2, 0}, {1, 0, 2, 0}}, 3, 1);
  Tensor out1 = layer.Forward(nodes, rels, g1, &rng);
  Tensor out2 = layer.Forward(nodes, rels, g2, &rng);
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(out1.At(2, j), out2.At(2, j), 1e-5f);
  }
}

// ---------------------------------------------------------------------------
// RelationRgcnLayer.

TEST(RelationRgcnLayerTest, OutputShapeAndGradients) {
  util::Rng rng(4);
  graph::Subgraph g({{0, 0, 1, 0}, {1, 1, 2, 0}}, 3, 2);
  graph::HyperSubgraph hg(g);
  ASSERT_GT(hg.num_edges(), 0);
  RelationRgcnLayer layer(4, 0.0f, &rng);
  layer.SetTraining(false);
  Tensor rels = TestTensor({4, 4}, 11);
  Tensor hypers = TestTensor({8, 4}, 12);
  Tensor out = layer.Forward(rels, hypers, hg, &rng);
  EXPECT_EQ(out.Dim(0), 4);
  tensor::Sum(out).Backward();
  EXPECT_TRUE(rels.HasGrad());
  EXPECT_TRUE(hypers.HasGrad());
}

TEST(RelationRgcnLayerTest, EmptyHypergraphStillProducesSelfLoopOutput) {
  util::Rng rng(5);
  graph::Subgraph g({}, 3, 2);
  graph::HyperSubgraph hg(g);
  RelationRgcnLayer layer(4, 0.0f, &rng);
  layer.SetTraining(false);
  Tensor out = layer.Forward(TestTensor({4, 4}, 13, false),
                             TestTensor({8, 4}, 14, false), hg, &rng);
  EXPECT_EQ(out.Dim(0), 4);
}

// Relation-to-relation message passing is the paper's fix for "message
// islands": changing an *adjacent relation's* embedding must change the
// output embedding of the relation it is hyper-connected to.
TEST(RelationRgcnLayerTest, MessagesCrossBetweenRelations) {
  util::Rng rng(6);
  graph::Subgraph g({{0, 0, 1, 0}, {1, 1, 2, 0}}, 3, 2);
  graph::HyperSubgraph hg(g);
  RelationRgcnLayer layer(4, 0.0f, &rng);
  layer.SetTraining(false);
  Tensor hypers = TestTensor({8, 4}, 15, false);
  Tensor rels_a = TestTensor({4, 4}, 16, false);
  Tensor rels_b = rels_a.Detach();
  // Perturb relation 0 only.
  for (int64_t j = 0; j < 4; ++j) rels_b.At(0, j) += 1.0f;
  Tensor out_a = layer.Forward(rels_a, hypers, hg, &rng);
  Tensor out_b = layer.Forward(rels_b, hypers, hg, &rng);
  // Relation 1's output must differ: the message from relation 0 reached it
  // through the hyperedge (impossible in RE-GCN-style modeling).
  float delta = 0.0f;
  for (int64_t j = 0; j < 4; ++j)
    delta += std::fabs(out_a.At(1, j) - out_b.At(1, j));
  EXPECT_GT(delta, 1e-4f);
}

// ---------------------------------------------------------------------------
// RelationRgcnLayer against the per-edge form of Eq. 1.
//
// The layer sums (1/c) (r_s + hr) per (r_o, hr) slot and then applies the
// eight W_hr in one GEMM. The per-edge form below transforms every
// hyperedge by its W_hr before it scatters: gather, one GEMM per
// hyperrelation group, then a scatter-add weighted by the degree norms.
// The two are equal in exact arithmetic (Eq. 1 is linear up to f, and a
// slot's weights 1/c sum to one), so they may differ only by rounding: per
// element at most 2 * gamma_n * sum|terms| with gamma_n = n u / (1 - n u),
// u = 2^-24, for n at least the longest chain of roundings in either order
// (Higham's summation bound, applied to both computations).

struct RelationLayerWeights {
  std::vector<Tensor> w_hr;  // 8 x [d,d]
  Tensor self_weight;        // [d,d]
};

RelationLayerWeights WeightsOf(const RelationRgcnLayer& layer) {
  RelationLayerWeights w;
  for (const auto& [name, t] : layer.NamedParameters()) {
    if (name == "self_weight") {
      w.self_weight = t;
    } else {
      w.w_hr.push_back(t);
    }
  }
  EXPECT_EQ(w.w_hr.size(), static_cast<size_t>(graph::kNumHyperRelationsAug));
  return w;
}

// Eq. 1 per hyperedge, with the eval-mode activation of the layer.
Tensor PerEdgeRelationLayer(const RelationLayerWeights& w,
                            const Tensor& relations,
                            const Tensor& hyperrelations,
                            const graph::HyperSubgraph& hg) {
  Tensor out = tensor::MatMulTransposeB(relations, w.self_weight);
  if (hg.num_edges() > 0) {
    Tensor x = tensor::Add(tensor::GatherRows(relations, hg.src()),
                           tensor::GatherRows(hyperrelations, hg.hyper_rel()));
    for (int64_t hr = 0; hr < graph::kNumHyperRelationsAug; ++hr) {
      std::vector<int64_t> edges, dsts;
      std::vector<float> norms;
      for (int64_t e = 0; e < hg.num_edges(); ++e) {
        if (hg.hyper_rel()[e] != hr) continue;
        edges.push_back(e);
        dsts.push_back(hg.dst()[e]);
        norms.push_back(hg.edge_norm()[e]);
      }
      if (edges.empty()) continue;
      Tensor msg =
          tensor::MatMulTransposeB(tensor::GatherRows(x, edges), w.w_hr[hr]);
      out = tensor::Add(out, tensor::AggregateRows(
                                 msg, ScatterPlan(dsts, relations.Dim(0),
                                                  norms)));
    }
  }
  return tensor::RRelu(out, 1.0f / 8.0f, 1.0f / 3.0f, /*training=*/false,
                       nullptr);
}

double Gamma(double n) {
  const double u = std::ldexp(1.0, -24);
  return n * u / (1.0 - n * u);
}

// A random subgraph over `entities` entities and `relations` relations;
// few entities per fact make Algorithm 1 dense.
graph::Subgraph RandomSubgraph(int64_t facts, int64_t entities,
                               int64_t relations, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<tkg::Quadruple> quads;
  for (int64_t i = 0; i < facts; ++i) {
    quads.push_back({rng.UniformInt(0, entities - 1),
                     rng.UniformInt(0, relations - 1),
                     rng.UniformInt(0, entities - 1), 0});
  }
  return graph::Subgraph(quads, entities, relations);
}

struct ReferenceCase {
  const char* name;
  int64_t facts, entities, relations, dim;
  uint64_t seed;
};

// Names the case in ctest names (instead of a byte dump of the struct).
void PrintTo(const ReferenceCase& c, std::ostream* os) { *os << c.name; }

class RelationRgcnReferenceTest
    : public ::testing::TestWithParam<ReferenceCase> {};

// Forward output and the gradients of R, HR, every w_hr and self_weight,
// for the loss sum(out * C) with a random C, against the per-edge form.
TEST_P(RelationRgcnReferenceTest, WithinAnalyticBoundOfPerEdgeForm) {
  const ReferenceCase& c = GetParam();
  const graph::Subgraph g =
      RandomSubgraph(c.facts, c.entities, c.relations, c.seed);
  const graph::HyperSubgraph hg(g);
  const int64_t d = c.dim;
  const int64_t n_rel = hg.num_relation_nodes();
  const int64_t n_hr = graph::kNumHyperRelationsAug;
  util::Rng rng(c.seed + 1);
  RelationRgcnLayer layer(d, /*dropout=*/0.2f, &rng);
  layer.SetTraining(false);
  const RelationLayerWeights w = WeightsOf(layer);
  Tensor rels = TestTensor({n_rel, d}, c.seed + 2);
  Tensor hypers = TestTensor({n_hr, d}, c.seed + 3);

  // sum|terms| of each output element, in double, with |r_s + hr| bounded
  // by |r_s| + |hr|, and the rounding-chain length of its row.
  auto at = [](const Tensor& t, int64_t i, int64_t j) {
    return std::fabs(static_cast<double>(t.Data()[i * t.Dim(1) + j]));
  };
  std::vector<int64_t> in_deg(n_rel, 0), out_deg(n_rel, 0), hr_edges(n_hr, 0);
  for (int64_t e = 0; e < hg.num_edges(); ++e) {
    ++in_deg[hg.dst()[e]];
    ++out_deg[hg.src()[e]];
    ++hr_edges[hg.hyper_rel()[e]];
  }
  const double base = 9.0 * static_cast<double>(d) + 16.0;
  std::vector<double> m_out(n_rel * d, 0.0);
  for (int64_t o = 0; o < n_rel; ++o)
    for (int64_t i = 0; i < d; ++i)
      for (int64_t k = 0; k < d; ++k)
        m_out[o * d + i] += at(rels, o, k) * at(w.self_weight, i, k);
  for (int64_t e = 0; e < hg.num_edges(); ++e) {
    const int64_t s = hg.src()[e], h = hg.hyper_rel()[e], o = hg.dst()[e];
    for (int64_t i = 0; i < d; ++i)
      for (int64_t k = 0; k < d; ++k)
        m_out[o * d + i] += hg.edge_norm()[e] *
                            (at(rels, s, k) + at(hypers, h, k)) *
                            at(w.w_hr[h], i, k);
  }
  auto out_bound = [&](int64_t i) {
    return 2.0 * Gamma(base + in_deg[i / d]) * m_out[i];
  };

  // The loss is sum(out * C) with a random C. An output inside its bound
  // may take the other RReLU branch in one of the two forms, so its C is
  // zero: every other element has the same slope in both.
  tensor::FloatBuffer out_ref;
  {
    tensor::NoGradGuard no_grad;
    out_ref = PerEdgeRelationLayer(w, rels, hypers, hg).impl().data;
  }
  Tensor upstream = TestTensor({n_rel, d}, c.seed + 4, false);
  const double slope = (1.0 / 8.0 + 1.0 / 3.0) / 2.0;
  std::vector<double> g_abs(n_rel * d);  // |d loss / d pre-activation|
  for (int64_t i = 0; i < n_rel * d; ++i) {
    if (std::fabs(out_ref[i]) <= out_bound(i)) upstream.Data()[i] = 0.0f;
    g_abs[i] = std::fabs(upstream.Data()[i]) * (out_ref[i] > 0 ? 1.0 : slope);
  }

  std::vector<Tensor> inputs = {rels, hypers};
  for (const Tensor& p : layer.Parameters()) inputs.push_back(p);
  // One forward + backward: the output, then the gradient of each input.
  auto run = [&](const std::function<Tensor()>& forward) {
    for (Tensor& t : inputs) {
      t.MutableGrad();
      t.ZeroGrad();
    }
    Tensor out = forward();
    tensor::Sum(tensor::Mul(out, upstream)).Backward();
    std::vector<tensor::FloatBuffer> result = {out.impl().data};
    for (const Tensor& t : inputs) result.push_back(t.Grad());
    return result;
  };
  const auto got =
      run([&] { return layer.Forward(rels, hypers, hg, nullptr); });
  const auto want =
      run([&] { return PerEdgeRelationLayer(w, rels, hypers, hg); });

  std::vector<double> m_rel(n_rel * d, 0.0), m_hr(n_hr * d, 0.0),
      m_self(d * d, 0.0);
  std::vector<std::vector<double>> m_w(n_hr, std::vector<double>(d * d, 0.0));
  for (int64_t o = 0; o < n_rel; ++o)
    for (int64_t i = 0; i < d; ++i)
      for (int64_t k = 0; k < d; ++k) {
        m_rel[o * d + k] += g_abs[o * d + i] * at(w.self_weight, i, k);
        m_self[i * d + k] += g_abs[o * d + i] * at(rels, o, k);
      }
  for (int64_t e = 0; e < hg.num_edges(); ++e) {
    const int64_t s = hg.src()[e], h = hg.hyper_rel()[e], o = hg.dst()[e];
    const double norm = hg.edge_norm()[e];
    for (int64_t i = 0; i < d; ++i)
      for (int64_t k = 0; k < d; ++k) {
        const double gw = norm * g_abs[o * d + i] * at(w.w_hr[h], i, k);
        m_rel[s * d + k] += gw;
        m_hr[h * d + k] += gw;
        m_w[h][i * d + k] +=
            norm * g_abs[o * d + i] * (at(rels, s, k) + at(hypers, h, k));
      }
  }

  // Checks one tensor against its reference; `bound(i)` is element i's.
  auto expect_within = [&](size_t which,
                           const std::function<double(int64_t)>& bound,
                           const std::string& what) {
    ASSERT_EQ(got[which].size(), want[which].size()) << what;
    for (size_t i = 0; i < want[which].size(); ++i) {
      const double diff = std::fabs(static_cast<double>(got[which][i]) -
                                    static_cast<double>(want[which][i]));
      ASSERT_LE(diff, bound(static_cast<int64_t>(i)))
          << what << " element " << i << ": " << got[which][i] << " vs "
          << want[which][i];
    }
  };
  // RReLU is 1-Lipschitz, so the activated outputs keep the bound.
  expect_within(0, out_bound, "output");
  expect_within(
      1,
      [&](int64_t i) {
        return 2.0 * Gamma(base + out_deg[i / d]) * m_rel[i];
      },
      "grad_relations");
  expect_within(
      2,
      [&](int64_t i) {
        return 2.0 * Gamma(base + hr_edges[i / d] + n_rel) * m_hr[i];
      },
      "grad_hyperrelations");
  for (int64_t h = 0; h < n_hr; ++h) {
    expect_within(
        3 + h,
        [&](int64_t i) {
          return 2.0 * Gamma(base + hr_edges[h] + n_rel) * m_w[h][i];
        },
        "grad_w_hr" + std::to_string(h));
  }
  expect_within(
      3 + n_hr,
      [&](int64_t i) { return 2.0 * Gamma(base + n_rel) * m_self[i]; },
      "grad_self_weight");
}

INSTANTIATE_TEST_SUITE_P(
    Hypergraphs, RelationRgcnReferenceTest,
    ::testing::Values(
        // No facts: no hyperedges, only the self loop.
        ReferenceCase{"empty", 0, 6, 3, 8, 11},
        // Sparse: most (r_o, hr) slots stay empty.
        ReferenceCase{"sparse", 6, 40, 12, 8, 12},
        ReferenceCase{"random_a", 30, 25, 6, 16, 13},
        ReferenceCase{"random_b", 60, 20, 10, 12, 14},
        // Dense like the paper-scale profile: many hyperedges per
        // relation node.
        ReferenceCase{"paper_like", 900, 60, 40, 16, 15}),
    [](const ::testing::TestParamInfo<ReferenceCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// ConvTransEDecoder.

TEST(ConvTransEDecoderTest, LogitShape) {
  util::Rng rng(7);
  ConvTransEDecoder dec(8, 4, 3, 0.0f, &rng);
  dec.SetTraining(false);
  Tensor logits = dec.Forward(TestTensor({5, 8}, 17, false),
                              TestTensor({5, 8}, 18, false),
                              TestTensor({11, 8}, 19, false), &rng);
  EXPECT_EQ(logits.Dim(0), 5);
  EXPECT_EQ(logits.Dim(1), 11);
}

TEST(ConvTransEDecoderTest, GradientsFlowToQueryAndCandidates) {
  util::Rng rng(8);
  ConvTransEDecoder dec(8, 4, 3, 0.0f, &rng);
  dec.SetTraining(false);
  Tensor a = TestTensor({2, 8}, 20);
  Tensor b = TestTensor({2, 8}, 21);
  Tensor cands = TestTensor({6, 8}, 22);
  tensor::Sum(dec.Forward(a, b, cands, &rng)).Backward();
  EXPECT_TRUE(a.HasGrad());
  EXPECT_TRUE(b.HasGrad());
  EXPECT_TRUE(cands.HasGrad());
  for (const Tensor& p : dec.Parameters()) EXPECT_TRUE(p.HasGrad());
}

TEST(ConvTransEDecoderTest, TrainableToPreferTarget) {
  // A single query trained to rank candidate 3 first.
  util::Rng rng(9);
  ConvTransEDecoder dec(6, 4, 3, 0.0f, &rng);
  Tensor a = TestTensor({1, 6}, 23, false);
  Tensor b = TestTensor({1, 6}, 24, false);
  Tensor cands = TestTensor({5, 6}, 25, false);
  std::vector<Tensor> params = dec.Parameters();
  nn::Adam opt(params, nn::Adam::Options{.lr = 0.01f});
  for (int step = 0; step < 200; ++step) {
    dec.ZeroGrad();
    Tensor logits = dec.Forward(a, b, cands, &rng);
    tensor::CrossEntropyLogits(logits, {3}).Backward();
    opt.Step();
  }
  dec.SetTraining(false);
  Tensor logits = dec.Forward(a, b, cands, &rng);
  int64_t best = 0;
  for (int64_t j = 1; j < 5; ++j)
    if (logits.At(0, j) > logits.At(0, best)) best = j;
  EXPECT_EQ(best, 3);
}

// ---------------------------------------------------------------------------
// RetiaModel: evolution across configurations.

class RetiaAblationTest : public ::testing::TestWithParam<RetiaConfig> {};

TEST_P(RetiaAblationTest, EvolveProducesWellFormedStates) {
  tkg::TkgDataset ds = tkg::GenerateSynthetic(TinyConfig());
  RetiaConfig config = GetParam();
  config.num_entities = ds.num_entities();
  config.num_relations = ds.num_relations();
  config.dim = 8;
  config.conv_kernels = 4;
  RetiaModel model(config);
  model.SetTraining(false);
  graph::GraphCache cache(&ds);
  tensor::NoGradGuard guard;
  auto states = model.Evolve(cache, cache.HistoryBefore(5, config.history_len));
  ASSERT_EQ(states.size(), 3u);
  for (const auto& st : states) {
    EXPECT_EQ(st.entities.Dim(0), ds.num_entities());
    EXPECT_EQ(st.entities.Dim(1), 8);
    EXPECT_EQ(st.relations.Dim(0), 2 * ds.num_relations());
    for (int64_t i = 0; i < st.entities.NumElements(); ++i) {
      EXPECT_TRUE(std::isfinite(st.entities.Data()[i]));
    }
    for (int64_t i = 0; i < st.relations.NumElements(); ++i) {
      EXPECT_TRUE(std::isfinite(st.relations.Data()[i]));
    }
  }
}

TEST_P(RetiaAblationTest, LossBackwardRuns) {
  tkg::TkgDataset ds = tkg::GenerateSynthetic(TinyConfig());
  RetiaConfig config = GetParam();
  config.num_entities = ds.num_entities();
  config.num_relations = ds.num_relations();
  config.dim = 8;
  config.conv_kernels = 4;
  RetiaModel model(config);
  graph::GraphCache cache(&ds);
  auto states = model.Evolve(cache, cache.HistoryBefore(5, config.history_len));
  auto loss = model.ComputeLoss(states, ds.FactsAt(5));
  EXPECT_TRUE(std::isfinite(loss.joint.Item()));
  EXPECT_GT(loss.entity_loss, 0.0f);
  EXPECT_GT(loss.relation_loss, 0.0f);
  loss.joint.Backward();  // must not crash
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RetiaAblationTest,
    ::testing::Values(
        RetiaConfig{},  // full model
        [] { RetiaConfig c; c.use_eam = false; return c; }(),
        [] { RetiaConfig c; c.use_ram = false; return c; }(),
        [] { RetiaConfig c; c.use_tim = false; return c; }(),
        [] { RetiaConfig c; c.hyper_mode = HyperMode::kNone; return c; }(),
        [] { RetiaConfig c; c.hyper_mode = HyperMode::kHmp; return c; }(),
        [] { RetiaConfig c; c.relation_mode = RelationMode::kNone; return c; }(),
        [] { RetiaConfig c; c.relation_mode = RelationMode::kMp; return c; }(),
        [] { RetiaConfig c; c.relation_mode = RelationMode::kMpLstm; return c; }(),
        [] { RetiaConfig c; c.time_variability_decode = false; return c; }()),
    [](const ::testing::TestParamInfo<RetiaConfig>& info) {
      const RetiaConfig& c = info.param;
      std::string name;
      if (!c.use_eam) name = "wo_eam";
      else if (!c.use_ram) name = "wo_ram";
      else if (!c.use_tim) name = "wo_tim";
      else if (c.relation_mode == RelationMode::kNone) name = "wo_rm";
      else if (c.relation_mode == RelationMode::kMp) name = "w_mp";
      else if (c.relation_mode == RelationMode::kMpLstm) name = "w_mp_lstm";
      else if (c.hyper_mode == HyperMode::kNone) name = "wo_hrm";
      else if (c.hyper_mode == HyperMode::kHmp) name = "w_hmp";
      else if (!c.time_variability_decode) name = "last_step_decode";
      else name = "full";
      return name + "_" + std::to_string(info.index);
    });

TEST(RetiaModelTest, EmptyHistoryYieldsInitialState) {
  tkg::TkgDataset ds = tkg::GenerateSynthetic(TinyConfig());
  RetiaModel model(TinyModelConfig(ds));
  graph::GraphCache cache(&ds);
  tensor::NoGradGuard guard;
  model.SetTraining(false);
  auto states = model.Evolve(cache, {});
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0].entities.Dim(0), ds.num_entities());
}

TEST(RetiaModelTest, ScoreObjectsSumsToHistoryLength) {
  // With time-variability decoding the summed softmax outputs total k per
  // row (each softmax sums to 1).
  tkg::TkgDataset ds = tkg::GenerateSynthetic(TinyConfig());
  RetiaConfig config = TinyModelConfig(ds);
  RetiaModel model(config);
  model.SetTraining(false);
  graph::GraphCache cache(&ds);
  tensor::NoGradGuard guard;
  auto states = model.Evolve(cache, cache.HistoryBefore(6, 3));
  Tensor p = model.ScoreObjects(states, {{0, 1}, {3, 2}});
  ASSERT_EQ(p.Dim(0), 2);
  ASSERT_EQ(p.Dim(1), ds.num_entities());
  for (int64_t i = 0; i < 2; ++i) {
    double total = 0.0;
    for (int64_t j = 0; j < p.Dim(1); ++j) total += p.At(i, j);
    EXPECT_NEAR(total, 3.0, 1e-3);
  }
}

TEST(RetiaModelTest, ScoreRelationsShape) {
  tkg::TkgDataset ds = tkg::GenerateSynthetic(TinyConfig());
  RetiaModel model(TinyModelConfig(ds));
  model.SetTraining(false);
  graph::GraphCache cache(&ds);
  tensor::NoGradGuard guard;
  auto states = model.Evolve(cache, cache.HistoryBefore(6, 3));
  Tensor p = model.ScoreRelations(states, {{0, 1}});
  EXPECT_EQ(p.Dim(0), 1);
  EXPECT_EQ(p.Dim(1), ds.num_relations());
}

TEST(RetiaModelTest, TrainingStepsReduceLoss) {
  tkg::TkgDataset ds = tkg::GenerateSynthetic(TinyConfig());
  RetiaConfig config = TinyModelConfig(ds);
  RetiaModel model(config);
  graph::GraphCache cache(&ds);
  std::vector<Tensor> params = model.Parameters();
  nn::Adam opt(params, nn::Adam::Options{.lr = 2e-3f});
  const std::vector<int64_t> history = cache.HistoryBefore(5, 3);
  const auto& facts = ds.FactsAt(5);
  float first_loss = 0.0f;
  float last_loss = 0.0f;
  for (int step = 0; step < 30; ++step) {
    model.ZeroGrad();
    auto states = model.Evolve(cache, history);
    auto loss = model.ComputeLoss(states, facts);
    if (step == 0) first_loss = loss.joint.Item();
    last_loss = loss.joint.Item();
    loss.joint.Backward();
    opt.Step();
  }
  EXPECT_LT(last_loss, first_loss * 0.8f);
}

TEST(RetiaModelTest, ParameterCountScalesWithVocabulary) {
  tkg::TkgDataset ds = tkg::GenerateSynthetic(TinyConfig());
  RetiaConfig config = TinyModelConfig(ds);
  RetiaModel model(config);
  // At minimum the three initial embedding tables are present.
  const int64_t minimum = ds.num_entities() * config.dim +
                          2 * ds.num_relations() * config.dim +
                          8 * config.dim;
  EXPECT_GT(model.NumParameters(), minimum);
}

// The backward closures hold the snapshot's AggregateRows plans by
// shared_ptr, so the tape outlives the GraphCache that built them: the
// gradients after the cache is gone equal those with it alive.
TEST(RetiaModelTest, BackwardOutlivesGraphCache) {
  tkg::TkgDataset ds = tkg::GenerateSynthetic(TinyConfig());
  auto grads = [&](bool drop_cache) {
    RetiaModel model(TinyModelConfig(ds));
    model.SetTraining(true);
    auto cache = std::make_unique<graph::GraphCache>(&ds);
    auto states = model.Evolve(*cache, cache->HistoryBefore(6, 3));
    auto loss = model.ComputeLoss(states, ds.FactsAt(6));
    if (drop_cache) cache.reset();
    loss.joint.Backward();
    std::vector<tensor::FloatBuffer> out;
    for (const Tensor& p : model.Parameters()) out.push_back(p.impl().grad);
    return out;
  };
  EXPECT_EQ(grads(/*drop_cache=*/true), grads(/*drop_cache=*/false));
}

// A snapshot's plans fix its entity count, so a model sized for another
// vocabulary dies at one named check before any op runs.
TEST(RetiaModelTest, EntityCountMismatchDiesAtNamedCheck) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  tkg::TkgDataset ds = tkg::GenerateSynthetic(TinyConfig());
  graph::GraphCache cache(&ds);
  const std::vector<int64_t> history = cache.HistoryBefore(6, 3);
  for (int64_t delta : {-1, 1}) {
    RetiaConfig config = TinyModelConfig(ds);
    config.num_entities += delta;
    RetiaModel model(config);
    EXPECT_DEATH(model.Evolve(cache, history),
                 "the entity table has " +
                     std::to_string(config.num_entities) +
                     " rows but the snapshot has " +
                     std::to_string(ds.num_entities()) + " entities");
  }
  util::Rng rng(1);
  const graph::Subgraph g({{0, 0, 1, 0}}, 4, 1);
  EntityRgcnLayer layer(4, 2, 1, 0.0f, &rng);
  EXPECT_DEATH(layer.Forward(Tensor::Zeros({5, 4}), Tensor::Zeros({2, 4}), g,
                             &rng),
               "the entity table has 5 rows but the snapshot has 4 entities");
}

TEST(RetiaModelTest, EvolveIsDeterministicInEvalMode) {
  tkg::TkgDataset ds = tkg::GenerateSynthetic(TinyConfig());
  RetiaModel model(TinyModelConfig(ds));
  model.SetTraining(false);
  graph::GraphCache cache(&ds);
  tensor::NoGradGuard guard;
  auto a = model.Evolve(cache, cache.HistoryBefore(6, 3));
  auto b = model.Evolve(cache, cache.HistoryBefore(6, 3));
  for (size_t i = 0; i < a.size(); ++i) {
    for (int64_t j = 0; j < a[i].entities.NumElements(); ++j) {
      ASSERT_EQ(a[i].entities.Data()[j], b[i].entities.Data()[j]);
    }
  }
}

}  // namespace
}  // namespace retia::core
