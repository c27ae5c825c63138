#include <cmath>

#include <gtest/gtest.h>

#include "baselines/cygnet.h"
#include "baselines/regcn.h"
#include "baselines/renet.h"
#include "baselines/static_models.h"
#include "baselines/tirgn.h"
#include "baselines/ttranse.h"
#include "graph/graph_cache.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "tkg/synthetic.h"
#include "train/trainer.h"

namespace retia::baselines {
namespace {

using tensor::Tensor;

tkg::TkgDataset TinyDataset() {
  tkg::SyntheticConfig c;
  c.name = "tiny";
  c.num_entities = 25;
  c.num_relations = 4;
  c.num_timestamps = 12;
  c.facts_per_timestamp = 10;
  c.num_schemas = 24;
  c.max_period = 3;
  c.repeat_prob = 0.9;
  c.noise_frac = 0.1;
  c.seed = 5;
  return tkg::GenerateSynthetic(c);
}

// ---------------------------------------------------------------------------
// StaticModel: every scorer produces well-formed scores and trains.

class StaticScorerTest : public ::testing::TestWithParam<StaticScorerKind> {};

TEST_P(StaticScorerTest, ObjectScoresWellFormed) {
  StaticModelConfig config;
  config.kind = GetParam();
  config.num_entities = 25;
  config.num_relations = 4;
  config.dim = 8;
  config.conv_kernels = 4;
  StaticModel model(config);
  model.SetTraining(false);
  Tensor scores = model.ScoreObjects({{0, 0}, {3, 5}});
  ASSERT_EQ(scores.Dim(0), 2);
  ASSERT_EQ(scores.Dim(1), 25);
  for (int64_t i = 0; i < scores.NumElements(); ++i) {
    EXPECT_TRUE(std::isfinite(scores.Data()[i]));
  }
}

TEST_P(StaticScorerTest, FitReducesTrainingLoss) {
  tkg::TkgDataset ds = TinyDataset();
  StaticModelConfig config;
  config.kind = GetParam();
  config.num_entities = ds.num_entities();
  config.num_relations = ds.num_relations();
  config.dim = 8;
  config.conv_kernels = 4;
  StaticModel model(config);

  auto loss_on_train = [&] {
    tensor::NoGradGuard guard;
    model.SetTraining(false);
    std::vector<std::pair<int64_t, int64_t>> queries;
    std::vector<int64_t> targets;
    for (const tkg::Quadruple& q : ds.train()) {
      queries.emplace_back(q.subject, q.relation);
      targets.push_back(q.object);
    }
    return tensor::CrossEntropyLogits(model.ScoreObjects(queries), targets)
        .Item();
  };
  const float before = loss_on_train();
  model.Fit(ds, /*epochs=*/5, /*lr=*/5e-3f);
  const float after = loss_on_train();
  EXPECT_LT(after, before) << StaticScorerName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, StaticScorerTest,
    ::testing::Values(StaticScorerKind::kDistMult, StaticScorerKind::kComplEx,
                      StaticScorerKind::kRotatE, StaticScorerKind::kTransE,
                      StaticScorerKind::kConvE,
                      StaticScorerKind::kConvTransE),
    [](const ::testing::TestParamInfo<StaticScorerKind>& info) {
      std::string name = StaticScorerName(info.param);
      for (char& c : name)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

TEST(StaticModelTest, RelationScoresForSupportedKinds) {
  for (StaticScorerKind kind :
       {StaticScorerKind::kDistMult, StaticScorerKind::kComplEx,
        StaticScorerKind::kTransE, StaticScorerKind::kConvE,
        StaticScorerKind::kConvTransE}) {
    StaticModelConfig config;
    config.kind = kind;
    config.num_entities = 10;
    config.num_relations = 3;
    config.dim = 8;
    config.conv_kernels = 4;
    StaticModel model(config);
    model.SetTraining(false);
    Tensor scores = model.ScoreRelations({{0, 1}});
    EXPECT_EQ(scores.Dim(1), 3) << StaticScorerName(kind);
  }
}

TEST(StaticModelTest, RotatERelationScoringDies) {
  StaticModelConfig config;
  config.kind = StaticScorerKind::kRotatE;
  config.num_entities = 10;
  config.num_relations = 3;
  config.dim = 8;
  StaticModel model(config);
  EXPECT_DEATH(model.ScoreRelations({{0, 1}}), "RotatE");
}

TEST(StaticModelTest, OddDimDiesForComplexScorers) {
  StaticModelConfig config;
  config.kind = StaticScorerKind::kComplEx;
  config.num_entities = 10;
  config.num_relations = 3;
  config.dim = 7;
  EXPECT_DEATH(StaticModel model(config), "even embedding dim");
}

TEST(StaticModelTest, DistMultScoreMatchesManualTrilinear) {
  StaticModelConfig config;
  config.kind = StaticScorerKind::kDistMult;
  config.num_entities = 4;
  config.num_relations = 2;
  config.dim = 4;
  StaticModel model(config);
  model.SetTraining(false);
  Tensor scores = model.ScoreObjects({{1, 0}});
  // Manual: sum_k s[k] * r[k] * o[k] via parameter access.
  auto named = model.NamedParameters();
  Tensor ent, rel;
  for (auto& [name, t] : named) {
    if (name == "entities.table") ent = t;
    if (name == "relations.table") rel = t;
  }
  ASSERT_TRUE(ent.defined());
  for (int64_t o = 0; o < 4; ++o) {
    float expect = 0.0f;
    for (int64_t k = 0; k < 4; ++k)
      expect += ent.At(1, k) * rel.At(0, k) * ent.At(o, k);
    EXPECT_NEAR(scores.At(0, o), expect, 1e-5f);
  }
}

// ---------------------------------------------------------------------------
// TTransE.

TEST(TTransETest, ScoresClampFutureTimestamps) {
  tkg::TkgDataset ds = TinyDataset();
  TTransEModel model(ds.num_entities(), ds.num_relations(),
                     ds.num_timestamps(), 8);
  model.Fit(ds, /*epochs=*/1, /*lr=*/1e-3f);
  tensor::NoGradGuard guard;
  // A timestamp far beyond training must not crash (clamped embedding).
  Tensor scores = model.ScoreObjects(10'000, {{0, 0}});
  EXPECT_EQ(scores.Dim(1), ds.num_entities());
}

TEST(TTransETest, FitImprovesTrainRanking) {
  tkg::TkgDataset ds = TinyDataset();
  TTransEModel model(ds.num_entities(), ds.num_relations(),
                     ds.num_timestamps(), 12);
  auto mean_rank = [&] {
    tensor::NoGradGuard guard;
    double total = 0.0;
    int64_t n = 0;
    for (const tkg::Quadruple& q : ds.train()) {
      Tensor scores = model.ScoreObjects(q.time, {{q.subject, q.relation}});
      const float target = scores.At(0, q.object);
      int64_t rank = 1;
      for (int64_t j = 0; j < scores.Dim(1); ++j)
        if (scores.At(0, j) > target) ++rank;
      total += rank;
      ++n;
    }
    return total / n;
  };
  const double before = mean_rank();
  model.Fit(ds, /*epochs=*/10, /*lr=*/5e-3f);
  EXPECT_LT(mean_rank(), before);
}

// ---------------------------------------------------------------------------
// CyGNet.

TEST(CygnetTest, CopyProbsReflectHistoryCounts) {
  tkg::TkgDataset ds = TinyDataset();
  CygnetModel model(ds.num_entities(), ds.num_relations(), 8);
  model.ObserveUpTo(ds, 5);
  tensor::NoGradGuard guard;
  model.SetTraining(false);
  // Pick a fact that occurred before t=5 and check its object has mass.
  const tkg::Quadruple& q = ds.FactsAt(0)[0];
  Tensor p = model.ScoreObjects(5, {{q.subject, q.relation}});
  EXPECT_GT(p.At(0, q.object), 0.0f);
  // Probabilities are a valid mixture: rows sum to ~1 (copy rows with
  // history sum to 1; generation rows always do).
  double total = 0.0;
  for (int64_t j = 0; j < p.Dim(1); ++j) total += p.At(0, j);
  EXPECT_NEAR(total, 1.0, 1e-3);
}

TEST(CygnetTest, ScoreBeforeObservationDies) {
  tkg::TkgDataset ds = TinyDataset();
  CygnetModel model(ds.num_entities(), ds.num_relations(), 8);
  model.ObserveUpTo(ds, 2);
  EXPECT_DEATH(model.ScoreObjects(3, {{0, 0}}), "vocabulary");
}

TEST(CygnetTest, FitRuns) {
  tkg::TkgDataset ds = TinyDataset();
  CygnetModel model(ds.num_entities(), ds.num_relations(), 8);
  model.Fit(ds, /*epochs=*/2, /*lr=*/1e-3f);
  model.ObserveUpTo(ds, ds.num_timestamps());
  tensor::NoGradGuard guard;
  Tensor p = model.ScoreObjects(ds.num_timestamps(), {{0, 0}});
  EXPECT_EQ(p.Dim(1), ds.num_entities());
}

// ---------------------------------------------------------------------------
// RegcnModel (RE-GCN / RGCRN / CEN configurations).

RegcnConfig TinyRegcnConfig(const tkg::TkgDataset& ds) {
  RegcnConfig config;
  config.num_entities = ds.num_entities();
  config.num_relations = ds.num_relations();
  config.dim = 8;
  config.history_len = 3;
  config.conv_kernels = 4;
  return config;
}

TEST(RegcnTest, EvolveShapes) {
  tkg::TkgDataset ds = TinyDataset();
  RegcnModel model(TinyRegcnConfig(ds));
  model.SetTraining(false);
  graph::GraphCache cache(&ds);
  tensor::NoGradGuard guard;
  auto states = model.Evolve(cache, cache.HistoryBefore(5, 3));
  ASSERT_EQ(states.size(), 3u);
  EXPECT_EQ(states.back().entities.Dim(0), ds.num_entities());
  EXPECT_EQ(states.back().relations.Dim(0), 2 * ds.num_relations());
}

TEST(RegcnTest, RgcrnKeepsRelationsStatic) {
  tkg::TkgDataset ds = TinyDataset();
  RegcnConfig config = TinyRegcnConfig(ds);
  config.evolve_relations = false;  // RGCRN
  RegcnModel model(config);
  model.SetTraining(false);
  graph::GraphCache cache(&ds);
  tensor::NoGradGuard guard;
  auto states = model.Evolve(cache, cache.HistoryBefore(5, 3));
  // Relations identical across steps.
  for (size_t i = 1; i < states.size(); ++i) {
    for (int64_t j = 0; j < states[0].relations.NumElements(); ++j) {
      ASSERT_EQ(states[i].relations.Data()[j],
                states[0].relations.Data()[j]);
    }
  }
}

TEST(RegcnTest, RegcnEvolvesRelations) {
  tkg::TkgDataset ds = TinyDataset();
  RegcnModel model(TinyRegcnConfig(ds));
  model.SetTraining(false);
  graph::GraphCache cache(&ds);
  tensor::NoGradGuard guard;
  auto states = model.Evolve(cache, cache.HistoryBefore(5, 3));
  float delta = 0.0f;
  for (int64_t j = 0; j < states[0].relations.NumElements(); ++j) {
    delta += std::fabs(states[1].relations.Data()[j] -
                       states[0].relations.Data()[j]);
  }
  EXPECT_GT(delta, 1e-4f);
}

TEST(RegcnTest, CenDecodingSumsOverHistory) {
  tkg::TkgDataset ds = TinyDataset();
  RegcnConfig config = TinyRegcnConfig(ds);
  config.time_variability_decode = true;  // CEN
  RegcnModel model(config);
  model.SetTraining(false);
  graph::GraphCache cache(&ds);
  tensor::NoGradGuard guard;
  auto states = model.Evolve(cache, cache.HistoryBefore(5, 3));
  Tensor p = model.ScoreObjects(states, {{0, 0}});
  double total = 0.0;
  for (int64_t j = 0; j < p.Dim(1); ++j) total += p.At(0, j);
  EXPECT_NEAR(total, 3.0, 1e-3);  // k softmaxes summed
}

TEST(RegcnTest, RegcnDecodingUsesOnlyLastStep) {
  tkg::TkgDataset ds = TinyDataset();
  RegcnModel model(TinyRegcnConfig(ds));  // time_variability_decode=false
  model.SetTraining(false);
  graph::GraphCache cache(&ds);
  tensor::NoGradGuard guard;
  auto states = model.Evolve(cache, cache.HistoryBefore(5, 3));
  Tensor p = model.ScoreObjects(states, {{0, 0}});
  double total = 0.0;
  for (int64_t j = 0; j < p.Dim(1); ++j) total += p.At(0, j);
  EXPECT_NEAR(total, 1.0, 1e-3);
}

TEST(RegcnTest, LossBackwardTouchesAllParameters) {
  tkg::TkgDataset ds = TinyDataset();
  RegcnModel model(TinyRegcnConfig(ds));
  graph::GraphCache cache(&ds);
  auto states = model.Evolve(cache, cache.HistoryBefore(5, 3));
  auto loss = model.ComputeLoss(states, ds.FactsAt(5));
  loss.joint.Backward();
  int64_t with_grad = 0;
  for (const Tensor& p : model.Parameters()) {
    if (p.HasGrad()) ++with_grad;
  }
  EXPECT_GT(with_grad, 0);
}

// The snapshot's plans fix its entity count (see
// RetiaModelTest.EntityCountMismatchDiesAtNamedCheck).
TEST(RegcnTest, EntityCountMismatchDiesAtNamedCheck) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  tkg::TkgDataset ds = TinyDataset();
  graph::GraphCache cache(&ds);
  RegcnConfig config = TinyRegcnConfig(ds);
  config.num_entities += 1;
  RegcnModel model(config);
  EXPECT_DEATH(model.Evolve(cache, cache.HistoryBefore(5, 3)),
               "the entity table has 26 rows but the snapshot has 25");
}

// ---------------------------------------------------------------------------
// RE-NET-lite.

RenetConfig TinyRenetConfig(const tkg::TkgDataset& ds) {
  RenetConfig config;
  config.num_entities = ds.num_entities();
  config.num_relations = ds.num_relations();
  config.dim = 8;
  config.history_len = 3;
  return config;
}

TEST(RenetTest, EvolveKeepsRelationsStatic) {
  tkg::TkgDataset ds = TinyDataset();
  RenetModel model(TinyRenetConfig(ds));
  model.SetTraining(false);
  graph::GraphCache cache(&ds);
  tensor::NoGradGuard guard;
  auto states = model.Evolve(cache, cache.HistoryBefore(5, 3));
  ASSERT_EQ(states.size(), 3u);
  for (size_t i = 1; i < states.size(); ++i) {
    for (int64_t j = 0; j < states[0].relations.NumElements(); ++j) {
      ASSERT_EQ(states[i].relations.Data()[j],
                states[0].relations.Data()[j]);
    }
  }
}

TEST(RenetTest, EntitiesEvolveAcrossSteps) {
  tkg::TkgDataset ds = TinyDataset();
  RenetModel model(TinyRenetConfig(ds));
  model.SetTraining(false);
  graph::GraphCache cache(&ds);
  tensor::NoGradGuard guard;
  auto states = model.Evolve(cache, cache.HistoryBefore(5, 3));
  float delta = 0.0f;
  for (int64_t j = 0; j < states[0].entities.NumElements(); ++j) {
    delta += std::fabs(states[1].entities.Data()[j] -
                       states[0].entities.Data()[j]);
  }
  EXPECT_GT(delta, 1e-4f);
}

TEST(RenetTest, ScoresAreDistributions) {
  tkg::TkgDataset ds = TinyDataset();
  RenetModel model(TinyRenetConfig(ds));
  model.SetTraining(false);
  graph::GraphCache cache(&ds);
  tensor::NoGradGuard guard;
  auto states = model.Evolve(cache, cache.HistoryBefore(5, 3));
  tensor::Tensor p = model.ScoreObjects(states, {{0, 0}});
  double total = 0.0;
  for (int64_t j = 0; j < p.Dim(1); ++j) total += p.At(0, j);
  EXPECT_NEAR(total, 1.0, 1e-3);
  tensor::Tensor pr = model.ScoreRelations(states, {{0, 1}});
  EXPECT_EQ(pr.Dim(1), ds.num_relations());
}

TEST(RenetTest, TrainsViaTrainerInterface) {
  tkg::TkgDataset ds = TinyDataset();
  RenetModel model(TinyRenetConfig(ds));
  graph::GraphCache cache(&ds);
  train::TrainConfig tc;
  tc.max_epochs = 3;
  tc.patience = 5;
  train::Trainer trainer(&model, &cache, tc);
  auto records = trainer.TrainGeneral();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_LT(records.back().joint_loss, records.front().joint_loss);
}

TEST(RenetTest, EntityCountMismatchDiesAtNamedCheck) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  tkg::TkgDataset ds = TinyDataset();
  graph::GraphCache cache(&ds);
  RenetConfig config = TinyRenetConfig(ds);
  config.num_entities -= 1;
  RenetModel model(config);
  EXPECT_DEATH(model.Evolve(cache, cache.HistoryBefore(5, 3)),
               "the entity table has 24 rows but the snapshot has 25");
}

// ---------------------------------------------------------------------------
// TiRGN (local-global).

TirgnConfig TinyTirgnConfig(const tkg::TkgDataset& ds) {
  TirgnConfig config;
  config.local.num_entities = ds.num_entities();
  config.local.num_relations = ds.num_relations();
  config.local.dim = 8;
  config.local.history_len = 3;
  config.local.conv_kernels = 4;
  return config;
}

TEST(TirgnTest, RequiresDatasetBeforeScoring) {
  tkg::TkgDataset ds = TinyDataset();
  TirgnModel model(TinyTirgnConfig(ds));
  graph::GraphCache cache(&ds);
  model.SetTraining(false);
  tensor::NoGradGuard guard;
  auto states = model.Evolve(cache, cache.HistoryBefore(5, 3));
  EXPECT_DEATH(model.ScoreObjects(states, {{0, 0}}), "SetDataset");
}

TEST(TirgnTest, MixtureStaysAValidDistributionFamily) {
  tkg::TkgDataset ds = TinyDataset();
  TirgnModel model(TinyTirgnConfig(ds));
  model.SetDataset(&ds);
  model.SetTraining(false);
  graph::GraphCache cache(&ds);
  tensor::NoGradGuard guard;
  auto states = model.Evolve(cache, cache.HistoryBefore(5, 3));
  tensor::Tensor p = model.ScoreObjects(states, {{0, 0}, {1, 2}});
  ASSERT_EQ(p.Dim(1), ds.num_entities());
  for (int64_t i = 0; i < p.Dim(0); ++i) {
    double total = 0.0;
    for (int64_t j = 0; j < p.Dim(1); ++j) {
      EXPECT_GE(p.At(i, j), 0.0f);
      total += p.At(i, j);
    }
    // (1-a)*softmax + a*(copy or zero): total in [1-a, 1].
    EXPECT_LE(total, 1.0 + 1e-3);
    EXPECT_GE(total, 0.45);
  }
}

TEST(TirgnTest, GlobalIndexUsesOnlyThePast) {
  // A fact that exists only at a *future* timestamp must contribute no
  // global probability when evolving a history that ends before it.
  std::vector<tkg::Quadruple> train = {{0, 0, 1, 0}, {2, 1, 3, 1},
                                       {0, 0, 1, 2}};
  std::vector<tkg::Quadruple> valid = {{0, 0, 1, 3}};
  std::vector<tkg::Quadruple> test = {{0, 0, 4, 4}};
  tkg::TkgDataset ds("leak", 5, 2, train, valid, test);
  TirgnConfig config;
  config.local.num_entities = 5;
  config.local.num_relations = 2;
  config.local.dim = 8;
  config.local.history_len = 2;
  config.local.conv_kernels = 4;
  config.gate_init = 10.0f;  // gate ~1: output is (almost) purely global
  TirgnModel model(config);
  model.SetDataset(&ds);
  model.SetTraining(false);
  graph::GraphCache cache(&ds);
  tensor::NoGradGuard guard;
  auto states = model.Evolve(cache, cache.HistoryBefore(3, 2));
  tensor::Tensor p = model.ScoreObjects(states, {{0, 0}});
  // (0,0,4) only occurs at t=4 (the future): its global share must be ~0,
  // while (0,0,1) occurred twice in the past.
  EXPECT_GT(p.At(0, 1), 0.5f);
  EXPECT_LT(p.At(0, 4), 0.05f);
}

TEST(TirgnTest, TrainsViaTrainerInterface) {
  tkg::TkgDataset ds = TinyDataset();
  TirgnModel model(TinyTirgnConfig(ds));
  model.SetDataset(&ds);
  graph::GraphCache cache(&ds);
  train::TrainConfig tc;
  tc.max_epochs = 2;
  train::Trainer trainer(&model, &cache, tc);
  auto records = trainer.TrainGeneral();
  ASSERT_EQ(records.size(), 2u);
  eval::EvalResult r = trainer.Evaluate(ds.test_times(), false);
  EXPECT_GT(r.entity.Mrr(), 0.0);
}

TEST(TirgnTest, GlobalBranchBoostsRepeatedFacts) {
  tkg::TkgDataset ds = TinyDataset();
  TirgnConfig config = TinyTirgnConfig(ds);
  config.gate_init = 10.0f;  // essentially pure global
  TirgnModel model(config);
  model.SetDataset(&ds);
  model.SetTraining(false);
  graph::GraphCache cache(&ds);
  tensor::NoGradGuard guard;
  // Find a fact repeated at least twice before t.
  const int64_t t = ds.train_times().back();
  auto states = model.Evolve(cache, cache.HistoryBefore(t, 3));
  const tkg::Quadruple& q = ds.FactsAt(0)[0];
  tensor::Tensor p = model.ScoreObjects(states, {{q.subject, q.relation}});
  EXPECT_GT(p.At(0, q.object), 0.0f);
}

}  // namespace
}  // namespace retia::baselines
