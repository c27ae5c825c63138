// Tests for the optional/extension features: time-aware filtered
// evaluation, the cosine-hinge op and the static-graph constraint.

#include <gtest/gtest.h>

#include "core/retia.h"
#include "eval/evaluator.h"
#include "grad_check.h"
#include "graph/graph_cache.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "tkg/synthetic.h"
#include "train/trainer.h"

namespace retia {
namespace {

using tensor::Tensor;
using ::retia::testing::CheckGradients;
using ::retia::testing::TestTensor;

// ---------------------------------------------------------------------------
// Time-aware filtered evaluation.

TEST(TimeAwareFilterTest, FiltersConflictingTrueObjects) {
  // Two facts with the same (s, r) at the test timestamp: under raw
  // evaluation the other true object outranks the target; under the
  // time-aware filter it is removed.
  std::vector<tkg::Quadruple> train = {{0, 0, 1, 0}};
  std::vector<tkg::Quadruple> test = {{0, 0, 1, 2}, {0, 0, 2, 2}};
  tkg::TkgDataset ds("filter", 4, 1, train, {{0, 0, 1, 1}}, test);
  // Scores rank entity 1 > 2 > others for every query.
  eval::ObjectScoreFn object_fn =
      [&](int64_t, const std::vector<std::pair<int64_t, int64_t>>& q) {
        Tensor scores = Tensor::Zeros({static_cast<int64_t>(q.size()), 4});
        for (size_t i = 0; i < q.size(); ++i) {
          scores.At(i, 1) = 2.0f;
          scores.At(i, 2) = 1.0f;
        }
        return scores;
      };
  eval::EvalOptions raw;
  raw.evaluate_relations = false;
  eval::EvalResult raw_result =
      eval::EvaluateTimes(ds, {2}, object_fn, nullptr, raw);
  eval::EvalOptions filtered = raw;
  filtered.time_aware_filter = true;
  eval::EvalResult filtered_result =
      eval::EvaluateTimes(ds, {2}, object_fn, nullptr, filtered);
  // The filter can only improve ranks.
  EXPECT_GE(filtered_result.entity.Mrr(), raw_result.entity.Mrr());
  // Query (0,0)->2: raw rank 2 (entity 1 scores higher); filtered rank 1
  // (entity 1 is another true object and is removed).
  EXPECT_LT(raw_result.entity.Hits1(), filtered_result.entity.Hits1());
}

TEST(TimeAwareFilterTest, NoConflictsMeansIdenticalMetrics) {
  std::vector<tkg::Quadruple> test = {{0, 0, 1, 2}, {2, 0, 3, 2}};
  tkg::TkgDataset ds("nofilter", 4, 1, {{0, 0, 1, 0}}, {{0, 0, 1, 1}}, test);
  eval::ObjectScoreFn object_fn =
      [&](int64_t, const std::vector<std::pair<int64_t, int64_t>>& q) {
        Tensor scores = Tensor::Zeros({static_cast<int64_t>(q.size()), 4});
        for (size_t i = 0; i < q.size(); ++i) scores.At(i, 0) = 1.0f;
        return scores;
      };
  eval::EvalOptions raw;
  raw.evaluate_relations = false;
  eval::EvalOptions filtered = raw;
  filtered.time_aware_filter = true;
  // Queries here have unique true answers per direction except the
  // inverse-direction duplicates; metrics must match exactly since each
  // (s, r) has one object.
  eval::EvalResult a = eval::EvaluateTimes(ds, {2}, object_fn, nullptr, raw);
  eval::EvalResult b =
      eval::EvaluateTimes(ds, {2}, object_fn, nullptr, filtered);
  EXPECT_DOUBLE_EQ(a.entity.Mrr(), b.entity.Mrr());
}

// ---------------------------------------------------------------------------
// CosineHingeLoss.

TEST(CosineHingeLossTest, AlignedRowsGiveZeroLoss) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 0, 0, 0, 2, 0});
  Tensor b = Tensor::FromVector({2, 3}, {3, 0, 0, 0, 5, 0});
  EXPECT_NEAR(tensor::CosineHingeLoss(a, b, 0.9f).Item(), 0.0f, 1e-5f);
}

TEST(CosineHingeLossTest, OrthogonalRowsPayTheThreshold) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 0});
  Tensor b = Tensor::FromVector({1, 2}, {0, 1});
  EXPECT_NEAR(tensor::CosineHingeLoss(a, b, 0.5f).Item(), 0.5f, 1e-5f);
}

TEST(CosineHingeLossTest, GradientChecks) {
  Tensor a = TestTensor({3, 4}, 101);
  Tensor b = TestTensor({3, 4}, 102);
  CheckGradients(
      [&] { return tensor::CosineHingeLoss(a, b, 0.95f); }, {a, b},
      /*eps=*/1e-3f, /*tolerance=*/5e-2f);
}

TEST(CosineHingeLossTest, MinimizationAlignsVectors) {
  Tensor a = TestTensor({4, 6}, 103);
  Tensor b = TestTensor({4, 6}, 104, /*requires_grad=*/false);
  nn::Adam opt({a}, nn::Adam::Options{.lr = 0.05f});
  for (int step = 0; step < 300; ++step) {
    opt.ZeroGrad();
    tensor::CosineHingeLoss(a, b, 0.99f).Backward();
    opt.Step();
  }
  EXPECT_LT(tensor::CosineHingeLoss(a, b, 0.99f).Item(), 0.02f);
}

// ---------------------------------------------------------------------------
// Static-graph constraint on the full model.

TEST(StaticConstraintTest, RequiresConfigFlag) {
  core::RetiaConfig mc;
  mc.num_entities = 10;
  mc.num_relations = 2;
  mc.dim = 8;
  mc.conv_kernels = 4;
  core::RetiaModel model(mc);
  EXPECT_DEATH(model.SetEntityTypes(std::vector<int64_t>(10, 0), 1),
               "use_static_constraint");
}

TEST(StaticConstraintTest, AddsToLossAndTrains) {
  tkg::SyntheticConfig cfg;
  cfg.name = "static";
  cfg.num_entities = 30;
  cfg.num_relations = 4;
  cfg.num_timestamps = 12;
  cfg.facts_per_timestamp = 10;
  cfg.num_schemas = 20;
  tkg::TkgDataset ds = tkg::GenerateSynthetic(cfg);
  graph::GraphCache cache(&ds);

  core::RetiaConfig mc;
  mc.num_entities = ds.num_entities();
  mc.num_relations = ds.num_relations();
  mc.dim = 8;
  mc.conv_kernels = 4;
  mc.use_static_constraint = true;
  mc.static_weight = 1.0f;
  core::RetiaModel with(mc);
  std::vector<int64_t> types(ds.num_entities());
  for (size_t e = 0; e < types.size(); ++e) types[e] = e % 4;
  with.SetEntityTypes(types, 4);

  core::RetiaConfig mc_plain = mc;
  mc_plain.use_static_constraint = false;
  core::RetiaModel without(mc_plain);

  auto states_with = with.Evolve(cache, cache.HistoryBefore(5, 3));
  auto states_without = without.Evolve(cache, cache.HistoryBefore(5, 3));
  auto loss_with = with.ComputeLoss(states_with, ds.FactsAt(5));
  auto loss_without = without.ComputeLoss(states_without, ds.FactsAt(5));
  // The constrained joint loss includes the extra hinge term: for freshly
  // initialized (hence misaligned) embeddings it must be strictly larger
  // than its own task losses alone.
  const float task_only = mc.lambda_entity * loss_with.entity_loss +
                          (1 - mc.lambda_entity) * loss_with.relation_loss;
  EXPECT_GT(loss_with.joint.Item(), task_only + 1e-4f);
  // And the plain model's joint equals its task combination.
  const float plain_task =
      mc.lambda_entity * loss_without.entity_loss +
      (1 - mc.lambda_entity) * loss_without.relation_loss;
  EXPECT_NEAR(loss_without.joint.Item(), plain_task, 1e-4f);
  // Backward must reach the static type embeddings.
  loss_with.joint.Backward();
  bool static_grad = false;
  for (const auto& [name, p] : with.NamedParameters()) {
    if (name.rfind("static_type_init", 0) == 0 && p.HasGrad()) {
      static_grad = true;
    }
  }
  EXPECT_TRUE(static_grad);
}

TEST(StaticConstraintTest, TrainerRunsWithConstraint) {
  tkg::SyntheticConfig cfg;
  cfg.name = "static-train";
  cfg.num_entities = 30;
  cfg.num_relations = 4;
  cfg.num_timestamps = 12;
  cfg.facts_per_timestamp = 10;
  cfg.num_schemas = 20;
  tkg::TkgDataset ds = tkg::GenerateSynthetic(cfg);
  graph::GraphCache cache(&ds);
  core::RetiaConfig mc;
  mc.num_entities = ds.num_entities();
  mc.num_relations = ds.num_relations();
  mc.dim = 8;
  mc.conv_kernels = 4;
  mc.use_static_constraint = true;
  core::RetiaModel model(mc);
  std::vector<int64_t> types(ds.num_entities());
  for (size_t e = 0; e < types.size(); ++e) types[e] = e % 3;
  model.SetEntityTypes(types, 3);
  train::TrainConfig tc;
  tc.max_epochs = 2;
  train::Trainer trainer(&model, &cache, tc);
  auto records = trainer.TrainGeneral();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_LT(records[1].joint_loss, records[0].joint_loss * 1.5);
  eval::EvalResult r = trainer.Evaluate(ds.test_times(), false);
  EXPECT_GT(r.entity.Mrr(), 0.0);
}

}  // namespace
}  // namespace retia
