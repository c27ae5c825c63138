#include <gtest/gtest.h>

#include "baselines/regcn.h"
#include "core/retia.h"
#include "graph/graph_cache.h"
#include "tkg/synthetic.h"
#include "train/trainer.h"

namespace retia::train {
namespace {

tkg::TkgDataset SmallDataset() {
  tkg::SyntheticConfig c;
  c.name = "train-test";
  c.num_entities = 40;
  c.num_relations = 6;
  c.num_timestamps = 20;
  c.facts_per_timestamp = 15;
  c.num_schemas = 60;
  c.max_period = 3;
  c.repeat_prob = 0.9;
  c.noise_frac = 0.1;
  c.seed = 31;
  return tkg::GenerateSynthetic(c);
}

core::RetiaConfig SmallModelConfig(const tkg::TkgDataset& ds) {
  core::RetiaConfig config;
  config.num_entities = ds.num_entities();
  config.num_relations = ds.num_relations();
  config.dim = 8;
  config.history_len = 3;
  config.conv_kernels = 4;
  return config;
}

TEST(TrainerTest, LossDecreasesAcrossEpochs) {
  tkg::TkgDataset ds = SmallDataset();
  core::RetiaModel model(SmallModelConfig(ds));
  graph::GraphCache cache(&ds);
  TrainConfig config;
  config.max_epochs = 4;
  config.patience = 10;
  Trainer trainer(&model, &cache, config);
  std::vector<EpochRecord> records = trainer.TrainGeneral();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_LT(records.back().joint_loss, records.front().joint_loss);
}

TEST(TrainerTest, EarlyStoppingHonorsPatience) {
  tkg::TkgDataset ds = SmallDataset();
  core::RetiaModel model(SmallModelConfig(ds));
  graph::GraphCache cache(&ds);
  TrainConfig config;
  config.max_epochs = 50;
  config.patience = 1;  // stop at the first non-improving epoch
  Trainer trainer(&model, &cache, config);
  std::vector<EpochRecord> records = trainer.TrainGeneral();
  EXPECT_LT(records.size(), 50u);
}

TEST(TrainerTest, EvaluateOfflineProducesMetrics) {
  tkg::TkgDataset ds = SmallDataset();
  core::RetiaModel model(SmallModelConfig(ds));
  graph::GraphCache cache(&ds);
  TrainConfig config;
  config.max_epochs = 2;
  Trainer trainer(&model, &cache, config);
  trainer.TrainGeneral();
  eval::EvalResult r = trainer.Evaluate(ds.test_times(), /*online=*/false);
  EXPECT_GT(r.entity.count(), 0);
  EXPECT_GT(r.relation.count(), 0);
  EXPECT_GT(r.entity.Mrr(), 0.0);
  EXPECT_GT(r.predict_seconds, 0.0);
}

TEST(TrainerTest, OnlineEvaluationRunsAndKeepsMetricsFinite) {
  tkg::TkgDataset ds = SmallDataset();
  core::RetiaModel model(SmallModelConfig(ds));
  graph::GraphCache cache(&ds);
  TrainConfig config;
  config.max_epochs = 2;
  config.online_steps = 1;
  Trainer trainer(&model, &cache, config);
  trainer.TrainGeneral();
  eval::EvalResult r = trainer.Evaluate(ds.test_times(), /*online=*/true);
  EXPECT_GT(r.entity.Mrr(), 0.0);
  EXPECT_LE(r.entity.Mrr(), 100.0);
}

TEST(TrainerTest, OnlineUpdatesChangeParameters) {
  tkg::TkgDataset ds = SmallDataset();
  core::RetiaModel model(SmallModelConfig(ds));
  graph::GraphCache cache(&ds);
  TrainConfig config;
  config.max_epochs = 1;
  Trainer trainer(&model, &cache, config);
  trainer.TrainGeneral();
  const tensor::FloatBuffer before = model.Parameters()[0].impl().data;
  trainer.Evaluate(ds.test_times(), /*online=*/true);
  const tensor::FloatBuffer& after = model.Parameters()[0].impl().data;
  EXPECT_NE(before, after);
}

TEST(TrainerTest, OfflineEvaluationDoesNotChangeParameters) {
  tkg::TkgDataset ds = SmallDataset();
  core::RetiaModel model(SmallModelConfig(ds));
  graph::GraphCache cache(&ds);
  TrainConfig config;
  config.max_epochs = 1;
  Trainer trainer(&model, &cache, config);
  trainer.TrainGeneral();
  const tensor::FloatBuffer before = model.Parameters()[0].impl().data;
  trainer.Evaluate(ds.test_times(), /*online=*/false);
  EXPECT_EQ(before, model.Parameters()[0].impl().data);
}

TEST(TrainerTest, WorksWithRegcnBaseline) {
  tkg::TkgDataset ds = SmallDataset();
  baselines::RegcnConfig config;
  config.num_entities = ds.num_entities();
  config.num_relations = ds.num_relations();
  config.dim = 8;
  config.history_len = 3;
  config.conv_kernels = 4;
  baselines::RegcnModel model(config);
  graph::GraphCache cache(&ds);
  TrainConfig tc;
  tc.max_epochs = 2;
  Trainer trainer(&model, &cache, tc);
  std::vector<EpochRecord> records = trainer.TrainGeneral();
  EXPECT_EQ(records.size(), 2u);
  eval::EvalResult r = trainer.Evaluate(ds.test_times(), /*online=*/false);
  EXPECT_GT(r.entity.Mrr(), 0.0);
}

TEST(TrainerTest, RecordsValidationMrrPerEpoch) {
  tkg::TkgDataset ds = SmallDataset();
  core::RetiaModel model(SmallModelConfig(ds));
  graph::GraphCache cache(&ds);
  TrainConfig config;
  config.max_epochs = 2;
  Trainer trainer(&model, &cache, config);
  for (const EpochRecord& rec : trainer.TrainGeneral()) {
    EXPECT_GT(rec.valid_entity_mrr, 0.0);
    EXPECT_GT(rec.entity_loss, 0.0);
    EXPECT_GT(rec.relation_loss, 0.0);
    EXPECT_GT(rec.seconds, 0.0);
  }
}

// RE-GCN that counts its Evolve calls.
class CountingRegcn : public baselines::RegcnModel {
 public:
  using RegcnModel::RegcnModel;
  std::vector<StepState> Evolve(graph::GraphCache& cache,
                                const std::vector<int64_t>& history) override {
    ++evolves;
    return RegcnModel::Evolve(cache, history);
  }
  int64_t evolves = 0;
};

// The object and relation scores of one timestamp share one evolution;
// online, each fine-tune step evolves once more.
TEST(TrainerTest, EvaluateEvolvesEachTimestampOnce) {
  tkg::TkgDataset ds = SmallDataset();
  baselines::RegcnConfig config;
  config.num_entities = ds.num_entities();
  config.num_relations = ds.num_relations();
  config.dim = 8;
  config.conv_kernels = 4;
  config.time_variability_decode = true;
  CountingRegcn model(config);
  graph::GraphCache cache(&ds);
  Trainer trainer(&model, &cache, TrainConfig{});
  int64_t evaluated = 0;
  for (int64_t t : ds.test_times()) evaluated += !ds.FactsAt(t).empty();
  ASSERT_GT(evaluated, 0);

  trainer.Evaluate(ds.test_times(), /*online=*/false);
  EXPECT_EQ(model.evolves, evaluated);

  model.evolves = 0;
  trainer.Evaluate(ds.test_times(), /*online=*/true);
  EXPECT_GT(trainer.online_updates(), 0);
  EXPECT_EQ(model.evolves, evaluated + trainer.online_updates());
}

// Integration check of the paper's central claims on a dataset where
// relation structure matters: full RETIA must beat the "wo. RAM" ablation
// on relation forecasting after identical training budgets (Table VI).
TEST(TrainerIntegrationTest, RamAblationHurtsRelationForecasting) {
  tkg::TkgDataset ds = SmallDataset();
  graph::GraphCache cache(&ds);
  TrainConfig tc;
  tc.max_epochs = 6;
  tc.patience = 6;

  core::RetiaConfig full_config = SmallModelConfig(ds);
  core::RetiaModel full(full_config);
  Trainer full_trainer(&full, &cache, tc);
  full_trainer.TrainGeneral();
  eval::EvalResult full_result =
      full_trainer.Evaluate(ds.test_times(), /*online=*/false);

  core::RetiaConfig ablated_config = SmallModelConfig(ds);
  ablated_config.use_ram = false;
  core::RetiaModel ablated(ablated_config);
  Trainer ablated_trainer(&ablated, &cache, tc);
  ablated_trainer.TrainGeneral();
  eval::EvalResult ablated_result =
      ablated_trainer.Evaluate(ds.test_times(), /*online=*/false);

  EXPECT_GT(full_result.relation.Mrr(), ablated_result.relation.Mrr());
}

}  // namespace
}  // namespace retia::train
