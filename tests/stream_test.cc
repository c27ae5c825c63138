// Tests for the retia::stream subsystem: validated ingestion with
// timestep bucketing and seal-once watermarks, entity-vocabulary growth,
// incremental fine-tuning with crash-safe RETIACKPT2 checkpoints (proved
// bit-exact under a real SIGKILL between fine-tune and publish), and
// zero-downtime snapshot hot-swap into the serving engine under
// concurrent queries. Registered under the ctest label `stream`
// (`ctest -L stream`, typically also in a -DRETIA_SANITIZE=thread build).

#include <signal.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/model_io.h"
#include "ckpt/result.h"
#include "core/retia.h"
#include "graph/graph_cache.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "stream/grow.h"
#include "stream/ingest.h"
#include "stream/online_trainer.h"
#include "stream/pipeline.h"
#include "tensor/tensor.h"
#include "tkg/dataset.h"
#include "tkg/synthetic.h"
#include "util/fail.h"

namespace retia {
namespace {

using stream::FrozenSnapshot;
using stream::IngestStatus;
using stream::OnlineTrainerConfig;
using stream::SealedBucket;
using stream::StreamIngest;
using stream::StreamPipeline;
using stream::StreamPipelineConfig;
using stream::UnseenPolicy;
using tkg::Quadruple;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

tkg::SyntheticConfig TinyDataConfig() {
  tkg::SyntheticConfig config;
  config.name = "stream-test";
  config.num_entities = 30;
  config.num_relations = 5;
  config.num_timestamps = 12;
  config.facts_per_timestamp = 12;
  config.num_schemas = 40;
  config.max_period = 4;
  config.seed = 17;
  return config;
}

core::RetiaConfig TinyModelConfig(const tkg::TkgDataset& dataset) {
  core::RetiaConfig config;
  config.num_entities = dataset.num_entities();
  config.num_relations = dataset.num_relations();
  config.dim = 12;
  config.history_len = 2;
  config.conv_kernels = 4;
  config.dropout = 0.0f;
  config.seed = 5;
  return config;
}

std::unique_ptr<tkg::TkgDataset> MakeLiveDataset() {
  return std::make_unique<tkg::TkgDataset>(
      tkg::GenerateSynthetic(TinyDataConfig()));
}

std::unique_ptr<core::RetiaModel> MakeModel(const tkg::TkgDataset& dataset) {
  return std::make_unique<core::RetiaModel>(TinyModelConfig(dataset));
}

std::string Params(const core::RetiaModel& model) {
  return ckpt::EncodeParams(model);
}

// A bucket of `copies` repetitions of one fact at timestamp `t` — the
// strongest possible fine-tune signal for its (s, r, ?) query.
std::vector<Quadruple> RepeatedFact(int64_t s, int64_t r, int64_t o,
                                    int64_t t, int64_t copies) {
  return std::vector<Quadruple>(static_cast<size_t>(copies),
                                Quadruple{s, r, o, t});
}

// Candidates of an entity query that must succeed; empty (and a test
// failure) otherwise.
std::vector<serve::ScoredCandidate> TopObjects(serve::ServeEngine& engine,
                                               int64_t s, int64_t r,
                                               int64_t t, int64_t k) {
  serve::Result<serve::QueryResult> result =
      engine.Submit(serve::Query::Entity(s, r, t, k));
  EXPECT_TRUE(result.ok()) << result.ToString();
  return result.ok() ? result.take().candidates
                     : std::vector<serve::ScoredCandidate>{};
}

// Rank (0-based) of `o` in a full-depth ranking; -1 when absent.
int64_t RankOf(const std::vector<serve::ScoredCandidate>& candidates,
               int64_t o) {
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].id == o) return static_cast<int64_t>(i);
  }
  return -1;
}

// ---- Ingestion --------------------------------------------------------------

constexpr int64_t kMaxId = std::numeric_limits<int64_t>::max();

TEST(StreamIngestTest, BucketsSealsAndRejectsLate) {
  std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
  const int64_t t0 = live->max_time();
  StreamIngest ingest(live.get());

  // Out-of-order arrivals within the open frontier are fine.
  EXPECT_EQ(ingest.Offer({1, 2, 3, t0 + 2}), IngestStatus::kAccepted);
  EXPECT_EQ(ingest.Offer({4, 1, 5, t0 + 1}), IngestStatus::kAccepted);
  EXPECT_EQ(ingest.Offer({2, 0, 6, t0 + 1}), IngestStatus::kAccepted);
  EXPECT_EQ(ingest.pending(), 3);
  EXPECT_EQ(ingest.frontier(), t0);

  // Sealing below t0+2 appends exactly the t0+1 bucket.
  std::vector<SealedBucket> sealed = ingest.SealBefore(t0 + 2);
  ASSERT_EQ(sealed.size(), 1u);
  EXPECT_EQ(sealed[0].time, t0 + 1);
  EXPECT_EQ(sealed[0].facts.size(), 2u);
  EXPECT_EQ(sealed[0].arrival_ns.size(), 2u);
  EXPECT_EQ(ingest.frontier(), t0 + 1);
  EXPECT_EQ(ingest.pending(), 1);
  EXPECT_EQ(live->max_time(), t0 + 1);
  EXPECT_EQ(live->FactsAt(t0 + 1).size(), 2u);

  // The sealed timestep is closed: arrivals there are late now.
  EXPECT_EQ(ingest.Offer({7, 2, 8, t0 + 1}), IngestStatus::kRejectedLate);
  // So is anything at or below the announced watermark minus one.
  EXPECT_EQ(ingest.Offer({7, 2, 8, t0}), IngestStatus::kRejectedLate);

  // Flush seals the rest.
  sealed = ingest.Flush();
  ASSERT_EQ(sealed.size(), 1u);
  EXPECT_EQ(sealed[0].time, t0 + 2);
  EXPECT_EQ(ingest.pending(), 0);
  EXPECT_EQ(live->max_time(), t0 + 2);

  EXPECT_EQ(ingest.counters().offered, 5);
  EXPECT_EQ(ingest.counters().accepted, 3);
  EXPECT_EQ(ingest.counters().rejected_late, 2);
  EXPECT_EQ(ingest.counters().sealed_buckets, 2);
  EXPECT_EQ(ingest.counters().sealed_facts, 3);
}

TEST(StreamIngestTest, RejectsInvalidAndUnseenIds) {
  std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
  const int64_t n = live->num_entities();
  const int64_t m = live->num_relations();
  const int64_t t = live->max_time() + 1;
  StreamIngest ingest(live.get());  // default policy: kReject

  EXPECT_EQ(ingest.Offer({-1, 0, 0, t}), IngestStatus::kRejectedInvalid);
  EXPECT_EQ(ingest.Offer({0, 0, 0, -3}), IngestStatus::kRejectedInvalid);
  EXPECT_EQ(ingest.Offer({0, m, 0, t}), IngestStatus::kRejectedUnseenRelation);
  EXPECT_EQ(ingest.Offer({n, 0, 0, t}), IngestStatus::kRejectedUnseenEntity);
  EXPECT_EQ(ingest.Offer({0, 0, n, t}), IngestStatus::kRejectedUnseenEntity);
  EXPECT_EQ(live->num_entities(), n);  // kReject never grows

  EXPECT_EQ(ingest.counters().rejected_invalid, 2);
  EXPECT_EQ(ingest.counters().rejected_unseen_relation, 1);
  EXPECT_EQ(ingest.counters().rejected_unseen_entity, 2);
  EXPECT_EQ(ingest.counters().accepted, 0);

  // Ids at the top of the int64 range are unseen too, and a following
  // seal appends only the accepted fact.
  EXPECT_EQ(ingest.Offer({kMaxId, 0, 1, t}),
            IngestStatus::kRejectedUnseenEntity);
  EXPECT_EQ(ingest.Offer({1, 0, kMaxId, t}),
            IngestStatus::kRejectedUnseenEntity);
  EXPECT_EQ(ingest.Offer({1, 0, 2, t}), IngestStatus::kAccepted);
  EXPECT_EQ(ingest.counters().rejected_unseen_entity, 4);
  const std::vector<SealedBucket> sealed = ingest.Flush();
  ASSERT_EQ(sealed.size(), 1u);
  EXPECT_EQ(sealed[0].facts.size(), 1u);
  EXPECT_EQ(live->FactsAt(t).size(), 1u);
  EXPECT_EQ(live->num_entities(), n);
}

TEST(StreamIngestTest, GrowEntitiesPolicyGrowsVocabUpToCap) {
  std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
  const int64_t n = live->num_entities();
  const int64_t t = live->max_time() + 1;
  stream::IngestConfig config;
  config.unseen_policy = UnseenPolicy::kGrowEntities;
  config.max_entities = n + 4;
  StreamIngest ingest(live.get(), config);

  EXPECT_EQ(ingest.Offer({n + 2, 0, 1, t}), IngestStatus::kAccepted);
  EXPECT_EQ(live->num_entities(), n + 3);
  EXPECT_EQ(ingest.counters().grown_entities, 3);

  // Relations never grow, regardless of policy.
  EXPECT_EQ(ingest.Offer({0, live->num_relations(), 0, t}),
            IngestStatus::kRejectedUnseenRelation);

  // The growth cap holds.
  EXPECT_EQ(ingest.Offer({n + 10, 0, 1, t}),
            IngestStatus::kRejectedUnseenEntity);
  EXPECT_EQ(live->num_entities(), n + 3);

  // Ids at the top of the int64 range are beyond any cap, and a following
  // seal appends only the first, accepted fact.
  EXPECT_EQ(ingest.Offer({kMaxId, 0, 1, t}),
            IngestStatus::kRejectedUnseenEntity);
  EXPECT_EQ(ingest.Offer({1, 0, kMaxId, t}),
            IngestStatus::kRejectedUnseenEntity);
  EXPECT_EQ(ingest.counters().rejected_unseen_entity, 3);
  EXPECT_EQ(ingest.counters().grown_entities, 3);
  const std::vector<SealedBucket> sealed = ingest.Flush();
  ASSERT_EQ(sealed.size(), 1u);
  EXPECT_EQ(sealed[0].facts.size(), 1u);
  EXPECT_EQ(live->FactsAt(t).size(), 1u);
  EXPECT_EQ(live->num_entities(), n + 3);
}

// ---- Dataset append / graph-cache visibility --------------------------------

TEST(StreamDatasetTest, AppendedBucketIsVisibleToHistoryWithoutRebuild) {
  std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
  graph::GraphCache cache(live.get());
  const int64_t t0 = live->max_time();

  const std::vector<int64_t> before = cache.HistoryBefore(t0 + 2, 3);
  ASSERT_FALSE(before.empty());
  EXPECT_LE(before.back(), t0);

  live->AppendBucket(t0 + 1, {{1, 2, 3, t0 + 1}});
  const std::vector<int64_t> after = cache.HistoryBefore(t0 + 2, 3);
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(after.back(), t0 + 1);  // the same cache sees the new frontier
  // One fact builds two edges (the inverse-augmented pair).
  EXPECT_EQ(cache.subgraph(t0 + 1).num_edges(), 2);
}

// ---- Model growth / cloning -------------------------------------------------

TEST(StreamGrowTest, CloneIsBitExact) {
  std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
  std::unique_ptr<core::RetiaModel> model = MakeModel(*live);
  std::unique_ptr<core::RetiaModel> clone = stream::CloneModel(*model);
  EXPECT_EQ(Params(*model), Params(*clone));
  EXPECT_FALSE(clone->training());
}

void ExpectSameBits(const tensor::Tensor& got, const tensor::Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.Shape(), want.Shape()) << what;
  EXPECT_EQ(std::memcmp(got.Data(), want.Data(),
                        static_cast<size_t>(want.NumElements()) *
                            sizeof(float)),
            0)
      << what << " differs between the clone and its source";
}

// The clone draws no initialization, so the state outside the parameter
// list must be copied too: an ablated model's frozen embeddings, and the
// static-constraint type table.
TEST(StreamGrowTest, CloneOfAblatedModelMatchesSource) {
  std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
  graph::GraphCache cache(live.get());
  const std::vector<int64_t> history =
      cache.HistoryBefore(live->max_time(), 2);
  ASSERT_FALSE(history.empty());
  const std::vector<std::pair<int64_t, int64_t>> entity_queries = {
      {0, 1}, {3, 7}, {11, 4}};
  const std::vector<std::pair<int64_t, int64_t>> relation_queries = {
      {0, 5}, {3, 9}, {11, 2}};
  const char* const kAblations[] = {"use_eam=false", "use_ram=false",
                                    "use_tim=false"};
  for (int ablation = 0; ablation < 3; ++ablation) {
    SCOPED_TRACE(kAblations[ablation]);
    core::RetiaConfig config = TinyModelConfig(*live);
    config.use_eam = ablation != 0;
    config.use_ram = ablation != 1;
    config.use_tim = ablation != 2;
    core::RetiaModel source(config);
    // Move the parameters off their initialization, so only a copy (not a
    // re-draw) reproduces them.
    for (auto& [name, param] : source.NamedParameters()) {
      tensor::FloatBuffer& data = param.impl().data;
      for (size_t i = 0; i < data.size(); ++i) data[i] += 0.01f * (i % 7);
    }
    source.SetTraining(false);
    std::unique_ptr<core::RetiaModel> clone = stream::CloneModel(source);
    EXPECT_EQ(Params(*clone), Params(source));

    tensor::NoGradGuard no_grad;
    const std::vector<core::EvolutionModel::StepState> want =
        source.Evolve(cache, history);
    const std::vector<core::EvolutionModel::StepState> got =
        clone->Evolve(cache, history);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ExpectSameBits(got[i].entities, want[i].entities, "evolved entities");
      ExpectSameBits(got[i].relations, want[i].relations,
                     "evolved relations");
    }
    ExpectSameBits(clone->ScoreObjectsFrozen(got, entity_queries),
                   source.ScoreObjectsFrozen(want, entity_queries),
                   "ScoreObjectsFrozen");
    ExpectSameBits(clone->ScoreRelationsFrozen(got, relation_queries),
                   source.ScoreRelationsFrozen(want, relation_queries),
                   "ScoreRelationsFrozen");
  }

  core::RetiaConfig config = TinyModelConfig(*live);
  config.use_static_constraint = true;
  core::RetiaModel source(config);
  std::vector<int64_t> types(static_cast<size_t>(config.num_entities));
  for (size_t e = 0; e < types.size(); ++e) types[e] = (e * 5) % 3;
  source.SetEntityTypes(types, 3);
  std::unique_ptr<core::RetiaModel> clone = stream::CloneModel(source);
  EXPECT_TRUE(clone->has_entity_types());
  EXPECT_EQ(clone->entity_types(), source.entity_types());
  EXPECT_EQ(clone->num_static_types(), source.num_static_types());
  EXPECT_EQ(Params(*clone), Params(source));
}

TEST(StreamGrowTest, GrowCopiesOldRowsBitExactAndKeepsFreshTail) {
  std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
  std::unique_ptr<core::RetiaModel> model = MakeModel(*live);
  const int64_t old_n = model->config().num_entities;
  const int64_t new_n = old_n + 4;
  std::unique_ptr<core::RetiaModel> grown =
      stream::GrowEntityVocab(*model, new_n);
  EXPECT_EQ(grown->config().num_entities, new_n);

  std::map<std::string, tensor::Tensor> old_params;
  for (auto& [name, t] : model->NamedParameters()) old_params.emplace(name, t);
  int64_t checked = 0;
  for (auto& [name, grown_t] : grown->NamedParameters()) {
    ASSERT_TRUE(old_params.count(name)) << name;
    const tensor::Tensor& old_t = old_params.at(name);
    const tensor::FloatBuffer& old_data = old_t.impl().data;
    const tensor::FloatBuffer& new_data = grown_t.impl().data;
    if (name == "entity_init.table") {
      ASSERT_EQ(grown_t.Dim(0), new_n);
      // Old rows carry over bit-exactly; the tail rows are a fresh Xavier
      // init (not all-zero).
      ASSERT_TRUE(std::equal(old_data.begin(), old_data.end(),
                             new_data.begin()));
      const auto tail_begin = new_data.begin() + old_data.size();
      EXPECT_TRUE(std::any_of(tail_begin, new_data.end(),
                              [](float v) { return v != 0.0f; }));
    } else {
      ASSERT_EQ(old_data.size(), new_data.size()) << name;
      EXPECT_EQ(old_data, new_data) << name;
    }
    ++checked;
  }
  EXPECT_EQ(checked, static_cast<int64_t>(old_params.size()));
}

TEST(StreamGrowTest, OnlineTrainerSyncsVocabAfterIngestGrowth) {
  std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
  std::unique_ptr<core::RetiaModel> model = MakeModel(*live);
  const int64_t n = live->num_entities();
  const int64_t t = live->max_time() + 1;
  stream::OnlineTrainer trainer(std::move(model), live.get(),
                                {.steps_per_time = 1, .lr = 0.01f});
  stream::IngestConfig config;
  config.unseen_policy = UnseenPolicy::kGrowEntities;
  StreamIngest ingest(live.get(), config);

  EXPECT_FALSE(trainer.SyncVocab());  // nothing grew yet
  ASSERT_EQ(ingest.Offer({n + 1, 0, 2, t}), IngestStatus::kAccepted);
  ingest.SealBefore(t + 1);
  EXPECT_TRUE(trainer.SyncVocab());
  EXPECT_EQ(trainer.model().config().num_entities, n + 2);
  EXPECT_GT(trainer.FineTuneThrough(t), 0);
  EXPECT_EQ(trainer.last_trained_time(), t);
}

// ---- Pipeline: the acceptance criterion -------------------------------------

// A newly ingested fact must measurably change the top-k answer for its
// (s, r, t) query after one fine-tune window.
TEST(StreamPipelineTest, IngestedFactChangesTopKAfterOneWindow) {
  std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
  const int64_t n = live->num_entities();
  std::unique_ptr<core::RetiaModel> model = MakeModel(*live);
  const int64_t t_new = live->max_time() + 1;
  const int64_t t_query = t_new + 1;
  const int64_t s = 3, r = 2, o = 17;

  StreamPipelineConfig config;
  config.window = 1;
  config.trainer.steps_per_time = 8;
  config.trainer.lr = 0.1f;
  config.serve.max_k = n;  // full-depth ranking so we can find o's rank
  StreamPipeline pipeline(std::move(model), std::move(live), config);

  const std::vector<serve::ScoredCandidate> before =
      TopObjects(pipeline.engine(), s, r, t_query, n);
  const int64_t rank_before = RankOf(before, o);
  ASSERT_GE(rank_before, 0);

  pipeline.OfferBatch(RepeatedFact(s, r, o, t_new, 25));
  EXPECT_EQ(pipeline.AdvanceTo(t_query), 1);  // one window published

  const std::vector<serve::ScoredCandidate> after =
      TopObjects(pipeline.engine(), s, r, t_query, n);
  const int64_t rank_after = RankOf(after, o);
  ASSERT_GE(rank_after, 0);
  EXPECT_LT(rank_after, rank_before)
      << "fine-tuning on the ingested fact must improve its object's rank";
  EXPECT_EQ(rank_after, 0)
      << "25 repetitions x 8 steps should put the object on top";
  EXPECT_NE(before, after);

  const stream::StreamStatus status = pipeline.Status();
  EXPECT_EQ(status.publishes, 1);
  EXPECT_EQ(status.frontier, t_new);
  EXPECT_EQ(status.last_trained_time, t_new);
  EXPECT_GT(status.updates, 0);
  EXPECT_EQ(pipeline.engine().snapshot_swaps(), 1);
  EXPECT_EQ(pipeline.staleness_us().size(), 25u);
  for (int64_t us : pipeline.staleness_us()) EXPECT_GE(us, 0);
}

// ---- Checkpoint / resume ----------------------------------------------------

std::vector<Quadruple> WindowBucket(int64_t t, uint64_t salt) {
  // A deterministic mixed bucket at timestamp t.
  std::vector<Quadruple> facts;
  for (int64_t i = 0; i < 6; ++i) {
    const int64_t s = (3 * i + static_cast<int64_t>(salt)) % 30;
    facts.push_back({s, (i + 1) % 5, (s + 7 + i) % 30, t});
  }
  return facts;
}

TEST(StreamResumeTest, ResumeAfterFirstWindowMatchesUninterruptedBitExact) {
  const std::string ckpt_a = TempPath("stream_resume_interrupted.ckpt");
  const std::string ckpt_c = TempPath("stream_resume_reference.ckpt");
  auto make_config = [](const std::string& path) {
    StreamPipelineConfig config;
    config.window = 1;
    config.trainer.steps_per_time = 2;
    config.trainer.lr = 0.01f;
    config.trainer.checkpoint_path = path;
    return config;
  };

  int64_t t1 = 0, t2 = 0;

  // Reference run C: both windows, uninterrupted.
  std::string final_params, final_ckpt_params;
  int64_t final_updates = 0;
  {
    std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
    t1 = live->max_time() + 1;
    t2 = t1 + 1;
    std::unique_ptr<core::RetiaModel> model = MakeModel(*live);
    StreamPipeline c(std::move(model), std::move(live), make_config(ckpt_c));
    c.OfferBatch(WindowBucket(t1, 1));
    ASSERT_EQ(c.AdvanceTo(t2), 1);
    c.OfferBatch(WindowBucket(t2, 2));
    ASSERT_EQ(c.AdvanceTo(t2 + 1), 1);
    final_params = Params(c.trainer().model());
    final_updates = c.Status().updates;
  }

  // Interrupted run A: first window only, then the process "dies" (the
  // pipeline is simply destroyed; the checkpoint is what survives).
  {
    std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
    std::unique_ptr<core::RetiaModel> model = MakeModel(*live);
    StreamPipeline a(std::move(model), std::move(live), make_config(ckpt_a));
    a.OfferBatch(WindowBucket(t1, 1));
    ASSERT_EQ(a.AdvanceTo(t2), 1);
  }

  // Resumed run B: fresh base state, restore, replay window 1 (appended
  // for history, not re-trained), stream window 2.
  {
    std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
    std::unique_ptr<core::RetiaModel> model = MakeModel(*live);
    StreamPipeline b(std::move(model), std::move(live), make_config(ckpt_a));
    const ckpt::Result resumed = b.Resume();
    ASSERT_TRUE(resumed.ok()) << resumed.ToString();
    EXPECT_EQ(b.trainer().last_trained_time(), t1);

    b.OfferBatch(WindowBucket(t1, 1));  // replayed: history only
    const int64_t updates_before_replay = b.Status().updates;
    ASSERT_EQ(b.AdvanceTo(t2), 1);
    EXPECT_EQ(b.Status().updates, updates_before_replay)
        << "already-trained timesteps must not be re-trained on replay";

    b.OfferBatch(WindowBucket(t2, 2));
    ASSERT_EQ(b.AdvanceTo(t2 + 1), 1);
    EXPECT_EQ(Params(b.trainer().model()), final_params)
        << "resumed run diverged from the uninterrupted one";
    EXPECT_EQ(b.Status().updates, final_updates);
  }
}

// The ISSUE's crash drill: SIGKILL lands between a window's fine-tune
// checkpoint and its publish. The checkpoint must resume bit-exact and
// the on-disk serve snapshot must be old-or-new, never torn.
TEST(StreamResumeTest, SigkillBetweenFinetuneAndPublishResumesBitExact) {
  // Re-exec the death-test child instead of fork()ing it: the crashy
  // pipeline trains, so under RETIA_NUM_THREADS>1 a fork()ed child would
  // inherit the parent's pool state without its worker threads (and under
  // TSan, fork of a multithreaded process wedges on runtime locks).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string crash_ckpt = TempPath("stream_crash.ckpt");
  const std::string crash_snap = TempPath("stream_crash_snap");
  const std::string ref_ckpt = TempPath("stream_crash_ref.ckpt");
  const std::string ref_snap = TempPath("stream_crash_ref_snap");
  auto make_config = [](const std::string& ckpt_path,
                        const std::string& snap_prefix) {
    StreamPipelineConfig config;
    config.window = 1;
    config.trainer.steps_per_time = 2;
    config.trainer.lr = 0.01f;
    config.trainer.checkpoint_path = ckpt_path;
    config.snapshot_prefix = snap_prefix;
    return config;
  };

  int64_t t1 = 0, t2 = 0;
  {
    std::unique_ptr<tkg::TkgDataset> probe = MakeLiveDataset();
    t1 = probe->max_time() + 1;
    t2 = t1 + 1;
  }

  // Reference run: both windows uninterrupted, capturing the published
  // parameters after each window.
  std::string params_w1, params_w2;
  {
    std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
    std::unique_ptr<core::RetiaModel> model = MakeModel(*live);
    StreamPipeline ref(std::move(model), std::move(live),
                       make_config(ref_ckpt, ref_snap));
    ref.OfferBatch(WindowBucket(t1, 1));
    ASSERT_EQ(ref.AdvanceTo(t2), 1);
    params_w1 = Params(ref.trainer().model());
    ref.OfferBatch(WindowBucket(t2, 2));
    ASSERT_EQ(ref.AdvanceTo(t2 + 1), 1);
    params_w2 = Params(ref.trainer().model());
  }
  ASSERT_NE(params_w1, params_w2);

  // Crash run. Renames alternate checkpoint, snapshot per window:
  //   window 1: rename 1 = checkpoint(t1), rename 2 = snapshot(t1)
  //   window 2: rename 3 = checkpoint(t2), then SIGKILL — snapshot(t2)
  //   never happens.
  EXPECT_EXIT(
      {
        fail::InstallPlan({.crash_after_rename_n = 3});
        std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
        std::unique_ptr<core::RetiaModel> model = MakeModel(*live);
        StreamPipeline victim(std::move(model), std::move(live),
                              make_config(crash_ckpt, crash_snap));
        victim.OfferBatch(WindowBucket(t1, 1));
        victim.AdvanceTo(t2);
        victim.OfferBatch(WindowBucket(t2, 2));
        victim.AdvanceTo(t2 + 1);  // SIGKILL right after the t2 checkpoint
      },
      ::testing::KilledBySignal(SIGKILL), "");

  // Old-or-new, never torn: the serve snapshot on disk is exactly the
  // window-1 publish the crash left behind.
  {
    std::unique_ptr<core::RetiaModel> disk;
    const ckpt::Result loaded = serve::LoadModelSnapshot(crash_snap, &disk);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    EXPECT_EQ(Params(*disk), params_w1);
  }

  // Resume from the crash checkpoint: bit-exact window-2 state, and the
  // republish brings the disk snapshot forward to it.
  {
    std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
    std::unique_ptr<core::RetiaModel> model = MakeModel(*live);
    StreamPipeline resumed(std::move(model), std::move(live),
                           make_config(crash_ckpt, crash_snap));
    const ckpt::Result r = resumed.Resume();
    ASSERT_TRUE(r.ok()) << r.ToString();
    EXPECT_EQ(resumed.trainer().last_trained_time(), t2);
    EXPECT_EQ(Params(resumed.trainer().model()), params_w2)
        << "resume after SIGKILL diverged from the uninterrupted run";

    std::unique_ptr<core::RetiaModel> disk;
    const ckpt::Result loaded = serve::LoadModelSnapshot(crash_snap, &disk);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    EXPECT_EQ(Params(*disk), params_w2);
  }
}

// ---- Bounded windows ----------------------------------------------------------

// A dataset with the facts of `source` in fresh buckets: the splits plus
// every later timestamp appended in order, so FactsAt matches `source`
// fact for fact while sharing none of its buckets.
tkg::TkgDataset DeepCopy(const tkg::TkgDataset& source,
                         const tkg::TkgDataset& base) {
  tkg::TkgDataset copy(source.name(), source.num_entities(),
                       source.num_relations(), base.train(), base.valid(),
                       base.test());
  for (int64_t t : source.all_times()) {
    if (t > copy.max_time()) copy.AppendBucket(t, source.FactsAt(t));
  }
  return copy;
}

// Candidates and the bits of each score, so +0/-0 or NaN payloads that
// compare equal as floats still differ here.
std::vector<std::pair<int64_t, uint32_t>> AnswerBits(
    serve::ServeEngine& engine, const serve::Query& query) {
  serve::Result<serve::QueryResult> result = engine.Submit(query);
  EXPECT_TRUE(result.ok()) << result.ToString();
  std::vector<std::pair<int64_t, uint32_t>> bits;
  if (!result.ok()) return bits;
  for (const serve::ScoredCandidate& c : result.value().candidates) {
    uint32_t word = 0;
    std::memcpy(&word, &c.score, sizeof(word));
    bits.emplace_back(c.id, word);
  }
  return bits;
}

// Twin hyperrelation subgraphs (Algorithm 1) that `engine` builds while it
// answers `query`, counted from the trace.
[[maybe_unused]] int64_t HypergraphBuilds(serve::ServeEngine& engine,
                                          const serve::Query& query) {
  obs::Trace::Clear();
  obs::Trace::Enable();
  AnswerBits(engine, query);
  obs::Trace::Disable();
  const std::string json = obs::Trace::ToJson();
  obs::Trace::Clear();
  int64_t builds = 0;
  const std::string name = "\"graph.hypergraph\"";
  for (size_t at = json.find(name); at != std::string::npos;
       at = json.find(name, at + name.size())) {
    ++builds;
  }
  return builds;
}

// The trainer keeps only the graphs of the next history, however long the
// stream runs, and the engine it publishes, which starts from those
// graphs, answers every frontier query exactly as an engine over a deep
// copy of the dataset that builds every graph itself.
TEST(StreamPipelineTest, TrainerCacheStaysBoundedAndHandOffKeepsAnswers) {
  const std::unique_ptr<tkg::TkgDataset> base = MakeLiveDataset();
  std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
  const int64_t n = live->num_entities();
  const int64_t m = live->num_relations();
  std::unique_ptr<core::RetiaModel> model = MakeModel(*live);
  const int64_t k = model->history_len();
  StreamPipelineConfig config;
  config.window = 1;
  config.trainer.steps_per_time = 1;
  config.trainer.lr = 0.01f;
  config.serve.max_k = n;
  StreamPipeline pipeline(std::move(model), std::move(live), config);

  const int64_t first = pipeline.live().max_time() + 1;
  for (int64_t w = 0; w < 3 * k + 2; ++w) {
    const int64_t t = first + w;
    pipeline.OfferBatch(WindowBucket(t, static_cast<uint64_t>(w)));
    ASSERT_EQ(pipeline.AdvanceTo(t + 1), 1);

    const graph::GraphCache& graphs = pipeline.trainer().graphs();
    EXPECT_EQ(graphs.cached_times(), graphs.HistoryBefore(t + 1, k))
        << "window " << w;

    serve::EngineSnapshot fresh;
    fresh.model = stream::CloneModel(pipeline.trainer().model());
    fresh.dataset = std::make_unique<tkg::TkgDataset>(
        DeepCopy(pipeline.live(), *base));
    fresh.graph_cache =
        std::make_unique<graph::GraphCache>(fresh.dataset.get());
    serve::ServeEngine reference(std::move(fresh), config.serve);
#ifndef RETIA_OBS_DISABLE  // the count reads trace spans
    // The published engine starts from the trainer's graphs, so its first
    // query at the frontier builds none; the reference builds the history.
    const serve::Query first_query = serve::Query::Entity(0, 0, t + 1, n);
    EXPECT_EQ(HypergraphBuilds(pipeline.engine(), first_query), 0)
        << "window " << w;
    EXPECT_EQ(HypergraphBuilds(reference, first_query),
              static_cast<int64_t>(graphs.HistoryBefore(t + 1, k).size()))
        << "window " << w;
#endif
    for (int64_t s = 0; s < n; s += 7) {
      for (int64_t r = 0; r < 2 * m; r += 3) {
        const serve::Query query = serve::Query::Entity(s, r, t + 1, n);
        EXPECT_EQ(AnswerBits(pipeline.engine(), query),
                  AnswerBits(reference, query))
            << "window " << w << " s=" << s << " r=" << r;
      }
    }
  }
}

// ---- Hot swap under concurrent queries --------------------------------------

TEST(SnapshotSwapTest, ConcurrentQueriesAcrossSwapsAreNeverDroppedOrTorn) {
  std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
  core::RetiaConfig config_a = TinyModelConfig(*live);
  core::RetiaConfig config_b = config_a;
  config_b.seed = 99;  // a genuinely different model
  core::RetiaModel model_a(config_a);
  core::RetiaModel model_b(config_b);
  const int64_t t = live->max_time();
  const int64_t k = 5;
  // Queries span several serving timestamps, so swaps land while the
  // engine's per-timestamp state entries are being created and evolved
  // concurrently (the once-semantics path in FrozenStateStore): distinct
  // timestamps evolve in parallel, same-timestamp batches share one
  // evolution, and a pinned batch must still answer old-or-new.
  const std::vector<int64_t> times = {t - 1, t, t + 1};

  serve::ServeConfig serve_config;
  serve_config.num_threads = 4;
  serve_config.max_k = k;

  // Per-(timestamp, query) reference answers under each snapshot, from
  // dedicated single-snapshot engines (the determinism contract makes
  // these the unique correct answers).
  std::vector<std::pair<int64_t, int64_t>> queries;
  for (int64_t s = 0; s < live->num_entities(); ++s) {
    queries.emplace_back(s, s % (2 * live->num_relations()));
  }
  using Ranking = std::vector<serve::ScoredCandidate>;
  std::vector<std::vector<Ranking>> ref_a(times.size()), ref_b(times.size());
  {
    serve::ServeEngine engine_a(FrozenSnapshot(model_a, *live), serve_config);
    serve::ServeEngine engine_b(FrozenSnapshot(model_b, *live), serve_config);
    for (size_t ti = 0; ti < times.size(); ++ti) {
      for (const auto& [s, r] : queries) {
        ref_a[ti].push_back(TopObjects(engine_a, s, r, times[ti], k));
        ref_b[ti].push_back(TopObjects(engine_b, s, r, times[ti], k));
      }
    }
    ASSERT_NE(ref_a[0].front(), ref_b[0].front());
  }

  serve::ServeEngine engine(FrozenSnapshot(model_a, *live), serve_config);
  constexpr int kClients = 4;
  constexpr int kRoundsPerClient = 60;
  std::vector<std::thread> clients;
  std::vector<int64_t> answered(kClients, 0);
  std::vector<int64_t> torn(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRoundsPerClient; ++round) {
        const size_t qi = (static_cast<size_t>(c) * 31 + round) % queries.size();
        const size_t ti = (static_cast<size_t>(c) + round) % times.size();
        const auto& [s, r] = queries[qi];
        const std::vector<serve::ScoredCandidate> result =
            TopObjects(engine, s, r, times[ti], k);
        if (result.size() == static_cast<size_t>(k)) ++answered[c];
        const bool is_a = result == ref_a[ti][qi];
        const bool is_b = result == ref_b[ti][qi];
        if (!is_a && !is_b) ++torn[c];
      }
    });
  }

  // Swap back and forth while the clients hammer the engine.
  constexpr int kSwaps = 10;
  for (int swap = 0; swap < kSwaps; ++swap) {
    engine.SwapSnapshot(swap % 2 == 0 ? FrozenSnapshot(model_b, *live)
                                      : FrozenSnapshot(model_a, *live));
  }
  for (std::thread& thread : clients) thread.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(answered[c], kRoundsPerClient) << "client " << c
                                             << " dropped requests";
    EXPECT_EQ(torn[c], 0) << "client " << c << " saw a torn snapshot";
  }
  EXPECT_EQ(engine.snapshot_swaps(), kSwaps);
  const std::string json = engine.Stats().ToJson();
  EXPECT_NE(json.find("\"snapshot_swaps\":" + std::to_string(kSwaps)),
            std::string::npos)
      << json;
}

// Swapping in a grown-vocabulary snapshot mid-flight: queries about old
// entities keep working, and the new entity becomes answerable.
TEST(SnapshotSwapTest, SwapToGrownVocabularyServesNewEntity) {
  std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
  const int64_t n = live->num_entities();
  std::unique_ptr<core::RetiaModel> model = MakeModel(*live);
  serve::ServeConfig serve_config;
  serve_config.max_k = 5;
  serve::ServeEngine engine(FrozenSnapshot(*model, *live), serve_config);
  const int64_t t = live->max_time();
  ASSERT_EQ(TopObjects(engine, 0, 0, t, 5).size(), 5u);

  // Grow the world by one entity and publish it.
  live->GrowVocab(n + 1, live->num_relations());
  live->AppendBucket(t + 1, {{n, 0, 1, t + 1}});
  std::unique_ptr<core::RetiaModel> grown =
      stream::GrowEntityVocab(*model, n + 1);
  engine.SwapSnapshot(FrozenSnapshot(*grown, *live));

  EXPECT_EQ(TopObjects(engine, n, 0, t + 2, 5).size(), 5u);
  EXPECT_EQ(TopObjects(engine, 0, 0, t + 2, 5).size(), 5u);
}

}  // namespace
}  // namespace retia
