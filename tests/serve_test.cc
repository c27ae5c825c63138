// Tests for the retia::serve subsystem: sharded LRU prediction cache,
// micro-batching engine (including bit-identical multi-threaded results),
// and frozen-model snapshot round-trips. Registered under the ctest label
// `serve` so `ctest -L serve` runs just these, typically in a
// -DRETIA_SANITIZE=thread build.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <string>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/result.h"
#include "core/retia.h"
#include "eval/metrics.h"
#include "graph/graph_cache.h"
#include "obs/obs.h"
#include "par/thread_pool.h"
#include "serve/engine.h"
#include "serve/lru_cache.h"
#include "serve/snapshot.h"
#include "serve/stats.h"
#include "tensor/tensor.h"
#include "tkg/synthetic.h"

namespace retia {
namespace {

using serve::CacheCounters;
using serve::CacheKey;
using serve::PredictionCache;
using serve::QueryKind;
using serve::ScoredCandidate;
using serve::ServeConfig;
using serve::ServeEngine;

CacheKey EntityKey(int64_t t, int64_t s, int64_t r) {
  return {t, s, r, QueryKind::kEntity};
}

std::vector<ScoredCandidate> Value(int64_t id) { return {{id, 1.0f}}; }

TEST(PredictionCacheTest, LruEvictionOrderSingleShard) {
  PredictionCache cache(/*capacity=*/3, /*num_shards=*/1);
  cache.Put(EntityKey(0, 0, 0), Value(10));
  cache.Put(EntityKey(0, 1, 0), Value(11));
  cache.Put(EntityKey(0, 2, 0), Value(12));

  // Touch the oldest entry so it is most-recently-used again.
  std::vector<ScoredCandidate> out;
  ASSERT_TRUE(cache.Get(EntityKey(0, 0, 0), &out));
  EXPECT_EQ(out, Value(10));

  // Inserting a fourth entry must now evict (0,1,0), not (0,0,0).
  cache.Put(EntityKey(0, 3, 0), Value(13));
  EXPECT_FALSE(cache.Get(EntityKey(0, 1, 0), &out));
  EXPECT_TRUE(cache.Get(EntityKey(0, 0, 0), &out));
  EXPECT_TRUE(cache.Get(EntityKey(0, 2, 0), &out));
  EXPECT_TRUE(cache.Get(EntityKey(0, 3, 0), &out));

  const CacheCounters counters = cache.Counters();
  EXPECT_EQ(counters.hits, 4);
  EXPECT_EQ(counters.misses, 1);
  EXPECT_EQ(counters.evictions, 1);
  EXPECT_EQ(counters.entries, 3);
}

TEST(PredictionCacheTest, OverwriteDoesNotEvict) {
  PredictionCache cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Put(EntityKey(0, 0, 0), Value(1));
  cache.Put(EntityKey(0, 1, 0), Value(2));
  cache.Put(EntityKey(0, 0, 0), Value(3));  // overwrite, still 2 entries
  std::vector<ScoredCandidate> out;
  EXPECT_TRUE(cache.Get(EntityKey(0, 0, 0), &out));
  EXPECT_EQ(out, Value(3));
  EXPECT_TRUE(cache.Get(EntityKey(0, 1, 0), &out));
  EXPECT_EQ(cache.Counters().evictions, 0);
  EXPECT_EQ(cache.Counters().entries, 2);
}

TEST(PredictionCacheTest, ShardedCountersAggregate) {
  PredictionCache cache(/*capacity=*/64, /*num_shards=*/8);
  for (int64_t i = 0; i < 32; ++i) cache.Put(EntityKey(0, i, 0), Value(i));
  std::vector<ScoredCandidate> out;
  int64_t hits = 0;
  for (int64_t i = 0; i < 48; ++i) {
    if (cache.Get(EntityKey(0, i, 0), &out)) ++hits;
  }
  const CacheCounters counters = cache.Counters();
  EXPECT_EQ(counters.hits, hits);
  EXPECT_EQ(counters.hits, 32);
  EXPECT_EQ(counters.misses, 16);
  EXPECT_EQ(counters.entries, 32);
}

TEST(PredictionCacheTest, GenerationFenceDropsPutsThatRacedAClear) {
  PredictionCache cache(/*capacity=*/8, /*num_shards=*/1);
  std::vector<ScoredCandidate> out;

  // The engine's swap sequence: a decode samples the generation, a swap
  // Clear()s, and the decode's Put must then be a silent no-op.
  const uint64_t before = cache.generation();
  cache.Clear();
  EXPECT_EQ(cache.generation(), before + 1);
  cache.Put(EntityKey(0, 0, 0), Value(1), /*epoch=*/0, before);
  EXPECT_FALSE(cache.Get(EntityKey(0, 0, 0), &out));

  // A Put fenced on the *current* generation inserts normally...
  cache.Put(EntityKey(0, 0, 0), Value(2), /*epoch=*/1, cache.generation());
  int64_t epoch = -1;
  ASSERT_TRUE(cache.Get(EntityKey(0, 0, 0), &out, &epoch));
  EXPECT_EQ(out, Value(2));
  EXPECT_EQ(epoch, 1);

  // ...and a stale fence cannot overwrite an existing entry either.
  cache.Put(EntityKey(0, 0, 0), Value(3), /*epoch=*/0, before);
  ASSERT_TRUE(cache.Get(EntityKey(0, 0, 0), &out, &epoch));
  EXPECT_EQ(out, Value(2));
  EXPECT_EQ(epoch, 1);

  // Unfenced Puts (direct cache users) are unaffected by Clear history.
  cache.Put(EntityKey(0, 1, 0), Value(4));
  EXPECT_TRUE(cache.Get(EntityKey(0, 1, 0), &out));
}

TEST(PredictionCacheTest, ConcurrentMixedAccessKeepsCountsConsistent) {
  // Capacity comfortably above the 97 * 3 = 291-key working set even under
  // hash skew across the 8 shards (128 per shard).
  PredictionCache cache(/*capacity=*/1024, /*num_shards=*/8);
  constexpr int kThreads = 8;
  constexpr int64_t kOpsPerThread = 500;
  std::vector<std::thread> threads;
  for (int thread_id = 0; thread_id < kThreads; ++thread_id) {
    threads.emplace_back([&cache, thread_id] {
      std::vector<ScoredCandidate> out;
      for (int64_t i = 0; i < kOpsPerThread; ++i) {
        const CacheKey key = EntityKey(0, i % 97, thread_id % 3);
        if (!cache.Get(key, &out)) cache.Put(key, Value(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const CacheCounters counters = cache.Counters();
  EXPECT_EQ(counters.hits + counters.misses, kThreads * kOpsPerThread);
  EXPECT_EQ(counters.evictions, 0);  // working set fits
  EXPECT_LE(counters.entries, 97 * 3);
}

// ---- Engine fixtures --------------------------------------------------------

tkg::SyntheticConfig TinyDataConfig() {
  tkg::SyntheticConfig config;
  config.name = "serve-test";
  config.num_entities = 40;
  config.num_relations = 6;
  config.num_timestamps = 20;
  config.facts_per_timestamp = 15;
  config.num_schemas = 60;
  config.max_period = 4;
  config.seed = 11;
  return config;
}

core::RetiaConfig TinyModelConfig(const tkg::TkgDataset& dataset) {
  core::RetiaConfig config;
  config.num_entities = dataset.num_entities();
  config.num_relations = dataset.num_relations();
  config.dim = 12;
  config.history_len = 2;
  config.conv_kernels = 4;
  config.seed = 3;
  return config;
}

// Candidates of a query that must succeed; empty (and a test failure)
// otherwise.
std::vector<ScoredCandidate> Candidates(ServeEngine& engine,
                                        const serve::Query& query) {
  serve::Result<serve::QueryResult> result = engine.Submit(query);
  EXPECT_TRUE(result.ok()) << result.ToString();
  return result.ok() ? result.take().candidates
                     : std::vector<ScoredCandidate>{};
}

// Reference decode: single-threaded frozen scoring straight through the
// model, no engine, no cache.
std::vector<std::vector<ScoredCandidate>> ReferenceTopK(
    core::RetiaModel* model, graph::GraphCache* cache, int64_t t,
    const std::vector<std::pair<int64_t, int64_t>>& queries, int64_t k) {
  model->SetTraining(false);
  tensor::NoGradGuard guard;
  const std::vector<core::EvolutionModel::StepState> states =
      model->Evolve(*cache, cache->HistoryBefore(t, model->history_len()));
  const tensor::Tensor scores = model->ScoreObjectsFrozen(states, queries);
  std::vector<std::vector<ScoredCandidate>> out;
  const int64_t n = scores.Dim(1);
  for (int64_t row = 0; row < scores.Dim(0); ++row) {
    const float* p = scores.Data() + row * n;
    std::vector<ScoredCandidate> ranked;
    for (int64_t id : eval::TopKIndices(p, n, k)) ranked.push_back({id, p[id]});
    out.push_back(std::move(ranked));
  }
  return out;
}

TEST(ServeEngineTest, ConcurrentTopKBitIdenticalToSingleThreaded) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model(TinyModelConfig(dataset));
  graph::GraphCache graph_cache(&dataset);
  const int64_t t = dataset.test_times().front();
  const int64_t k = 5;

  // Every (s, r) pair in both directions: 40 * 12 = 480 queries.
  std::vector<std::pair<int64_t, int64_t>> queries;
  for (int64_t s = 0; s < dataset.num_entities(); ++s) {
    for (int64_t r = 0; r < 2 * dataset.num_relations(); ++r) {
      queries.emplace_back(s, r);
    }
  }
  const std::vector<std::vector<ScoredCandidate>> reference =
      ReferenceTopK(&model, &graph_cache, t, queries, k);

  ServeConfig config;
  config.num_threads = 8;
  config.max_k = k;
  ServeEngine engine(&model, &graph_cache, config);
  engine.Warmup(t);

  // 8 client threads split the query list; every answer must be
  // bit-identical to the single-threaded reference.
  std::vector<std::vector<ScoredCandidate>> answers(queries.size());
  std::vector<std::thread> clients;
  constexpr int kClients = 8;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < queries.size(); i += kClients) {
        answers[i] = Candidates(engine, serve::Query::Entity(
                                            queries[i].first,
                                            queries[i].second, t, k));
      }
    });
  }
  for (std::thread& client : clients) client.join();

  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(answers[i].size(), reference[i].size()) << "query " << i;
    for (size_t j = 0; j < answers[i].size(); ++j) {
      EXPECT_EQ(answers[i][j].id, reference[i][j].id) << "query " << i;
      // Bit-identical, not approximately equal.
      EXPECT_EQ(answers[i][j].score, reference[i][j].score) << "query " << i;
    }
  }

  const serve::ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.completed, static_cast<int64_t>(queries.size()));
  EXPECT_GE(stats.batches, 1);
  EXPECT_GT(stats.qps, 0.0);
}

TEST(ServeEngineTest, OversubscribedPoolStaysBitIdenticalAndDeadlockFree) {
  // Many more client threads than pool workers: a 2-thread shared pool
  // (1 worker + participating callers) serves 12 concurrent clients. The
  // drain ticks run inline on client threads when no worker is free, so
  // nothing can deadlock, every query completes, and answers stay
  // bit-identical to the single-threaded reference.
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model(TinyModelConfig(dataset));
  graph::GraphCache graph_cache(&dataset);
  const int64_t t = dataset.test_times().front();
  const int64_t k = 4;

  std::vector<std::pair<int64_t, int64_t>> queries;
  for (int64_t s = 0; s < dataset.num_entities(); ++s) {
    for (int64_t r = 0; r < 2 * dataset.num_relations(); ++r) {
      queries.emplace_back(s, r);
    }
  }
  const std::vector<std::vector<ScoredCandidate>> reference =
      ReferenceTopK(&model, &graph_cache, t, queries, k);

  // Declared before the engine: the pool and the default-pool override
  // must outlive it.
  par::ThreadPool pool(2);
  par::ScopedDefaultPool pool_guard(&pool);
  ServeConfig config;
  config.num_threads = 2;
  config.max_k = k;
  config.enable_cache = false;  // force every query through the queue
  ServeEngine engine(&model, &graph_cache, config);
  engine.Warmup(t);

  std::vector<std::vector<ScoredCandidate>> answers(queries.size());
  std::vector<std::thread> clients;
  constexpr int kClients = 12;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < queries.size(); i += kClients) {
        answers[i] = Candidates(engine, serve::Query::Entity(
                                            queries[i].first,
                                            queries[i].second, t, k));
      }
    });
  }
  for (std::thread& client : clients) client.join();

  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(answers[i].size(), reference[i].size()) << "query " << i;
    for (size_t j = 0; j < answers[i].size(); ++j) {
      EXPECT_EQ(answers[i][j].id, reference[i][j].id) << "query " << i;
      EXPECT_EQ(answers[i][j].score, reference[i][j].score) << "query " << i;
    }
  }
  const serve::ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.completed, static_cast<int64_t>(queries.size()));
}

TEST(ServeEngineTest, CacheHitsReturnIdenticalResults) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model(TinyModelConfig(dataset));
  graph::GraphCache graph_cache(&dataset);
  const int64_t t = dataset.test_times().front();

  ServeConfig config;
  config.num_threads = 2;
  config.max_k = 4;
  ServeEngine engine(&model, &graph_cache, config);

  const serve::Result<serve::QueryResult> first =
      engine.Submit(serve::Query::Entity(1, 2, t, 4));
  ASSERT_TRUE(first.ok()) << first.ToString();
  EXPECT_FALSE(first.value().cache_hit);
  const serve::Result<serve::QueryResult> second =
      engine.Submit(serve::Query::Entity(1, 2, t, 4));
  ASSERT_TRUE(second.ok()) << second.ToString();
  EXPECT_TRUE(second.value().cache_hit);
  EXPECT_EQ(first.value().candidates, second.value().candidates);

  // A smaller k is served from the cached prefix.
  const serve::Result<serve::QueryResult> prefix =
      engine.Submit(serve::Query::Entity(1, 2, t, 2));
  ASSERT_TRUE(prefix.ok()) << prefix.ToString();
  EXPECT_TRUE(prefix.value().cache_hit);
  ASSERT_EQ(prefix.value().candidates.size(), 2u);
  EXPECT_EQ(prefix.value().candidates[0], first.value().candidates[0]);
  EXPECT_EQ(prefix.value().candidates[1], first.value().candidates[1]);

  const serve::ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.cache.hits, 2);
  EXPECT_EQ(stats.cache.misses, 1);
  EXPECT_GT(stats.cache_hit_rate, 0.5);
}

TEST(ServeEngineTest, RelationQueriesMatchFrozenScores) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model(TinyModelConfig(dataset));
  graph::GraphCache graph_cache(&dataset);
  const int64_t t = dataset.test_times().front();

  model.SetTraining(false);
  std::vector<std::vector<ScoredCandidate>> reference;
  {
    tensor::NoGradGuard guard;
    const auto states = model.Evolve(
        graph_cache, graph_cache.HistoryBefore(t, model.history_len()));
    std::vector<std::pair<int64_t, int64_t>> queries = {{0, 1}, {3, 7}};
    const tensor::Tensor scores = model.ScoreRelationsFrozen(states, queries);
    const int64_t m = scores.Dim(1);
    EXPECT_EQ(m, dataset.num_relations());
    for (int64_t row = 0; row < scores.Dim(0); ++row) {
      const float* p = scores.Data() + row * m;
      std::vector<ScoredCandidate> ranked;
      for (int64_t id : eval::TopKIndices(p, m, 3)) ranked.push_back({id, p[id]});
      reference.push_back(std::move(ranked));
    }
  }

  ServeConfig config;
  config.num_threads = 2;
  config.max_k = 3;
  ServeEngine engine(&model, &graph_cache, config);
  EXPECT_EQ(Candidates(engine, serve::Query::Relation(0, 1, t, 3)),
            reference[0]);
  EXPECT_EQ(Candidates(engine, serve::Query::Relation(3, 7, t, 3)),
            reference[1]);
}

TEST(ServeEngineTest, MicroBatchingCoalescesQueuedQueries) {
  // The engine's only pool worker is held by a gate task, so every
  // client's miss (and its drain tick) queues before any tick runs; once
  // the gate opens, the first tick sweeps them into one micro-batch.
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model(TinyModelConfig(dataset));
  graph::GraphCache graph_cache(&dataset);
  const int64_t t = dataset.test_times().front();

  // One worker; the pool and the default-pool override are declared
  // before the engine so they outlive it.
  par::ThreadPool pool(2);
  par::ScopedDefaultPool pool_guard(&pool);
  ServeConfig config;
  config.num_threads = 1;
  config.max_k = 3;
  config.enable_cache = false;
  ServeEngine engine(&model, &graph_cache, config);
  engine.Warmup(t);

  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  obs::Counter* submitted =
      obs::MetricsRegistry::Get().GetCounter("par.submitted");
  const int64_t submitted_before = submitted->Value();
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return open; });
  });

  constexpr int kClients = 8;
  std::vector<serve::Query> queries;
  for (int c = 0; c < kClients; ++c) {
    queries.push_back(serve::Query::Entity(c, c % 12, t, 3));
  }
  std::vector<std::vector<ScoredCandidate>> answers(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(
        [&, c] { answers[c] = Candidates(engine, queries[c]); });
  }
  // A client's miss is queued once its drain tick reaches the pool (the
  // gate task is the first submission).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (submitted->Value() - submitted_before < 1 + kClients &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
  }
  cv.notify_all();
  for (std::thread& client : clients) client.join();

  const serve::ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.completed, kClients);
  EXPECT_LT(stats.batches, kClients);
  EXPECT_GT(stats.mean_batch_size, 1.0);
  // Coalesced answers equal the answers to the same queries one at a time.
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(answers[c], Candidates(engine, queries[c])) << "client " << c;
  }
}

TEST(ServeSnapshotTest, RoundTripRestoresIdenticalTopK) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model(TinyModelConfig(dataset));
  graph::GraphCache graph_cache(&dataset);
  const int64_t t = dataset.test_times().front();

  const std::string prefix = testing::TempDir() + "/serve_snapshot";
  ASSERT_TRUE(serve::SaveModelSnapshot(model, prefix, dataset.name()).ok());

  std::string dataset_name;
  std::unique_ptr<core::RetiaModel> loaded;
  ckpt::Result r = serve::LoadModelSnapshot(prefix, &loaded, &dataset_name);
  ASSERT_TRUE(r.ok()) << r.ToString();
  EXPECT_EQ(dataset_name, dataset.name());
  EXPECT_FALSE(loaded->training());
  EXPECT_EQ(loaded->config().dim, model.config().dim);
  EXPECT_EQ(loaded->config().num_entities, model.config().num_entities);
  EXPECT_EQ(loaded->NumParameters(), model.NumParameters());

  std::vector<std::pair<int64_t, int64_t>> queries;
  for (int64_t s = 0; s < 10; ++s) queries.emplace_back(s, s % 12);
  const auto expected = ReferenceTopK(&model, &graph_cache, t, queries, 10);

  // The loaded model must produce identical rankings *and scores* through
  // a separate graph cache over the same dataset.
  graph::GraphCache loaded_cache(&dataset);
  const auto actual =
      ReferenceTopK(loaded.get(), &loaded_cache, t, queries, 10);
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]) << "query " << i;
  }
}

TEST(ServeSnapshotTest, StaticConstraintTableRoundTrips) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaConfig config = TinyModelConfig(dataset);
  config.use_static_constraint = true;
  core::RetiaModel model(config);
  std::vector<int64_t> types(dataset.num_entities());
  for (size_t i = 0; i < types.size(); ++i) types[i] = i % 5;
  model.SetEntityTypes(types, /*num_types=*/5);

  const std::string prefix = testing::TempDir() + "/serve_snapshot_static";
  ASSERT_TRUE(serve::SaveModelSnapshot(model, prefix, dataset.name()).ok());

  std::unique_ptr<core::RetiaModel> loaded;
  ckpt::Result r = serve::LoadModelSnapshot(prefix, &loaded);
  ASSERT_TRUE(r.ok()) << r.ToString();
  EXPECT_TRUE(loaded->has_entity_types());
  EXPECT_EQ(loaded->entity_types(), types);
  EXPECT_EQ(loaded->num_static_types(), 5);
  // The per-type embedding registered by SetEntityTypes must be part of
  // the round-trip, not a parameter-count mismatch.
  EXPECT_EQ(loaded->NumParameters(), model.NumParameters());
}

TEST(ServeSnapshotTest, LoadFailureIsReportedNotFatal) {
  std::unique_ptr<core::RetiaModel> loaded;
  ckpt::Result r =
      serve::LoadModelSnapshot(testing::TempDir() + "/no_such_prefix",
                               &loaded);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ckpt::ErrorCode::kIoError);
  EXPECT_EQ(loaded, nullptr);
}

// ---- Typed Query/Result API -------------------------------------------------

TEST(TypedApiTest, MalformedQueriesAreReportedNotFatal) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model(TinyModelConfig(dataset));
  graph::GraphCache graph_cache(&dataset);
  const int64_t t = dataset.test_times().front();
  const int64_t n = dataset.num_entities();
  const int64_t m = dataset.num_relations();

  ServeConfig config;
  config.num_threads = 2;
  config.max_k = 4;
  ServeEngine engine(&model, &graph_cache, config);

  auto code = [&engine](const serve::Query& query) {
    return engine.Submit(query).code();
  };
  using serve::Query;
  using serve::StatusCode;
  EXPECT_EQ(code(Query::Entity(0, 0, t, 0)), StatusCode::kInvalidArgument);
  EXPECT_EQ(code(Query::Entity(0, 0, t, 5)), StatusCode::kInvalidArgument);
  EXPECT_EQ(code(Query::Entity(0, 0, -1, 2)), StatusCode::kBadTimestamp);
  EXPECT_EQ(code(Query::Entity(n, 0, t, 2)), StatusCode::kUnknownEntity);
  EXPECT_EQ(code(Query::Entity(-1, 0, t, 2)), StatusCode::kUnknownEntity);
  EXPECT_EQ(code(Query::Entity(0, 2 * m, t, 2)), StatusCode::kUnknownRelation);
  EXPECT_EQ(code(Query::Relation(0, n, t, 2)), StatusCode::kUnknownEntity);
  EXPECT_EQ(code(Query::Relation(n, 0, t, 2)), StatusCode::kUnknownEntity);

  // Error details name the offending value.
  serve::Result<serve::QueryResult> error =
      engine.Submit(Query::Entity(n, 0, t, 2));
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.ToString().find("unknown_entity"), std::string::npos);

  // Valid queries still work after a burst of malformed ones, and t = 0
  // (empty history -> initial embeddings) is valid, not an error.
  EXPECT_TRUE(engine.Submit(Query::Entity(0, 0, t, 2)).ok());
  EXPECT_TRUE(engine.Submit(Query::Entity(0, 0, 0, 2)).ok());
}

TEST(TypedApiTest, CacheHitsCarryTheEpochThatProducedThem) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model(TinyModelConfig(dataset));
  graph::GraphCache graph_cache(&dataset);
  const int64_t t = dataset.test_times().front();

  ServeConfig config;
  config.num_threads = 2;
  config.max_k = 4;
  ServeEngine engine(&model, &graph_cache, config);

  serve::Result<serve::QueryResult> miss =
      engine.Submit(serve::Query::Entity(1, 2, t, 4));
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.value().cache_hit);
  EXPECT_EQ(miss.value().epoch, 0);
  serve::Result<serve::QueryResult> hit =
      engine.Submit(serve::Query::Entity(1, 2, t, 4));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().cache_hit);
  EXPECT_EQ(hit.value().epoch, 0);
  EXPECT_EQ(hit.value().candidates, miss.value().candidates);
}

TEST(TopKIndicesTest, DeterministicTieBreakByLowerIndex) {
  const std::vector<float> scores = {1.0f, 3.0f, 3.0f, 2.0f, 0.5f};
  const std::vector<int64_t> top =
      eval::TopKIndices(scores.data(), scores.size(), 4);
  EXPECT_EQ(top, (std::vector<int64_t>{1, 2, 3, 0}));
  EXPECT_EQ(eval::TopKIndices(scores.data(), scores.size(), 99).size(), 5u);
}

// A recorder that is never reset keeps only the last kWindow samples of
// each latency series: the percentiles forget older samples, while the
// request count and the batch histogram stay exact.
TEST(ServeStatsTest, PercentilesCoverTheLastWindowAndCountsStayExact) {
  serve::StatsRecorder recorder(/*max_batch=*/4);
  const auto window = static_cast<int64_t>(serve::StatsRecorder::kWindow);
  for (int64_t i = 0; i < window; ++i) {
    recorder.RecordRequest(100.0);
    recorder.RecordQueueWait(100.0);
    recorder.RecordCompute(100.0);
    recorder.RecordBatch(4);
  }
  for (int64_t i = 0; i < window + 5; ++i) {
    recorder.RecordRequest(1.0);
    recorder.RecordQueueWait(2.0);
    recorder.RecordCompute(3.0);
    recorder.RecordBatch(1);
  }
  const serve::ServeStats stats = recorder.Snapshot(CacheCounters{});
  EXPECT_EQ(stats.completed, 2 * window + 5);
  EXPECT_EQ(stats.p50_latency_ms, 1.0);
  EXPECT_EQ(stats.p99_latency_ms, 1.0);
  EXPECT_EQ(stats.p50_queue_wait_ms, 2.0);
  EXPECT_EQ(stats.p99_queue_wait_ms, 2.0);
  EXPECT_EQ(stats.p50_compute_ms, 3.0);
  EXPECT_EQ(stats.p99_compute_ms, 3.0);
  EXPECT_EQ(stats.batches, 2 * window + 5);
  EXPECT_EQ(stats.batch_size_histogram[4], window);
  EXPECT_EQ(stats.batch_size_histogram[1], window + 5);

  recorder.Reset();
  recorder.RecordRequest(7.0);
  const serve::ServeStats fresh = recorder.Snapshot(CacheCounters{});
  EXPECT_EQ(fresh.completed, 1);
  EXPECT_EQ(fresh.p99_latency_ms, 7.0);
  EXPECT_EQ(fresh.batches, 0);
}

}  // namespace
}  // namespace retia
