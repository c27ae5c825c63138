// Thread-count-invariance suite for retia::par.
//
// The determinism contract (par/parallel_for.h) says every parallel kernel
// produces bit-identical results for every pool size, because shard
// boundaries are a function of the problem size alone and shard bodies
// either write disjoint outputs or combine in shard order on the caller.
// These tests enforce the contract end to end: a full RETIA forward +
// backward over a small ICEWS14-like graph must produce byte-identical
// parameters and gradients at 1, 2, 4, 8, and hardware_concurrency
// threads, and so must the two places that fan whole units of work out on
// the pool: GraphCache::Prefetch and the per-state frozen decodes.

#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/retia.h"
#include "grad_check.h"
#include "graph/graph_cache.h"
#include "nn/optimizer.h"
#include "par/parallel_for.h"
#include "par/thread_pool.h"
#include "quant/quant.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tkg/synthetic.h"

namespace retia::par {
namespace {

// ---------------------------------------------------------------------------
// ParseThreadCount.

TEST(ParseThreadCountTest, AcceptsPositiveIntegers) {
  EXPECT_EQ(ParseThreadCount("1", 7), 1);
  EXPECT_EQ(ParseThreadCount("8", 7), 8);
  EXPECT_EQ(ParseThreadCount("4096", 7), 4096);
}

TEST(ParseThreadCountTest, FallsBackOnBadInput) {
  EXPECT_EQ(ParseThreadCount(nullptr, 7), 7);
  EXPECT_EQ(ParseThreadCount("", 7), 7);
  EXPECT_EQ(ParseThreadCount("abc", 7), 7);
  EXPECT_EQ(ParseThreadCount("4x", 7), 7);
  EXPECT_EQ(ParseThreadCount("0", 7), 7);
  EXPECT_EQ(ParseThreadCount("-3", 7), 7);
  EXPECT_EQ(ParseThreadCount("5000", 7), 7);  // above the sanity cap
}

// ---------------------------------------------------------------------------
// Shard geometry: pure functions of the problem size.

TEST(ShardGeometryTest, NumShardsIndependentOfThreadCount) {
  EXPECT_EQ(NumShards(0, 100), 1);
  EXPECT_EQ(NumShards(1, 100), 1);
  EXPECT_EQ(NumShards(100, 100), 1);
  EXPECT_EQ(NumShards(101, 100), 2);
  EXPECT_EQ(NumShards(1 << 30, 1), kMaxShards);
}

TEST(ShardGeometryTest, ShardRangesTileTheInterval) {
  for (int64_t n : {1, 5, 63, 64, 65, 1000}) {
    for (int64_t shards : {1, 2, 7, 64}) {
      int64_t expected_begin = 0;
      for (int64_t s = 0; s < shards; ++s) {
        const Range r = ShardRange(n, shards, s);
        EXPECT_EQ(r.begin, expected_begin);
        EXPECT_LE(r.begin, r.end);
        expected_begin = r.end;
      }
      EXPECT_EQ(expected_begin, n);
    }
  }
}

// ---------------------------------------------------------------------------
// ThreadPool properties.

TEST(ThreadPoolTest, EmptyRangeRunsNothing) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelRun(0, [&](int64_t) { ++calls; });
  ParallelFor(0, 1, [&](int64_t, int64_t) { ++calls; }, &pool);
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, FewerItemsThanThreadsCoversEveryItemOnce) {
  ThreadPool pool(8);
  std::vector<int> hits(3, 0);
  ParallelFor(
      3, 1,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) ++hits[i];
      },
      &pool);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, EveryShardRunsExactlyOnce) {
  ThreadPool pool(4);
  const int64_t kShards = 57;
  std::vector<int> counts(kShards, 0);
  // Disjoint writes per shard: no synchronisation needed by contract.
  pool.ParallelRun(kShards, [&](int64_t shard) { ++counts[shard]; });
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(ThreadPoolTest, ExceptionInsideShardPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelRun(16,
                       [](int64_t shard) {
                         if (shard == 11) throw std::runtime_error("shard 11");
                       }),
      std::runtime_error);
  // The pool survives a throwing job and keeps serving work.
  int ok = 0;
  pool.ParallelRun(4, [&](int64_t) {
    static std::mutex mu;
    std::lock_guard<std::mutex> lock(mu);
    ++ok;
  });
  EXPECT_EQ(ok, 4);
}

// Several shards throw: the rethrown error is the lowest failing shard's,
// as on the serial path, not whichever shard threw first in time.
TEST(ThreadPoolTest, LowestFailingShardErrorIsRethrown) {
  ThreadPool pool(4);
  for (int rep = 0; rep < 50; ++rep) {
    try {
      pool.ParallelRun(8, [](int64_t shard) {
        if (shard == 2) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          throw std::runtime_error("2");
        }
        if (shard == 6) throw std::runtime_error("6");
      });
      FAIL() << "ParallelRun swallowed the shard exceptions";
    } catch (const std::runtime_error& e) {
      ASSERT_EQ(std::string(e.what()), "2") << "repetition " << rep;
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsSerially) {
  ThreadPool pool(4);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
  std::vector<int> inner_order;
  std::mutex mu;
  pool.ParallelRun(4, [&](int64_t) {
    EXPECT_TRUE(ThreadPool::InParallelRegion());
    // Nested: must fall back to serial, in shard order, on this thread.
    std::vector<int> local;
    ParallelFor(
        4, 1,
        [&](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i)
            local.push_back(static_cast<int>(i));
        },
        &pool);
    std::lock_guard<std::mutex> lock(mu);
    for (int v : local) inner_order.push_back(v);
  });
  EXPECT_FALSE(ThreadPool::InParallelRegion());
  // Each of the 4 outer shards appended 0,1,2,3 in order.
  ASSERT_EQ(inner_order.size(), 16u);
  for (size_t i = 0; i < inner_order.size(); i += 4) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(inner_order[i + static_cast<size_t>(j)], j);
    }
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  std::thread::id caller = std::this_thread::get_id();
  pool.ParallelRun(8, [&](int64_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  bool ran = false;
  pool.Submit([&] { ran = true; });  // inline with no workers
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, ScopedDefaultPoolOverridesAndRestores) {
  ThreadPool* original = DefaultPool();
  {
    ThreadPool pool(2);
    ScopedDefaultPool guard(&pool);
    EXPECT_EQ(DefaultPool(), &pool);
  }
  EXPECT_EQ(DefaultPool(), original);
}

// ---------------------------------------------------------------------------
// DeterministicReduce: identical result for every pool size.

TEST(DeterministicReduceTest, BitIdenticalAcrossThreadCounts) {
  const int64_t n = 100000;
  std::vector<float> values(n);
  // Values spanning magnitudes so FP association would actually matter.
  uint64_t state = 12345;
  for (int64_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const float mag = static_cast<float>((state >> 33) % 1000000) / 997.0f;
    values[i] = (state & 1) ? mag : -mag;
  }
  auto reduce_with = [&](int threads) {
    ThreadPool pool(threads);
    return DeterministicReduce<double>(
        n, 1024, 0.0,
        [&](int64_t begin, int64_t end) {
          double partial = 0.0;
          for (int64_t i = begin; i < end; ++i)
            partial += static_cast<double>(values[i]);
          return partial;
        },
        [](double acc, double partial) { return acc + partial; }, &pool);
  };
  const double reference = reduce_with(1);
  for (int threads : {2, 3, 8, DefaultThreads()}) {
    const double got = reduce_with(threads);
    EXPECT_EQ(std::memcmp(&got, &reference, sizeof(double)), 0)
        << "threads=" << threads << " got " << got << " want " << reference;
  }
}

// ---------------------------------------------------------------------------
// End-to-end: full RETIA forward + backward over a small ICEWS14-like
// graph is byte-identical at every thread count — parameters after an
// optimizer step AND every gradient, compared with memcmp (exact float
// equality, no tolerance).

tkg::SyntheticConfig SmallIcews14Config() {
  tkg::SyntheticConfig c = tkg::SyntheticConfig::Icews14Like();
  c.num_entities = 80;
  c.num_timestamps = 12;
  c.facts_per_timestamp = 30;
  c.num_schemas = 120;
  return c;
}

struct RunResult {
  std::vector<std::vector<float>> grads;
  std::vector<std::vector<float>> params;
  float loss = 0.0f;
};

// One deterministic train step (evolve, loss, backward, clip, Adam) with
// the process-wide default pool swapped to `threads` threads.
RunResult RunTrainStep(const tkg::TkgDataset& ds, int threads) {
  ThreadPool pool(threads);
  ScopedDefaultPool guard(&pool);
  core::RetiaConfig config;
  config.num_entities = ds.num_entities();
  config.num_relations = ds.num_relations();
  config.dim = 16;
  config.history_len = 3;
  config.conv_kernels = 4;
  config.num_bases = 2;
  core::RetiaModel model(config);
  model.SetTraining(false);  // keep RNG-free; gradients still flow
  graph::GraphCache cache(&ds);
  auto states = model.Evolve(cache, cache.HistoryBefore(8, config.history_len));
  auto loss = model.ComputeLoss(states, ds.FactsAt(8));
  loss.joint.Backward();
  std::vector<tensor::Tensor> params = model.Parameters();
  nn::ClipGradNorm(params, 1.0f);
  RunResult result;
  result.loss = loss.joint.Item();
  for (const tensor::Tensor& p : params) {
    result.grads.push_back(p.impl().grad);
  }
  nn::Adam opt(params, nn::Adam::Options{.lr = 1e-2f});
  opt.Step();
  for (const tensor::Tensor& p : params) {
    result.params.push_back(p.impl().data);
  }
  return result;
}

void ExpectBitIdentical(const std::vector<std::vector<float>>& got,
                        const std::vector<std::vector<float>>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << what << " tensor " << i;
    if (got[i].empty()) continue;
    EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                          got[i].size() * sizeof(float)),
              0)
        << what << " tensor " << i << " differs";
  }
}

TEST(ThreadInvarianceTest, RetiaForwardBackwardBitIdentical) {
  const tkg::TkgDataset ds = tkg::GenerateSynthetic(SmallIcews14Config());
  const RunResult reference = RunTrainStep(ds, 1);
  EXPECT_TRUE(std::isfinite(reference.loss));
  for (int threads : {2, 4, 8, DefaultThreads()}) {
    const RunResult run = RunTrainStep(ds, threads);
    EXPECT_EQ(std::memcmp(&run.loss, &reference.loss, sizeof(float)), 0)
        << "loss differs at threads=" << threads;
    ExpectBitIdentical(run.grads, reference.grads,
                       "grads at threads=" + std::to_string(threads));
    ExpectBitIdentical(run.params, reference.params,
                       "params at threads=" + std::to_string(threads));
  }
}

// The same invariance for the raw hot kernels, exercised with shapes big
// enough to split into many shards.
TEST(ThreadInvarianceTest, GemmAndSoftmaxKernelsBitIdentical) {
  tensor::Tensor a = testing::TestTensor({129, 67}, 21);
  tensor::Tensor b = testing::TestTensor({53, 67}, 22);
  std::vector<int64_t> targets;
  for (int64_t i = 0; i < 129; ++i) targets.push_back(i % 53);

  auto run = [&](int threads) {
    ThreadPool pool(threads);
    ScopedDefaultPool guard(&pool);
    tensor::Tensor logits = tensor::MatMulTransposeB(a, b);
    tensor::Tensor loss = tensor::CrossEntropyLogits(logits, targets);
    a.ZeroGrad();
    b.ZeroGrad();
    loss.Backward();
    RunResult r;
    r.loss = loss.Item();
    r.params.push_back(logits.impl().data);
    r.grads.push_back(a.impl().grad);
    r.grads.push_back(b.impl().grad);
    return r;
  };
  const RunResult reference = run(1);
  for (int threads : {2, 8, DefaultThreads()}) {
    const RunResult got = run(threads);
    EXPECT_EQ(std::memcmp(&got.loss, &reference.loss, sizeof(float)), 0);
    ExpectBitIdentical(got.params, reference.params, "logits");
    ExpectBitIdentical(got.grads, reference.grads, "gemm-ce grads");
  }
}

// Training mode consumes the model RNG (dropout) inside the evolve chain,
// which runs in program order on the caller whatever the pool width, so
// the evolved embeddings stay bit-identical at every width.
TEST(ThreadInvarianceTest, TrainingModeEvolveRngOrderInvariant) {
  const tkg::TkgDataset ds = tkg::GenerateSynthetic(SmallIcews14Config());
  auto run = [&](int pool_threads) {
    ThreadPool pool(pool_threads);
    ScopedDefaultPool pool_guard(&pool);
    core::RetiaConfig config;
    config.num_entities = ds.num_entities();
    config.num_relations = ds.num_relations();
    config.dim = 16;
    config.history_len = 3;
    config.conv_kernels = 4;
    core::RetiaModel model(config);
    model.SetTraining(true);  // dropout draws from the model RNG
    graph::GraphCache cache(&ds);
    tensor::NoGradGuard guard;
    auto states =
        model.Evolve(cache, cache.HistoryBefore(8, config.history_len));
    std::vector<std::vector<float>> out;
    for (const auto& s : states) {
      out.push_back(s.entities.impl().data);
      out.push_back(s.relations.impl().data);
    }
    return out;
  };
  const std::vector<std::vector<float>> reference = run(1);
  for (int pool_threads : {2, 4, 8, DefaultThreads()}) {
    ExpectBitIdentical(run(pool_threads), reference,
                       "training-mode states at pool=" +
                           std::to_string(pool_threads));
  }
}

// The frozen decodes fan the per-state decodes of the time-variability
// decode out on the pool. A cold-cache eval Evolve plus the three frozen
// decodes must be memcmp-identical at every pool width, and the f32
// decodes must equal the serial loop that grad-recording callers take.
TEST(ThreadInvarianceTest, FrozenDecodeBitIdenticalAcrossPoolWidths) {
  const tkg::TkgDataset ds = tkg::GenerateSynthetic(SmallIcews14Config());
  core::RetiaConfig config;
  config.num_entities = ds.num_entities();
  config.num_relations = ds.num_relations();
  config.dim = 16;
  config.history_len = 3;
  config.conv_kernels = 4;
  config.time_variability_decode = true;
  core::RetiaModel model(config);
  model.SetTraining(false);
  const int64_t m = ds.num_relations();
  std::vector<std::pair<int64_t, int64_t>> object_queries, relation_queries;
  for (int64_t i = 0; i < 8; ++i) {
    object_queries.emplace_back((i * 7) % ds.num_entities(), i % (2 * m));
    relation_queries.emplace_back((i * 5) % ds.num_entities(),
                                  (i * 11 + 3) % ds.num_entities());
  }

  auto run = [&](int pool_threads) {
    ThreadPool pool(pool_threads);
    ScopedDefaultPool pool_guard(&pool);
    tensor::NoGradGuard guard;
    graph::GraphCache cache(&ds);
    const auto states =
        model.Evolve(cache, cache.HistoryBefore(8, config.history_len));
    EXPECT_EQ(states.size(), 3u);
    std::vector<quant::QuantizedRows> qcands;
    for (const auto& st : states) {
      qcands.push_back(quant::QuantizeTensorRows(st.entities));
    }
    std::vector<std::vector<float>> out;
    for (const auto& st : states) {
      out.push_back(st.entities.impl().data);
      out.push_back(st.relations.impl().data);
    }
    out.push_back(model.ScoreObjectsFrozen(states, object_queries).impl().data);
    out.push_back(
        model.ScoreRelationsFrozen(states, relation_queries).impl().data);
    out.push_back(
        model.ScoreObjectsFrozenQuantized(states, qcands, object_queries)
            .impl()
            .data);
    return out;
  };
  const std::vector<std::vector<float>> reference = run(1);
  for (int pool_threads : {2, 4, 8, DefaultThreads()}) {
    ExpectBitIdentical(run(pool_threads), reference,
                       "frozen decode at pool=" + std::to_string(pool_threads));
  }

  // Grad mode on: ScoreObjects / ScoreRelations record a tape, so they
  // take the serial decode-then-add loop.
  ASSERT_TRUE(tensor::GradModeEnabled());
  graph::GraphCache cache(&ds);
  std::vector<core::EvolutionModel::StepState> states;
  {
    tensor::NoGradGuard guard;
    states = model.Evolve(cache, cache.HistoryBefore(8, config.history_len));
  }
  const size_t objects_at = 2 * states.size();
  const std::vector<std::vector<float>> serial = {
      model.ScoreObjects(states, object_queries).impl().data,
      model.ScoreRelations(states, relation_queries).impl().data};
  const std::vector<std::vector<float>> frozen = {
      reference[objects_at], reference[objects_at + 1]};
  ExpectBitIdentical(frozen, serial, "frozen vs grad-recording decode");
}

// GraphCache::Prefetch builds one timestamp per shard. Afterwards the
// cache serves the objects Prefetch built, and their edge lists equal
// those of a cache built serially by plain lookups.
TEST(ThreadInvarianceTest, GraphCachePrefetchMatchesSerialBuild) {
  const tkg::TkgDataset ds = tkg::GenerateSynthetic(SmallIcews14Config());
  std::vector<int64_t> times(ds.all_times().begin(),
                             ds.all_times().begin() + 8);
  graph::GraphCache serial(&ds);
  for (int64_t t : times) serial.hypergraph(t);

  auto expect_same_subgraph = [](const graph::Subgraph& got,
                                 const graph::Subgraph& want) {
    EXPECT_EQ(got.src(), want.src());
    EXPECT_EQ(got.rel(), want.rel());
    EXPECT_EQ(got.dst(), want.dst());
    EXPECT_EQ(got.edge_norm(), want.edge_norm());
  };
  for (int pool_threads : {1, 4}) {
    ThreadPool pool(pool_threads);
    ScopedDefaultPool pool_guard(&pool);
    for (bool hypergraphs : {false, true}) {
      SCOPED_TRACE("pool=" + std::to_string(pool_threads) +
                   " hypergraphs=" + std::to_string(hypergraphs));
      graph::GraphCache cache(&ds);
      cache.Prefetch(times, hypergraphs);
      std::vector<const graph::Subgraph*> subgraphs;
      std::vector<const graph::HyperSubgraph*> hypers;
      for (int64_t t : times) {
        subgraphs.push_back(&cache.subgraph(t));
        if (hypergraphs) hypers.push_back(&cache.hypergraph(t));
      }
      // A second Prefetch finds everything cached and rebuilds nothing.
      cache.Prefetch(times, hypergraphs);
      for (size_t i = 0; i < times.size(); ++i) {
        const int64_t t = times[i];
        EXPECT_EQ(&cache.subgraph(t), subgraphs[i]);
        expect_same_subgraph(cache.subgraph(t), serial.subgraph(t));
        if (!hypergraphs) continue;
        EXPECT_EQ(&cache.hypergraph(t), hypers[i]);
        const graph::HyperSubgraph& got = cache.hypergraph(t);
        const graph::HyperSubgraph& want = serial.hypergraph(t);
        EXPECT_EQ(got.src(), want.src());
        EXPECT_EQ(got.hyper_rel(), want.hyper_rel());
        EXPECT_EQ(got.dst(), want.dst());
        EXPECT_EQ(got.edge_norm(), want.edge_norm());
        EXPECT_EQ(got.hyperrelation_relations(),
                  want.hyperrelation_relations());
      }
    }
  }
}

// Duplicate-index scatter-add under parallelism: the owner-computes kernel
// must accumulate duplicates in exact serial edge order.
TEST(ThreadInvarianceTest, DuplicateScatterAddBitIdentical) {
  const int64_t k = 4096, rows = 37, cols = 19;
  tensor::Tensor src = testing::TestTensor({k, cols}, 33, false);
  std::vector<int64_t> idx(k);
  uint64_t state = 99;
  for (int64_t e = 0; e < k; ++e) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    idx[e] = static_cast<int64_t>((state >> 33) % rows);
  }
  auto run = [&](int threads) {
    ThreadPool pool(threads);
    ScopedDefaultPool guard(&pool);
    return tensor::ScatterAddRows(src, idx, rows).impl().data;
  };
  const std::vector<float> reference = run(1);
  for (int threads : {2, 8, DefaultThreads()}) {
    const std::vector<float> got = run(threads);
    ASSERT_EQ(got.size(), reference.size());
    EXPECT_EQ(std::memcmp(got.data(), reference.data(),
                          got.size() * sizeof(float)),
              0)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace retia::par
