// Tests for the batched serve path: engine SubmitBatch bit-identity with
// the per-query path (f32 and int8, across SIMD backends), per-slot error
// isolation in mixed-validity batches, and Router::RouteBatch
// scatter/gather (including multi-frame chunking) over local and socket
// channels. Registered under the ctest label `serve` so the TSan matrix in
// scripts/check.sh covers it.

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/result.h"
#include "core/retia.h"
#include "obs/obs.h"
#include "serve/engine.h"
#include "serve/query.h"
#include "serve/replica.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "simd/simd.h"
#include "stream/grow.h"
#include "tkg/synthetic.h"

namespace retia {
namespace {

using serve::LocalChannel;
using serve::Query;
using serve::QueryResult;
using serve::ReplicaChannel;
using serve::ReplicaServer;
using serve::Result;
using serve::Router;
using serve::RouterConfig;
using serve::ServeConfig;
using serve::ServeEngine;
using serve::SocketChannel;
using serve::StatusCode;
using stream::FrozenSnapshot;

// ---- Fixtures ---------------------------------------------------------------

tkg::SyntheticConfig TinyDataConfig() {
  tkg::SyntheticConfig config;
  config.name = "batch-test";
  config.num_entities = 32;
  config.num_relations = 5;
  config.num_timestamps = 16;
  config.facts_per_timestamp = 12;
  config.num_schemas = 40;
  config.max_period = 4;
  config.seed = 17;
  return config;
}

// Above the RETIA_QUANT_MIN_ROWS=64 floor so quantized_decode=1 actually
// takes the int8 path.
tkg::SyntheticConfig QuantDataConfig() {
  tkg::SyntheticConfig config = TinyDataConfig();
  config.name = "batch-quant-test";
  config.num_entities = 80;
  config.facts_per_timestamp = 24;
  config.num_schemas = 60;
  return config;
}

core::RetiaConfig ModelConfigFor(const tkg::TkgDataset& dataset) {
  core::RetiaConfig config;
  config.num_entities = dataset.num_entities();
  config.num_relations = dataset.num_relations();
  config.dim = 10;
  config.history_len = 2;
  config.conv_kernels = 4;
  config.seed = 3;
  return config;
}

ServeConfig SmallServeConfig() {
  ServeConfig config;
  config.num_threads = 2;
  config.max_k = 5;
  return config;
}

// Mixed-timestamp, mixed-kind batch: exercises the per-timestamp grouping
// of the fused decode, not just one homogeneous group.
std::vector<Query> MixedBatch(const tkg::TkgDataset& dataset, int64_t count) {
  const std::vector<int64_t>& times = dataset.test_times();
  std::vector<Query> queries;
  for (int64_t i = 0; i < count; ++i) {
    const int64_t t = times[i % times.size()];
    const int64_t s = i % dataset.num_entities();
    const int64_t r = i % dataset.num_relations();
    queries.push_back(i % 3 == 2 ? Query::Relation(s, (s + 1) % 7, t, 5)
                                 : Query::Entity(s, r, t, 5));
  }
  return queries;
}

void ExpectBitIdentical(const Result<QueryResult>& batched,
                        const Result<QueryResult>& single, size_t slot) {
  ASSERT_EQ(batched.ok(), single.ok()) << "slot " << slot;
  if (!batched.ok()) {
    EXPECT_EQ(batched.code(), single.code()) << "slot " << slot;
    return;
  }
  const auto& got = batched.value().candidates;
  const auto& want = single.value().candidates;
  ASSERT_EQ(got.size(), want.size()) << "slot " << slot;
  // Scores are compared by memcmp over their bytes: bit-identical, not
  // merely compare-equal (compares struct fields, not struct memory —
  // ScoredCandidate has uninitialized padding).
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "slot " << slot << " rank " << i;
    EXPECT_EQ(std::memcmp(&got[i].score, &want[i].score, sizeof(float)), 0)
        << "slot " << slot << " rank " << i << " score not bit-identical: "
        << got[i].score << " vs " << want[i].score;
  }
}

// ---- Engine-level batch bit-identity ----------------------------------------

void RunEngineBitIdentity(const tkg::TkgDataset& dataset,
                          int quantized_decode) {
  core::RetiaModel model(ModelConfigFor(dataset));
  const std::vector<Query> queries = MixedBatch(dataset, 24);

  for (simd::Backend backend :
       {simd::Backend::kScalar, simd::BestSupportedBackend()}) {
    simd::ScopedBackend scoped(backend);
    ServeConfig config = SmallServeConfig();
    config.quantized_decode = quantized_decode;
    config.enable_cache = false;  // force a real decode on both paths
    ServeEngine batched(FrozenSnapshot(model, dataset), config);
    ServeEngine singles(FrozenSnapshot(model, dataset), config);

    const std::vector<Result<QueryResult>> batch =
        batched.SubmitBatch(queries);
    ASSERT_EQ(batch.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      const Result<QueryResult> single = singles.Submit(queries[i]);
      ExpectBitIdentical(batch[i], single, i);
    }
  }
}

TEST(EngineBatchTest, BatchBitIdenticalToPerQueryF32AcrossBackends) {
  RunEngineBitIdentity(tkg::GenerateSynthetic(TinyDataConfig()),
                       /*quantized_decode=*/0);
}

TEST(EngineBatchTest, BatchBitIdenticalToPerQueryInt8AcrossBackends) {
  RunEngineBitIdentity(tkg::GenerateSynthetic(QuantDataConfig()),
                       /*quantized_decode=*/1);
}

TEST(EngineBatchTest, MixedValidityBatchDegradesOnlyBadSlots) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model(ModelConfigFor(dataset));
  ServeEngine engine(FrozenSnapshot(model, dataset), SmallServeConfig());
  ServeEngine reference(FrozenSnapshot(model, dataset), SmallServeConfig());
  const int64_t t = dataset.test_times().front();

  const std::vector<Query> queries = {
      Query::Entity(0, 1, t, 5),
      Query::Entity(1 << 20, 0, t, 5),  // unknown entity
      Query::Entity(1, 2, t, 5),
      Query::Entity(2, 0, -1, 5),  // bad timestamp
      Query::Entity(3, 1, t, 0),   // bad k
      Query::Relation(4, 5, t, 5),
  };
  const std::vector<Result<QueryResult>> batch = engine.SubmitBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());

  ASSERT_FALSE(batch[1].ok());
  EXPECT_EQ(batch[1].code(), StatusCode::kUnknownEntity);
  ASSERT_FALSE(batch[3].ok());
  EXPECT_EQ(batch[3].code(), StatusCode::kBadTimestamp);
  ASSERT_FALSE(batch[4].ok());
  EXPECT_EQ(batch[4].code(), StatusCode::kInvalidArgument);
  for (const size_t good : {size_t{0}, size_t{2}, size_t{5}}) {
    ExpectBitIdentical(batch[good], reference.Submit(queries[good]), good);
  }
}

TEST(EngineBatchTest, EmptyBatchIsANoOp) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model(ModelConfigFor(dataset));
  ServeEngine engine(FrozenSnapshot(model, dataset), SmallServeConfig());
  EXPECT_TRUE(engine.SubmitBatch({}).empty());
}

// ---- Router batch path ------------------------------------------------------

TEST(RouterBatchTest, RouteBatchMatchesPerQueryRouteAndStampsShards) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model(ModelConfigFor(dataset));

  auto build = [&] {
    std::vector<std::unique_ptr<ReplicaChannel>> replicas;
    std::vector<std::unique_ptr<ServeEngine>> engines;
    for (int i = 0; i < 3; ++i) {
      engines.push_back(std::make_unique<ServeEngine>(
          FrozenSnapshot(model, dataset), SmallServeConfig()));
      replicas.push_back(std::make_unique<LocalChannel>(engines.back().get()));
    }
    return std::make_pair(std::move(replicas), std::move(engines));
  };
  auto [replicas_a, engines_a] = build();
  auto [replicas_b, engines_b] = build();
  RouterConfig config;
  Router batched(std::move(replicas_a), config);
  Router singles(std::move(replicas_b), config);

  // Route ships frames too, so the frame counter is sampled around the
  // RouteBatch call alone; *batch_frames receives what it shipped.
  obs::Counter* frames =
      obs::MetricsRegistry::Get().GetCounter("serve.router.batch.frames");
  const auto check = [&](const std::vector<Query>& queries,
                         int64_t* batch_frames = nullptr) {
    const int64_t frames_before = frames->Value();
    const std::vector<Result<QueryResult>> batch = batched.RouteBatch(queries);
    if (batch_frames != nullptr) {
      *batch_frames = frames->Value() - frames_before;
    }
    ASSERT_EQ(batch.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      const Result<QueryResult> single = singles.Route(queries[i]);
      ExpectBitIdentical(batch[i], single, i);
      if (batch[i].ok()) {
        // The shard stamp must match what single-query routing computes.
        EXPECT_EQ(batch[i].value().shard, single.value().shard)
            << "slot " << i;
        EXPECT_GE(batch[i].value().shard, 0);
      }
    }
  };

  std::vector<Query> queries = MixedBatch(dataset, 40);
  queries.push_back(Query::Entity(1 << 20, 0, dataset.test_times().front(),
                                  5));  // degrades only its own slot
  check(queries);
  EXPECT_TRUE(batched.RouteBatch({}).empty());

  // More than two 64-query frames' worth on shard 0 (so RouteBatch ships
  // it in at least three chunks) on top of a mixed batch over every shard.
  std::vector<int64_t> shard0_subjects;
  for (int64_t s = 0; s < dataset.num_entities(); ++s) {
    if (batched.ShardFor(s) == 0) shard0_subjects.push_back(s);
  }
  ASSERT_FALSE(shard0_subjects.empty());
  const std::vector<int64_t>& times = dataset.test_times();
  std::vector<Query> big = MixedBatch(dataset, 90);
  for (int64_t i = 0; i < 150; ++i) {
    const int64_t s = shard0_subjects[i % shard0_subjects.size()];
    const int64_t t = times[i % times.size()];
    big.push_back(i % 4 == 3 ? Query::Relation(s, (s + 3) % 11, t, 5)
                             : Query::Entity(s, i % 10, t, 5));
  }
  std::vector<int64_t> per_shard(batched.num_shards(), 0);
  for (const Query& query : big) ++per_shard[batched.ShardFor(query.s)];
  ASSERT_GT(per_shard[0], 128);
  int64_t expected_frames = 0;
  for (const int64_t n : per_shard) expected_frames += (n + 63) / 64;

  int64_t big_frames = 0;
  check(big, &big_frames);
  EXPECT_EQ(big_frames, expected_frames);
}

TEST(RouterBatchTest, SocketBatchBitIdenticalToPerQuerySubmit) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model(ModelConfigFor(dataset));
  ServeEngine served(FrozenSnapshot(model, dataset), SmallServeConfig());
  ServeEngine reference(FrozenSnapshot(model, dataset), SmallServeConfig());
  const std::string path = testing::TempDir() + "/retia_batch_e2e.sock";
  ReplicaServer server(&served, nullptr, path);
  ASSERT_TRUE(server.Start().ok());

  RouterConfig config;
  config.timeout_ms = 10000;
  SocketChannel channel(path, config);

  std::vector<Query> queries = MixedBatch(dataset, 16);
  queries.push_back(
      Query::Entity(1 << 20, 0, dataset.test_times().front(), 5));
  const std::vector<Result<QueryResult>> batch = channel.SubmitBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectBitIdentical(batch[i], reference.Submit(queries[i]), i);
  }
  ASSERT_FALSE(batch.back().ok());
  EXPECT_EQ(batch.back().code(), StatusCode::kUnknownEntity);

  server.Stop();
  // A dead replica replicates kShardUnavailable into every slot.
  const std::vector<Result<QueryResult>> down =
      channel.SubmitBatch(MixedBatch(dataset, 4));
  ASSERT_EQ(down.size(), 4u);
  for (const Result<QueryResult>& result : down) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.code(), StatusCode::kShardUnavailable);
  }
}

}  // namespace
}  // namespace retia
