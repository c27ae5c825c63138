// Tests for the sharded serving tier: consistent-hash shard map
// stability, wire-protocol round-trips and malformed-frame robustness
// (nothing a socket peer sends may crash a serving process), router
// bit-identity against a direct engine, shard-failure reporting, the
// unix-socket replica end-to-end path (hung-up connections closed and
// reaped, a burst above the connection pool's size answered exactly and
// its overflow sockets closed), and cross-replica snapshot-epoch
// consistency under concurrent SwapAll. Registered under the ctest label
// `serve` so the TSan matrix in scripts/check.sh covers the zero-drop swap
// guarantee on the multi-shard path.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "ckpt/result.h"
#include "core/retia.h"
#include "graph/graph_cache.h"
#include "serve/engine.h"
#include "serve/query.h"
#include "serve/replica.h"
#include "serve/router.h"
#include "serve/shard_map.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
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
using serve::ScoredCandidate;
using serve::ServeConfig;
using serve::ServeEngine;
using serve::ShardMap;
using serve::SocketChannel;
using serve::StatusCode;
using stream::FrozenSnapshot;
namespace wire = serve::wire;

// ---- Shard map --------------------------------------------------------------

std::vector<int64_t> Ids(int64_t n) {
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < n; ++i) ids.push_back(i);
  return ids;
}

TEST(ShardMapTest, DeterministicAcrossInstances) {
  const ShardMap a(Ids(5));
  const ShardMap b(Ids(5));
  for (int64_t subject = 0; subject < 10000; ++subject) {
    ASSERT_EQ(a.ShardFor(subject), b.ShardFor(subject)) << subject;
  }
}

TEST(ShardMapTest, AddingReplicaRemapsOnlyOntoNewReplica) {
  const ShardMap before(Ids(3));
  const ShardMap after(Ids(4));
  int64_t moved = 0;
  for (int64_t subject = 0; subject < 20000; ++subject) {
    const int64_t old_shard = before.ShardFor(subject);
    const int64_t new_shard = after.ShardFor(subject);
    if (new_shard != old_shard) {
      // The consistent-hash contract: a key may only move TO the replica
      // that joined, never between surviving replicas.
      ASSERT_EQ(new_shard, 3) << "subject " << subject << " moved from shard "
                              << old_shard << " to " << new_shard;
      ++moved;
    }
  }
  // The new replica should own roughly a quarter of the keys.
  EXPECT_GT(moved, 20000 / 8);
  EXPECT_LT(moved, 20000 / 2);
}

TEST(ShardMapTest, RemovingReplicaRemapsOnlyItsKeys) {
  // Ring of {0, 1, 2, 3} vs the same ring with 3 removed: only keys that
  // lived on shard 3 may change owners.
  const ShardMap before(Ids(4));
  const ShardMap after(Ids(3));
  for (int64_t subject = 0; subject < 20000; ++subject) {
    const int64_t old_shard = before.ShardFor(subject);
    const int64_t new_shard = after.ShardFor(subject);
    if (new_shard != old_shard) {
      ASSERT_EQ(old_shard, 3) << "subject " << subject;
    }
  }
}

TEST(ShardMapTest, KeysSpreadAcrossReplicas) {
  const ShardMap map(Ids(4));
  std::map<int64_t, int64_t> counts;
  for (int64_t subject = 0; subject < 20000; ++subject) {
    ++counts[map.ShardFor(subject)];
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [shard, count] : counts) {
    // No shard may be starved or dominant (ideal is 5000 each).
    EXPECT_GT(count, 2000) << "shard " << shard;
    EXPECT_LT(count, 10000) << "shard " << shard;
  }
}

// ---- Wire protocol ----------------------------------------------------------

TEST(WireTest, QueryRoundTrips) {
  // A single query travels as a one-query batch frame.
  const Query query = Query::Relation(123456789, -7, 42, 10);
  std::vector<uint8_t> frame;
  wire::AppendFrame(wire::MsgType::kQueryBatch, wire::EncodeQueryBatch({query}),
                    &frame);

  wire::Frame decoded;
  size_t consumed = 0;
  std::string detail;
  ASSERT_EQ(wire::DecodeFrame(frame.data(), frame.size(), &decoded, &consumed,
                              &detail),
            wire::DecodeStatus::kFrame)
      << detail;
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(decoded.type, wire::MsgType::kQueryBatch);
  const Result<std::vector<Query>> round =
      wire::DecodeQueryBatch(decoded.body);
  ASSERT_TRUE(round.ok()) << round.ToString();
  EXPECT_EQ(round.value(), std::vector<Query>{query});
}

TEST(WireTest, QueryReplyRoundTripsOkAndError) {
  QueryResult value;
  value.candidates = {{3, 1.5f}, {9, -0.25f}, {0, 0.0f}};
  value.cache_hit = true;
  value.epoch = 7;
  const Result<QueryResult> ok_round =
      wire::DecodeQueryReply(wire::EncodeQueryReply(Result<QueryResult>(value)));
  ASSERT_TRUE(ok_round.ok()) << ok_round.ToString();
  EXPECT_EQ(ok_round.value().candidates, value.candidates);
  EXPECT_TRUE(ok_round.value().cache_hit);
  EXPECT_EQ(ok_round.value().epoch, 7);

  const Result<QueryResult> error_round =
      wire::DecodeQueryReply(wire::EncodeQueryReply(Result<QueryResult>::Error(
          StatusCode::kUnknownEntity, "entity 99 out of range")));
  ASSERT_FALSE(error_round.ok());
  EXPECT_EQ(error_round.code(), StatusCode::kUnknownEntity);
  EXPECT_EQ(error_round.detail(), "entity 99 out of range");
}

TEST(WireTest, ControlBodiesRoundTrip) {
  const Result<std::string> swap = wire::DecodeSwap(wire::EncodeSwap("/tmp/x"));
  ASSERT_TRUE(swap.ok());
  EXPECT_EQ(swap.value(), "/tmp/x");

  const Result<int64_t> swap_ok = wire::DecodeSwapReply(
      wire::EncodeSwapReply(StatusCode::kOk, 12, ""));
  ASSERT_TRUE(swap_ok.ok());
  EXPECT_EQ(swap_ok.value(), 12);
  const Result<int64_t> swap_err = wire::DecodeSwapReply(
      wire::EncodeSwapReply(StatusCode::kInternal, -1, "load failed"));
  ASSERT_FALSE(swap_err.ok());
  EXPECT_EQ(swap_err.code(), StatusCode::kInternal);
  EXPECT_EQ(swap_err.detail(), "load failed");

  const Result<int64_t> pong = wire::DecodePong(wire::EncodePong(3));
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong.value(), 3);

  const Result<std::string> stats =
      wire::DecodeString(wire::EncodeString("{\"qps\":1}"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value(), "{\"qps\":1}");
}

TEST(WireTest, TruncatedFramesAskForMoreBytes) {
  std::vector<uint8_t> frame;
  wire::AppendFrame(wire::MsgType::kPing, {}, &frame);
  wire::Frame decoded;
  size_t consumed = 0;
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_EQ(wire::DecodeFrame(frame.data(), len, &decoded, &consumed,
                                nullptr),
              wire::DecodeStatus::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(WireTest, MalformedFramesAndBodiesNeverCrash) {
  // Fuzz-ish sweep: random byte soup through the frame decoder and every
  // body decoder. The only acceptable outcomes are kNeedMore, kError, or a
  // decoded value — never a crash or CHECK failure.
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> length(0, 64);
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint8_t> bytes(length(rng));
    for (auto& b : bytes) b = static_cast<uint8_t>(byte(rng));

    wire::Frame frame;
    size_t consumed = 0;
    std::string detail;
    (void)wire::DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed,
                            &detail);
    (void)wire::DecodeQuery(bytes);
    (void)wire::DecodeQueryReply(bytes);
    (void)wire::DecodeSwap(bytes);
    (void)wire::DecodeSwapReply(bytes);
    (void)wire::DecodePong(bytes);
    (void)wire::DecodeString(bytes);
  }

  // Targeted malformations of a valid frame: bad version, bad type, the
  // retired single-query type 1, and a length that overruns the cap must
  // all be kError with a reason.
  std::vector<uint8_t> good;
  wire::AppendFrame(wire::MsgType::kQueryBatch,
                    wire::EncodeQueryBatch({Query::Entity(1, 2, 3, 4)}),
                    &good);
  wire::Frame frame;
  size_t consumed = 0;
  std::string detail;

  std::vector<uint8_t> bad_version = good;
  bad_version[4] = 99;
  EXPECT_EQ(wire::DecodeFrame(bad_version.data(), bad_version.size(), &frame,
                              &consumed, &detail),
            wire::DecodeStatus::kError);
  EXPECT_FALSE(detail.empty());

  std::vector<uint8_t> bad_type = good;
  bad_type[5] = 0;
  EXPECT_EQ(wire::DecodeFrame(bad_type.data(), bad_type.size(), &frame,
                              &consumed, &detail),
            wire::DecodeStatus::kError);

  std::vector<uint8_t> retired_type = good;
  retired_type[5] = 1;
  EXPECT_EQ(wire::DecodeFrame(retired_type.data(), retired_type.size(),
                              &frame, &consumed, &detail),
            wire::DecodeStatus::kError);

  std::vector<uint8_t> huge = good;
  huge[0] = 0xff;
  huge[1] = 0xff;
  huge[2] = 0xff;
  huge[3] = 0x7f;
  EXPECT_EQ(wire::DecodeFrame(huge.data(), huge.size(), &frame, &consumed,
                              &detail),
            wire::DecodeStatus::kError);

  // A reply whose candidate count promises more bytes than the body holds
  // must be rejected, not over-read.
  QueryResult value;
  value.candidates = {{1, 1.0f}, {2, 0.5f}};
  std::vector<uint8_t> reply =
      wire::EncodeQueryReply(Result<QueryResult>(value));
  reply[10] = 0xff;  // count field low byte
  reply[11] = 0x00;
  EXPECT_FALSE(wire::DecodeQueryReply(reply).ok());
}

TEST(WireTest, QueryBatchRoundTrips) {
  std::vector<Query> queries;
  for (int64_t i = 0; i < 17; ++i) {
    queries.push_back(i % 2 == 0 ? Query::Entity(i, i % 5, 100 + i, 4)
                                 : Query::Relation(i, -i, 200 + i, 9));
  }
  std::vector<uint8_t> frame;
  wire::AppendFrame(wire::MsgType::kQueryBatch,
                    wire::EncodeQueryBatch(queries), &frame);

  wire::Frame decoded;
  size_t consumed = 0;
  std::string detail;
  ASSERT_EQ(wire::DecodeFrame(frame.data(), frame.size(), &decoded, &consumed,
                              &detail),
            wire::DecodeStatus::kFrame)
      << detail;
  EXPECT_EQ(decoded.type, wire::MsgType::kQueryBatch);
  const Result<std::vector<Query>> round =
      wire::DecodeQueryBatch(decoded.body);
  ASSERT_TRUE(round.ok()) << round.ToString();
  EXPECT_EQ(round.value(), queries);
}

TEST(WireTest, ResultBatchCarriesPerEntryStatus) {
  QueryResult value;
  value.candidates = {{4, 2.0f}, {1, 1.0f}};
  value.epoch = 3;
  std::vector<Result<QueryResult>> results;
  results.emplace_back(value);
  results.push_back(Result<QueryResult>::Error(StatusCode::kUnknownEntity,
                                               "entity 99 out of range"));
  results.emplace_back(QueryResult{});

  const Result<std::vector<Result<QueryResult>>> round =
      wire::DecodeResultBatch(wire::EncodeResultBatch(results));
  ASSERT_TRUE(round.ok()) << round.ToString();
  ASSERT_EQ(round.value().size(), 3u);
  ASSERT_TRUE(round.value()[0].ok());
  EXPECT_EQ(round.value()[0].value().candidates, value.candidates);
  EXPECT_EQ(round.value()[0].value().epoch, 3);
  ASSERT_FALSE(round.value()[1].ok());
  EXPECT_EQ(round.value()[1].code(), StatusCode::kUnknownEntity);
  EXPECT_EQ(round.value()[1].detail(), "entity 99 out of range");
  EXPECT_TRUE(round.value()[2].ok());
  EXPECT_TRUE(round.value()[2].value().candidates.empty());
}

TEST(WireTest, ResultBatchBytesAreGolden) {
  // A mixed ok/error kResultBatch body, byte for byte: u16 count, then per
  // entry a u32 length and the QueryReply record.
  QueryResult value;
  value.candidates = {{4, 2.0f}};
  value.cache_hit = true;
  value.epoch = 3;
  const std::vector<Result<QueryResult>> results = {
      Result<QueryResult>(value),
      Result<QueryResult>::Error(StatusCode::kUnknownEntity, "bad")};
  const std::vector<uint8_t> golden = {
      0x02, 0x00,                                      // two entries
      0x18, 0x00, 0x00, 0x00,                          // entry 0: 24 bytes
      0x00,                                            // kOk
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // epoch 3
      0x01,                                            // cache hit
      0x01, 0x00,                                      // one candidate
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // id 4
      0x00, 0x00, 0x00, 0x40,                          // score 2.0f
      0x06, 0x00, 0x00, 0x00,                          // entry 1: 6 bytes
      0x02,                                            // kUnknownEntity
      0x03, 0x00, 'b',  'a',  'd'};                    // detail "bad"
  EXPECT_EQ(wire::EncodeResultBatch(results), golden);

  const Result<std::vector<Result<QueryResult>>> round =
      wire::DecodeResultBatch(golden);
  ASSERT_TRUE(round.ok()) << round.ToString();
  ASSERT_EQ(round.value().size(), 2u);
  ASSERT_TRUE(round.value()[0].ok());
  EXPECT_EQ(round.value()[0].value().candidates, value.candidates);
  EXPECT_TRUE(round.value()[0].value().cache_hit);
  EXPECT_EQ(round.value()[0].value().epoch, 3);
  ASSERT_FALSE(round.value()[1].ok());
  EXPECT_EQ(round.value()[1].code(), StatusCode::kUnknownEntity);
  EXPECT_EQ(round.value()[1].detail(), "bad");
}

TEST(WireTest, MalformedResultBatchEntryDegradesOnlyItself) {
  // Corrupt the SECOND entry's inner reply body (its candidate count) while
  // leaving the entry length prefix intact: the frame is still structurally
  // valid, so decode succeeds and only that entry becomes a protocol error.
  QueryResult value;
  value.candidates = {{7, 1.5f}};
  std::vector<Result<QueryResult>> results(3, Result<QueryResult>(value));
  std::vector<uint8_t> body = wire::EncodeResultBatch(results);
  const size_t entry_bytes =
      wire::EncodeQueryReply(Result<QueryResult>(value)).size();
  // Layout: u16 count, then per entry u32 len + body. The inner reply body
  // is [u8 ok][u8 cache_hit][i64 epoch][u16 count]... — blow up the count
  // of entry 1.
  const size_t count_off = 2 + (4 + entry_bytes) + 4 + 1 + 1 + 8;
  body[count_off] = 0xff;
  body[count_off + 1] = 0xff;

  const Result<std::vector<Result<QueryResult>>> round =
      wire::DecodeResultBatch(body);
  ASSERT_TRUE(round.ok()) << round.ToString();
  ASSERT_EQ(round.value().size(), 3u);
  EXPECT_TRUE(round.value()[0].ok());
  EXPECT_FALSE(round.value()[1].ok());
  EXPECT_EQ(round.value()[1].code(), StatusCode::kProtocolError);
  EXPECT_TRUE(round.value()[2].ok());
}

TEST(WireTest, BatchBodiesRejectStructuralDamage) {
  const std::vector<Query> queries = {Query::Entity(1, 2, 3, 4),
                                      Query::Relation(5, 6, 7, 8)};
  const std::vector<uint8_t> qbatch = wire::EncodeQueryBatch(queries);

  // Truncation sweep: every proper prefix must be rejected, never crash.
  for (size_t len = 0; len < qbatch.size(); ++len) {
    EXPECT_FALSE(wire::DecodeQueryBatch(
                     std::vector<uint8_t>(qbatch.begin(), qbatch.begin() + len))
                     .ok())
        << "query batch prefix " << len;
  }

  // Count mismatching the body size (both directions).
  std::vector<uint8_t> bad_count = qbatch;
  bad_count[0] = 1;
  EXPECT_FALSE(wire::DecodeQueryBatch(bad_count).ok());
  bad_count[0] = 3;
  EXPECT_FALSE(wire::DecodeQueryBatch(bad_count).ok());
  // Zero count and a count beyond kMaxWireBatch.
  std::vector<uint8_t> zero = qbatch;
  zero[0] = 0;
  zero[1] = 0;
  EXPECT_FALSE(wire::DecodeQueryBatch(zero).ok());
  std::vector<uint8_t> oversized = qbatch;
  oversized[0] = 0xff;
  oversized[1] = 0xff;
  EXPECT_FALSE(wire::DecodeQueryBatch(oversized).ok());
  // Trailing bytes after the last record.
  std::vector<uint8_t> trailing = qbatch;
  trailing.push_back(0);
  EXPECT_FALSE(wire::DecodeQueryBatch(trailing).ok());
  // Unknown query kind inside a record.
  std::vector<uint8_t> bad_kind = qbatch;
  bad_kind[2] = 99;  // first record's kind byte
  EXPECT_FALSE(wire::DecodeQueryBatch(bad_kind).ok());

  std::vector<Result<QueryResult>> results;
  results.emplace_back(QueryResult{});
  results.push_back(
      Result<QueryResult>::Error(StatusCode::kInternal, "boom"));
  const std::vector<uint8_t> rbatch = wire::EncodeResultBatch(results);
  for (size_t len = 0; len < rbatch.size(); ++len) {
    EXPECT_FALSE(
        wire::DecodeResultBatch(
            std::vector<uint8_t>(rbatch.begin(), rbatch.begin() + len))
            .ok())
        << "result batch prefix " << len;
  }
  // An entry length overrunning the body, trailing bytes, zero count.
  std::vector<uint8_t> overrun = rbatch;
  overrun[2 + 3] = 0x7f;  // first entry length, high byte
  EXPECT_FALSE(wire::DecodeResultBatch(overrun).ok());
  std::vector<uint8_t> rtrailing = rbatch;
  rtrailing.push_back(0);
  EXPECT_FALSE(wire::DecodeResultBatch(rtrailing).ok());
  std::vector<uint8_t> rzero = rbatch;
  rzero[0] = 0;
  rzero[1] = 0;
  EXPECT_FALSE(wire::DecodeResultBatch(rzero).ok());
}

TEST(WireTest, BatchDecodersSurviveByteSoup) {
  std::mt19937 rng(20260809);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> length(0, 160);
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint8_t> bytes(length(rng));
    for (auto& b : bytes) b = static_cast<uint8_t>(byte(rng));
    (void)wire::DecodeQueryBatch(bytes);
    (void)wire::DecodeResultBatch(bytes);
  }
}

// ---- Engine fixtures --------------------------------------------------------

tkg::SyntheticConfig TinyDataConfig() {
  tkg::SyntheticConfig config;
  config.name = "router-test";
  config.num_entities = 32;
  config.num_relations = 5;
  config.num_timestamps = 16;
  config.facts_per_timestamp = 12;
  config.num_schemas = 40;
  config.max_period = 4;
  config.seed = 17;
  return config;
}

core::RetiaConfig TinyModelConfig(const tkg::TkgDataset& dataset,
                                  int64_t seed = 3) {
  core::RetiaConfig config;
  config.num_entities = dataset.num_entities();
  config.num_relations = dataset.num_relations();
  config.dim = 10;
  config.history_len = 2;
  config.conv_kernels = 4;
  config.seed = seed;
  return config;
}

ServeConfig SmallServeConfig() {
  ServeConfig config;
  config.num_threads = 2;
  config.max_k = 5;
  return config;
}

// ---- Router over in-process channels ---------------------------------------

TEST(RouterTest, LocalChannelsAnswerBitIdenticalToDirectEngine) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model(TinyModelConfig(dataset));
  const int64_t t = dataset.test_times().front();

  // Reference engine plus two replica engines, all over the same frozen
  // snapshot: which replica answers must not change the answer.
  ServeEngine reference(FrozenSnapshot(model, dataset), SmallServeConfig());
  ServeEngine replica_a(FrozenSnapshot(model, dataset), SmallServeConfig());
  ServeEngine replica_b(FrozenSnapshot(model, dataset), SmallServeConfig());

  std::vector<std::unique_ptr<ReplicaChannel>> channels;
  channels.push_back(std::make_unique<LocalChannel>(&replica_a));
  channels.push_back(std::make_unique<LocalChannel>(&replica_b));
  Router router(std::move(channels), RouterConfig{});

  for (int64_t s = 0; s < dataset.num_entities(); ++s) {
    const Query query = Query::Entity(s, s % 10, t, 5);
    Result<QueryResult> direct = reference.Submit(query);
    Result<QueryResult> routed = router.Route(query);
    ASSERT_TRUE(direct.ok()) << direct.ToString();
    ASSERT_TRUE(routed.ok()) << routed.ToString();
    EXPECT_EQ(routed.value().candidates, direct.value().candidates)
        << "subject " << s;
    EXPECT_EQ(routed.value().shard, router.ShardFor(s));
  }
  EXPECT_NE(router.StatsJson().find("\"router\""), std::string::npos);
  EXPECT_NE(router.StatsJson().find("\"replicas\""), std::string::npos);
}

// A channel that always fails, standing in for a dead replica.
class DeadChannel : public ReplicaChannel {
 public:
  std::vector<Result<QueryResult>> SubmitBatch(
      const std::vector<Query>& queries) override {
    std::vector<Result<QueryResult>> out;
    for (size_t i = 0; i < queries.size(); ++i) {
      out.push_back(Result<QueryResult>::Error(StatusCode::kShardUnavailable,
                                               "replica down"));
    }
    return out;
  }
  Result<int64_t> Swap(const std::string&) override {
    return Result<int64_t>::Error(StatusCode::kShardUnavailable,
                                  "replica down");
  }
  Result<std::string> StatsJson() override {
    return Result<std::string>::Error(StatusCode::kShardUnavailable,
                                      "replica down");
  }
  Result<int64_t> Ping() override {
    return Result<int64_t>::Error(StatusCode::kShardUnavailable,
                                  "replica down");
  }
};

TEST(RouterTest, DeadReplicaDegradesOnlyItsArcToShardUnavailable) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model(TinyModelConfig(dataset));
  const int64_t t = dataset.test_times().front();

  ServeEngine live(FrozenSnapshot(model, dataset), SmallServeConfig());
  std::vector<std::unique_ptr<ReplicaChannel>> channels;
  channels.push_back(std::make_unique<LocalChannel>(&live));
  channels.push_back(std::make_unique<DeadChannel>());
  Router router(std::move(channels), RouterConfig{});

  int64_t ok_count = 0, dead_count = 0;
  for (int64_t s = 0; s < dataset.num_entities(); ++s) {
    Result<QueryResult> result = router.Route(Query::Entity(s, 0, t, 3));
    if (router.ShardFor(s) == 1) {
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.code(), StatusCode::kShardUnavailable);
      ++dead_count;
    } else {
      ASSERT_TRUE(result.ok()) << result.ToString();
      ++ok_count;
    }
  }
  EXPECT_GT(ok_count, 0);
  EXPECT_GT(dead_count, 0);

  // SwapAll must refuse to report success when a shard cannot install.
  const std::vector<Result<int64_t>> pings = router.PingAll();
  EXPECT_TRUE(pings[0].ok());
  EXPECT_FALSE(pings[1].ok());
  Result<int64_t> swap = router.SwapAll("/nonexistent");
  EXPECT_FALSE(swap.ok());
}

// ---- Socket end-to-end ------------------------------------------------------

TEST(ReplicaServerTest, SocketChannelEndToEndMatchesInProcess) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model(TinyModelConfig(dataset));
  const int64_t t = dataset.test_times().front();

  ServeEngine reference(FrozenSnapshot(model, dataset), SmallServeConfig());
  ServeEngine served(FrozenSnapshot(model, dataset), SmallServeConfig());
  const std::string path = testing::TempDir() + "/retia_replica_e2e.sock";
  ReplicaServer server(&served, nullptr, path);
  Result<bool> started = server.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();

  RouterConfig config;
  config.timeout_ms = 10000;
  SocketChannel channel(path, config);
  // One query per frame, as Route ships it.
  const auto submit = [&channel](const Query& query) {
    std::vector<Result<QueryResult>> replies = channel.SubmitBatch({query});
    EXPECT_EQ(replies.size(), 1u);
    return std::move(replies.at(0));
  };
  // Queries over the socket must be bit-identical to in-process answers,
  // and engine-level errors must keep their taxonomy across the wire.
  for (int64_t s = 0; s < 8; ++s) {
    const Query query = Query::Entity(s, s % 10, t, 5);
    Result<QueryResult> direct = reference.Submit(query);
    Result<QueryResult> remote = submit(query);
    ASSERT_TRUE(direct.ok()) << direct.ToString();
    ASSERT_TRUE(remote.ok()) << remote.ToString();
    EXPECT_EQ(remote.value().candidates, direct.value().candidates);
  }
  Result<QueryResult> bad_entity = submit(Query::Entity(1 << 20, 0, t, 3));
  ASSERT_FALSE(bad_entity.ok());
  EXPECT_EQ(bad_entity.code(), StatusCode::kUnknownEntity);
  Result<QueryResult> bad_time = submit(Query::Entity(0, 0, -1, 3));
  ASSERT_FALSE(bad_time.ok());
  EXPECT_EQ(bad_time.code(), StatusCode::kBadTimestamp);
  Result<QueryResult> bad_k = submit(Query::Entity(0, 0, t, 0));
  ASSERT_FALSE(bad_k.ok());
  EXPECT_EQ(bad_k.code(), StatusCode::kInvalidArgument);

  Result<int64_t> ping = channel.Ping();
  ASSERT_TRUE(ping.ok()) << ping.ToString();
  EXPECT_EQ(ping.value(), 0);
  Result<std::string> stats = channel.StatsJson();
  ASSERT_TRUE(stats.ok()) << stats.ToString();
  EXPECT_NE(stats.value().find("\"completed\""), std::string::npos);
  // Swap without a loader is reported, not fatal.
  Result<int64_t> swap = channel.Swap("/nonexistent");
  ASSERT_FALSE(swap.ok());
  EXPECT_EQ(swap.code(), StatusCode::kInternal);

  server.Stop();
  // After Stop, the channel reports the shard as unavailable.
  Result<QueryResult> down = submit(Query::Entity(0, 0, t, 3));
  ASSERT_FALSE(down.ok());
  EXPECT_EQ(down.code(), StatusCode::kShardUnavailable);
}

TEST(ReplicaServerTest, MalformedBytesOnSocketAreReportedNotFatal) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model(TinyModelConfig(dataset));
  ServeEngine served(FrozenSnapshot(model, dataset), SmallServeConfig());
  const std::string path = testing::TempDir() + "/retia_replica_fuzz.sock";
  ReplicaServer server(&served, nullptr, path);
  ASSERT_TRUE(server.Start().ok());

  RouterConfig config;
  config.timeout_ms = 10000;

  // Raw unix-socket connections pushing byte soup, oversized lengths,
  // bad versions, the retired single-query frame type, and
  // well-framed-but-truncated query bodies at the server. Every connection
  // must end with a typed protocol-error reply or a clean close — never a
  // server crash — and the replica must keep serving well-formed queries
  // afterwards.
  auto attack = [&path](const std::vector<uint8_t>& bytes) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    (void)::write(fd, bytes.data(), bytes.size());
    ::shutdown(fd, SHUT_WR);
    // Drain whatever the server answers (error reply or EOF) so the
    // server-side write cannot block, then close.
    char sink[256];
    while (::read(fd, sink, sizeof(sink)) > 0) {
    }
    ::close(fd);
  };

  std::mt19937 rng(7);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 20; ++round) {
    std::vector<uint8_t> garbage(64);
    for (auto& b : garbage) b = static_cast<uint8_t>(byte(rng));
    attack(garbage);
  }
  {
    // Oversized declared length.
    attack({0xff, 0xff, 0xff, 0x7f, 1, 1});
    // Wrong version.
    attack({2, 0, 0, 0, 99, 1});
    // The retired single-query type 1, raw: payload 5 = version + type +
    // three body bytes.
    attack({5, 0, 0, 0, wire::kVersion, 1, 1, 2, 3});
    // Reply type sent at the server.
    std::vector<uint8_t> frame;
    wire::AppendFrame(wire::MsgType::kPong, wire::EncodePong(1), &frame);
    attack(frame);
    // Valid frame header, truncated query-batch body.
    frame.clear();
    wire::AppendFrame(wire::MsgType::kQueryBatch, {2, 0, 1, 1, 1}, &frame);
    attack(frame);
    // Query batch whose count mismatches its body.
    std::vector<uint8_t> batch =
        wire::EncodeQueryBatch({Query::Entity(0, 0, 0, 1)});
    batch[0] = 7;
    frame.clear();
    wire::AppendFrame(wire::MsgType::kQueryBatch, batch, &frame);
    attack(frame);
    // A result batch (a reply type) sent at the server.
    frame.clear();
    wire::AppendFrame(
        wire::MsgType::kResultBatch,
        wire::EncodeResultBatch({Result<QueryResult>(QueryResult{})}), &frame);
    attack(frame);
  }
  const int64_t t = dataset.test_times().front();
  SocketChannel channel(path, config);
  const std::vector<Result<QueryResult>> alive =
      channel.SubmitBatch({Query::Entity(0, 0, t, 3)});
  ASSERT_EQ(alive.size(), 1u);
  ASSERT_TRUE(alive.front().ok()) << alive.front().ToString();
  server.Stop();
}

TEST(ReplicaServerTest, QueryAfterSwapKeepsTheReadTimeout) {
  // A peer that acknowledges one swap and then never answers. The swap
  // round trip runs untimed, and the connection it hands back to the pool
  // must carry the per-query timeout again: the next query over it fails
  // as kShardUnavailable once timeout_ms passes, instead of blocking.
  const std::string path = testing::TempDir() + "/retia_replica_mute.sock";
  ::unlink(path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  std::thread peer([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    const Result<wire::Frame> swap = wire::ReadFrame(fd);
    if (swap.ok() && swap.value().type == wire::MsgType::kSwap) {
      (void)wire::WriteFrame(fd, wire::MsgType::kSwapReply,
                             wire::EncodeSwapReply(StatusCode::kOk, 1, ""));
      // Take the query and stay silent until the client hangs up, or for
      // 5 s if it never does (then the elapsed-time check below fails).
      (void)wire::ReadFrame(fd);
      timeval tv{};
      tv.tv_sec = 5;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      char byte = 0;
      while (::read(fd, &byte, 1) > 0) {
      }
    }
    ::close(fd);
  });

  RouterConfig config;
  config.timeout_ms = 200;
  {
    SocketChannel channel(path, config);
    const Result<int64_t> swap = channel.Swap("any-prefix");
    EXPECT_TRUE(swap.ok()) << swap.ToString();
    const auto start = std::chrono::steady_clock::now();
    const std::vector<Result<QueryResult>> replies =
        channel.SubmitBatch({Query::Entity(0, 0, 1, 3)});
    const auto waited = std::chrono::steady_clock::now() - start;
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].code(), StatusCode::kShardUnavailable);
    EXPECT_LT(waited, std::chrono::milliseconds(2000));
  }
  peer.join();
  ::close(listener);
  ::unlink(path.c_str());
}

// Open file descriptors of this process (the iterator's own fd included,
// which cancels out between two calls).
int64_t OpenFds() {
  const std::filesystem::directory_iterator fds("/proc/self/fd");
  return std::distance(std::filesystem::begin(fds), std::filesystem::end(fds));
}

// Waits up to 10 s for the open-fd count to fall to `limit`, and returns
// the last count seen. The replica closes a connection only once its
// handler sees the hang-up, so the count settles asynchronously.
int64_t OpenFdsSettledTo(int64_t limit) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (OpenFds() > limit && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return OpenFds();
}

// Descriptors tolerated above the expected count once the replica settles.
constexpr int64_t kFdSlack = 8;

TEST(ReplicaServerTest, HungUpConnectionsAreClosedAndReaped) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model(TinyModelConfig(dataset));
  ServeEngine served(FrozenSnapshot(model, dataset), SmallServeConfig());
  const std::string path = testing::TempDir() + "/retia_replica_reap.sock";
  ReplicaServer server(&served, nullptr, path);
  ASSERT_TRUE(server.Start().ok());

  RouterConfig config;
  config.timeout_ms = 10000;
  // Each cycle dials a fresh connection, pings, and hangs up (the channel
  // closes its pooled socket on destruction) — what every overflow query
  // of a busy router does to its replica.
  const int64_t fds_before = OpenFds();
  constexpr int kCycles = 300;
  for (int i = 0; i < kCycles; ++i) {
    SocketChannel channel(path, config);
    Result<int64_t> ping = channel.Ping();
    ASSERT_TRUE(ping.ok()) << "cycle " << i << ": " << ping.ToString();
  }
  // The replica closes each connection once its handler sees the hang-up.
  EXPECT_LE(OpenFdsSettledTo(fds_before + kFdSlack), fds_before + kFdSlack);

  SocketChannel fresh(path, config);
  Result<int64_t> ping = fresh.Ping();
  ASSERT_TRUE(ping.ok()) << ping.ToString();
  server.Stop();
}

TEST(ReplicaServerTest, BurstAbovePoolSizeMatchesInProcessAndClosesOverflow) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model(TinyModelConfig(dataset));
  const int64_t t = dataset.test_times().front();

  ServeEngine reference(FrozenSnapshot(model, dataset), SmallServeConfig());
  ServeEngine served(FrozenSnapshot(model, dataset), SmallServeConfig());
  const std::string path = testing::TempDir() + "/retia_replica_burst.sock";
  ReplicaServer server(&served, nullptr, path);
  ASSERT_TRUE(server.Start().ok());

  // 8 concurrent callers over a 2-socket pool: a caller that finds the
  // pool empty dials its own connection, and Return keeps only 2 of them.
  constexpr int64_t kPool = 2;
  RouterConfig config;
  config.connections_per_replica = kPool;
  config.timeout_ms = 10000;
  std::vector<std::unique_ptr<ReplicaChannel>> channels;
  channels.push_back(std::make_unique<SocketChannel>(path, config));
  Router router(std::move(channels), config);

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 25;
  std::vector<Query> queries;
  for (int i = 0; i < kThreads * kCallsPerThread; ++i) {
    queries.push_back(Query::Entity(i % dataset.num_entities(), i % 10, t, 5));
  }
  const int64_t fds_before = OpenFds();
  std::vector<std::optional<Result<QueryResult>>> routed(queries.size());
  std::vector<std::thread> callers;
  for (int c = 0; c < kThreads; ++c) {
    callers.emplace_back([&, c] {
      for (size_t i = c; i < queries.size(); i += kThreads) {
        routed[i] = router.Route(queries[i]);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();

  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(routed[i].has_value()) << "query " << i;
    ASSERT_TRUE(routed[i]->ok()) << "query " << i << ": "
                                 << routed[i]->ToString();
    Result<QueryResult> direct = reference.Submit(queries[i]);
    ASSERT_TRUE(direct.ok()) << direct.ToString();
    EXPECT_EQ(routed[i]->value().candidates, direct.value().candidates)
        << "query " << i;
  }
  // Both ends of each pooled connection live in this process; every
  // overflow connection is closed on return and reaped by the replica.
  const int64_t limit = fds_before + 2 * kPool + kFdSlack;
  EXPECT_LE(OpenFdsSettledTo(limit), limit);
  server.Stop();
}

// ---- Coordinated hot-swap across replicas -----------------------------------

TEST(RouterSwapTest, ConcurrentSwapAllNeverDropsOrTearsResponses) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model_a(TinyModelConfig(dataset, /*seed=*/3));
  core::RetiaModel model_b(TinyModelConfig(dataset, /*seed=*/99));
  const int64_t t = dataset.test_times().front();
  const int64_t k = 4;

  // Reference answers under each snapshot.
  std::vector<std::vector<ScoredCandidate>> ref_a, ref_b;
  {
    ServeEngine engine_a(FrozenSnapshot(model_a, dataset), SmallServeConfig());
    ServeEngine engine_b(FrozenSnapshot(model_b, dataset), SmallServeConfig());
    for (int64_t s = 0; s < dataset.num_entities(); ++s) {
      Result<QueryResult> a = engine_a.Submit(Query::Entity(s, 1, t, k));
      Result<QueryResult> b = engine_b.Submit(Query::Entity(s, 1, t, k));
      ASSERT_TRUE(a.ok() && b.ok());
      ref_a.push_back(a.take().candidates);
      ref_b.push_back(b.take().candidates);
    }
    ASSERT_NE(ref_a[0], ref_b[0]) << "models must genuinely differ";
  }

  // Two replicas starting on snapshot A; the loader alternates per prefix.
  ServeEngine replica_a(FrozenSnapshot(model_a, dataset), SmallServeConfig());
  ServeEngine replica_b(FrozenSnapshot(model_a, dataset), SmallServeConfig());
  serve::SnapshotLoader loader =
      [&](const std::string& prefix) -> Result<serve::EngineSnapshot> {
    return FrozenSnapshot(prefix == "b" ? model_b : model_a, dataset);
  };
  std::vector<std::unique_ptr<ReplicaChannel>> channels;
  channels.push_back(std::make_unique<LocalChannel>(&replica_a, loader));
  channels.push_back(std::make_unique<LocalChannel>(&replica_b, loader));
  Router router(std::move(channels), RouterConfig{});

  constexpr int kClients = 4;
  constexpr int kRoundsPerClient = 50;
  std::vector<std::thread> clients;
  std::vector<int64_t> dropped(kClients, 0), torn(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRoundsPerClient; ++round) {
        const int64_t s =
            (static_cast<int64_t>(c) * 31 + round) % dataset.num_entities();
        Result<QueryResult> result = router.Route(Query::Entity(s, 1, t, k));
        if (!result.ok()) {
          ++dropped[c];
          continue;
        }
        // Old-or-new, never torn: every response must equal one of the two
        // snapshots' reference answers in full.
        const auto& got = result.value().candidates;
        if (got != ref_a[s] && got != ref_b[s]) ++torn[c];
      }
    });
  }
  // Two swap waves (a -> b -> a) while clients hammer the router.
  Result<int64_t> swap_b = router.SwapAll("b");
  ASSERT_TRUE(swap_b.ok()) << swap_b.ToString();
  EXPECT_EQ(swap_b.value(), 1);
  Result<int64_t> swap_a = router.SwapAll("a");
  ASSERT_TRUE(swap_a.ok()) << swap_a.ToString();
  EXPECT_EQ(swap_a.value(), 2);
  for (std::thread& client : clients) client.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(dropped[c], 0) << "client " << c;
    EXPECT_EQ(torn[c], 0) << "client " << c;
  }
  // After the dust settles every replica sits on the same epoch.
  for (const Result<int64_t>& epoch : router.PingAll()) {
    ASSERT_TRUE(epoch.ok());
    EXPECT_EQ(epoch.value(), 2);
  }
  // And post-swap answers carry that epoch.
  Result<QueryResult> settled = router.Route(Query::Entity(0, 1, t, k));
  ASSERT_TRUE(settled.ok());
  EXPECT_EQ(settled.value().epoch, 2);
  EXPECT_EQ(settled.value().candidates, ref_a[0]);
}

TEST(RouterSwapTest, SocketReplicaSwapRoundTrip) {
  // One socket replica, real snapshot files: save model A and B, serve A,
  // swap to B over the wire, verify answers flip to B's reference.
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(TinyDataConfig());
  core::RetiaModel model_a(TinyModelConfig(dataset, /*seed=*/3));
  core::RetiaModel model_b(TinyModelConfig(dataset, /*seed=*/99));
  const int64_t t = dataset.test_times().front();

  const std::string prefix_b = testing::TempDir() + "/router_swap_b";
  ASSERT_TRUE(serve::SaveModelSnapshot(model_b, prefix_b, dataset.name()).ok());

  std::vector<ScoredCandidate> ref_b;
  {
    ServeEngine engine_b(FrozenSnapshot(model_b, dataset), SmallServeConfig());
    Result<QueryResult> b = engine_b.Submit(Query::Entity(2, 1, t, 4));
    ASSERT_TRUE(b.ok());
    ref_b = b.take().candidates;
  }

  ServeEngine served(FrozenSnapshot(model_a, dataset), SmallServeConfig());
  serve::SnapshotLoader loader =
      [&](const std::string& prefix) -> Result<serve::EngineSnapshot> {
    std::unique_ptr<core::RetiaModel> loaded;
    const ckpt::Result r = serve::LoadModelSnapshot(prefix, &loaded);
    if (!r.ok()) {
      return Result<serve::EngineSnapshot>::Error(StatusCode::kInternal,
                                                  r.ToString());
    }
    serve::EngineSnapshot snapshot;
    snapshot.dataset = std::make_unique<tkg::TkgDataset>(dataset);
    snapshot.graph_cache =
        std::make_unique<graph::GraphCache>(snapshot.dataset.get());
    snapshot.model = std::move(loaded);
    return snapshot;
  };
  const std::string path = testing::TempDir() + "/retia_replica_swap.sock";
  ReplicaServer server(&served, loader, path);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::unique_ptr<ReplicaChannel>> channels;
  RouterConfig config;
  config.timeout_ms = 10000;
  channels.push_back(std::make_unique<SocketChannel>(path, config));
  Router router(std::move(channels), config);

  Result<int64_t> swapped = router.SwapAll(prefix_b);
  ASSERT_TRUE(swapped.ok()) << swapped.ToString();
  EXPECT_EQ(swapped.value(), 1);
  Result<QueryResult> after = router.Route(Query::Entity(2, 1, t, 4));
  ASSERT_TRUE(after.ok()) << after.ToString();
  EXPECT_EQ(after.value().candidates, ref_b);
  EXPECT_EQ(after.value().epoch, 1);
  server.Stop();
}

}  // namespace
}  // namespace retia
