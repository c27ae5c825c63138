// serve-hit and serve-miss: one client thread drives Router::Route over
// AF_UNIX SocketChannels to two in-process ReplicaServers, each serving the
// same snapshot from its own ServeEngine (one connection per replica). The
// loop is closed: the client sends its next query only after the previous
// answer arrived.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/retia.h"
#include "graph/graph_cache.h"
#include "par/task_graph.h"
#include "serve/engine.h"
#include "serve/lru_cache.h"
#include "serve/replica.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "simd/simd.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tkg/synthetic.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace retia;

// One client: every thread of the run shares one CPU (main.cc), where a
// second client would only queue behind the first and make its p50 the
// sum of both clients' work.
constexpr int kClients = 1;
constexpr int kReplicas = 2;
constexpr int64_t kTopK = 10;
// Size of the serve-hit key set. It fits every replica cache, so once set-up
// warmed it, every serve-hit query is a hit.
constexpr int64_t kHitKeys = 4096;
constexpr double kZipfAlpha = 1.1;
// Answers per client checked bit for bit against the in-process reference:
// the first kEarlySamples, then every kSampleStride-th, kMaxSamples in all.
constexpr int64_t kEarlySamples = 16;
constexpr int64_t kSampleStride = 1024;
constexpr size_t kMaxSamples = 48;

// The snapshot is sized so that decoding one entity query (three evolved
// states x 3000 candidates) costs several times a socket round trip: decode
// is most of a miss, while a hit never reaches it. The candidates of the
// one serving timestamp (3 x 3000 x 32 floats) stay inside a core's 2 MiB
// L2, which keeps the miss path from swinging with other tenants' cache
// traffic on a shared host.
tkg::SyntheticConfig ServeDataConfig(uint64_t seed) {
  tkg::SyntheticConfig config;
  config.name = "perfbench-serve";
  config.num_entities = 3000;
  config.num_relations = 64;
  config.num_timestamps = 24;
  config.facts_per_timestamp = 200;
  config.num_schemas = 800;
  config.seed = seed;
  return config;
}

core::RetiaConfig ServeModelConfig(const tkg::TkgDataset& dataset,
                                   uint64_t seed) {
  core::RetiaConfig config;
  config.num_entities = dataset.num_entities();
  config.num_relations = dataset.num_relations();
  config.dim = 32;
  config.history_len = 3;
  config.dropout = 0.0f;
  config.seed = seed;
  return config;
}

// Engine knobs are fixed here rather than read from RETIA_SERVE_*, so the
// environment cannot change what is measured. Decode stays f32.
serve::ServeConfig EngineConfig(bool cache) {
  serve::ServeConfig config;
  config.max_k = kTopK;
  config.enable_cache = cache;
  config.quantized_decode = 0;
  return config;
}

serve::RouterConfig SocketRouterConfig() {
  serve::RouterConfig config;
  config.connections_per_replica = kClients;
  config.timeout_ms = 60000;  // a slow host must not turn into failures
  return config;
}

// Distinct serving queries by ordinal. Ordinal i is a relation query when
// i % 4 == 3 and an entity query otherwise (a fixed 3:1 mix), and no two
// ordinals of one kind map to the same (t, s, r_or_o). An affine
// permutation of each kind's key space, offset by the run's seed, scatters
// consecutive ordinals over subjects, relations and timestamps.
class KeySpace {
 public:
  KeySpace(int64_t n, int64_t m, std::vector<int64_t> times, uint64_t seed)
      : n_(n), m_(m), times_(std::move(times)), seed_(seed) {}

  serve::Query At(int64_t ordinal) const {
    Require(ordinal >= 0, "negative query ordinal");
    const bool relation = ordinal % 4 == 3;
    // Dense index among the ordinals of the same kind.
    const uint64_t index = static_cast<uint64_t>(
        relation ? ordinal / 4 : ordinal / 4 * 3 + ordinal % 4);
    const uint64_t t_count = times_.size();
    const uint64_t width = relation ? static_cast<uint64_t>(n_)
                                    : static_cast<uint64_t>(2 * m_);
    const uint64_t space = t_count * static_cast<uint64_t>(n_) * width;
    Require(index < space, "query ordinal outside the key space");
    // 2654435761 is prime and larger than either key space, so it is
    // coprime with the space size and the map is a bijection.
    const uint64_t p = (2654435761ull * index + seed_ % space) % space;
    const int64_t t = times_[p % t_count];
    const int64_t s = static_cast<int64_t>((p / t_count) % n_);
    const int64_t x = static_cast<int64_t>(p / t_count / n_);
    return relation ? serve::Query::Relation(s, x, t, kTopK)
                    : serve::Query::Entity(s, x, t, kTopK);
  }

  const std::vector<int64_t>& times() const { return times_; }

 private:
  int64_t n_;
  int64_t m_;
  std::vector<int64_t> times_;
  uint64_t seed_;
};

struct SetupTimes {
  double generate_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;    // every replica's snapshot load
  double warmup_s = 0.0;  // every replica's per-timestamp Warmup
};

// The serving fleet of one run: snapshot on disk, two replicas behind a
// socket router, and a second router over in-process channels to the same
// engines (the peel's reference level).
class ServeWorld {
 public:
  ServeWorld(const Options& options, KeyMode mode, int instance)
      : mode_(mode),
        prefix_(options.workdir + "/snap" + std::to_string(instance)) {
    int64_t start = NowNs();
    dataset_ = std::make_unique<tkg::TkgDataset>(
        tkg::GenerateSynthetic(ServeDataConfig(options.seed)));
    times_.generate_s = SecondsSince(start);

    const core::RetiaModel model(ServeModelConfig(*dataset_, options.seed));
    start = NowNs();
    const ckpt::Result saved =
        serve::SaveModelSnapshot(model, prefix_, dataset_->name());
    times_.save_s = SecondsSince(start);
    Require(saved.ok(), "snapshot save: " + saved.ToString());

    std::vector<std::unique_ptr<serve::ReplicaChannel>> sockets;
    std::vector<std::unique_ptr<serve::ReplicaChannel>> locals;
    for (int r = 0; r < kReplicas; ++r) {
      start = NowNs();
      serve::EngineSnapshot snapshot = LoadSnapshot();
      times_.load_s += SecondsSince(start);
      engines_.push_back(std::make_unique<serve::ServeEngine>(
          std::move(snapshot), EngineConfig(/*cache=*/true)));
      const std::string socket = options.workdir + "/r" +
                                 std::to_string(instance) + "-" +
                                 std::to_string(r) + ".sock";
      servers_.push_back(std::make_unique<serve::ReplicaServer>(
          engines_.back().get(), nullptr, socket));
      const serve::Result<bool> started = servers_.back()->Start();
      Require(started.ok(), "replica start: " + started.ToString());
      sockets.push_back(
          std::make_unique<serve::SocketChannel>(socket, SocketRouterConfig()));
      locals.push_back(
          std::make_unique<serve::LocalChannel>(engines_.back().get()));
    }
    router_ = std::make_unique<serve::Router>(std::move(sockets),
                                              SocketRouterConfig());
    local_router_ = std::make_unique<serve::Router>(std::move(locals),
                                                    SocketRouterConfig());

    // Every query forecasts the timestamp after the newest one.
    keys_ = std::make_unique<KeySpace>(
        dataset_->num_entities(), dataset_->num_relations(),
        std::vector<int64_t>{dataset_->max_time() + 1}, options.seed);
    start = NowNs();
    for (auto& engine : engines_) {
      for (int64_t t : keys_->times()) engine->Warmup(t);
    }
    times_.warmup_s = SecondsSince(start);

    if (mode_ == KeyMode::kHit) {
      // One RouteBatch frame per 256 keys instead of one round trip each.
      for (int64_t begin = 0; begin < kHitKeys; begin += 256) {
        std::vector<serve::Query> batch;
        for (int64_t i = begin; i < std::min(kHitKeys, begin + 256); ++i) {
          batch.push_back(keys_->At(i));
        }
        for (const auto& answer : router_->RouteBatch(batch)) {
          Require(answer.ok(), "cache warm-up: " + answer.ToString());
        }
      }
    }
  }

  ~ServeWorld() {
    router_.reset();
    local_router_.reset();
    for (auto& server : servers_) server->Stop();
    servers_.clear();
    engines_.clear();
    ::unlink((prefix_ + ".ckpt").c_str());
  }

  ServeWorld(const ServeWorld&) = delete;
  ServeWorld& operator=(const ServeWorld&) = delete;

  // A fresh copy of the served snapshot, as a replica loads it.
  serve::EngineSnapshot LoadSnapshot() const {
    std::unique_ptr<core::RetiaModel> model;
    const ckpt::Result loaded = serve::LoadModelSnapshot(prefix_, &model);
    Require(loaded.ok(), "snapshot load: " + loaded.ToString());
    serve::EngineSnapshot snapshot;
    snapshot.dataset = std::make_unique<tkg::TkgDataset>(*dataset_);
    snapshot.graph_cache =
        std::make_unique<graph::GraphCache>(snapshot.dataset.get());
    snapshot.model = std::move(model);
    return snapshot;
  }

  // Hits over lookups of every replica cache since construction.
  serve::CacheCounters CacheTotals() const {
    serve::CacheCounters total;
    for (const auto& engine : engines_) {
      const serve::CacheCounters c = engine->Stats().cache;
      total.hits += c.hits;
      total.misses += c.misses;
    }
    return total;
  }

  KeyMode mode() const { return mode_; }
  const SetupTimes& times() const { return times_; }
  const KeySpace& keys() const { return *keys_; }
  serve::Router& router() { return *router_; }
  serve::Router& local_router() { return *local_router_; }
  serve::ServeEngine& engine(int64_t shard) { return *engines_[shard]; }
  int replicas() const { return static_cast<int>(engines_.size()); }

 private:
  KeyMode mode_;
  std::string prefix_;
  SetupTimes times_;
  std::unique_ptr<tkg::TkgDataset> dataset_;
  std::unique_ptr<KeySpace> keys_;
  std::vector<std::unique_ptr<serve::ServeEngine>> engines_;
  std::vector<std::unique_ptr<serve::ReplicaServer>> servers_;
  std::unique_ptr<serve::Router> router_;
  std::unique_ptr<serve::Router> local_router_;
};

// The query stream of one run. serve-hit clients cycle through
// pre-drawn zipfian indexes into the warmed key set; serve-miss clients
// take fresh ordinals, so no key repeats anywhere in the run. `base`
// shifts miss ordinals past every key an earlier phase used.
class QueryStream {
 public:
  QueryStream(const ServeWorld& world, uint64_t seed) : world_(world) {
    if (world.mode() != KeyMode::kHit) return;
    for (int c = 0; c < kClients; ++c) {
      util::Rng rng(seed * 7919 + static_cast<uint64_t>(c) + 1);
      std::vector<int64_t>& indexes = zipf_[c];
      indexes.resize(kZipfDraws);
      for (int64_t& index : indexes) index = rng.Zipf(kHitKeys, kZipfAlpha);
    }
  }

  serve::Query At(int client, int64_t i, int64_t base) const {
    if (world_.mode() == KeyMode::kHit) {
      return world_.keys().At(zipf_[client][i % kZipfDraws]);
    }
    return world_.keys().At(base + i * kClients + client);
  }

 private:
  static constexpr int64_t kZipfDraws = 1 << 17;
  const ServeWorld& world_;
  std::vector<int64_t> zipf_[kClients];
};

struct Sample {
  serve::Query query;
  std::vector<serve::ScoredCandidate> candidates;
};

bool WantSample(int64_t i, const std::vector<Sample>& samples) {
  return (i < kEarlySamples || i % kSampleStride == 0) &&
         samples.size() < kMaxSamples;
}

bool SameBits(const std::vector<serve::ScoredCandidate>& a,
              const std::vector<serve::ScoredCandidate>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// Re-answers every sampled query with ServeEngine::Submit on an in-process
// engine over the same snapshot (cache off) and requires identical bits.
void CheckAgainstReference(const ServeWorld& world,
                           const std::vector<std::vector<Sample>>& samples,
                           Report* report) {
  serve::ServeEngine reference(world.LoadSnapshot(),
                               EngineConfig(/*cache=*/false));
  int64_t checked = 0;
  int64_t mismatched = 0;
  for (const auto& client_samples : samples) {
    for (const Sample& sample : client_samples) {
      const serve::Result<serve::QueryResult> expected =
          reference.Submit(sample.query);
      ++checked;
      if (!expected.ok() ||
          !SameBits(expected.value().candidates, sample.candidates)) {
        ++mismatched;
      }
    }
  }
  report->Line("check: " + std::to_string(checked) +
               " sampled answers against the in-process reference, " +
               std::to_string(mismatched) + " differ");
  if (checked == 0) report->Fail("no serve answer was sampled");
  if (mismatched > 0) {
    report->Fail(std::to_string(mismatched) +
                 " served answers differ from the in-process reference");
  }
}

// serve-hit must hit at least 99% of lookups, serve-miss never.
void CheckHitRatio(KeyMode mode, const serve::CacheCounters& before,
                   const serve::CacheCounters& after, double* ratio,
                   Report* report) {
  const int64_t hits = after.hits - before.hits;
  const int64_t lookups = hits + after.misses - before.misses;
  *ratio = lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "check: cache hit ratio %.6f (%lld/%lld)",
                *ratio, static_cast<long long>(hits),
                static_cast<long long>(lookups));
  report->Line(buf);
  if (mode == KeyMode::kHit && *ratio < 0.99) {
    report->Fail("serve-hit hit ratio below 0.99");
  }
  if (mode == KeyMode::kMiss && hits != 0) {
    report->Fail("serve-miss answered a query from the cache");
  }
}

const char* ModeName(KeyMode mode) {
  return mode == KeyMode::kHit ? "serve-hit" : "serve-miss";
}

// One closed-loop phase of Router::Route over the sockets.
PhaseStats MeasureRoute(ServeWorld& world, const QueryStream& stream,
                        double seconds,
                        std::vector<std::vector<Sample>>* samples) {
  samples->assign(kClients, {});
  return RunClosedLoop(kClients, seconds, [&](int c, int64_t i) {
    const serve::Query query = stream.At(c, i, /*base=*/0);
    serve::Result<serve::QueryResult> answer = world.router().Route(query);
    if (!answer.ok()) return false;
    std::vector<Sample>& mine = (*samples)[c];
    if (WantSample(i, mine)) {
      mine.push_back({query, std::move(answer.value().candidates)});
    }
    return true;
  });
}

}  // namespace

void RunServe(const Options& options, KeyMode mode, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<ServeWorld> world;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    world.reset();
    const int64_t start = NowNs();
    world = std::make_unique<ServeWorld>(options, mode, rep);
    setup_s.push_back(SecondsSince(start));
  }
  const QueryStream stream(*world, options.seed);

  const serve::CacheCounters before = world->CacheTotals();
  std::vector<std::vector<Sample>> samples;
  const PhaseStats stats = MeasureRoute(*world, stream, options.seconds,
                                        &samples);
  const serve::CacheCounters after = world->CacheTotals();

  ReportPhase(ModeName(mode), stats, report);
  report->Count(stats.attempted, stats.failed);
  if (stats.failed > 0) {
    report->Fail(std::to_string(stats.failed) + " routed queries failed");
  }
  double hit_ratio = 0.0;
  CheckHitRatio(mode, before, after, &hit_ratio, report);
  CheckAgainstReference(*world, samples, report);

  const std::string counts =
      "attempted=" + std::to_string(stats.attempted) +
      " failed=" + std::to_string(stats.failed);
  report->Metric("p50_ms", stats.p50_ms, "ms",
                 "90th percentile of " + std::to_string(stats.slices) +
                     " slice p50s, samples=" + std::to_string(stats.samples) +
                     " " + counts);
  report->Metric("cpu_ms_per_op", stats.cpu_ms_per_op, "ms",
                 "process CPU / completed ops, 90th percentile of " +
                     std::to_string(stats.slices) + " slices, " + counts);
  report->Metric("setup_s", Median(setup_s), "s",
                 "median of " + std::to_string(setup_s.size()) + " set-ups");
}

void TraceServe(const Options& options, KeyMode mode, bool split,
                Report* report, Trace* trace) {
  report->Line(std::string("serve probe (") + ModeName(mode) + " keys)");
  ServeWorld world(options, mode, /*instance=*/0);
  const SetupTimes& setup = world.times();
  report->Metric("tkg.generate_s", setup.generate_s, "s");
  report->Metric("ckpt.snapshot_save_s", setup.save_s, "s");
  report->Metric("ckpt.snapshot_load_s", setup.load_s, "s",
                 std::to_string(world.replicas()) + " loads");
  report->Metric("serve.engine.warmup_s", setup.warmup_s, "s",
                 std::to_string(world.replicas()) + " replicas x " +
                     std::to_string(world.keys().times().size()) +
                     " timestamps");
  const QueryStream stream(world, options.seed);

  // The workload's own untraced phase: the p50 the layers split.
  PhaseStats base;
  std::vector<std::vector<Sample>> samples;
  int64_t next_ordinal = 0;
  if (split) {
    const serve::CacheCounters before = world.CacheTotals();
    base = MeasureRoute(world, stream, options.seconds / 2, &samples);
    const serve::CacheCounters after = world.CacheTotals();
    ReportPhase(std::string(ModeName(mode)) + " untraced", base, report);
    report->Count(base.attempted, base.failed);
    if (base.failed > 0) report->Fail("routed queries failed");
    double ratio = 0.0;
    CheckHitRatio(mode, before, after, &ratio, report);
    // Client c used ordinals c, c + kClients, ...: none reaches this bound.
    next_ordinal = (base.attempted + 1) * kClients;
  }

  // Pinned states and cache mirrors for the decode-level replays.
  serve::EngineSnapshot pinned = world.LoadSnapshot();
  const core::RetiaModel& model = *pinned.model;
  std::map<int64_t, std::vector<core::EvolutionModel::StepState>> states;
  {
    tensor::NoGradGuard guard;
    for (int64_t t : world.keys().times()) {
      states[t] = pinned.model->Evolve(
          *pinned.graph_cache,
          pinned.graph_cache->HistoryBefore(t, model.history_len()));
    }
  }
  // Mirrors of the replica caches: holding the key set (serve-hit), or
  // full, so that every Put evicts as in a serve-miss replica.
  const serve::ServeConfig cache_config = EngineConfig(true);
  const std::vector<serve::ScoredCandidate> filler(kTopK);
  std::vector<std::unique_ptr<serve::PredictionCache>> caches;
  for (int r = 0; r < world.replicas(); ++r) {
    caches.push_back(std::make_unique<serve::PredictionCache>(
        cache_config.cache_capacity, cache_config.cache_shards));
  }
  if (mode == KeyMode::kHit) {
    for (int64_t i = 0; i < kHitKeys; ++i) {
      const serve::Query q = world.keys().At(i);
      caches[world.router().ShardFor(q.s)]->Put({q.t, q.s, q.r_or_o, q.kind},
                                                filler);
    }
  } else {
    for (auto& cache : caches) {
      for (int64_t i = 0; i < cache_config.cache_capacity; ++i) {
        cache->Put({/*t=*/-1, i, 0, serve::QueryKind::kEntity}, filler);
      }
    }
  }

  // Peel: requests go through successively deeper entry points in blocks
  // of kBlock. Within a block each level runs back to back, as the
  // untraced loop does (so replica threads stay as busy as in it); the
  // levels alternate every block, so host-speed swings hit all levels
  // alike. serve-hit levels replay the same queries; serve-miss levels that
  // reach an engine get fresh distinct keys of the same kind (a replayed
  // key would hit), and the levels below the engine reuse the Submit
  // level's keys.
  constexpr int64_t kBlock = 50;
  const int64_t requests = mode == KeyMode::kHit ? 5000 : 1000;
  const int64_t stride = requests * kClients;
  const int64_t socket_base = next_ordinal;
  const int64_t local_base = socket_base + stride;
  const int64_t submit_base = local_base + stride;
  std::atomic<int64_t> failures{0};
  samples.resize(kClients);
  std::vector<SpanLog> logs(kClients);
  const serve::CacheCounters peel_before = world.CacheTotals();
  auto peel = [&](int c, SpanLog& log) {
    std::vector<serve::Result<serve::QueryResult>> submitted;
    const auto levels = [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        const serve::Query q = stream.At(c, i, socket_base);
        std::optional<serve::Result<serve::QueryResult>> answer;
        log.Time("serve.router.Route[socket]", -1, i,
                 [&] { answer.emplace(world.router().Route(q)); });
        if (!answer->ok()) {
          failures.fetch_add(1);
        } else if (i < kEarlySamples) {
          samples[c].push_back({q, answer->value().candidates});
        }
      }
      for (int64_t i = begin; i < end; ++i) {
        const serve::Query q = stream.At(c, i, local_base);
        log.Time("serve.router.Route[local]", -1, i, [&] {
          if (!world.local_router().Route(q).ok()) failures.fetch_add(1);
        });
      }
      submitted.clear();
      for (int64_t i = begin; i < end; ++i) {
        const serve::Query q = stream.At(c, i, submit_base);
        serve::ServeEngine& engine = world.engine(world.router().ShardFor(q.s));
        std::optional<serve::Result<serve::QueryResult>> answer;
        log.Time("serve.engine.Submit", -1, i,
                 [&] { answer.emplace(engine.Submit(q)); });
        if (!answer->ok()) failures.fetch_add(1);
        submitted.push_back(std::move(*answer));
      }
      for (int64_t i = begin; i < end; ++i) {
        const serve::Query q = stream.At(c, i, submit_base);
        int64_t shard = -1;
        log.Time("serve.shard_map.ShardFor", -1, i,
                 [&] { shard = world.router().ShardFor(q.s); });
        const serve::Result<serve::QueryResult>& result =
            submitted[static_cast<size_t>(i - begin)];
        log.Time("serve.wire.codec", -1, i, [&] {
          const serve::Result<serve::Query> query =
              serve::wire::DecodeQuery(serve::wire::EncodeQuery(q));
          const serve::Result<serve::QueryResult> reply =
              serve::wire::DecodeQueryReply(
                  serve::wire::EncodeQueryReply(result));
          if (!query.ok() || !reply.ok()) failures.fetch_add(1);
        });
        serve::PredictionCache& cache = *caches[shard];
        const serve::CacheKey key{q.t, q.s, q.r_or_o, q.kind};
        std::vector<serve::ScoredCandidate> out;
        bool hit = false;
        log.Time("serve.lru_cache.Get", -1, i,
                 [&] { hit = cache.Get(key, &out); });
        if (hit != (mode == KeyMode::kHit)) failures.fetch_add(1);
        if (mode == KeyMode::kMiss) {
          log.Time("serve.lru_cache.Put", -1, i,
                   [&] { cache.Put(key, filler, 0, cache.generation()); });
        }
      }
      for (int64_t i = begin; i < end; ++i) {
        const serve::Query q = stream.At(c, i, submit_base);
        const std::vector<core::EvolutionModel::StepState>& pinned_states =
            states.at(q.t);
        const bool entity = q.kind == serve::QueryKind::kEntity;
        tensor::Tensor scores;
        log.Time("core.decoder.score", -1, i, [&] {
          scores = entity ? model.ScoreObjectsFrozen(pinned_states,
                                                     {{q.s, q.r_or_o}})
                          : model.ScoreRelationsFrozen(pinned_states,
                                                       {{q.s, q.r_or_o}});
        });
        const int64_t n = scores.Dim(1);
        int64_t idx[kTopK];
        int64_t took = 0;
        log.Time("simd.topk", -1, i, [&] {
          took = simd::TopKSelectF32(scores.Data(), n, kTopK, idx);
        });
        if (took != std::min(n, kTopK)) failures.fetch_add(1);

        // The decoder's candidate product and softmax replayed alone on
        // the same shapes: the tensor/simd part of the score.
        const int64_t d = model.config().dim;
        std::vector<float> feature(static_cast<size_t>(d), 0.5f);
        std::vector<float> product(static_cast<size_t>(n));
        const tensor::Tensor logits = tensor::Tensor::FromVector(
            {1, n}, std::vector<float>(scores.Data(), scores.Data() + n));
        log.Time("tensor.gemm_nt", -1, i, [&] {
          for (const auto& st : pinned_states) {
            const tensor::Tensor& candidates =
                entity ? st.entities : st.relations;
            simd::GemmNT(feature.data(), candidates.Data(), product.data(), 1,
                         d, n);
          }
        });
        tensor::Tensor probabilities;
        log.Time("tensor.softmax", -1, i, [&] {
          for (size_t s = 0; s < pinned_states.size(); ++s) {
            probabilities = tensor::Softmax(logits);
          }
        });
        // The frozen decode fans the per-state decodes out as one graph.
        log.Time("par.task_graph", -1, i, [&] {
          par::TaskGraph graph;
          for (size_t s = 0; s < pinned_states.size(); ++s) graph.Add([] {});
          graph.Run();
        });
      }
    };
    for (int64_t begin = 0; begin < requests; begin += kBlock) {
      levels(begin, std::min(requests, begin + kBlock));
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      tensor::NoGradGuard guard;
      peel(c, logs[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const SpanLog& log : logs) trace->Add(log);
  const serve::CacheCounters peel_after = world.CacheTotals();

  report->Count(requests * kClients * 3, failures.load());
  if (failures.load() > 0) {
    report->Fail(std::to_string(failures.load()) + " replayed calls failed");
  }
  double hit_ratio = 0.0;
  CheckHitRatio(mode, peel_before, peel_after, &hit_ratio, report);
  CheckAgainstReference(world, samples, report);

  const double socket = trace->MedianUs("serve.router.Route[socket]");
  const double local = trace->MedianUs("serve.router.Route[local]");
  const double submit = trace->MedianUs("serve.engine.Submit");
  const double shard_for = trace->MedianUs("serve.shard_map.ShardFor");
  const double codec = trace->MedianUs("serve.wire.codec");
  const double get = trace->MedianUs("serve.lru_cache.Get");
  const double put = trace->MedianUs("serve.lru_cache.Put");
  const double score = trace->MedianUs("core.decoder.score");
  const double gemm = trace->MedianUs("tensor.gemm_nt");
  const double softmax = trace->MedianUs("tensor.softmax");
  const double task_graph = trace->MedianUs("par.task_graph");
  const double topk = trace->MedianUs("simd.topk");

  double queue_wait_ms = 0.0;
  int64_t batches = 0;
  double batched = 0.0;
  for (int r = 0; r < world.replicas(); ++r) {
    const serve::ServeStats s = world.engine(r).Stats();
    queue_wait_ms += s.p50_queue_wait_ms / world.replicas();
    batches += s.batches;
    batched += s.mean_batch_size * static_cast<double>(s.batches);
  }
  const std::string n_req = "n=" + std::to_string(requests * kClients);
  report->Metric("serve.replica.socket_us", socket - local, "us",
                 "Route over sockets minus Route in process, " + n_req);
  report->Metric("serve.wire.codec_us", codec, "us", n_req);
  report->Metric("serve.router.route_local_us", local, "us", n_req);
  report->Metric("serve.engine.submit_us", submit, "us", n_req);
  report->Metric("serve.lru_cache.get_us", get, "us", n_req);
  report->Metric("serve.lru_cache.hit_ratio", hit_ratio, "ratio",
                 "replica caches over the socket, local and Submit levels");
  report->Metric("core.decoder.score_us", score, "us", n_req);
  report->Metric("simd.topk_us", topk, "us", n_req);
  report->Metric("serve.engine.queue_wait_us", queue_wait_ms * 1e3, "us",
                 "ServeEngine::Stats p50, mean over replicas");
  report->Metric("serve.engine.mean_batch",
                 batches > 0 ? batched / static_cast<double>(batches) : 0.0,
                 "count", std::to_string(batches) + " decode batches");
  if (!split) return;

  LayerTimes layers;
  layers["serve.replica"] = socket - local - codec;
  layers["serve.wire"] = codec;
  layers["serve.router"] = local - submit - shard_for;
  layers["serve.shard_map"] = shard_for;
  if (mode == KeyMode::kHit) {
    layers["serve.lru_cache"] = get;
    layers["serve.engine"] = submit - get;
  } else {
    layers["serve.lru_cache"] = get + put;
    layers["serve.engine"] = submit - get - put - score - topk;
    layers["core"] = score - gemm - softmax - task_graph;
    layers["tensor"] = gemm + softmax + topk;
    layers["par"] = task_graph;
  }
  const double p50_us = base.p50_ms * 1e3;
  report->Metric("trace.p50_us", p50_us, "us", "untraced p50 being split");
  report->Metric("trace.overhead_pct",
                 100.0 * (socket + trace->span_cost_us() - p50_us) / p50_us,
                 "%", "traced Route[socket] p50 against the untraced p50");
  ReportShares(layers, p50_us, report);
  char buf[160];
  if (mode == KeyMode::kHit) {
    std::snprintf(buf, sizeof(buf),
                  "check: router + shard_map + wire + socket = %.1f%% of the "
                  "serve-hit p50",
                  100.0 * (socket - submit) / p50_us);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "check: core.decoder.score = %.1f%% of the serve-miss p50",
                  100.0 * score / p50_us);
  }
  report->Line(buf);
}

}  // namespace perfbench
