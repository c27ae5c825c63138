#ifndef RETIA_SERVE_ENGINE_H_
#define RETIA_SERVE_ENGINE_H_

// retia::serve::ServeEngine — concurrent batched top-k inference over a
// frozen extrapolation model (micro-batching, sharded LRU prediction
// cache, per-timestamp state memoization).
//
// Ownership / threading contract: the engine owns no threads — drain
// ticks run as tasks on the par::DefaultPool() current at construction,
// which must outlive the engine. Submit() and SubmitBatch() are safe to
// call from any number of client threads concurrently; a borrowed model
// and GraphCache must outlive the engine and stay frozen while it runs (an
// EngineSnapshot-constructed or SwapSnapshot-installed snapshot is owned
// by the engine instead).
// SwapSnapshot() replaces the served snapshot with zero downtime:
// in-flight batches finish on the epoch they pinned, everything later
// decodes against the new one. The destructor blocks until every
// outstanding request is answered.
// Request/cache counters, batch-size and queue-wait/compute histograms
// are exported as `serve.*` metrics (docs/OBSERVABILITY.md) and merged
// into Stats().ToJson().
//
// Usage:
//   serve::ServeConfig config;
//   serve::ServeEngine engine(&model, &graph_cache, config);
//   engine.Warmup(t);
//   serve::Result<serve::QueryResult> top =
//       engine.Submit(serve::Query::Entity(subject, relation, t, /*k=*/10));
//   if (top.ok()) Use(top.value().candidates);
//   std::cout << engine.Stats().ToJson() << "\n";

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/retia.h"
#include "graph/graph_cache.h"
#include "par/thread_pool.h"
#include "serve/lru_cache.h"
#include "serve/query.h"
#include "serve/stats.h"

namespace retia::serve {

// Engine knobs; the defaults here are the single source of truth.
struct ServeConfig {
  // Maximum number of drain ticks (batched decodes) running concurrently
  // on the shared pool. The engine owns no threads of its own: decode work
  // runs as tasks on par::DefaultPool(), so one process hosts many engines
  // without stacking worker fleets.
  int64_t num_threads = 4;
  // Ranking depth stored per cache entry; requests may ask for any
  // k <= max_k and are served from the cached prefix.
  int64_t max_k = 10;
  bool enable_cache = true;
  int64_t cache_capacity = 1 << 16;  // total entries across shards
  int64_t cache_shards = 8;
  // Quantized entity decode (docs/QUANTIZATION.md): -1 follows the
  // RETIA_QUANT env knob (the default), 0 forces f32, 1 forces int8.
  // When on, each evolved timestamp's entity candidates are quantized once
  // (per-row symmetric int8) and entity queries decode through the
  // exact-int32 int8 GEMM; relation decodes and models smaller than
  // RETIA_QUANT_MIN_ROWS entities stay f32. Tolerance-bound vs f32
  // serving (the EXPERIMENTS.md MRR delta); bit-exact across backends
  // and thread counts like the rest of the engine.
  int quantized_decode = -1;

  // Whether a store over `num_entities` candidates decodes through the
  // int8 path: the explicit quantized_decode override first, RETIA_QUANT
  // otherwise, and never below the RETIA_QUANT_MIN_ROWS floor. The single
  // quantization-policy site for the serving tier (engine.cc).
  bool ResolvesQuantized(int64_t num_entities) const;
};

// A self-contained frozen snapshot handed to SwapSnapshot(): the engine
// takes ownership of all three pieces, so the publisher (retia::stream's
// pipeline) can keep mutating its live model/dataset while the engine
// serves the copy. `dataset` may be null when `graph_cache` borrows a
// dataset that outlives the engine; when set, `graph_cache` must be built
// over it.
struct EngineSnapshot {
  std::unique_ptr<core::RetiaModel> model;
  std::unique_ptr<tkg::TkgDataset> dataset;
  std::unique_ptr<graph::GraphCache> graph_cache;
};

// Rebuilds an EngineSnapshot from a snapshot prefix (the payload of a
// wire-protocol swap request). The replica server and the router's
// in-process channel both take one: the host decides how a prefix maps to
// model + dataset + graph cache (serve::LoadModelSnapshot plus whatever
// dataset source the deployment uses). Must be thread-safe.
using SnapshotLoader =
    std::function<Result<EngineSnapshot>(const std::string& prefix)>;

// Concurrent batched inference engine over a frozen extrapolation model.
//
// Architecture: callers block in Submit()/SubmitBatch(). A cache-enabled
// engine first probes the sharded LRU prediction cache on the caller's
// thread (hits never touch the queue). Misses are enqueued, and each
// submission schedules a drain tick on the shared par::ThreadPool; at most
// config.num_threads ticks run at once, and a running tick keeps draining
// micro-batches — all pending queries sharing the front request's
// (timestamp, kind), up to 32 — until the queue is empty. Each
// batch is answered with ONE [B, num_candidates] decode through the
// model's ScoreObjectsFrozen / ScoreRelationsFrozen entry points.
// Evolved StepStates are memoized per timestamp with once-semantics:
// the first batch for a timestamp evolves it (outside any store-wide lock,
// so distinct timestamps evolve concurrently), and every later batch for
// that timestamp shares the published states.
//
// The engine spawns no threads of its own: decode ticks share
// par::DefaultPool() with the intra-op tensor kernels.
// On a pool with no workers (RETIA_NUM_THREADS=1) ticks run inline on the
// submitting caller, which keeps the engine deadlock-free even when every
// pool worker is busy.
//
// Determinism: decodes are row-independent pure float math over frozen
// parameters, and the parallel tensor kernels use fixed problem-derived
// shards (see par/parallel_for.h), so results are bit-identical regardless
// of thread count, batch composition, or cache state (serve_test asserts
// this, including with more clients than pool workers).
class ServeEngine {
 public:
  // Engine over a frozen RetiaModel: scorers are bound to the model's
  // const ScoreObjectsFrozen / ScoreRelationsFrozen entry points against
  // states evolved from `graph_cache`'s history (memoized per timestamp).
  // The model is put in eval mode; model and graph_cache must outlive the
  // engine and must not be mutated while it is running (until the first
  // SwapSnapshot(), after which they are no longer referenced).
  ServeEngine(core::RetiaModel* model, graph::GraphCache* graph_cache,
              const ServeConfig& config);

  // Engine that owns its snapshot from the start (the streaming pipeline's
  // construction path). Requires snapshot.model and snapshot.graph_cache.
  ServeEngine(EngineSnapshot snapshot, const ServeConfig& config);

  // Blocks until every outstanding request has been answered and every
  // scheduled drain tick has finished, then detaches from the pool.
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  // Answers one typed query, blocking until the result is available.
  // Malformed queries are REPORTED, never fatal: kInvalidArgument for a k
  // outside (0, config.max_k], kBadTimestamp for t < 0, kUnknownEntity /
  // kUnknownRelation for out-of-vocabulary ids (validated against the
  // pinned snapshot's model), kShuttingDown when the engine is draining,
  // and kInternal when the decode itself threw. This is the one entry
  // point the wire protocol deserializes onto, so nothing reachable from
  // a socket can CHECK-fail the process.
  Result<QueryResult> Submit(const Query& query);

  // Answers a batch of typed queries, blocking until every result is
  // available; results align with `queries` by index. Per-query semantics
  // match Submit() exactly — same validation taxonomy, same cache
  // probing, and bit-identical answers regardless of batch composition —
  // so a malformed query degrades only its own slot. The batch differs
  // only in cost: every cache miss is enqueued under one queue lock with
  // a single drain tick, so misses sharing a (timestamp, kind) decode as
  // ONE fused [B, num_candidates] GEMM over the shared candidate matrix
  // instead of B independent GEMVs. This is the execution path behind the
  // wire-protocol QueryBatch frame and Router::RouteBatch. Submit() is a
  // thin wrapper over a batch of one.
  std::vector<Result<QueryResult>> SubmitBatch(
      const std::vector<Query>& queries);

  // Pre-evolves (and pins) the states for timestamp t so the first query
  // does not pay the evolution latency.
  void Warmup(int64_t t);

  // Zero-downtime snapshot replacement. The new snapshot is installed
  // atomically: in-flight batches keep decoding
  // against the snapshot they pinned at batch start (a shared_ptr epoch —
  // the old model/cache stay alive until the last pinned batch finishes),
  // queued and future requests decode against the new one, and no request
  // is ever dropped or answered from a half-installed snapshot
  // (old-or-new, never torn). The prediction cache is cleared so no stale
  // prediction survives the swap. Safe to call from any thread, including
  // concurrently with Submit/SubmitBatch.
  void SwapSnapshot(EngineSnapshot snapshot);

  // Number of SwapSnapshot() installations so far (0 until the first swap).
  int64_t snapshot_swaps() const;

  ServeStats Stats() const;
  void ResetStats();
  const ServeConfig& config() const { return config_; }

 private:
  struct Request {
    CacheKey key;
    int64_t k = 0;
    util::Timer timer;  // started at submission
    std::promise<Result<QueryResult>> promise;
  };

  // Memoized per-timestamp evolution. One store is one immutable snapshot
  // epoch: batches pin it with a shared_ptr for the duration of their
  // decode, and SwapSnapshot replaces the engine's current store
  // wholesale, so a store's model/cache/states never change after
  // installation. The `owned_*` members keep a swapped-in snapshot alive
  // exactly as long as its store; they stay null for the borrowing
  // constructor.
  //
  // Per-timestamp evolution has once-semantics: the first caller of a
  // timestamp becomes its creator and evolves OUTSIDE the store lock
  // (GraphCache and the parallel snapshot builds inside Evolve are
  // concurrent-safe), so batched queries for different serving timestamps
  // run their encoder work in parallel instead of serializing behind one
  // store-wide lock. Later callers of the same timestamp block on the
  // entry until the creator publishes — each timestamp pays its history
  // evolution exactly once, shared by every batch that needs it.
  struct FrozenStateStore {
    struct Entry {
      std::mutex mu;
      std::condition_variable cv;
      bool ready = false;
      std::shared_ptr<const std::vector<core::EvolutionModel::StepState>>
          states;
      // Per-state quantized entity candidates, built by the creator right
      // after evolving when `quantize` is set (null otherwise), so every
      // batch for the timestamp shares one quantization pass.
      std::shared_ptr<const std::vector<quant::QuantizedRows>> qcands;
      std::exception_ptr error;
    };

    core::RetiaModel* model = nullptr;
    graph::GraphCache* graph_cache = nullptr;
    // Entity decodes run the int8 path (resolved from ServeConfig and the
    // RETIA_QUANT knobs at store installation, before any StatesFor call).
    bool quantize = false;
    // Snapshot epoch of this store: snapshot_swaps() at installation.
    // Stamped on every QueryResult the store's batches answer, so a
    // response's provenance is auditable across hot-swaps.
    int64_t epoch = 0;
    std::unique_ptr<core::RetiaModel> owned_model;
    std::unique_ptr<tkg::TkgDataset> owned_dataset;
    std::unique_ptr<graph::GraphCache> owned_cache;
    std::mutex mu;  // guards the map only, never held across an Evolve
    std::map<int64_t, std::shared_ptr<Entry>> states;

    // Blocks until timestamp t's entry is evolved (once-semantics; the
    // first caller becomes the creator). The returned entry is immutable.
    std::shared_ptr<const Entry> EntryFor(int64_t t);
    std::shared_ptr<const std::vector<core::EvolutionModel::StepState>>
    StatesFor(int64_t t) {
      return EntryFor(t)->states;
    }
  };

  // Installs `store` as the initial snapshot epoch (a single store means a
  // single evolution per timestamp, shared by every batch that pins it).
  ServeEngine(std::shared_ptr<FrozenStateStore> store,
              const ServeConfig& config);

  static std::shared_ptr<FrozenStateStore> MakeStore(EngineSnapshot snapshot);

  // The current snapshot epoch (never null). Callers hold the returned
  // shared_ptr across their whole decode so a concurrent swap cannot free
  // the model under them.
  std::shared_ptr<FrozenStateStore> PinStore() const;

  // Validation half of Submit(): returns kOk or the taxonomy code for a
  // malformed query (id validation needs the pinned store's model config).
  StatusCode Validate(const Query& query, const FrozenStateStore& store,
                      std::string* detail) const;
  // Validation + cache probe shared by Submit and SubmitBatch: returns
  // the answer when the query never needs the decode queue (validation
  // error or cache hit), nullopt when it must be enqueued.
  std::optional<Result<QueryResult>> AnswerWithoutDecode(
      const Query& query, const FrozenStateStore& store);
  // One scheduled tick: becomes an active drainer if the concurrency cap
  // allows, then drains micro-batches until the queue is empty.
  void DrainTask();
  void ProcessBatch(std::vector<Request> batch);

  ServeConfig config_;
  // Current snapshot epoch, never null. Guarded by store_mu_: readers copy
  // the shared_ptr under the lock (the pin), SwapSnapshot replaces it
  // under the same lock.
  std::shared_ptr<FrozenStateStore> state_store_;
  mutable std::mutex store_mu_;
  std::atomic<int64_t> snapshot_swaps_{0};

  std::unique_ptr<PredictionCache> cache_;  // null when disabled
  StatsRecorder stats_;
  par::ThreadPool* pool_ = nullptr;

  std::mutex queue_mu_;
  std::deque<Request> queue_;
  bool stopping_ = false;
  // Drain ticks currently holding a concurrency slot / still running
  // (both guarded by queue_mu_). The destructor waits on drained_cv_ for
  // inflight_ticks_ to hit zero so no task outlives the engine.
  int64_t active_ticks_ = 0;
  int64_t inflight_ticks_ = 0;
  std::condition_variable drained_cv_;
};

}  // namespace retia::serve

#endif  // RETIA_SERVE_ENGINE_H_
