#include "serve/engine.h"

#include <sstream>
#include <utility>

#include "obs/obs.h"
#include "serve/arena.h"
#include "simd/simd.h"
#include "tensor/tensor.h"
#include "util/check.h"

namespace retia::serve {

std::shared_ptr<const ServeEngine::FrozenStateStore::Entry>
ServeEngine::FrozenStateStore::EntryFor(int64_t t) {
  std::shared_ptr<Entry> entry;
  bool creator = false;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] = states.try_emplace(t);
    if (inserted) it->second = std::make_shared<Entry>();
    creator = inserted;
    entry = it->second;
  }
  if (creator) {
    // The creator evolves OUTSIDE the store lock: batches for other
    // serving timestamps insert and evolve their own entries concurrently
    // (GraphCache and the parallel snapshot builds inside Evolve are
    // concurrent-safe; the frozen model is read-only in eval mode).
    std::shared_ptr<const std::vector<core::EvolutionModel::StepState>>
        evolved;
    std::shared_ptr<const std::vector<quant::QuantizedRows>> qcands;
    std::exception_ptr error;
    try {
      tensor::NoGradGuard guard;
      evolved = std::make_shared<
          const std::vector<core::EvolutionModel::StepState>>(model->Evolve(
          *graph_cache, graph_cache->HistoryBefore(t, model->history_len())));
      if (quantize) {
        // Quantize each evolved state's entity candidates once, shared by
        // every batch that decodes against this timestamp.
        auto q = std::make_shared<std::vector<quant::QuantizedRows>>();
        q->reserve(evolved->size());
        for (const auto& st : *evolved) {
          q->push_back(quant::QuantizeTensorRows(st.entities));
        }
        qcands = std::move(q);
      }
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      entry->states = std::move(evolved);
      entry->qcands = std::move(qcands);
      entry->error = error;
      entry->ready = true;
    }
    entry->cv.notify_all();
    if (error != nullptr) std::rethrow_exception(error);
    return entry;
  }
  std::unique_lock<std::mutex> lock(entry->mu);
  entry->cv.wait(lock, [&entry] { return entry->ready; });
  if (entry->error != nullptr) std::rethrow_exception(entry->error);
  return entry;
}

ServeEngine::ServeEngine(core::RetiaModel* model,
                         graph::GraphCache* graph_cache,
                         const ServeConfig& config)
    : ServeEngine(
          [model, graph_cache] {
            RETIA_CHECK(model != nullptr);
            RETIA_CHECK(graph_cache != nullptr);
            model->SetTraining(false);
            auto store = std::make_shared<FrozenStateStore>();
            store->model = model;
            store->graph_cache = graph_cache;
            return store;
          }(),
          config) {}

ServeEngine::ServeEngine(EngineSnapshot snapshot, const ServeConfig& config)
    : ServeEngine(MakeStore(std::move(snapshot)), config) {}

ServeEngine::ServeEngine(std::shared_ptr<FrozenStateStore> store,
                         const ServeConfig& config)
    : config_(config), stats_(config.max_batch) {
  RETIA_CHECK(config_.num_threads > 0);
  RETIA_CHECK(config_.max_batch > 0);
  RETIA_CHECK(config_.max_k > 0);
  if (config_.enable_cache) {
    cache_ = std::make_unique<PredictionCache>(config_.cache_capacity,
                                               config_.cache_shards);
  }
  pool_ = config_.pool != nullptr ? config_.pool : par::DefaultPool();
  store->quantize =
      config_.ResolvesQuantized(store->model->config().num_entities);
  state_store_ = std::move(store);
}

std::shared_ptr<ServeEngine::FrozenStateStore> ServeEngine::MakeStore(
    EngineSnapshot snapshot) {
  RETIA_CHECK(snapshot.model != nullptr);
  RETIA_CHECK(snapshot.graph_cache != nullptr);
  snapshot.model->SetTraining(false);
  auto store = std::make_shared<FrozenStateStore>();
  store->model = snapshot.model.get();
  store->graph_cache = snapshot.graph_cache.get();
  store->owned_model = std::move(snapshot.model);
  store->owned_dataset = std::move(snapshot.dataset);
  store->owned_cache = std::move(snapshot.graph_cache);
  return store;
}

std::shared_ptr<ServeEngine::FrozenStateStore> ServeEngine::PinStore() const {
  std::lock_guard<std::mutex> lock(store_mu_);
  return state_store_;
}

void ServeEngine::SwapSnapshot(EngineSnapshot snapshot) {
  std::shared_ptr<FrozenStateStore> store = MakeStore(std::move(snapshot));
  store->quantize =
      config_.ResolvesQuantized(store->model->config().num_entities);
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    // The old store is not freed here: any in-flight batch still holds its
    // pin and finishes against the old snapshot (old-or-new, never torn).
    store->epoch = snapshot_swaps_.load(std::memory_order_relaxed) + 1;
    state_store_.swap(store);
  }
  // Cached predictions were decoded by the previous snapshot; drop them so
  // a key is never answered by a mix of epochs. Clear() also bumps the
  // cache generation, and ProcessBatch fences its Puts on the generation
  // it sampled before pinning the store — so an in-flight decode racing
  // this swap cannot re-insert a pre-swap prediction afterwards.
  if (cache_ != nullptr) cache_->Clear();
  snapshot_swaps_.fetch_add(1, std::memory_order_relaxed);
  RETIA_OBS_COUNTER_ADD("serve.snapshot_swaps", 1);
}

int64_t ServeEngine::snapshot_swaps() const {
  return snapshot_swaps_.load(std::memory_order_relaxed);
}

ServeEngine::~ServeEngine() {
  // Every queued request has a tick scheduled for it (SubmitBatch pairs
  // each enqueue critical-section with one pool_->Submit), so waiting for
  // inflight_ticks_ == 0 also guarantees the queue has been drained and
  // no pool task still references this engine.
  std::unique_lock<std::mutex> lock(queue_mu_);
  stopping_ = true;
  drained_cv_.wait(lock,
                   [this] { return inflight_ticks_ == 0 && queue_.empty(); });
}

void ServeEngine::Warmup(int64_t t) { PinStore()->StatesFor(t); }

ServeStats ServeEngine::Stats() const {
  ServeStats stats = stats_.Snapshot(cache_ != nullptr ? cache_->Counters()
                                                       : CacheCounters{});
  stats.snapshot_swaps = snapshot_swaps();
  return stats;
}

void ServeEngine::ResetStats() { stats_.Reset(); }

StatusCode ServeEngine::Validate(const Query& query,
                                 const FrozenStateStore& store,
                                 std::string* detail) const {
  std::ostringstream out;
  if (query.k <= 0 || query.k > config_.max_k) {
    out << "k=" << query.k << " outside (0, " << config_.max_k << "]";
    *detail = out.str();
    return StatusCode::kInvalidArgument;
  }
  if (query.t < 0) {
    out << "t=" << query.t << " is negative";
    *detail = out.str();
    return StatusCode::kBadTimestamp;
  }
  const core::RetiaConfig& mc = store.model->config();
  if (query.s < 0 || query.s >= mc.num_entities) {
    out << "subject " << query.s << " outside [0, " << mc.num_entities << ")";
    *detail = out.str();
    return StatusCode::kUnknownEntity;
  }
  if (query.kind == QueryKind::kEntity) {
    if (query.r_or_o < 0 || query.r_or_o >= 2 * mc.num_relations) {
      out << "relation " << query.r_or_o << " outside [0, "
          << 2 * mc.num_relations << ") (inverse directions included)";
      *detail = out.str();
      return StatusCode::kUnknownRelation;
    }
  } else if (query.r_or_o < 0 || query.r_or_o >= mc.num_entities) {
    out << "object " << query.r_or_o << " outside [0, " << mc.num_entities
        << ")";
    *detail = out.str();
    return StatusCode::kUnknownEntity;
  }
  return StatusCode::kOk;
}

std::optional<Result<QueryResult>> ServeEngine::AnswerWithoutDecode(
    const Query& query, const FrozenStateStore& store) {
  std::string detail;
  if (StatusCode code = Validate(query, store, &detail);
      code != StatusCode::kOk) {
    return Result<QueryResult>::Error(code, detail);
  }
  if (cache_ != nullptr) {
    const CacheKey key{query.t, query.s, query.r_or_o, query.kind};
    QueryResult cached;
    if (cache_->Get(key, &cached.candidates, &cached.epoch)) {
      RETIA_OBS_COUNTER_ADD("serve.cache.hits", 1);
      cached.cache_hit = true;
      if (static_cast<int64_t>(cached.candidates.size()) > query.k) {
        cached.candidates.resize(query.k);
      }
      return Result<QueryResult>(std::move(cached));
    }
    RETIA_OBS_COUNTER_ADD("serve.cache.misses", 1);
  }
  return std::nullopt;
}

Result<QueryResult> ServeEngine::Submit(const Query& query) {
  std::vector<Result<QueryResult>> results = SubmitBatch({query});
  return std::move(results.front());
}

std::vector<Result<QueryResult>> ServeEngine::SubmitBatch(
    const std::vector<Query>& queries) {
  RETIA_OBS_COUNTER_ADD("serve.requests",
                        static_cast<int64_t>(queries.size()));
  util::Timer timer;
  const std::shared_ptr<FrozenStateStore> store = PinStore();
  // Answers by input slot; nullopt marks a query still waiting on the
  // decode queue.
  std::vector<std::optional<Result<QueryResult>>> answers(queries.size());
  struct Pending {
    size_t slot;
    std::future<Result<QueryResult>> future;
  };
  std::vector<Pending> pending;
  std::vector<Request> misses;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (std::optional<Result<QueryResult>> immediate =
            AnswerWithoutDecode(queries[i], *store)) {
      // Cache hits record an end-to-end sample like Submit always did;
      // validation errors never reached the recorder and still don't.
      if (immediate->ok()) stats_.RecordRequest(timer.Millis());
      answers[i] = std::move(immediate);
      continue;
    }
    Request request;
    request.key = CacheKey{queries[i].t, queries[i].s, queries[i].r_or_o,
                           queries[i].kind};
    request.k = queries[i].k;
    request.timer = timer;
    pending.push_back({i, request.promise.get_future()});
    misses.push_back(std::move(request));
  }
  if (!misses.empty()) {
    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (!stopping_) {
        for (Request& request : misses) queue_.push_back(std::move(request));
        // ONE tick for the whole batch: the enqueue is a single critical
        // section, and the tick's drainer sweeps every compatible
        // (timestamp, kind) group into fused decodes.
        ++inflight_ticks_;
        enqueued = true;
      }
    }
    if (enqueued) {
      // Either the tick becomes an active drainer, or an already-active
      // drainer's queue sweep answers the requests and the tick returns
      // immediately. On a pool with no workers the tick runs inline here,
      // before the future.get()s, so the engine never deadlocks.
      pool_->Submit([this] { DrainTask(); });
      for (Pending& p : pending) {
        answers[p.slot] = p.future.get();
        // The completion-accounting site: every answered request — cache
        // hit (above), decoded, or failed — records exactly one
        // end-to-end latency sample.
        stats_.RecordRequest(timer.Millis());
      }
    } else {
      for (Pending& p : pending) {
        answers[p.slot] = Result<QueryResult>::Error(
            StatusCode::kShuttingDown,
            "query submitted to a stopping ServeEngine");
      }
    }
  }
  std::vector<Result<QueryResult>> results;
  results.reserve(answers.size());
  for (std::optional<Result<QueryResult>>& answer : answers) {
    results.push_back(std::move(*answer));
  }
  return results;
}

void ServeEngine::DrainTask() {
  // Grad mode is thread-local (see tensor.h): each tick installs its own
  // guard so concurrent decodes never record autograd edges against the
  // shared frozen parameters.
  tensor::NoGradGuard guard;
  std::unique_lock<std::mutex> lock(queue_mu_);
  if (active_ticks_ < config_.num_threads) {
    RETIA_OBS_TIMED_SCOPE("serve.tick.us");
    ++active_ticks_;
    while (!queue_.empty()) {
      // Micro-batch: everything queued for the front request's
      // (timestamp, kind), up to max_batch. Queries for other timestamps
      // or kinds stay queued for a later sweep / another tick.
      std::vector<Request> batch;
      const CacheKey front = queue_.front().key;
      for (auto it = queue_.begin();
           it != queue_.end() &&
           static_cast<int64_t>(batch.size()) < config_.max_batch;) {
        if (it->key.t == front.t && it->key.kind == front.kind) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      lock.unlock();
      ProcessBatch(std::move(batch));
      lock.lock();
    }
    --active_ticks_;
  }
  --inflight_ticks_;
  if (inflight_ticks_ == 0 && queue_.empty()) drained_cv_.notify_all();
}

void ServeEngine::ProcessBatch(std::vector<Request> batch) {
  RETIA_OBS_TRACE_SPAN("serve.batch");
  const int64_t t = batch.front().key.t;
  const QueryKind kind = batch.front().key.kind;
  std::vector<std::pair<int64_t, int64_t>> queries;
  queries.reserve(batch.size());
  for (const Request& request : batch) {
    queries.emplace_back(request.key.a, request.key.b);
    // Each request's timer started at submission, so at this point it has
    // measured exactly the time spent queued. The recorder owns the
    // queue-wait accounting (sample + obs histogram) for engine and
    // router alike — no second call site.
    stats_.RecordQueueWait(request.timer.Millis());
  }
  util::Timer compute_timer;
  // Sample the cache generation *before* pinning the snapshot: if a swap
  // (Clear) lands anywhere after this point, the fenced Puts below become
  // no-ops instead of re-inserting predictions from the replaced snapshot.
  const uint64_t cache_gen = cache_ != nullptr ? cache_->generation() : 0;
  // Pin the snapshot epoch for the whole batched decode: a concurrent
  // SwapSnapshot cannot free the model or states under this batch, and
  // every row of the batch is answered by one consistent snapshot.
  const std::shared_ptr<FrozenStateStore> store = PinStore();
  tensor::Tensor scores;
  try {
    const std::shared_ptr<const FrozenStateStore::Entry> entry =
        store->EntryFor(t);
    if (kind == QueryKind::kEntity) {
      // Relation decodes stay f32: the M-row relation candidate table is
      // far below the quantization floor (see ServeConfig).
      scores = entry->qcands != nullptr
                   ? store->model->ScoreObjectsFrozenQuantized(
                         *entry->states, *entry->qcands, queries)
                   : store->model->ScoreObjectsFrozen(*entry->states, queries);
    } else {
      scores = store->model->ScoreRelationsFrozen(*entry->states, queries);
    }
    RETIA_CHECK_EQ(scores.Dim(0), static_cast<int64_t>(batch.size()));
  } catch (const std::exception& e) {
    // A throwing decode (scoring or history evolution raised) fails this
    // batch's requests with a reported error instead of unwinding through
    // the pool task and aborting the process.
    for (Request& request : batch) {
      request.promise.set_value(Result<QueryResult>::Error(
          StatusCode::kInternal, std::string("decode failed: ") + e.what()));
    }
    return;
  } catch (...) {
    for (Request& request : batch) {
      request.promise.set_value(Result<QueryResult>::Error(
          StatusCode::kInternal, "decode failed: non-standard exception"));
    }
    return;
  }
  const int64_t n = scores.Dim(1);
  stats_.RecordCompute(compute_timer.Millis());
  RETIA_OBS_HIST_RECORD("serve.batch_size",
                        static_cast<int64_t>(batch.size()));
  stats_.RecordBatch(static_cast<int64_t>(batch.size()));
  const int64_t epoch = store->epoch;
  // Per-worker scratch for the selection indices: the partial top-k
  // kernel replaces the historical full-sort (same unique order — see
  // simd::KernelTable::topk_select_f32), and the arena makes the scratch
  // allocation-free once a warm-up batch has sized it (the caller-visible
  // candidate vectors are the only remaining allocations).
  static thread_local ScratchArena arena;
  arena.Reset();
  int64_t* topk_idx = arena.Alloc<int64_t>(config_.max_k);
  for (size_t i = 0; i < batch.size(); ++i) {
    const float* row = scores.Data() + static_cast<int64_t>(i) * n;
    const int64_t took = simd::TopKSelectF32(row, n, config_.max_k, topk_idx);
    std::vector<ScoredCandidate> ranked;
    ranked.reserve(took);
    for (int64_t j = 0; j < took; ++j) {
      ranked.push_back({topk_idx[j], row[topk_idx[j]]});
    }
    if (cache_ != nullptr) cache_->Put(batch[i].key, ranked, epoch, cache_gen);
    if (static_cast<int64_t>(ranked.size()) > batch[i].k) {
      ranked.resize(batch[i].k);
    }
    QueryResult result;
    result.candidates = std::move(ranked);
    result.cache_hit = false;
    result.epoch = epoch;
    batch[i].promise.set_value(std::move(result));
  }
}

}  // namespace retia::serve
