// Streaming staleness benchmark: how long after a fact arrives does it
// affect predictions? Drives a StreamPipeline over a synthetic event
// stream — ingest, per-window fine-tune, zero-downtime publish — and
// reports the per-fact arrival→publish staleness distribution (p50/p95),
// per-window fine-tune/publish cost, and the acceptance experiment: a
// newly ingested fact's effect on the top-k answer of its own (s, r, t)
// query after exactly one fine-tune window.
//
// Emits one JSON object on stdout. perfbench's stream-window workload
// times the same offer → publish → first-query path in 40-s runs.
//
// Like bench_serve_throughput this measures the subsystem, not model
// quality: it streams into an untrained (randomly initialised) model —
// fine-tune cost and swap latency are independent of parameter values,
// and the top-k effect experiment is only sharper when the model has no
// prior about the injected fact.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <memory>
#include <vector>

#include "core/retia.h"
#include "serve/engine.h"
#include "stream/pipeline.h"
#include "tkg/synthetic.h"
#include "util/rng.h"

namespace retia {
namespace {

constexpr int64_t kWindows = 16;
constexpr int64_t kFactsPerWindow = 24;

std::unique_ptr<tkg::TkgDataset> MakeLiveDataset() {
  tkg::SyntheticConfig config;
  config.name = "bench-stream";
  config.num_entities = 120;
  config.num_relations = 12;
  config.num_timestamps = 30;
  config.facts_per_timestamp = 30;
  config.num_schemas = 120;
  return std::make_unique<tkg::TkgDataset>(tkg::GenerateSynthetic(config));
}

std::unique_ptr<core::RetiaModel> MakeModel(const tkg::TkgDataset& d) {
  core::RetiaConfig config;
  config.num_entities = d.num_entities();
  config.num_relations = d.num_relations();
  config.dim = 24;
  config.history_len = 3;
  config.dropout = 0.0f;
  return std::make_unique<core::RetiaModel>(config);
}

int64_t Percentile(std::vector<int64_t> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(p * (values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

// Rank (0-based) of `o` among the answer's candidates; -1 when absent or
// when the query failed.
int64_t RankOf(const serve::Result<serve::QueryResult>& result, int64_t o) {
  if (!result.ok()) return -1;
  const std::vector<serve::ScoredCandidate>& candidates =
      result.value().candidates;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].id == o) return static_cast<int64_t>(i);
  }
  return -1;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int Run() {
  std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
  const int64_t n = live->num_entities();
  const int64_t m = live->num_relations();
  const int64_t t0 = live->max_time();
  std::unique_ptr<core::RetiaModel> model = MakeModel(*live);

  stream::StreamPipelineConfig config;
  config.window = 1;
  config.trainer.steps_per_time = 4;
  config.trainer.lr = 0.02f;
  config.serve.max_k = n;  // full-depth ranking for the rank experiment
  stream::StreamPipeline pipeline(std::move(model), std::move(live), config);

  // The acceptance experiment's fact arrives in the final window; its
  // query serves one timestep later.
  const int64_t s = 7, r = 3, o = 42;
  const int64_t t_news = t0 + kWindows;
  const int64_t t_query = t_news + 1;
  const serve::Result<serve::QueryResult> before =
      pipeline.engine().Submit(serve::Query::Entity(s, r, t_query, n));
  const int64_t rank_before = RankOf(before, o);

  util::Rng rng(1234);
  double finetune_publish_ms_total = 0.0;
  for (int64_t w = 1; w <= kWindows; ++w) {
    const int64_t t = t0 + w;
    std::vector<tkg::Quadruple> bucket;
    for (int64_t i = 0; i < kFactsPerWindow; ++i) {
      bucket.push_back({rng.UniformInt(0, n - 1), rng.UniformInt(0, m - 1),
                        rng.UniformInt(0, n - 1), t});
    }
    if (t == t_news) {
      bucket.assign(static_cast<size_t>(kFactsPerWindow),
                    tkg::Quadruple{s, r, o, t_news});
    }
    pipeline.OfferBatch(bucket);
    const auto start = std::chrono::steady_clock::now();
    pipeline.AdvanceTo(t + 1);  // seal, fine-tune, publish
    finetune_publish_ms_total += MsSince(start);
  }

  const serve::Result<serve::QueryResult> after =
      pipeline.engine().Submit(serve::Query::Entity(s, r, t_query, n));
  const int64_t rank_after = RankOf(after, o);

  const std::vector<int64_t>& staleness = pipeline.staleness_us();
  const stream::StreamStatus status = pipeline.Status();

  std::cout << std::fixed << std::setprecision(2) << "{\n"
            << "  \"windows\": " << kWindows << ",\n"
            << "  \"facts_per_window\": " << kFactsPerWindow << ",\n"
            << "  \"facts_published\": " << staleness.size() << ",\n"
            << "  \"updates\": " << status.updates << ",\n"
            << "  \"publishes\": " << status.publishes << ",\n"
            << "  \"staleness_us\": {\n"
            << "    \"p50\": " << Percentile(staleness, 0.50) << ",\n"
            << "    \"p95\": " << Percentile(staleness, 0.95) << ",\n"
            << "    \"max\": "
            << (staleness.empty()
                    ? 0
                    : *std::max_element(staleness.begin(), staleness.end()))
            << "\n"
            << "  },\n"
            << "  \"finetune_publish_ms_per_window\": "
            << finetune_publish_ms_total / kWindows << ",\n"
            << "  \"topk_effect\": {\n"
            << "    \"query\": [" << s << ", " << r << ", " << t_query
            << "],\n"
            << "    \"object\": " << o << ",\n"
            << "    \"rank_before\": " << rank_before << ",\n"
            << "    \"rank_after\": " << rank_after << ",\n"
            << "    \"changed\": "
            << ((rank_after >= 0 && rank_after < rank_before) ? "true"
                                                              : "false")
            << "\n"
            << "  }\n"
            << "}\n";

  // The bench doubles as a smoke check: the ingested fact must have
  // measurably improved its own query after one fine-tune window.
  if (rank_after < 0 || rank_before < 0 || rank_after >= rank_before) {
    std::cerr << "FAIL: ingested fact did not improve its query's rank ("
              << rank_before << " -> " << rank_after << ")\n";
    return 1;
  }
  return 0;
}

}  // namespace retia

int main() { return retia::Run(); }
