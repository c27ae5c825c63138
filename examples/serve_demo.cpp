// Serving demo: train RETIA on a YAGO-like synthetic TKG, freeze it into a
// snapshot (one crash-safe retia::ckpt artifact), then serve top-k entity
// and relation queries from 8 concurrent client threads through
// retia::serve's batched, cached engine.
//
// Build and run:
//   cmake -B build && cmake --build build -j
//   ./build/examples/serve_demo

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/result.h"
#include "core/retia.h"
#include "graph/graph_cache.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "tkg/synthetic.h"
#include "train/trainer.h"
#include "util/env.h"
#include "util/timer.h"

int main() {
  using namespace retia;

  // 1. Train a compact model on the YAGO-like profile (scaled down for a
  //    fast demo run).
  tkg::SyntheticConfig data_config = tkg::SyntheticConfig::YagoLike();
  data_config.num_entities = 120;
  data_config.facts_per_timestamp = 40;
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(data_config);

  core::RetiaConfig model_config;
  model_config.num_entities = dataset.num_entities();
  model_config.num_relations = dataset.num_relations();
  model_config.dim = 24;
  model_config.history_len = 3;
  core::RetiaModel model(model_config);

  graph::GraphCache train_cache(&dataset);
  train::TrainConfig train_config;
  train_config.max_epochs = 6;
  train_config.verbose = true;
  train::Trainer trainer(&model, &train_cache, train_config);
  util::Timer timer;
  trainer.TrainGeneral();
  std::cout << "training took " << util::FormatDuration(timer.Seconds())
            << "\n";

  // 2. Freeze: write the <prefix>.ckpt artifact, then rebuild the model
  //    from disk exactly as a standalone serving process would. Both calls
  //    report failures as ckpt::Result — a serving process refuses a bad
  //    snapshot instead of aborting.
  const std::string prefix =
      util::Env::StringOr("TMPDIR", "/tmp") + "/retia_serve_demo";
  if (ckpt::Result saved =
          serve::SaveModelSnapshot(model, prefix, dataset.name());
      !saved.ok()) {
    std::cerr << "failed to save snapshot: " << saved.ToString() << "\n";
    return 1;
  }
  std::string snapshot_dataset;
  std::unique_ptr<core::RetiaModel> frozen;
  if (ckpt::Result loaded =
          serve::LoadModelSnapshot(prefix, &frozen, &snapshot_dataset);
      !loaded.ok()) {
    std::cerr << "failed to load snapshot: " << loaded.ToString() << "\n";
    return 1;
  }
  std::cout << "snapshot " << prefix << ".ckpt (dataset '"
            << snapshot_dataset << "', " << frozen->NumParameters()
            << " parameters)\n";

  // 3. Serve the first test timestamp: its history is everything observed
  //    before it, exactly the extrapolation protocol.
  graph::GraphCache serve_cache(&dataset);
  serve::ServeConfig serve_config;
  serve_config.num_threads = 4;
  serve_config.max_k = 10;
  serve::ServeEngine engine(frozen.get(), &serve_cache, serve_config);
  const int64_t t = dataset.test_times().front();
  engine.Warmup(t);
  engine.ResetStats();

  // 8 client threads issue a mixed entity/relation workload with repeats,
  // so a share of the traffic is answered by the prediction cache.
  constexpr int kClients = 8;
  constexpr int64_t kQueriesPerClient = 400;
  timer.Reset();
  std::atomic<int64_t> failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int64_t n = dataset.num_entities();
      const int64_t m = dataset.num_relations();
      for (int64_t i = 0; i < kQueriesPerClient; ++i) {
        // Skewed ids: low ids repeat often and hit the cache.
        const int64_t s = (i * (c + 3)) % (i % 4 == 0 ? 8 : n);
        const serve::Query query =
            i % 5 == 4 ? serve::Query::Relation(s, (s + 7) % n, t, 5)
                       : serve::Query::Entity(s, (i * 13) % (2 * m), t, 5);
        if (!engine.Submit(query).ok()) failed.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  if (failed.load() > 0) {
    std::cerr << failed.load() << " queries failed\n";
    return 1;
  }
  std::cout << kClients << " clients x " << kQueriesPerClient
            << " queries in " << util::FormatDuration(timer.Seconds()) << "\n";

  // 4. One sample answer plus the engine's stats as JSON.
  const serve::Result<serve::QueryResult> sample =
      engine.Submit(serve::Query::Entity(0, 0, t, 5));
  if (!sample.ok()) {
    std::cerr << "sample query failed: " << sample.ToString() << "\n";
    return 1;
  }
  std::cout << "TopK(s=0, r=0, t=" << t << ") ->";
  for (const serve::ScoredCandidate& c : sample.value().candidates) {
    std::cout << " " << c.id << ":" << c.score;
  }
  std::cout << (sample.value().cache_hit ? " (cache hit)" : " (decoded)")
            << "\n";
  std::cout << "stats: " << engine.Stats().ToJson() << std::endl;
  return 0;
}
