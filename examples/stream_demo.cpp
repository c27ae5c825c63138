// Online-ingestion demo and crash/resume smoke driver for retia::stream.
//
// Demo mode (no arguments): streams a few timesteps of synthetic events
// into a StreamPipeline — ingest, fine-tune, zero-downtime publish — and
// shows a query whose answer changes once its fact has flowed through one
// fine-tune window: one sealed timestep per window, 8 gradient steps per
// timestep at learning rate 0.1, and unseen entities grown into the
// vocabulary (UnseenPolicy::kGrowEntities).
//
// Smoke modes, used by scripts/check.sh to prove bit-exact resume of the
// streaming pipeline against a real SIGKILL (same protocol as ckpt_smoke):
//
//   stream_demo straight <dir>  stream 4 windows uninterrupted, dump the
//                               final parameters to
//                               <dir>/params_straight.bin
//   stream_demo crashy <dir>    same stream, checkpointing each window to
//                               <dir>/stream.ckpt and publishing serve
//                               snapshots to <dir>/stream_snap.ckpt; the
//                               caller arms RETIA_FAIL_CRASH_AFTER_RENAME
//                               so the process SIGKILLs between a window's
//                               fine-tune checkpoint and its publish
//   stream_demo resume <dir>    Resume() from <dir>/stream.ckpt, replay
//                               the stream, dump
//                               <dir>/params_resumed.bin
//
// The two .bin dumps must be byte-identical (`cmp` in check.sh).

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/result.h"
#include "core/retia.h"
#include "serve/engine.h"
#include "stream/ingest.h"
#include "stream/pipeline.h"
#include "tkg/synthetic.h"
#include "util/rng.h"

namespace {

using namespace retia;

std::unique_ptr<tkg::TkgDataset> MakeLiveDataset() {
  tkg::SyntheticConfig config;
  config.name = "stream-demo";
  config.num_entities = 60;
  config.num_relations = 8;
  config.num_timestamps = 16;
  config.facts_per_timestamp = 15;
  config.num_schemas = 60;
  return std::make_unique<tkg::TkgDataset>(tkg::GenerateSynthetic(config));
}

std::unique_ptr<core::RetiaModel> MakeModel(const tkg::TkgDataset& d) {
  core::RetiaConfig config;
  config.num_entities = d.num_entities();
  config.num_relations = d.num_relations();
  config.dim = 16;
  config.history_len = 2;
  // Dropout makes fine-tuning consume the model RNG, so the smoke also
  // proves the RNG stream round-trips through the stream checkpoint.
  config.dropout = 0.2f;
  return std::make_unique<core::RetiaModel>(config);
}

// Deterministic event bucket for stream timestep `t`: mostly in-vocabulary
// facts, plus one fact introducing entity id `base_entities + step` so
// vocabulary growth is exercised.
std::vector<tkg::Quadruple> EventsAt(int64_t t, int64_t step,
                                     int64_t base_entities,
                                     int64_t num_relations) {
  util::Rng rng(static_cast<uint64_t>(900 + step));
  std::vector<tkg::Quadruple> events;
  for (int64_t i = 0; i < 8; ++i) {
    events.push_back({rng.UniformInt(0, base_entities - 1),
                      rng.UniformInt(0, num_relations - 1),
                      rng.UniformInt(0, base_entities - 1), t});
  }
  events.push_back({base_entities + step, rng.UniformInt(0, num_relations - 1),
                    rng.UniformInt(0, base_entities - 1), t});
  return events;
}

bool DumpParams(const core::RetiaModel& model, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  for (const tensor::Tensor& p :
       const_cast<core::RetiaModel&>(model).Parameters()) {
    const tensor::FloatBuffer& data = p.impl().data;
    if (std::fwrite(data.data(), sizeof(float), data.size(), f) !=
        data.size()) {
      std::fclose(f);
      return false;
    }
  }
  return std::fclose(f) == 0;
}

// Prints the ids of the k best objects for (s, r, ?, t); false (with the
// error on stderr) when the query fails.
bool PrintTopObjects(serve::ServeEngine& engine, int64_t s, int64_t r,
                     int64_t t, int64_t k) {
  const serve::Result<serve::QueryResult> top =
      engine.Submit(serve::Query::Entity(s, r, t, k));
  if (!top.ok()) {
    std::cerr << "query failed: " << top.ToString() << "\n";
    return false;
  }
  for (const serve::ScoredCandidate& c : top.value().candidates) {
    std::cout << " " << c.id;
  }
  std::cout << "\n";
  return true;
}

int RunSmoke(const std::string& mode, const std::string& dir) {
  std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
  const int64_t base_entities = live->num_entities();
  const int64_t num_relations = live->num_relations();
  const int64_t t0 = live->max_time();
  std::unique_ptr<core::RetiaModel> model = MakeModel(*live);

  stream::StreamPipelineConfig config;
  config.window = 1;
  config.ingest.unseen_policy = stream::UnseenPolicy::kGrowEntities;
  config.trainer.steps_per_time = 2;
  config.trainer.lr = 0.01f;
  if (mode == "crashy" || mode == "resume") {
    config.trainer.checkpoint_path = dir + "/stream.ckpt";
    config.snapshot_prefix = dir + "/stream_snap";
  }
  stream::StreamPipeline pipeline(std::move(model), std::move(live), config);

  if (mode == "resume") {
    const ckpt::Result resumed = pipeline.Resume();
    if (!resumed.ok()) {
      std::cerr << "resume failed: " << resumed.ToString() << "\n";
      return 1;
    }
    std::cout << "resumed through t=" << pipeline.trainer().last_trained_time()
              << " after " << pipeline.Status().updates << " updates\n";
  }

  // The same 4-window stream in every mode; replayed windows that the
  // resumed checkpoint already covers are appended for history only.
  constexpr int64_t kWindows = 4;
  for (int64_t step = 1; step <= kWindows; ++step) {
    const int64_t t = t0 + step;
    pipeline.OfferBatch(EventsAt(t, step, base_entities, num_relations));
    pipeline.AdvanceTo(t + 1);
    std::cout << "window " << step << ": frontier=" << pipeline.Status().frontier
              << " updates=" << pipeline.Status().updates
              << " publishes=" << pipeline.Status().publishes << "\n";
  }

  if (mode == "crashy") return 0;  // (only reached when the crash is disarmed)
  const std::string dump = dir + (mode == "straight" ? "/params_straight.bin"
                                                     : "/params_resumed.bin");
  if (!DumpParams(pipeline.trainer().model(), dump)) {
    std::cerr << "failed to write " << dump << "\n";
    return 1;
  }
  std::cout << "wrote " << dump << "\n";
  return 0;
}

int RunDemo() {
  std::unique_ptr<tkg::TkgDataset> live = MakeLiveDataset();
  const int64_t base_entities = live->num_entities();
  const int64_t num_relations = live->num_relations();
  const int64_t t0 = live->max_time();
  std::unique_ptr<core::RetiaModel> model = MakeModel(*live);

  stream::StreamPipelineConfig config;
  config.window = 1;
  config.ingest.unseen_policy = stream::UnseenPolicy::kGrowEntities;
  config.trainer.steps_per_time = 8;
  config.trainer.lr = 0.1f;
  stream::StreamPipeline pipeline(std::move(model), std::move(live), config);

  // A fresh fact the base model has never seen, repeated within its
  // timestep: the demo's "breaking news". It arrives in the newest
  // window, so its fine-tune update is the last one before the query.
  const int64_t s = 3, r = 2, o = 17;
  const int64_t t_news = t0 + 3;
  const int64_t k = 5;
  std::cout << "before ingest, top-" << k << " objects for (s=" << s
            << ", r=" << r << "):";
  if (!PrintTopObjects(pipeline.engine(), s, r, t_news + 1, k)) return 1;

  // Stream a few timesteps; the news fact arrives 20 times at t_news.
  for (int64_t step = 1; step <= 3; ++step) {
    const int64_t t = t0 + step;
    if (t == t_news) {
      pipeline.OfferBatch(std::vector<tkg::Quadruple>(
          20, tkg::Quadruple{s, r, o, t_news}));
    }
    pipeline.OfferBatch(EventsAt(t, step, base_entities, num_relations));
    pipeline.AdvanceTo(t + 1);
  }
  pipeline.FlushAndPublish();

  std::cout << "after " << pipeline.Status().publishes
            << " publishes, top-" << k << " objects for (s=" << s
            << ", r=" << r << "):";
  if (!PrintTopObjects(pipeline.engine(), s, r, t_news + 1, k)) return 1;

  const stream::StreamStatus status = pipeline.Status();
  std::cout << "ingest: offered=" << status.ingest.offered
            << " accepted=" << status.ingest.accepted
            << " grown_entities=" << status.ingest.grown_entities
            << " sealed_buckets=" << status.ingest.sealed_buckets << "\n"
            << "train: updates=" << status.updates
            << " last_trained_t=" << status.last_trained_time << "\n";
  if (!pipeline.staleness_us().empty()) {
    int64_t max_us = 0;
    for (int64_t us : pipeline.staleness_us()) max_us = std::max(max_us, us);
    std::cout << "staleness: " << pipeline.staleness_us().size()
              << " facts, max " << max_us << " us\n";
  }
  std::cout << "serve: " << pipeline.engine().Stats().ToJson() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) return RunDemo();
  if (argc != 3) {
    std::cerr << "usage: stream_demo [straight|crashy|resume <dir>]\n";
    return 2;
  }
  const std::string mode = argv[1];
  if (mode != "straight" && mode != "crashy" && mode != "resume") {
    std::cerr << "unknown mode '" << mode << "'\n";
    return 2;
  }
  return RunSmoke(mode, argv[2]);
}
