// stream-window: one loop offers a fixed-size bucket of facts for
// the next timestep, advances the watermark past it (seal, fine-tune on
// it, publish a frozen copy into the serving engine), and asks the first
// query at the new frontier, which must be answered by the new epoch.

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/retia.h"
#include "graph/graph_cache.h"
#include "nn/optimizer.h"
#include "par/task_graph.h"
#include "par/thread_pool.h"
#include "serve/engine.h"
#include "simd/simd.h"
#include "stream/grow.h"
#include "stream/ingest.h"
#include "stream/pipeline.h"
#include "tensor/tensor.h"
#include "tkg/synthetic.h"
#include "train/trainer.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace retia;

constexpr int64_t kBucketFacts = 60;
constexpr int64_t kTopK = 10;
constexpr float kLearningRate = 1e-3f;
constexpr float kGradClip = 1.0f;
// Windows run inside set-up, so the measured phase starts with the graph
// caches and optimizer state of a running stream.
constexpr int kWarmWindows = 2;
constexpr int kTracedWindows = 12;
// Fixed seed of the parameter digest, independent of --seed.
constexpr uint64_t kDigestSeed = 20230401;

tkg::SyntheticConfig StreamDataConfig(uint64_t seed) {
  tkg::SyntheticConfig config;
  config.name = "perfbench-stream";
  config.num_entities = 300;
  config.num_relations = 16;
  config.num_timestamps = 30;
  config.facts_per_timestamp = kBucketFacts;
  config.num_schemas = 240;
  config.seed = seed;
  return config;
}

core::RetiaConfig StreamModelConfig(const tkg::TkgDataset& dataset,
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

stream::StreamPipelineConfig PipelineConfig() {
  stream::StreamPipelineConfig config;
  config.window = 1;
  config.trainer.steps_per_time = 1;
  config.trainer.lr = kLearningRate;
  config.trainer.grad_clip = kGradClip;
  config.serve.max_k = kTopK;
  config.serve.quantized_decode = 0;
  return config;
}

// A live stream: the pipeline plus the seeded generator of its buckets.
class StreamWorld {
 public:
  explicit StreamWorld(uint64_t seed) : rng_(seed * 31 + 7) {
    auto live = std::make_unique<tkg::TkgDataset>(
        tkg::GenerateSynthetic(StreamDataConfig(seed)));
    auto model =
        std::make_unique<core::RetiaModel>(StreamModelConfig(*live, seed));
    next_t_ = live->max_time() + 1;
    pipeline_ = std::make_unique<stream::StreamPipeline>(
        std::move(model), std::move(live), PipelineConfig());
  }

  // One operation. With a log, the three public calls are spans under one
  // "stream.window" root whose id lands in *root.
  bool Window(SpanLog* log = nullptr, int64_t request = 0,
              int64_t* root = nullptr) {
    const int64_t t = next_t_++;
    const int64_t n = pipeline_->live().num_entities();
    const int64_t m = pipeline_->live().num_relations();
    std::vector<tkg::Quadruple> bucket(kBucketFacts);
    for (tkg::Quadruple& q : bucket) {
      q = {rng_.UniformInt(0, n - 1), rng_.UniformInt(0, m - 1),
           rng_.UniformInt(0, n - 1), t};
    }
    probe_ = serve::Query::Entity(bucket[0].subject, bucket[0].relation,
                                  t + 1, kTopK);
    int64_t accepted = 0;
    int64_t published = 0;
    std::optional<serve::Result<serve::QueryResult>> answer;
    auto offer = [&] { accepted = pipeline_->OfferBatch(bucket); };
    auto advance = [&] { published = pipeline_->AdvanceTo(t + 1); };
    auto query = [&] { answer.emplace(pipeline_->engine().Submit(probe_)); };
    if (log == nullptr) {
      offer();
      advance();
      query();
    } else {
      const int64_t id = log->Begin("stream.window", -1, request);
      log->Time("stream.StreamPipeline.OfferBatch", id, request, offer);
      log->Time("stream.StreamPipeline.AdvanceTo", id, request, advance);
      log->Time("serve.engine.Submit[first]", id, request, query);
      log->End(id);
      *root = id;
    }
    // The probe must come from the epoch this window just published.
    return accepted == kBucketFacts && published == 1 && answer->ok() &&
           answer->value().epoch == pipeline_->Status().publishes;
  }

  stream::StreamPipeline& pipeline() { return *pipeline_; }
  int64_t last_time() const { return next_t_ - 1; }
  const serve::Query& probe() const { return probe_; }

 private:
  util::Rng rng_;
  int64_t next_t_ = 0;
  serve::Query probe_;
  std::unique_ptr<stream::StreamPipeline> pipeline_;
};

std::unique_ptr<StreamWorld> SetUpStream(uint64_t seed) {
  auto world = std::make_unique<StreamWorld>(seed);
  for (int w = 0; w < kWarmWindows; ++w) {
    Require(world->Window(), "stream warm-up window failed");
  }
  return world;
}

uint64_t ParamDigest(const core::RetiaModel& model) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const auto& [name, param] : model.NamedParameters()) {
    hash = Fnv1a(name.data(), name.size(), hash);
    hash = Fnv1a(param.Data(), sizeof(float) * param.NumElements(), hash);
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

// Fine-tunes a fixed-seed stream for three windows and requires the
// parameter digest to equal the one every earlier run of the same binary
// recorded. `state_dir`/stream-digests holds one "<binary hash> <digest>"
// line per binary, keyed by the bytes of the executable, so runs of
// different builds in one checkout each compare against their own record.
void CheckDigest(const Options& options, Report* report) {
  StreamWorld world(kDigestSeed);
  for (int w = 0; w < 3; ++w) Require(world.Window(), "digest window failed");
  const std::string digest =
      Hex(ParamDigest(world.pipeline().trainer().model()));
  std::ifstream exe("/proc/self/exe", std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(exe)),
                          std::istreambuf_iterator<char>());
  Require(!bytes.empty(), "cannot read the benchmark executable");
  const std::string binary =
      Hex(Fnv1a(bytes.data(), bytes.size(), 0xcbf29ce484222325ull));

  const std::string path = options.state_dir + "/stream-digests";
  std::ifstream records(path);
  std::string key;
  std::string recorded;
  while (records >> key >> recorded && key != binary) continue;
  if (key != binary) {
    std::ofstream(path, std::ios::app) << binary << " " << digest << "\n";
    report->Line("check: fixed-seed parameter digest " + digest +
                 " recorded for binary " + binary);
  } else if (recorded == digest) {
    report->Line("check: fixed-seed parameter digest " + digest +
                 " matches earlier runs of binary " + binary);
  } else {
    report->Fail("fixed-seed parameter digest " + digest + " differs from " +
                 recorded + " of earlier runs of binary " + binary);
  }
}

// The task graphs one window runs, with empty bodies: two Evolve-shaped
// chains (train and first query), the trainer's prefetch/step pair and the
// decode fan-out over the evolved states.
void RunEmptyTaskGraphs(int64_t history) {
  for (int evolve = 0; evolve < 2; ++evolve) {
    par::TaskGraph graph;
    std::vector<par::TaskGraph::TaskId> prep;
    for (int64_t i = 0; i < history; ++i) prep.push_back(graph.Add([] {}));
    par::TaskGraph::TaskId prev = par::TaskGraph::kInvalid;
    for (int64_t i = 0; i < history; ++i) {
      std::vector<par::TaskGraph::TaskId> deps = {prep[i]};
      if (prev != par::TaskGraph::kInvalid) deps.push_back(prev);
      prev = graph.Add([] {}, deps);
    }
    graph.Run();
  }
  par::TaskGraph step;
  step.Add([] {}, {step.Add([] {})});
  step.Run();
  par::TaskGraph fan_out;
  for (int64_t i = 0; i < history; ++i) fan_out.Add([] {});
  fan_out.Run();
}

// Replays the window that just ran, one public entry point at a time, on
// copies of the live model and dataset, each under a span parented to the
// window's root span.
void ReplayWindow(StreamWorld& world, serve::ServeEngine& mirror,
                  int64_t root, int64_t request, SpanLog& log) {
  const tkg::TkgDataset& live = world.pipeline().live();
  const core::RetiaModel& trained = world.pipeline().trainer().model();
  const int64_t t = world.last_time();
  const int64_t k = trained.history_len();

  // Publish: clone, dataset copy, swap into an engine like the pipeline's.
  serve::EngineSnapshot snapshot;
  log.Time("stream.CloneModel", root, request,
           [&] { snapshot.model = stream::CloneModel(trained); });
  log.Time("tkg.TkgDataset.copy", root, request, [&] {
    snapshot.dataset = std::make_unique<tkg::TkgDataset>(live);
  });
  snapshot.graph_cache =
      std::make_unique<graph::GraphCache>(snapshot.dataset.get());
  log.Time("serve.engine.SwapSnapshot", root, request,
           [&] { mirror.SwapSnapshot(std::move(snapshot)); });

  // Ingest: seal an equal bucket on a copy of the live dataset.
  {
    tkg::TkgDataset copy(live);
    stream::StreamIngest ingest(&copy);
    const int64_t next = copy.max_time() + 1;
    std::vector<tkg::Quadruple> bucket = live.FactsAt(t);
    for (tkg::Quadruple& q : bucket) q.time = next;
    Require(ingest.OfferBatch(bucket) == kBucketFacts, "replay offer");
    log.Time("stream.StreamIngest.SealBefore", root, request,
             [&] { ingest.SealBefore(next + 1); });
  }

  // First query: Algorithm 1 on a fresh cache, Evolve on the warm cache,
  // the decode and the top-k.
  {
    tkg::TkgDataset copy(live);
    graph::GraphCache fresh(&copy);
    const std::vector<int64_t> history = fresh.HistoryBefore(t + 1, k);
    log.Time("graph.GraphCache.hypergraph", root, request, [&] {
      for (int64_t h : history) fresh.hypergraph(h);
    });
    const std::unique_ptr<core::RetiaModel> frozen =
        stream::CloneModel(trained);
    tensor::NoGradGuard guard;
    std::vector<core::EvolutionModel::StepState> states;
    log.Time("core.RetiaModel.Evolve[frozen]", root, request,
             [&] { states = frozen->Evolve(fresh, history); });
    const serve::Query& probe = world.probe();
    tensor::Tensor scores;
    log.Time("core.decoder.score[first]", root, request, [&] {
      scores = frozen->ScoreObjectsFrozen(states, {{probe.s, probe.r_or_o}});
    });
    int64_t idx[kTopK];
    log.Time("simd.topk[first]", root, request, [&] {
      simd::TopKSelectF32(scores.Data(), scores.Dim(1), kTopK, idx);
    });
  }

  // Fine-tune: the trainer's step on a copy, then the step's parts.
  {
    tkg::TkgDataset copy(live);
    graph::GraphCache cache(&copy);
    cache.Prefetch(cache.HistoryBefore(t, k), /*hypergraphs=*/true);
    train::TrainConfig config;
    config.lr = kLearningRate;
    config.grad_clip = kGradClip;
    config.online_steps = 1;
    config.online_lr = kLearningRate;
    {
      const std::unique_ptr<core::RetiaModel> model =
          stream::CloneModel(trained);
      model->SetTraining(true);
      train::Trainer trainer(model.get(), &cache, config);
      log.Time("train.Trainer.FineTuneOnTimes", root, request,
               [&] { trainer.FineTuneOnTimes({t}); });
    }
    const std::unique_ptr<core::RetiaModel> model =
        stream::CloneModel(trained);
    model->SetTraining(true);
    std::vector<tensor::Tensor> params = model->Parameters();
    nn::Adam adam(params, nn::Adam::Options{.lr = kLearningRate});
    model->ZeroGrad();
    std::vector<core::EvolutionModel::StepState> states;
    std::optional<core::EvolutionModel::LossParts> loss;
    log.Time("core.RetiaModel.Evolve[train]", root, request, [&] {
      states = model->Evolve(cache, cache.HistoryBefore(t, k));
    });
    log.Time("core.RetiaModel.ComputeLoss", root, request, [&] {
      loss.emplace(model->ComputeLoss(states, copy.FactsAt(t)));
    });
    log.Time("tensor.Tensor.Backward", root, request,
             [&] { loss->joint.Backward(); });
    log.Time("nn.ClipGradNorm+Adam.Step", root, request, [&] {
      nn::ClipGradNorm(params, kGradClip);
      adam.Step();
    });
  }

  log.Time("par.task_graph[window]", root, request,
           [&] { RunEmptyTaskGraphs(k); });
}

ClosedLoopOp WindowOp(StreamWorld& world) {
  return [&world](int, int64_t) { return world.Window(); };
}

}  // namespace

void RunStream(const Options& options, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<StreamWorld> world;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    world.reset();
    const int64_t start = NowNs();
    world = SetUpStream(options.seed);
    setup_s.push_back(SecondsSince(start));
  }
  const PhaseStats stats = RunClosedLoop(1, options.seconds, WindowOp(*world));
  ReportPhase("stream-window", stats, report);
  report->Count(stats.attempted, stats.failed);
  report->Line("check: " + std::to_string(stats.attempted - stats.failed) +
               "/" + std::to_string(stats.attempted) +
               " probes answered by the epoch their window published");
  if (stats.failed > 0) {
    report->Fail(std::to_string(stats.failed) +
                 " windows were not answered by their own epoch");
  }
  world.reset();
  CheckDigest(options, report);

  const std::string counts =
      "attempted=" + std::to_string(stats.attempted) +
      " failed=" + std::to_string(stats.failed);
  report->Metric("p50_ms", stats.p50_ms, "ms",
                 "offer -> first answer from the new epoch, 90th percentile "
                 "of " + std::to_string(stats.slices) + " slice p50s, samples=" +
                     std::to_string(stats.samples) + " " + counts);
  report->Metric("cpu_ms_per_op", stats.cpu_ms_per_op, "ms",
                 "process CPU / completed windows, 90th percentile of " +
                     std::to_string(stats.slices) + " slices, " + counts);
  report->Metric("setup_s", Median(setup_s), "s",
                 "median of " + std::to_string(setup_s.size()) + " set-ups");
}

void TraceStream(const Options& options, bool split, Report* report,
                 Trace* trace) {
  report->Line("stream probe");
  const std::unique_ptr<StreamWorld> world = SetUpStream(options.seed);
  PhaseStats base;
  if (split) {
    base = RunClosedLoop(1, options.seconds / 2, WindowOp(*world));
    ReportPhase("stream-window untraced", base, report);
    report->Count(base.attempted, base.failed);
    if (base.failed > 0) report->Fail("stream windows failed");
  }

  // An engine like the pipeline's, for the replayed SwapSnapshot.
  serve::EngineSnapshot initial;
  initial.model = stream::CloneModel(world->pipeline().trainer().model());
  initial.dataset =
      std::make_unique<tkg::TkgDataset>(world->pipeline().live());
  initial.graph_cache =
      std::make_unique<graph::GraphCache>(initial.dataset.get());
  serve::ServeEngine mirror(std::move(initial), PipelineConfig().serve);

  SpanLog log;
  int64_t failed = 0;
  for (int w = 0; w < kTracedWindows; ++w) {
    int64_t root = -1;
    if (!world->Window(&log, w, &root)) ++failed;
    ReplayWindow(*world, mirror, root, w, log);
  }
  trace->Add(log);
  report->Count(kTracedWindows, failed);
  if (failed > 0) report->Fail("traced stream windows failed");
  if (split) CheckDigest(options, report);

  const int64_t k = world->pipeline().trainer().model().history_len();
  const double offer = trace->MedianUs("stream.StreamPipeline.OfferBatch");
  const double first = trace->MedianUs("serve.engine.Submit[first]");
  const double seal = trace->MedianUs("stream.StreamIngest.SealBefore");
  const double clone = trace->MedianUs("stream.CloneModel");
  const double copy = trace->MedianUs("tkg.TkgDataset.copy");
  const double swap = trace->MedianUs("serve.engine.SwapSnapshot");
  const double hyper = trace->MedianUs("graph.GraphCache.hypergraph");
  const double evolve = trace->MedianUs("core.RetiaModel.Evolve[frozen]");
  const double score = trace->MedianUs("core.decoder.score[first]");
  const double topk = trace->MedianUs("simd.topk[first]");
  const double step = trace->MedianUs("train.Trainer.FineTuneOnTimes");
  const double evolve_train = trace->MedianUs("core.RetiaModel.Evolve[train]");
  const double loss = trace->MedianUs("core.RetiaModel.ComputeLoss");
  const double backward = trace->MedianUs("tensor.Tensor.Backward");
  const double adam = trace->MedianUs("nn.ClipGradNorm+Adam.Step");
  const double task_graphs = trace->MedianUs("par.task_graph[window]");

  const std::string n = "n=" + std::to_string(kTracedWindows);
  report->Metric("stream.ingest.offer_us", offer, "us", n);
  report->Metric("train.step_ms", step / 1e3, "ms",
                 "FineTuneOnTimes on one timestamp, replayed on a copy, " + n);
  report->Metric("graph.hypergraph_ms", hyper / 1e3, "ms",
                 std::to_string(k) + " history timestamps on a fresh cache, " +
                     n);
  report->Metric("core.evolve_ms", evolve / 1e3, "ms", "warm cache, " + n);
  report->Metric("stream.publish.clone_ms", (clone + copy) / 1e3, "ms",
                 "CloneModel + dataset copy, " + n);
  report->Metric("serve.engine.swap_ms", swap / 1e3, "ms", n);
  report->Metric("serve.engine.first_query_ms", first / 1e3, "ms", n);
  if (!split) return;

  LayerTimes layers;
  layers["stream"] = offer + seal + clone;
  layers["tkg"] = copy;
  layers["train"] = step - evolve_train - loss - backward - adam;
  layers["core"] = evolve_train + loss + evolve + score;
  layers["tensor"] = backward + topk;
  layers["nn"] = adam;
  // The trainer builds the newest history timestamp's graphs, the fresh
  // engine cache of the first query all k of them.
  layers["graph"] = hyper * static_cast<double>(k + 1) / static_cast<double>(k);
  layers["par"] = task_graphs;
  layers["serve.engine"] = swap + (first - hyper - evolve - score - topk);
  const double p50_us = base.p50_ms * 1e3;
  report->Metric("trace.p50_us", p50_us, "us", "untraced p50 being split");
  report->Metric(
      "trace.overhead_pct",
      100.0 * (trace->MedianUs("stream.window") + trace->span_cost_us() -
               p50_us) / p50_us,
      "%", "traced window p50 against the untraced p50");
  ReportShares(layers, p50_us, report);
}

void TraceParWidth(const Options& options, Report* report) {
  constexpr int kRounds = 2;
  constexpr int kBlock = 10;
  // Both widths on every allowed CPU, as a program run without pinning;
  // the pool's workers inherit this set.
  Require(SetAffinity(options.allowed_cpus), "cannot widen CPU affinity");
  par::ThreadPool wide(par::DefaultThreads());
  std::unique_ptr<StreamWorld> narrow_world = SetUpStream(options.seed);
  std::unique_ptr<StreamWorld> wide_world;
  {
    par::ScopedDefaultPool scoped(&wide);
    wide_world = SetUpStream(options.seed);
  }
  // Interleaved blocks, so a change in host load hits both widths alike.
  std::vector<double> latency_ms[2];
  double cpu_s[2] = {0.0, 0.0};
  int64_t failed = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int side = 0; side < 2; ++side) {
      std::optional<par::ScopedDefaultPool> scoped;
      if (side == 1) scoped.emplace(&wide);
      StreamWorld& world = side == 1 ? *wide_world : *narrow_world;
      const double cpu_before = ProcessCpuSeconds();
      for (int w = 0; w < kBlock; ++w) {
        const int64_t start = NowNs();
        if (!world.Window()) ++failed;
        latency_ms[side].push_back(static_cast<double>(NowNs() - start) /
                                   1e6);
      }
      cpu_s[side] += ProcessCpuSeconds() - cpu_before;
    }
  }
  report->Count(2 * kRounds * kBlock, failed);
  if (failed > 0) report->Fail("stream windows failed at one pool width");
  // Both streams saw the same buckets: bit-identical across pool widths.
  if (ParamDigest(narrow_world->pipeline().trainer().model()) !=
      ParamDigest(wide_world->pipeline().trainer().model())) {
    report->Fail("stream parameters differ between pool widths");
  }
  char note[96];
  std::snprintf(note, sizeof(note), "%d threads against 1, %d windows each",
                wide.threads(), kRounds * kBlock);
  report->Metric("par.wide_over_narrow",
                 Median(latency_ms[1]) / Median(latency_ms[0]), "ratio", note);
  report->Metric("par.cpu_wide_over_narrow", cpu_s[1] / cpu_s[0], "ratio",
                 note);
  // The wide world's engine runs its ticks on `wide`: destroy it first.
  wide_world.reset();
  Require(SetAffinity({options.pinned_cpu}), "cannot pin a CPU again");
}

}  // namespace perfbench
