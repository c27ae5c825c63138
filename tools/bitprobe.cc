// Cross-build bit-reproducibility probe. Runs a deterministic battery and
// prints an FNV-1a hash of the raw result bytes per section:
//   - the kernels (GEMMs forward+backward, elementwise, softmax family,
//     gather/scatter, Adam, ClipGradNorm, Conv1d forward+backward), at the
//     default pool width;
//   - the model, at pool widths 1 and 4: a cold-cache eval Evolve, the
//     three frozen decodes, a training-mode Evolve plus backward, and a
//     12-timestamp Trainer::FineTuneOnTimes;
//   - the relation R-GCN layer (the RAM) alone, forward plus every
//     gradient, on a stream-like and a paper-like hypergraph at pool
//     widths 1 and 4, so a change to its numerics shows on its own line;
//   - the baselines built on the same ops, at pool widths 1 and 4: a
//     12-timestamp Trainer::FineTuneOnTimes of RE-GCN, of RE-GCN with
//     CEN's time-variability decode, and of RE-NET;
//   - the evaluation paths, at pool widths 1 and 4 (`eval`): eval-mode
//     ScoreObjects / ScoreRelations at t = 8 of RETIA, RE-GCN, CEN-style
//     RE-GCN, TiRGN over a CEN-style local model and RE-NET, a fine-tune
//     of that TiRGN, and a CEN-style online Trainer::Evaluate of the test
//     split;
//   - the serving tier, at pool widths 1 and 4 (`serve`): routers over two
//     LocalChannels and over two SocketChannels to in-process
//     ReplicaServers (temporary AF_UNIX paths), all on one RETIA snapshot,
//     send a fixed mix of entity and relation queries plus one of each
//     validation error through Route and through RouteBatch, cold and then
//     warm; each answer hashes its status code, detail bytes, candidate
//     ids and score bits, epoch, shard and cache_hit;
//   - perfbench's stream-window shape, at pool widths 1 and 4 (`stream`):
//     300 entities, 16 relations, d = 32, history 3 and dropout 0, one
//     training-mode Evolve, ComputeLoss and Backward (states, loss and
//     every parameter gradient), then a frozen Evolve and both frozen
//     decodes. It is the only section that runs training-mode Dropout at
//     p = 0; the model battery's `train` uses 0.2.
// Build this file against two trees (e.g. a parent checkout and the
// current one, each also under RETIA_SIMD=scalar) and diff the output:
// identical hashes prove the change kept every result bit-exact. Within
// one build, the *_w1 and *_w4 lines must match each other.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/regcn.h"
#include "baselines/renet.h"
#include "baselines/tirgn.h"
#include "core/retia.h"
#include "core/rgcn.h"
#include "eval/metrics.h"
#include "graph/graph_cache.h"
#include "nn/optimizer.h"
#include "par/thread_pool.h"
#include "quant/quant.h"
#include "serve/engine.h"
#include "serve/replica.h"
#include "serve/router.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tkg/synthetic.h"
#include "train/trainer.h"

using retia::tensor::Tensor;

namespace {

uint64_t g_hash = 1469598103934665603ull;

void HashBytes(const void* p, size_t bytes) {
  const unsigned char* c = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < bytes; ++i) {
    g_hash ^= c[i];
    g_hash *= 1099511628211ull;
  }
}

// Any contiguous float container (tensor storage or a std::vector).
template <typename Floats>
void HashFloats(const Floats& v) {
  HashBytes(v.data(), v.size() * sizeof(float));
}

void Section(const char* name) {
  std::printf("%-12s %016llx\n", name, static_cast<unsigned long long>(g_hash));
}

uint64_t g_state = 0x9e3779b97f4a7c15ull;

float NextFloat() {
  g_state = g_state * 6364136223846793005ull + 1442695040888963407ull;
  const uint32_t bits = static_cast<uint32_t>(g_state >> 33);
  return static_cast<float>(bits) / 4294967295.0f * 2.0f - 1.0f;
}

Tensor RandTensor(std::vector<int64_t> shape, bool requires_grad) {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  std::vector<float> data(static_cast<size_t>(n));
  for (float& x : data) x = NextFloat();
  return Tensor::FromVector(std::move(shape), std::move(data), requires_grad);
}

// The model battery's inputs: a small ICEWS14-like graph and a RETIA
// config with the time-variability decode over a 3-step history.
retia::tkg::TkgDataset ProbeDataset() {
  retia::tkg::SyntheticConfig c = retia::tkg::SyntheticConfig::Icews14Like();
  c.num_entities = 80;
  c.num_timestamps = 16;
  c.facts_per_timestamp = 30;
  c.num_schemas = 120;
  return retia::tkg::GenerateSynthetic(c);
}

retia::core::RetiaConfig ProbeModelConfig(const retia::tkg::TkgDataset& ds) {
  retia::core::RetiaConfig config;
  config.num_entities = ds.num_entities();
  config.num_relations = ds.num_relations();
  config.dim = 16;
  config.history_len = 3;
  config.conv_kernels = 4;
  config.time_variability_decode = true;
  return config;
}

void HashStates(
    const std::vector<retia::core::EvolutionModel::StepState>& states) {
  for (const auto& st : states) {
    HashFloats(st.entities.impl().data);
    HashFloats(st.relations.impl().data);
  }
}

// Hashes `body`'s output on its own (starting from the FNV offset basis),
// prints it as `<name>_w<threads>`, then folds it into the running hash.
template <typename Body>
void WidthSection(const char* name, int threads, Body body) {
  const uint64_t outer = g_hash;
  g_hash = 1469598103934665603ull;
  body();
  const uint64_t local = g_hash;
  const std::string label = std::string(name) + "_w" + std::to_string(threads);
  std::printf("%-12s %016llx\n", label.c_str(),
              static_cast<unsigned long long>(local));
  g_hash = outer;
  HashBytes(&local, sizeof(local));
}

// Online fine-tuning over timestamps 3..14 (Evolve, loss, backward, clip
// and Adam, in program order), then every parameter.
void HashFineTune(retia::core::EvolutionModel& model,
                  const retia::tkg::TkgDataset& ds) {
  model.SetTraining(true);
  retia::graph::GraphCache cache(&ds);
  retia::train::TrainConfig config;
  config.online_steps = 1;
  config.online_lr = 1e-2f;
  retia::train::Trainer trainer(&model, &cache, config);
  std::vector<int64_t> times;
  for (int64_t i = 3; i < 15; ++i) times.push_back(i);
  const int64_t applied = trainer.FineTuneOnTimes(times);
  HashBytes(&applied, sizeof(applied));
  for (const Tensor& p : model.Parameters()) HashFloats(p.impl().data);
}

void ModelSections(const retia::tkg::TkgDataset& ds, int threads) {
  using retia::core::EvolutionModel;
  using retia::core::RetiaModel;
  retia::par::ThreadPool pool(threads);
  retia::par::ScopedDefaultPool scoped(&pool);
  const int64_t t = 8;

  // Cold-cache eval Evolve, then the three frozen decodes at batch 8.
  RetiaModel frozen(ProbeModelConfig(ds));
  frozen.SetTraining(false);
  std::vector<EvolutionModel::StepState> states;
  WidthSection("evolve", threads, [&] {
    retia::tensor::NoGradGuard guard;
    retia::graph::GraphCache cache(&ds);
    states = frozen.Evolve(cache, cache.HistoryBefore(t, 3));
    HashStates(states);
  });
  WidthSection("decode", threads, [&] {
    retia::tensor::NoGradGuard guard;
    const int64_t m = ds.num_relations();
    std::vector<std::pair<int64_t, int64_t>> object_queries, relation_queries;
    for (int64_t i = 0; i < 8; ++i) {
      object_queries.emplace_back((i * 7) % ds.num_entities(), i % (2 * m));
      relation_queries.emplace_back((i * 5) % ds.num_entities(),
                                    (i * 11 + 3) % ds.num_entities());
    }
    std::vector<retia::quant::QuantizedRows> qcands;
    for (const auto& st : states) {
      qcands.push_back(retia::quant::QuantizeTensorRows(st.entities));
    }
    HashFloats(frozen.ScoreObjectsFrozen(states, object_queries).impl().data);
    HashFloats(
        frozen.ScoreRelationsFrozen(states, relation_queries).impl().data);
    HashFloats(frozen.ScoreObjectsFrozenQuantized(states, qcands,
                                                  object_queries)
                   .impl()
                   .data);
  });

  // Training-mode Evolve (dropout draws from the model RNG) plus backward.
  WidthSection("train", threads, [&] {
    RetiaModel model(ProbeModelConfig(ds));
    model.SetTraining(true);
    retia::graph::GraphCache cache(&ds);
    auto train_states = model.Evolve(cache, cache.HistoryBefore(t, 3));
    HashStates(train_states);
    auto loss = model.ComputeLoss(train_states, ds.FactsAt(t));
    loss.joint.Backward();
    HashFloats(loss.joint.impl().data);
    for (const retia::tensor::Tensor& p : model.Parameters()) {
      HashFloats(p.impl().grad);
    }
  });

  WidthSection("finetune", threads, [&] {
    RetiaModel model(ProbeModelConfig(ds));
    HashFineTune(model, ds);
  });
}

// RE-GCN (and with it CEN and TiRGN's local part) and RE-NET, fine-tuned
// on the model battery's dataset.
void BaselineSections(const retia::tkg::TkgDataset& ds, int threads) {
  retia::par::ThreadPool pool(threads);
  retia::par::ScopedDefaultPool scoped(&pool);
  WidthSection("baselines", threads, [&] {
    retia::baselines::RegcnConfig regcn;
    regcn.num_entities = ds.num_entities();
    regcn.num_relations = ds.num_relations();
    regcn.dim = 16;
    regcn.conv_kernels = 4;
    for (bool time_variability : {false, true}) {
      regcn.time_variability_decode = time_variability;
      retia::baselines::RegcnModel model(regcn);
      HashFineTune(model, ds);
    }
    retia::baselines::RenetConfig renet;
    renet.num_entities = ds.num_entities();
    renet.num_relations = ds.num_relations();
    renet.dim = 16;
    retia::baselines::RenetModel model(renet);
    HashFineTune(model, ds);
  });
}

void HashMetrics(const retia::eval::Metrics& metrics) {
  const int64_t count = metrics.count();
  const double values[] = {metrics.Mrr(), metrics.Hits1(), metrics.Hits3(),
                           metrics.Hits10()};
  HashBytes(&count, sizeof(count));
  HashBytes(values, sizeof(values));
}

// Eval-mode decodes of every evolution model, a fine-tune of TiRGN and a
// CEN-style online evaluation, on the model battery's dataset.
void EvalSections(const retia::tkg::TkgDataset& ds, int threads) {
  using retia::core::EvolutionModel;
  retia::par::ThreadPool pool(threads);
  retia::par::ScopedDefaultPool scoped(&pool);
  WidthSection("eval", threads, [&] {
    retia::baselines::RegcnConfig regcn;
    regcn.num_entities = ds.num_entities();
    regcn.num_relations = ds.num_relations();
    regcn.dim = 16;
    regcn.conv_kernels = 4;
    retia::baselines::RegcnConfig cen = regcn;
    cen.time_variability_decode = true;
    retia::baselines::TirgnConfig tirgn;
    tirgn.local = cen;
    retia::baselines::RenetConfig renet;
    renet.num_entities = ds.num_entities();
    renet.num_relations = ds.num_relations();
    renet.dim = 16;

    std::vector<std::unique_ptr<EvolutionModel>> models;
    models.push_back(
        std::make_unique<retia::core::RetiaModel>(ProbeModelConfig(ds)));
    models.push_back(std::make_unique<retia::baselines::RegcnModel>(regcn));
    models.push_back(std::make_unique<retia::baselines::RegcnModel>(cen));
    auto gated = std::make_unique<retia::baselines::TirgnModel>(tirgn);
    gated->SetDataset(&ds);
    models.push_back(std::move(gated));
    models.push_back(std::make_unique<retia::baselines::RenetModel>(renet));
    const int64_t m = ds.num_relations();
    std::vector<std::pair<int64_t, int64_t>> object_queries, relation_queries;
    for (int64_t i = 0; i < 8; ++i) {
      object_queries.emplace_back((i * 7) % ds.num_entities(), i % (2 * m));
      relation_queries.emplace_back((i * 5) % ds.num_entities(),
                                    (i * 11 + 3) % ds.num_entities());
    }
    for (const auto& model : models) {
      model->SetTraining(false);
      retia::tensor::NoGradGuard guard;
      retia::graph::GraphCache cache(&ds);
      const auto states =
          model->Evolve(cache, cache.HistoryBefore(8, model->history_len()));
      HashFloats(model->ScoreObjects(states, object_queries).impl().data);
      HashFloats(model->ScoreRelations(states, relation_queries).impl().data);
    }

    retia::baselines::TirgnModel tuned(tirgn);
    tuned.SetDataset(&ds);
    HashFineTune(tuned, ds);

    retia::baselines::RegcnModel online(cen);
    retia::graph::GraphCache cache(&ds);
    retia::train::TrainConfig config;
    config.online_steps = 1;
    config.online_lr = 1e-2f;
    retia::train::Trainer trainer(&online, &cache, config);
    const retia::eval::EvalResult result =
        trainer.Evaluate(ds.test_times(), /*online=*/true);
    HashMetrics(result.entity);
    HashMetrics(result.relation);
    for (const Tensor& p : online.Parameters()) HashFloats(p.impl().data);
  });
}

// One eval-mode RelationRgcnLayer forward plus the gradients of R, HR and
// every layer parameter for the loss sum(out * C), on the hypergraph of the
// last timestamp of a synthetic dataset. Inputs are drawn once, so the
// width sections hash the same computation.
void RamSections(const char* name, int64_t entities, int64_t relations,
                 int64_t facts, int64_t schemas, int64_t dim) {
  retia::tkg::SyntheticConfig c;
  c.num_entities = entities;
  c.num_relations = relations;
  c.num_timestamps = 10;
  c.facts_per_timestamp = facts;
  c.num_schemas = schemas;
  c.seed = 17;
  const retia::tkg::TkgDataset ds = retia::tkg::GenerateSynthetic(c);
  const retia::graph::Subgraph g(ds.FactsAt(ds.max_time()), entities,
                                 relations);
  const retia::graph::HyperSubgraph hg(g);
  retia::util::Rng rng(5);
  retia::core::RelationRgcnLayer layer(dim, 0.2f, &rng);
  layer.SetTraining(false);
  const Tensor rels = RandTensor({2 * relations, dim}, true);
  const Tensor hypers = RandTensor({8, dim}, true);
  const Tensor upstream = RandTensor({2 * relations, dim}, false);
  std::vector<Tensor> inputs = {rels, hypers};
  for (const Tensor& p : layer.Parameters()) inputs.push_back(p);
  for (int threads : {1, 4}) {
    retia::par::ThreadPool pool(threads);
    retia::par::ScopedDefaultPool scoped(&pool);
    WidthSection(name, threads, [&] {
      for (Tensor& t : inputs) {
        t.MutableGrad();
        t.ZeroGrad();
      }
      Tensor out = layer.Forward(rels, hypers, hg, nullptr);
      retia::tensor::Sum(retia::tensor::Mul(out, upstream)).Backward();
      HashFloats(out.impl().data);
      for (const Tensor& t : inputs) HashFloats(t.Grad());
    });
  }
}

void HashAnswer(
    const retia::serve::Result<retia::serve::QueryResult>& answer) {
  const auto code = static_cast<uint8_t>(answer.code());
  HashBytes(&code, sizeof(code));
  HashBytes(answer.detail().data(), answer.detail().size());
  if (!answer.ok()) return;
  const retia::serve::QueryResult& value = answer.value();
  const uint64_t count = value.candidates.size();
  HashBytes(&count, sizeof(count));
  for (const retia::serve::ScoredCandidate& c : value.candidates) {
    HashBytes(&c.id, sizeof(c.id));
    HashBytes(&c.score, sizeof(c.score));
  }
  const uint8_t hit = value.cache_hit ? 1 : 0;
  HashBytes(&value.epoch, sizeof(value.epoch));
  HashBytes(&value.shard, sizeof(value.shard));
  HashBytes(&hit, sizeof(hit));
}

// Routers over fresh two-replica fleets (in-process, then over sockets),
// each answering the query mix through Route or through RouteBatch twice:
// cold caches, then warm. Every engine borrows the same frozen model.
void ServeSections(const retia::tkg::TkgDataset& ds, int threads) {
  namespace serve = retia::serve;
  retia::par::ThreadPool pool(threads);
  retia::par::ScopedDefaultPool scoped(&pool);
  retia::core::RetiaModel model(ProbeModelConfig(ds));
  retia::graph::GraphCache cache(&ds);
  const int64_t n = ds.num_entities();
  const int64_t m = ds.num_relations();
  std::vector<serve::Query> queries;
  for (int64_t i = 0; i < 12; ++i) {
    const int64_t s = (i * 13) % n;
    const int64_t t = 8 + i % 3;
    const int64_t k = 1 + i % 10;
    queries.push_back(i % 3 == 2
                          ? serve::Query::Relation(s, (i * 29 + 5) % n, t, k)
                          : serve::Query::Entity(s, i % (2 * m), t, k));
  }
  queries.push_back(queries[0]);  // a repeat, answered from cache by Route
  queries.push_back(serve::Query::Entity(1, 0, 8, 0));       // k = 0
  queries.push_back(serve::Query::Entity(1, 0, -1, 5));      // t < 0
  queries.push_back(serve::Query::Entity(n, 0, 8, 5));       // subject
  queries.push_back(serve::Query::Entity(1, 2 * m, 8, 5));   // relation

  std::string dir =
      (std::filesystem::temp_directory_path() / "bitprobe-XXXXXX").string();
  if (::mkdtemp(dir.data()) == nullptr) {
    std::perror("bitprobe: mkdtemp");
    std::exit(1);
  }
  WidthSection("serve", threads, [&] {
    for (const bool socket : {false, true}) {
      for (const bool batch : {false, true}) {
        std::vector<std::unique_ptr<serve::ServeEngine>> engines;
        std::vector<std::unique_ptr<serve::ReplicaServer>> servers;
        std::vector<std::unique_ptr<serve::ReplicaChannel>> channels;
        for (int r = 0; r < 2; ++r) {
          engines.push_back(std::make_unique<serve::ServeEngine>(
              &model, &cache, serve::ServeConfig{}));
          if (!socket) {
            channels.push_back(
                std::make_unique<serve::LocalChannel>(engines.back().get()));
            continue;
          }
          const std::string path = dir + "/r" + std::to_string(r) + ".sock";
          servers.push_back(std::make_unique<serve::ReplicaServer>(
              engines.back().get(), nullptr, path));
          const serve::Result<bool> started = servers.back()->Start();
          if (!started.ok()) {
            std::fprintf(stderr, "bitprobe: %s\n",
                         started.ToString().c_str());
            std::exit(1);
          }
          channels.push_back(std::make_unique<serve::SocketChannel>(
              path, serve::RouterConfig{}));
        }
        serve::Router router(std::move(channels), serve::RouterConfig{});
        for (int pass = 0; pass < 2; ++pass) {
          if (batch) {
            for (const auto& answer : router.RouteBatch(queries)) {
              HashAnswer(answer);
            }
          } else {
            for (const serve::Query& query : queries) {
              HashAnswer(router.Route(query));
            }
          }
        }
      }
    }
  });
  std::filesystem::remove_all(dir);
}

// The stream-window workload's shapes (perfbench/stream_workload.cc).
retia::tkg::TkgDataset StreamDataset() {
  retia::tkg::SyntheticConfig c;
  c.num_entities = 300;
  c.num_relations = 16;
  c.num_timestamps = 30;
  c.facts_per_timestamp = 60;
  c.num_schemas = 240;
  c.seed = 1;
  return retia::tkg::GenerateSynthetic(c);
}

void StreamSections(const retia::tkg::TkgDataset& ds, int threads) {
  retia::par::ThreadPool pool(threads);
  retia::par::ScopedDefaultPool scoped(&pool);
  WidthSection("stream", threads, [&] {
    retia::core::RetiaConfig config;
    config.num_entities = ds.num_entities();
    config.num_relations = ds.num_relations();
    config.dim = 32;
    config.history_len = 3;
    config.dropout = 0.0f;
    retia::core::RetiaModel model(config);
    retia::graph::GraphCache cache(&ds);
    const int64_t t = ds.max_time();

    model.SetTraining(true);
    auto states = model.Evolve(cache, cache.HistoryBefore(t, 3));
    HashStates(states);
    auto loss = model.ComputeLoss(states, ds.FactsAt(t));
    loss.joint.Backward();
    HashFloats(loss.joint.impl().data);
    for (const Tensor& p : model.Parameters()) HashFloats(p.impl().grad);

    model.SetTraining(false);
    retia::tensor::NoGradGuard guard;
    const auto frozen = model.Evolve(cache, cache.HistoryBefore(t + 1, 3));
    HashStates(frozen);
    const int64_t n = ds.num_entities();
    const int64_t m = ds.num_relations();
    std::vector<std::pair<int64_t, int64_t>> object_queries, relation_queries;
    for (int64_t i = 0; i < 16; ++i) {
      object_queries.emplace_back((i * 37) % n, i % (2 * m));
      relation_queries.emplace_back((i * 13) % n, (i * 29 + 5) % n);
    }
    HashFloats(model.ScoreObjectsFrozen(frozen, object_queries).impl().data);
    HashFloats(
        model.ScoreRelationsFrozen(frozen, relation_queries).impl().data);
  });
}

}  // namespace

int main() {
  // GEMM NN + NT forward/backward at shapes covering tails and sharding.
  struct Shape {
    int64_t m, k, n;
  };
  for (const Shape sh :
       {Shape{1, 1, 1}, Shape{3, 5, 7}, Shape{17, 33, 9}, Shape{64, 128, 50},
        Shape{200, 64, 77}}) {
    const int64_t m = sh.m, k = sh.k, n = sh.n;
    Tensor a = RandTensor({m, k}, true);
    Tensor b = RandTensor({k, n}, true);
    Tensor c = retia::tensor::MatMul(a, b);
    retia::tensor::Sum(c).Backward();
    HashFloats(c.impl().data);
    HashFloats(a.Grad());
    HashFloats(b.Grad());

    Tensor bt = RandTensor({n, k}, true);
    Tensor d = retia::tensor::MatMulTransposeB(a, bt);
    a.ZeroGrad();
    retia::tensor::Sum(d).Backward();
    HashFloats(d.impl().data);
    HashFloats(a.Grad());
    HashFloats(bt.Grad());
  }
  Section("gemm");

  // One-hot-like A (exercises the historical zero-skip path).
  {
    const int64_t m = 40, k = 64, n = 32;
    std::vector<float> hot(m * k, 0.0f);
    for (int64_t i = 0; i < m; ++i) hot[i * k + (i * 7) % k] = NextFloat();
    Tensor a = Tensor::FromVector({m, k}, std::move(hot), true);
    Tensor b = RandTensor({k, n}, true);
    Tensor c = retia::tensor::MatMul(a, b);
    retia::tensor::Sum(c).Backward();
    HashFloats(c.impl().data);
    HashFloats(a.Grad());
    HashFloats(b.Grad());
  }
  Section("gemm_onehot");

  // Elementwise + broadcast.
  {
    Tensor a = RandTensor({13, 37}, true);
    Tensor b = RandTensor({13, 37}, true);
    Tensor bias = RandTensor({37}, true);
    Tensor out = retia::tensor::AddRowBroadcast(
        retia::tensor::Mul(retia::tensor::Add(a, b), retia::tensor::Sub(a, b)),
        bias);
    out = retia::tensor::Scale(out, 0.37f);
    retia::tensor::Sum(out).Backward();
    HashFloats(out.impl().data);
    HashFloats(a.Grad());
    HashFloats(b.Grad());
    HashFloats(bias.Grad());
  }
  Section("elementwise");

  // Softmax family.
  for (int64_t n : {1, 5, 16, 33, 400}) {
    Tensor x = RandTensor({9, n}, true);
    Tensor y = retia::tensor::Softmax(x);
    retia::tensor::Sum(retia::tensor::Mul(y, y)).Backward();
    HashFloats(y.impl().data);
    HashFloats(x.Grad());

    Tensor x2 = RandTensor({7, n}, true);
    Tensor y2 = retia::tensor::LogSoftmax(x2);
    retia::tensor::Sum(retia::tensor::Mul(y2, y2)).Backward();
    HashFloats(y2.impl().data);
    HashFloats(x2.Grad());

    Tensor x3 = RandTensor({11, n}, true);
    std::vector<int64_t> targets(11);
    for (int64_t i = 0; i < 11; ++i) targets[i] = (i * 3) % n;
    Tensor loss = retia::tensor::CrossEntropyLogits(x3, targets);
    loss.Backward();
    HashFloats(loss.impl().data);
    HashFloats(x3.Grad());
  }
  Section("softmax");

  // Gather / scatter-add (duplicate indices).
  {
    Tensor table = RandTensor({50, 24}, true);
    std::vector<int64_t> idx = {0, 3, 3, 17, 49, 3, 21, 0, 8, 8, 8, 45};
    Tensor g = retia::tensor::GatherRows(table, idx);
    retia::tensor::Sum(retia::tensor::Mul(g, g)).Backward();
    HashFloats(g.impl().data);
    HashFloats(table.Grad());

    // Scatter-add as an AggregateRows plan: source row e into row idx[e],
    // weight 1.
    std::vector<int64_t> rows(idx.size());
    for (size_t e = 0; e < idx.size(); ++e) rows[e] = static_cast<int64_t>(e);
    const auto plan = retia::tensor::MakeRowAggregation(
        50, 1, 12, idx, rows, std::vector<float>(idx.size(), 1.0f));
    Tensor src = RandTensor({12, 24}, true);
    Tensor sc = retia::tensor::AggregateRows(src, plan);
    retia::tensor::Sum(retia::tensor::Mul(sc, sc)).Backward();
    HashFloats(sc.impl().data);
    HashFloats(src.Grad());
  }
  Section("scatter");

  // Adam + ClipGradNorm over several steps.
  {
    std::vector<Tensor> params = {RandTensor({60, 33}, true),
                                  RandTensor({1000}, true)};
    retia::nn::Adam::Options opts;
    opts.lr = 0.01f;
    opts.weight_decay = 0.001f;
    retia::nn::Adam adam(params, opts);
    for (int step = 0; step < 5; ++step) {
      adam.ZeroGrad();
      Tensor loss = retia::tensor::Sum(retia::tensor::Mul(params[0], params[0]));
      loss = retia::tensor::Add(
          loss, retia::tensor::Sum(retia::tensor::Mul(params[1], params[1])));
      loss.Backward();
      const float norm = retia::nn::ClipGradNorm(params, 0.5f);
      HashBytes(&norm, sizeof(norm));
      adam.Step();
      HashFloats(params[0].impl().data);
      HashFloats(params[1].impl().data);
    }
  }
  Section("adam");

  // Conv1d forward plus its input, weight and bias gradients. Lengths and
  // output channel counts straddle the 4- and 8-lane strips; pads 0-2.
  for (int64_t length : {3, 4, 7, 8, 9, 16, 17, 32, 33}) {
    for (int64_t ksize : {1, 3, 5}) {
      for (int64_t pad = 0; pad <= 2; ++pad) {
        if (length + 2 * pad - ksize + 1 <= 0) continue;
        const int64_t cout = length % 2 == 0 ? 16 : 17;
        Tensor x = RandTensor({3, 2, length}, true);
        Tensor w = RandTensor({cout, 2, ksize}, true);
        Tensor bias = RandTensor({cout}, true);
        Tensor y = retia::tensor::Conv1d(x, w, bias, pad);
        retia::tensor::Sum(retia::tensor::Mul(y, y)).Backward();
        HashFloats(y.impl().data);
        HashFloats(x.Grad());
        HashFloats(w.Grad());
        HashFloats(bias.Grad());
      }
    }
  }
  Section("conv1d");

  const retia::tkg::TkgDataset ds = ProbeDataset();
  for (int threads : {1, 4}) ModelSections(ds, threads);
  Section("model");

  RamSections("ram_stream", 300, 16, 60, 240, 32);
  RamSections("ram_paper", 23000, 250, 1500, 6000, 64);
  Section("ram");

  for (int threads : {1, 4}) BaselineSections(ds, threads);
  Section("baselines");

  for (int threads : {1, 4}) EvalSections(ds, threads);
  Section("eval");

  for (int threads : {1, 4}) ServeSections(ds, threads);
  Section("serve");

  const retia::tkg::TkgDataset stream_ds = StreamDataset();
  for (int threads : {1, 4}) StreamSections(stream_ds, threads);
  Section("stream");

  std::printf("final        %016llx\n", static_cast<unsigned long long>(g_hash));
  return 0;
}
