// Cross-build bit-reproducibility probe. Runs a deterministic battery and
// prints an FNV-1a hash of the raw result bytes per section:
//   - the kernels (GEMMs forward+backward, elementwise, softmax family,
//     gather/scatter, Adam, ClipGradNorm), at the default pool width;
//   - the model, at pool widths 1 and 4: a cold-cache eval Evolve, the
//     three frozen decodes, a training-mode Evolve plus backward, and a
//     12-timestamp Trainer::FineTuneOnTimes.
// Build this file against two trees (e.g. a parent checkout and the
// current one, each also under RETIA_SIMD=scalar) and diff the output:
// identical hashes prove the change kept every result bit-exact. Within
// one build, the *_w1 and *_w4 lines must match each other.

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/retia.h"
#include "graph/graph_cache.h"
#include "nn/optimizer.h"
#include "par/thread_pool.h"
#include "quant/quant.h"
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

void HashFloats(const std::vector<float>& v) {
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

  // Online fine-tuning over 12 timestamps: Evolve, loss, backward, clip
  // and Adam, in program order.
  WidthSection("finetune", threads, [&] {
    RetiaModel model(ProbeModelConfig(ds));
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
    for (const retia::tensor::Tensor& p : model.Parameters()) {
      HashFloats(p.impl().data);
    }
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

    Tensor src = RandTensor({12, 24}, true);
    Tensor sc = retia::tensor::ScatterAddRows(src, idx, 50);
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

  const retia::tkg::TkgDataset ds = ProbeDataset();
  for (int threads : {1, 4}) ModelSections(ds, threads);
  Section("model");

  std::printf("final        %016llx\n", static_cast<unsigned long long>(g_hash));
  return 0;
}
