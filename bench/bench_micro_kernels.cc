// Micro-benchmarks of the tensor/graph kernels the RETIA pipeline is built
// from (google-benchmark). These are not a paper table; they document the
// substrate's throughput and make kernel-level regressions visible.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include <benchmark/benchmark.h>

#include "ckpt/model_io.h"
#include "core/retia.h"
#include "core/rgcn.h"
#include "graph/graph_cache.h"
#include "nn/optimizer.h"
#include "quant/quant.h"
#include "par/thread_pool.h"
#include "simd/simd.h"
#include "tensor/ops.h"
#include "tkg/synthetic.h"
#include "util/check.h"
#include "util/rng.h"

namespace {

using retia::tensor::Tensor;

Tensor RandomTensor(std::vector<int64_t> shape, uint64_t seed) {
  retia::util::Rng rng(seed);
  Tensor t = Tensor::Zeros(std::move(shape));
  for (int64_t i = 0; i < t.NumElements(); ++i)
    t.Data()[i] = rng.Uniform(-1.0f, 1.0f);
  return t;
}

// Every benchmark labels its rows with the active kernel backend so a JSON
// dump (scripts/bench_kernels.sh) can attribute numbers to scalar vs
// avx2/sse2/neon without re-deriving the dispatch decision.
void LabelBackend(benchmark::State& state) {
  state.SetLabel(retia::simd::Kernels().name);
}

// Rate counters: google-benchmark divides kIsRate counters by elapsed
// seconds, so feeding total flops/bytes across all iterations yields
// FLOP/s and B/s directly (shown as G/s in the console output).
void CountFlops(benchmark::State& state, double flops_per_iter) {
  state.counters["flops"] = benchmark::Counter(
      flops_per_iter * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void CountBytes(benchmark::State& state, double bytes_per_iter) {
  state.SetBytesProcessed(
      state.iterations() * static_cast<int64_t>(bytes_per_iter));
}

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor a = RandomTensor({n, n}, 1);
  Tensor b = RandomTensor({n, n}, 2);
  retia::tensor::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(retia::tensor::MatMul(a, b).Data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  CountFlops(state, 2.0 * static_cast<double>(n) * n * n);
  LabelBackend(state);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

// One-hot-like A (exactly one nonzero per row): decides whether the
// dedicated sparse GEMM path earns its keep over the dense
// branch-free kernel. GatherRows-as-matmul is the real workload shape.
void BM_MatMulOneHot(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor a = Tensor::Zeros({n, n});
  retia::util::Rng rng(31);
  for (int64_t i = 0; i < n; ++i)
    a.Data()[i * n + rng.UniformInt(0, n - 1)] = 1.0f;
  Tensor b = RandomTensor({n, n}, 32);
  retia::tensor::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(retia::tensor::MatMul(a, b).Data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  CountFlops(state, 2.0 * static_cast<double>(n) * n * n);
  LabelBackend(state);
}
BENCHMARK(BM_MatMulOneHot)->Arg(64)->Arg(128);

void BM_MatMulTransposeB(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor a = RandomTensor({256, 32}, 3);   // queries x d
  Tensor b = RandomTensor({n, 32}, 4);     // candidates x d
  retia::tensor::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(retia::tensor::MatMulTransposeB(a, b).Data());
  }
  state.SetItemsProcessed(state.iterations() * 256 * n * 32);
  CountFlops(state, 2.0 * 256.0 * static_cast<double>(n) * 32.0);
  LabelBackend(state);
}
BENCHMARK(BM_MatMulTransposeB)->Arg(256)->Arg(1024);

// The AggregateRows plan that adds row e of a [idx.size(), n] table into
// output row idx[e] with weight 1: a plain scatter-add.
std::shared_ptr<const retia::tensor::RowAggregation> ScatterPlan(
    const std::vector<int64_t>& idx, int64_t rows) {
  std::vector<int64_t> src(idx.size());
  for (size_t e = 0; e < idx.size(); ++e) src[e] = static_cast<int64_t>(e);
  return retia::tensor::MakeRowAggregation(
      rows, 1, static_cast<int64_t>(idx.size()), idx, src,
      std::vector<float>(idx.size(), 1.0f));
}

// The scatter half is AggregateRows over a weight-1 plan. The rows pinned
// in BENCH_kernels.json predate that and time a separate scatter-add op.
void BM_GatherScatter(benchmark::State& state) {
  const int64_t edges = state.range(0);
  Tensor nodes = RandomTensor({500, 32}, 5);
  retia::util::Rng rng(6);
  std::vector<int64_t> idx(edges);
  for (auto& i : idx) i = rng.UniformInt(0, 499);
  const auto plan = ScatterPlan(idx, 500);
  retia::tensor::NoGradGuard guard;
  for (auto _ : state) {
    Tensor g = retia::tensor::GatherRows(nodes, idx);
    benchmark::DoNotOptimize(retia::tensor::AggregateRows(g, plan).Data());
  }
  state.SetItemsProcessed(state.iterations() * edges * 32);
  // One gather read + one scatter read-modify-write per row of 32 floats.
  CountBytes(state, 3.0 * static_cast<double>(edges) * 32 * sizeof(float));
  LabelBackend(state);
}
BENCHMARK(BM_GatherScatter)->Arg(200)->Arg(2000);

void BM_Softmax(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor a = RandomTensor({128, n}, 7);
  retia::tensor::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(retia::tensor::Softmax(a).Data());
  }
  CountBytes(state, 2.0 * 128.0 * static_cast<double>(n) * sizeof(float));
  LabelBackend(state);
}
BENCHMARK(BM_Softmax)->Arg(300)->Arg(3000);

// Vectorized elementwise substrate: c = a + b over a flat buffer.
void BM_ElementwiseAdd(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor a = RandomTensor({n}, 41);
  Tensor b = RandomTensor({n}, 42);
  retia::tensor::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(retia::tensor::Add(a, b).Data());
  }
  CountBytes(state, 3.0 * static_cast<double>(n) * sizeof(float));
  LabelBackend(state);
}
BENCHMARK(BM_ElementwiseAdd)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

// Full Adam step (bias correction, eps, weight decay) over one flat
// parameter, exercising the fused simd adam_update kernel.
void BM_Adam(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor w = RandomTensor({n}, 43);
  retia::nn::Adam adam({w}, retia::nn::Adam::Options{});
  w.impl().grad.assign(static_cast<size_t>(n), 1e-3f);
  for (auto _ : state) {
    adam.Step();
    benchmark::DoNotOptimize(w.Data());
  }
  // w, g, m, v read; w, m, v written.
  CountBytes(state, 7.0 * static_cast<double>(n) * sizeof(float));
  LabelBackend(state);
}
BENCHMARK(BM_Adam)->Arg(1 << 14)->Arg(1 << 18);

// One Conv-TransE decoder convolution at the training shape of the stream
// window: input [120, 2, 32] (the stacked subject/relation embeddings of a
// 120-query batch at d=32), 16 kernels of 2x3, pad 1; forward plus the
// backward's input, weight and bias gradients.
void BM_Conv1dTrainShape(benchmark::State& state) {
  const int64_t batch = 120, cin = 2, length = 32, cout = 16, ksize = 3;
  Tensor x = RandomTensor({batch, cin, length}, 44);
  Tensor w = RandomTensor({cout, cin, ksize}, 45);
  Tensor b = RandomTensor({cout}, 46);
  x.SetRequiresGrad(true);
  w.SetRequiresGrad(true);
  b.SetRequiresGrad(true);
  for (auto _ : state) {
    Tensor y = retia::tensor::Conv1d(x, w, b, /*pad=*/1);
    retia::tensor::Sum(y).Backward();
    benchmark::DoNotOptimize(w.Grad().data());
    x.ZeroGrad();
    w.ZeroGrad();
    b.ZeroGrad();
  }
  // Multiply-adds of the forward, input grad and weight grad.
  CountFlops(state, 3.0 * 2.0 * batch * cout * cin * length * ksize);
  LabelBackend(state);
}
BENCHMARK(BM_Conv1dTrainShape);

void BM_HypergraphConstruction(benchmark::State& state) {
  retia::tkg::TkgDataset ds = retia::tkg::GenerateSynthetic(
      retia::tkg::SyntheticConfig::Icews18Like());
  for (auto _ : state) {
    retia::graph::Subgraph g(ds.FactsAt(0), ds.num_entities(),
                             ds.num_relations());
    retia::graph::HyperSubgraph hg(g);
    benchmark::DoNotOptimize(hg.num_edges());
  }
}
BENCHMARK(BM_HypergraphConstruction);

void BM_EntityRgcnLayerForward(benchmark::State& state) {
  retia::tkg::TkgDataset ds = retia::tkg::GenerateSynthetic(
      retia::tkg::SyntheticConfig::Icews14Like());
  retia::graph::Subgraph g(ds.FactsAt(0), ds.num_entities(),
                           ds.num_relations());
  retia::util::Rng rng(8);
  retia::core::EntityRgcnLayer layer(32, 2 * ds.num_relations(), 2, 0.0f,
                                     &rng);
  layer.SetTraining(false);
  Tensor nodes = RandomTensor({ds.num_entities(), 32}, 9);
  Tensor rels = RandomTensor({2 * ds.num_relations(), 32}, 10);
  retia::tensor::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.Forward(nodes, rels, g, &rng).Data());
  }
}
BENCHMARK(BM_EntityRgcnLayerForward);

// One relation R-GCN layer forward plus backward on the twin hyperrelation
// subgraph of the last timestamp of a synthetic history shaped like the
// perfbench workloads: `stream` is the stream window's world (300
// entities, 16 relations, 60 facts per timestamp, d = 32; 2,944
// hyperedges over 32 relation nodes) and `paper` its paper-scale profile
// (23,000 entities, 250 relations, 1,500 facts per timestamp, d = 200;
// 356,928 hyperedges over 500 relation nodes).
void BM_RelationRgcnLayer(benchmark::State& state, int64_t entities,
                          int64_t relations, int64_t facts, int64_t schemas,
                          int64_t dim) {
  retia::tkg::SyntheticConfig config;
  config.num_entities = entities;
  config.num_relations = relations;
  config.num_timestamps = 10;
  config.facts_per_timestamp = facts;
  config.num_schemas = schemas;
  config.seed = 17;
  const retia::tkg::TkgDataset ds = retia::tkg::GenerateSynthetic(config);
  const retia::graph::Subgraph g(ds.FactsAt(ds.max_time()),
                                 ds.num_entities(), ds.num_relations());
  const retia::graph::HyperSubgraph hg(g);
  retia::util::Rng rng(11);
  retia::core::RelationRgcnLayer layer(dim, 0.0f, &rng);
  layer.SetTraining(false);
  Tensor rels = RandomTensor({2 * relations, dim}, 12);
  Tensor hypers = RandomTensor({8, dim}, 13);
  rels.SetRequiresGrad(true);
  hypers.SetRequiresGrad(true);
  for (auto _ : state) {
    Tensor out = layer.Forward(rels, hypers, hg, &rng);
    retia::tensor::Sum(out).Backward();
    benchmark::DoNotOptimize(rels.Grad().data());
  }
  state.counters["hyperedges"] = static_cast<double>(hg.num_edges());
  LabelBackend(state);
}
BENCHMARK_CAPTURE(BM_RelationRgcnLayer, stream, 300, 16, 60, 240, 32)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_RelationRgcnLayer, paper, 23000, 250, 1500, 6000, 200)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Quantized inference kernels (docs/QUANTIZATION.md). The decode pair
// BM_DecodeF32 / BM_DecodeQuantized measures the exact serve-time candidate
// product at ICEWS-like scale (d=200, N candidate rows, 256-query batch):
// the f32 row streams 4 N d bytes of candidates per decode, the int8 row
// streams N d + 4 N scale bytes, which is where the quantized speedup
// lives once N d exceeds cache. scripts/bench_kernels.sh distills the
// ratio into BENCH_kernels.json's `quant` block.

constexpr int64_t kQuantDim = 200;  // ICEWS-like embedding width

void BM_QuantizeRowsI8(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor b = RandomTensor({n, kQuantDim}, 61);
  std::vector<int8_t> q(static_cast<size_t>(n * kQuantDim));
  std::vector<float> scales(static_cast<size_t>(n));
  for (auto _ : state) {
    retia::simd::Kernels().quantize_rows_i8(b.Data(), q.data(), scales.data(),
                                            n, kQuantDim);
    benchmark::DoNotOptimize(q.data());
  }
  // Read f32 twice (amax + quantize passes), write int8 + scale.
  CountBytes(state, static_cast<double>(n) *
                        (2.0 * kQuantDim * sizeof(float) + kQuantDim + 4.0));
  LabelBackend(state);
}
BENCHMARK(BM_QuantizeRowsI8)->Arg(4096)->Arg(30000);

void BM_DecodeF32(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor a = RandomTensor({256, kQuantDim}, 62);
  Tensor b = RandomTensor({n, kQuantDim}, 63);
  retia::tensor::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(retia::tensor::MatMulTransposeB(a, b).Data());
  }
  CountFlops(state, 2.0 * 256.0 * static_cast<double>(n) * kQuantDim);
  CountBytes(state, static_cast<double>(n) * kQuantDim * sizeof(float));
  LabelBackend(state);
}
// The decode pair feeds the >= 2x int8-vs-f32 acceptance gate in
// scripts/bench_kernels.sh; the longer MinTime keeps a transient on a
// 1-CPU cgroup host from tripping the gate.
BENCHMARK(BM_DecodeF32)->Arg(4096)->Arg(30000)->MinTime(2.0);

void BM_DecodeQuantized(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor a = RandomTensor({256, kQuantDim}, 62);
  Tensor b = RandomTensor({n, kQuantDim}, 63);
  const retia::quant::QuantizedRows bq =
      retia::quant::QuantizeTensorRows(b);  // once per snapshot, as in serve
  retia::tensor::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        retia::quant::MatMulTransposeBQuant(a, bq).Data());
  }
  CountFlops(state, 2.0 * 256.0 * static_cast<double>(n) * kQuantDim);
  CountBytes(state,
             static_cast<double>(n) * (kQuantDim + sizeof(float)));
  LabelBackend(state);
}
BENCHMARK(BM_DecodeQuantized)->Arg(4096)->Arg(30000)->MinTime(2.0);

void BM_F16RoundTrip(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor x = RandomTensor({n}, 64);
  std::vector<uint16_t> h(static_cast<size_t>(n));
  std::vector<float> back(static_cast<size_t>(n));
  for (auto _ : state) {
    retia::simd::Kernels().f32_to_f16(x.Data(), h.data(), n);
    retia::simd::Kernels().f16_to_f32(h.data(), back.data(), n);
    benchmark::DoNotOptimize(back.data());
  }
  CountBytes(state, 2.0 * static_cast<double>(n) *
                        (sizeof(float) + sizeof(uint16_t)));
  LabelBackend(state);
}
BENCHMARK(BM_F16RoundTrip)->Arg(1 << 16)->Arg(1 << 20);

// Snapshot size at ICEWS14-like scale: saves the same model through both
// writers and reports the byte counts (the >= 2x snapshot-memory gate in
// scripts/bench_kernels.sh reads the `snapshot_ratio` counter). The timed
// region is the quantized save, so the row doubles as save-throughput.
void BM_QuantizedSnapshotBytes(benchmark::State& state) {
  static const retia::tkg::TkgDataset* ds = new retia::tkg::TkgDataset(
      retia::tkg::GenerateSynthetic(retia::tkg::SyntheticConfig::Icews14Like()));
  static retia::core::RetiaModel* model = [] {
    retia::core::RetiaConfig config;
    config.num_entities = ds->num_entities();
    config.num_relations = ds->num_relations();
    config.dim = kQuantDim;
    auto* m = new retia::core::RetiaModel(config);
    m->SetTraining(false);
    return m;
  }();
  const std::string f32_path = "/tmp/retia_bench_snap_f32.ckpt";
  const std::string q_path = "/tmp/retia_bench_snap_q.ckpt";
  RETIA_CHECK(retia::ckpt::SaveModelArtifact(*model, f32_path, "bench").ok());
  for (auto _ : state) {
    RETIA_CHECK(
        retia::ckpt::SaveQuantizedModelArtifact(*model, q_path, "bench")
            .ok());
  }
  const auto f32_bytes = std::filesystem::file_size(f32_path);
  const auto q_bytes = std::filesystem::file_size(q_path);
  state.counters["f32_bytes"] = static_cast<double>(f32_bytes);
  state.counters["quant_bytes"] = static_cast<double>(q_bytes);
  state.counters["snapshot_ratio"] =
      static_cast<double>(f32_bytes) / static_cast<double>(q_bytes);
  std::filesystem::remove(f32_path);
  std::filesystem::remove(q_path);
  LabelBackend(state);
}
BENCHMARK(BM_QuantizedSnapshotBytes);

// ---------------------------------------------------------------------------
// Thread sweep: the hot parallel kernels at 1/2/4/8 threads. Each arg swaps
// the process-wide default pool (par::ScopedDefaultPool), cross-checks the
// kernel result byte-for-byte against a 1-thread reference (the benchmark
// aborts on any mismatch — determinism is part of what is being measured),
// and reports a `speedup_vs_1t` counter from this run's own 1-thread row.
// On a single-core host the speedup hovers around 1.0; see README for
// multi-core expectations.

// Per-kernel 1-thread ns/iter, filled by the Arg(1) row. google-benchmark
// runs args in registration order within one process, so the 1-thread row
// always lands first.
std::map<std::string, double>& SerialBaselineNs() {
  static std::map<std::string, double> baselines;
  return baselines;
}

// Runs `kernel` under a `threads`-sized default pool: verifies
// bit-identity against 1 thread, then times it and records the speedup
// counter.
void RunThreadSweep(benchmark::State& state, const std::string& name,
                    const std::function<Tensor()>& kernel) {
  const int threads = static_cast<int>(state.range(0));
  retia::tensor::NoGradGuard guard;
  retia::tensor::FloatBuffer reference;
  {
    retia::par::ThreadPool pool(1);
    retia::par::ScopedDefaultPool scoped(&pool);
    reference = kernel().impl().data;
  }
  retia::par::ThreadPool pool(threads);
  retia::par::ScopedDefaultPool scoped(&pool);
  const retia::tensor::FloatBuffer check = kernel().impl().data;
  RETIA_CHECK_EQ(check.size(), reference.size());
  RETIA_CHECK_MSG(std::memcmp(check.data(), reference.data(),
                              check.size() * sizeof(float)) == 0,
                  "thread sweep result not bit-identical to 1-thread run");
  const auto start = std::chrono::steady_clock::now();
  int64_t iters = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel().Data());
    ++iters;
  }
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count()) /
      static_cast<double>(iters > 0 ? iters : 1);
  state.counters["threads"] = threads;
  state.counters["bit_identical"] = 1;
  LabelBackend(state);
  if (threads == 1) {
    SerialBaselineNs()[name] = ns;
  } else if (SerialBaselineNs().count(name) > 0) {
    state.counters["speedup_vs_1t"] = SerialBaselineNs()[name] / ns;
  }
}

void BM_GemmThreadSweep(benchmark::State& state) {
  Tensor a = RandomTensor({128, 128}, 21);
  Tensor b = RandomTensor({128, 128}, 22);
  RunThreadSweep(state, "gemm",
                 [&] { return retia::tensor::MatMul(a, b); });
}
BENCHMARK(BM_GemmThreadSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SoftmaxCrossEntropyThreadSweep(benchmark::State& state) {
  Tensor logits = RandomTensor({128, 3000}, 23);
  std::vector<int64_t> targets;
  for (int64_t i = 0; i < 128; ++i) targets.push_back((i * 17) % 3000);
  RunThreadSweep(state, "softmax_ce", [&] {
    return retia::tensor::CrossEntropyLogits(logits, targets);
  });
}
BENCHMARK(BM_SoftmaxCrossEntropyThreadSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// A scatter-add of 20,000 rows into 500 on AggregateRows; as with
// BM_GatherScatter, the pinned rows predate that.
void BM_ScatterAddThreadSweep(benchmark::State& state) {
  Tensor src = RandomTensor({20000, 32}, 24);
  retia::util::Rng rng(25);
  std::vector<int64_t> idx(20000);
  for (auto& i : idx) i = rng.UniformInt(0, 499);
  const auto plan = ScatterPlan(idx, 500);
  RunThreadSweep(state, "scatter_add", [&] {
    return retia::tensor::AggregateRows(src, plan);
  });
}
BENCHMARK(BM_ScatterAddThreadSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// A cold-cache Evolve across pool widths: one full eval-mode RETIA Evolve
// over an 8-step history against a FRESH GraphCache per call, so every
// iteration pays the per-timestep subgraph/hypergraph builds (fanned out
// on par::ParallelShards) and the program-order recurrent chain, whose
// kernels shard on the pool (DESIGN.md §12). The name is kept because
// BENCH_kernels.json and scripts/bench_kernels.sh key on it. This row
// (plus the scatter-add sweep above) is what the thread-sweep acceptance
// gate in scripts/bench_kernels.sh reads; the bit-identity cross-check
// doubles as the determinism contract.
void BM_InterOpTimestepSweep(benchmark::State& state) {
  static const retia::tkg::TkgDataset* ds = new retia::tkg::TkgDataset(
      retia::tkg::GenerateSynthetic(retia::tkg::SyntheticConfig::Icews14Like()));
  static retia::core::RetiaModel* model = [] {
    retia::core::RetiaConfig config;
    config.num_entities = ds->num_entities();
    config.num_relations = ds->num_relations();
    config.dim = 32;
    config.history_len = 8;
    auto* m = new retia::core::RetiaModel(config);
    m->SetTraining(false);
    return m;
  }();
  std::vector<int64_t> history;
  for (int64_t t = 0; t < 8; ++t) history.push_back(t);
  RunThreadSweep(state, "cold_cache_evolve", [&] {
    retia::graph::GraphCache cache(ds);
    return model->Evolve(cache, history).back().entities;
  });
}
BENCHMARK(BM_InterOpTimestepSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
