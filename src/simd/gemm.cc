// Whole-matrix GEMM drivers: fixed row sharding over par::DefaultPool()
// (tile-aligned so shard boundaries stay off the micro-kernels' 1-row
// remainder path), B panel packing for backends that want it, and a
// density probe that routes one-hot-like A matrices to the zero-skipping
// sparse kernel (RETIA's relation/entity one-hot selector matmuls).

#include <algorithm>
#include <cstring>
#include <memory>

#include "par/parallel_for.h"
#include "simd/simd.h"

namespace retia::simd {
namespace {

// Row-block height of the register-blocked micro-kernels.
constexpr int64_t kRowTile = 4;

// The sparse probe is only worth its O(mk) scan when the dense kernel
// would do substantially more work than the scan itself.
constexpr int64_t kSparseProbeMinCols = 16;
constexpr int64_t kSparseProbeMinDepth = 16;

// One-hot-like: at most 1 nonzero per 8 elements. The zero-skip saves
// roughly the density factor in flops, so 1/8 leaves a wide margin over
// the dense kernel's better instruction-level parallelism (the
// BM_MatMulOneHot / BM_MatMul pair in bench_micro_kernels tracks this).
bool IsOneHotLike(const float* a, int64_t m, int64_t k, int64_t n) {
  if (n < kSparseProbeMinCols || k < kSparseProbeMinDepth) return false;
  const int64_t total = m * k;
  const int64_t budget = total / 8;
  int64_t nonzero = 0;
  for (int64_t i = 0; i < total; ++i) {
    if (a[i] != 0.0f && ++nonzero > budget) return false;
  }
  return true;
}

// Packs the n/S full column strips of B[k,n] into contiguous panels:
// strip s stores B[p][s*S + c] at bp[(s*k + p)*S + c], so the NN and TN
// inner loops read two consecutive vectors per k step instead of striding
// by n. Column remainders (n % S) are read from B directly by the scalar
// tail loops and are not packed. The panels are allocated unset: every
// element is copied in.
std::unique_ptr<float[]> PackB(const float* b, int64_t k, int64_t n,
                               int64_t strip) {
  const int64_t nstrips = n / strip;
  auto packed = std::make_unique_for_overwrite<float[]>(
      static_cast<size_t>(nstrips * k * strip));
  float* dst = packed.get();
  for (int64_t s = 0; s < nstrips; ++s) {
    const float* src = b + s * strip;
    for (int64_t p = 0; p < k; ++p) {
      std::memcpy(dst, src + p * n, static_cast<size_t>(strip) * sizeof(float));
      dst += strip;
    }
  }
  return packed;
}

}  // namespace

void GemmNN(const float* a, const float* b, float* out, int64_t m, int64_t k,
            int64_t n) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    std::fill_n(out, m * n, 0.0f);
    return;
  }
  const KernelTable& t = Kernels();
  if (IsOneHotLike(a, m, k, n)) {
    par::ParallelForTiled(
        m, kRowTile, par::GrainRows(k * n / 8),
        [&](int64_t i0, int64_t i1) { t.gemm_nn_sparse(a, b, out, i0, i1, k, n); });
    return;
  }
  std::unique_ptr<float[]> packed;
  const float* bp = b;
  if (t.needs_packed_b && n >= t.gemm_strip) {
    packed = PackB(b, k, n, t.gemm_strip);
    bp = packed.get();
  }
  par::ParallelForTiled(
      m, kRowTile, par::GrainRows(k * n),
      [&](int64_t i0, int64_t i1) { t.gemm_nn(a, b, bp, out, i0, i1, k, n); });
}

void GemmNT(const float* a, const float* b, float* out, int64_t m, int64_t k,
            int64_t n) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    std::fill_n(out, m * n, 0.0f);
    return;
  }
  const KernelTable& t = Kernels();
  par::ParallelForTiled(
      m, kRowTile, par::GrainRows(k * n),
      [&](int64_t i0, int64_t i1) { t.gemm_nt(a, b, out, i0, i1, k, n); });
}

void GemmTN(const float* a, const float* g, float* out, int64_t m, int64_t k,
            int64_t n) {
  if (k <= 0 || n <= 0) return;
  if (m <= 0) {
    std::fill_n(out, k * n, 0.0f);
    return;
  }
  const KernelTable& t = Kernels();
  par::ParallelForTiled(
      k, kRowTile, par::GrainRows(m * n),
      [&](int64_t p0, int64_t p1) { t.gemm_tn(a, g, out, m, p0, p1, k, n); });
}

void GemmNTQuant(const int8_t* a, const float* sa, const int8_t* b,
                 const float* sb, float* out, int64_t m, int64_t k,
                 int64_t n) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  const KernelTable& t = Kernels();
  // Grain uses k*n/4: int8 NT does ~4x less memory traffic per output
  // element than the f32 kernel the GrainRows heuristic was tuned on.
  par::ParallelForTiled(
      m, kRowTile, par::GrainRows(k * n / 4),
      [&](int64_t i0, int64_t i1) {
        t.gemm_nt_i8(a, sa, b, sb, out, i0, i1, k, n);
      });
}

}  // namespace retia::simd
