// Scalar reference backend. These are the pre-SIMD serial kernels, kept
// bit-exact: RETIA_SIMD=scalar must reproduce the historical results of
// the plain loops in src/tensor and src/nn for finite inputs, so every
// loop below preserves the original per-element operation order and
// float/double mixing (float products accumulated into double, float
// accumulators for the NT dot, std::exp on float vs double arguments).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "simd/tables.h"

namespace retia::simd {
namespace {

#include "simd/kernels_quant-inl.h"

void AddK(const float* a, const float* b, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] + b[i];
}

void SubK(const float* a, const float* b, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] - b[i];
}

void MulK(const float* a, const float* b, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] * b[i];
}

void ScaleK(const float* a, float s, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] * s;
}

void AddScalarK(const float* a, float c, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] + c;
}

void AxpyK(float alpha, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void AccumulateK(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += x[i];
}

void ReluK(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void RReluEvalK(const float* x, float slope, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] >= 0.0f ? x[i] : x[i] * slope;
}

void ReluBackwardK(const float* y, const float* dy, float* dx, int64_t n,
                   bool add) {
  for (int64_t i = 0; i < n; ++i) {
    const float base = add ? dx[i] : 0.0f;
    dx[i] = base + dy[i] * (y[i] > 0.0f ? 1.0f : 0.0f);
  }
}

void SigmoidBackwardK(const float* y, const float* dy, float* dx, int64_t n,
                      bool add) {
  for (int64_t i = 0; i < n; ++i) {
    const float base = add ? dx[i] : 0.0f;
    dx[i] = base + dy[i] * (y[i] * (1.0f - y[i]));
  }
}

void TanhBackwardK(const float* y, const float* dy, float* dx, int64_t n,
                   bool add) {
  for (int64_t i = 0; i < n; ++i) {
    const float base = add ? dx[i] : 0.0f;
    dx[i] = base + dy[i] * (1.0f - y[i] * y[i]);
  }
}

void MulAddK(const float* a, const float* b, float* y, int64_t n, bool add) {
  for (int64_t i = 0; i < n; ++i) {
    const float base = add ? y[i] : 0.0f;
    y[i] = base + a[i] * b[i];
  }
}

void ScaleAddK(const float* x, float s, float* y, int64_t n, bool add) {
  for (int64_t i = 0; i < n; ++i) {
    const float base = add ? y[i] : 0.0f;
    y[i] = base + x[i] * s;
  }
}

float ReduceMaxK(const float* x, int64_t n) {
  float mx = x[0];
  for (int64_t i = 1; i < n; ++i) mx = std::max(mx, x[i]);
  return mx;
}

double DotF64K(const float* a, const float* b, int64_t n) {
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double SumSquaresF64K(const float* x, int64_t n) {
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) acc += static_cast<double>(x[i]) * x[i];
  return acc;
}

void ExpStoreSumK(const float* x, float shift, float* y, double* sum,
                  int64_t n) {
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    y[i] = std::exp(x[i] - shift);
    acc += y[i];
  }
  *sum = acc;
}

double ExpSumK(const float* x, float shift, int64_t n) {
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) acc += std::exp(x[i] - shift);
  return acc;
}

void ExpShiftStoreK(const float* x, double shift, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i)
    y[i] = static_cast<float>(std::exp(x[i] - shift));
}

// Dense ikj GEMM (the historical kernel minus its `av == 0` skip; adding
// exact-zero products cannot change a finite accumulation, so this stays
// bit-exact — the skip lives on in GemmNNSparseK).
void GemmNNK(const float* a, const float* b, const float* /*bp_unused*/,
             float* out, int64_t i0, int64_t i1, int64_t k, int64_t n) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * n;
    for (int64_t j = 0; j < n; ++j) orow[j] = 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + p * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

// The historical zero-skipping kernel, for one-hot-like A: zeroes each
// output row, then accumulates into it.
void GemmNNSparseK(const float* a, const float* b, float* out, int64_t i0,
                   int64_t i1, int64_t k, int64_t n) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * n;
    std::fill_n(orow, n, 0.0f);
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void GemmNTK(const float* a, const float* b, float* out, int64_t i0,
             int64_t i1, int64_t k, int64_t n) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      orow[j] = acc;
    }
  }
}

// `i` stays the outer loop so every out[p,j] accumulates its m
// contributions in the serial order (see ops_matmul.cc history).
void GemmTNK(const float* a, const float* g, float* out, int64_t m, int64_t p0,
             int64_t p1, int64_t k, int64_t n) {
  for (int64_t p = p0; p < p1; ++p) {
    float* orow = out + p * n;
    for (int64_t j = 0; j < n; ++j) orow[j] = 0.0f;
  }
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const float* grow = g + i * n;
    for (int64_t p = p0; p < p1; ++p) {
      const float av = arow[p];
      float* orow = out + p * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * grow[j];
    }
  }
}

void AdamK(float* w, const float* g, float* m, float* v, int64_t n, float lr,
           float beta1, float beta2, float eps, float weight_decay, float bc1,
           float bc2) {
  for (int64_t j = 0; j < n; ++j) {
    float gj = g[j];
    if (weight_decay != 0.0f) gj += weight_decay * w[j];
    m[j] = beta1 * m[j] + (1.0f - beta1) * gj;
    v[j] = beta2 * v[j] + (1.0f - beta2) * gj * gj;
    const float mhat = m[j] / bc1;
    const float vhat = v[j] / bc2;
    w[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

// The historical Conv1d loops of tensor::Conv1d, one shard body each.
// Each zeroes its output range (or sets it to the bias) before it
// accumulates into it.
void Conv1dForwardK(const float* x, const float* w, const float* bias,
                    float* out, int64_t map0, int64_t map1, int64_t cin,
                    int64_t length, int64_t cout, int64_t ksize, int64_t pad) {
  const int64_t lout = length + 2 * pad - ksize + 1;
  for (int64_t map = map0; map < map1; ++map) {
    const int64_t b = map / cout;
    const int64_t co = map % cout;
    float* orow = out + map * lout;
    std::fill_n(orow, lout, bias != nullptr ? bias[co] : 0.0f);
    for (int64_t ci = 0; ci < cin; ++ci) {
      const float* xrow = x + (b * cin + ci) * length;
      const float* wrow = w + (co * cin + ci) * ksize;
      for (int64_t l = 0; l < lout; ++l) {
        float acc = 0.0f;
        for (int64_t kk = 0; kk < ksize; ++kk) {
          const int64_t src = l + kk - pad;
          if (src >= 0 && src < length) acc += wrow[kk] * xrow[src];
        }
        orow[l] += acc;
      }
    }
  }
}

void Conv1dInputGradK(const float* g, const float* w, float* gx, int64_t b0,
                      int64_t b1, int64_t cin, int64_t length, int64_t cout,
                      int64_t ksize, int64_t pad) {
  const int64_t lout = length + 2 * pad - ksize + 1;
  std::fill(gx + b0 * cin * length, gx + b1 * cin * length, 0.0f);
  for (int64_t b = b0; b < b1; ++b)
    for (int64_t co = 0; co < cout; ++co) {
      const float* grow = g + (b * cout + co) * lout;
      for (int64_t ci = 0; ci < cin; ++ci) {
        float* xrow = gx + (b * cin + ci) * length;
        const float* wrow = w + (co * cin + ci) * ksize;
        for (int64_t l = 0; l < lout; ++l)
          for (int64_t kk = 0; kk < ksize; ++kk) {
            const int64_t src = l + kk - pad;
            if (src >= 0 && src < length) xrow[src] += grow[l] * wrow[kk];
          }
      }
    }
}

void Conv1dWeightGradK(const float* g, const float* x, float* gw, float* gbias,
                       int64_t ci0, int64_t ci1, int64_t batch, int64_t cin,
                       int64_t length, int64_t cout, int64_t ksize,
                       int64_t pad) {
  const int64_t lout = length + 2 * pad - ksize + 1;
  for (int64_t co = 0; co < cout; ++co)
    std::fill(gw + (co * cin + ci0) * ksize, gw + (co * cin + ci1) * ksize,
              0.0f);
  for (int64_t b = 0; b < batch; ++b)
    for (int64_t co = 0; co < cout; ++co)
      for (int64_t ci = ci0; ci < ci1; ++ci) {
        const float* grow = g + (b * cout + co) * lout;
        const float* xrow = x + (b * cin + ci) * length;
        float* wrow = gw + (co * cin + ci) * ksize;
        for (int64_t l = 0; l < lout; ++l)
          for (int64_t kk = 0; kk < ksize; ++kk) {
            const int64_t src = l + kk - pad;
            if (src >= 0 && src < length) wrow[kk] += grow[l] * xrow[src];
          }
      }
  if (gbias == nullptr) return;
  std::fill(gbias, gbias + cout, 0.0f);
  for (int64_t b = 0; b < batch; ++b)
    for (int64_t co = 0; co < cout; ++co) {
      const float* grow = g + (b * cout + co) * lout;
      for (int64_t l = 0; l < lout; ++l) gbias[co] += grow[l];
    }
}

// Partial top-k selection: sorted insertion buffer plus a strict
// score-threshold filter. Scanning in increasing index order means an
// element that only TIES the current k-th best can never belong in the
// result (its index is larger, so it loses the tie-break), so admitting
// only scores strictly above the worst kept score is exact. The output is
// the unique "higher score wins, ties to the lower index" total order —
// identical to std::partial_sort with that comparator, and therefore
// bit-identical on every backend.
int64_t TopKSelectF32K(const float* scores, int64_t n, int64_t k,
                       int64_t* idx) {
  const int64_t take = std::min(k, n);
  if (take <= 0) return 0;
  int64_t filled = 0;
  for (int64_t i = 0; i < n; ++i) {
    const float s = scores[i];
    if (filled == take) {
      if (!(s > scores[idx[take - 1]])) continue;
      --filled;
    }
    int64_t j = filled;
    for (; j > 0 && s > scores[idx[j - 1]]; --j) idx[j] = idx[j - 1];
    idx[j] = i;
    ++filled;
  }
  return filled;
}

const KernelTable kScalarTable = {
    /*name=*/"scalar",
    /*vector_width=*/1,
    /*gemm_strip=*/1,
    /*needs_packed_b=*/false,
    AddK,
    SubK,
    MulK,
    ScaleK,
    AddScalarK,
    AxpyK,
    AccumulateK,
    ReluK,
    RReluEvalK,
    ReluBackwardK,
    SigmoidBackwardK,
    TanhBackwardK,
    MulAddK,
    ScaleAddK,
    ReduceMaxK,
    DotF64K,
    SumSquaresF64K,
    ExpStoreSumK,
    ExpSumK,
    ExpShiftStoreK,
    GemmNNK,
    GemmNNSparseK,
    GemmNTK,
    GemmTNK,
    AdamK,
    Conv1dForwardK,
    Conv1dInputGradK,
    Conv1dWeightGradK,
    QuantizeRowsI8K,
    GemmNTI8K,
    F32ToF16K,
    F16ToF32K,
    TopKSelectF32K,
};

}  // namespace

const KernelTable* GetScalarTable() { return &kScalarTable; }

}  // namespace retia::simd
