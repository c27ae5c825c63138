#include <cmath>
#include <memory>

#include "obs/obs.h"
#include "par/parallel_for.h"
#include "simd/simd.h"
#include "tensor/ops.h"

namespace retia::tensor {

// The batched softmax / cross-entropy kernels are row-parallel over
// par::DefaultPool(): every row is written by exactly one fixed shard, and
// the scalar loss is folded serially in row order from per-row terms — so
// outputs, losses, and gradients are bit-identical for every thread count.
// Per-row arithmetic goes through the simd kernel table; the scalar
// backend reproduces the historical serial loops bit-exactly, the SIMD
// backends use a polynomial exp and lane-tree sums within the documented
// tolerance (simd/simd.h).

Tensor Softmax(const Tensor& a) {
  RETIA_OBS_TIMED_SCOPE("tensor.softmax.us");
  RETIA_CHECK_EQ(a.Rank(), 2);
  const int64_t m = a.Dim(0);
  const int64_t n = a.Dim(1);
  FloatBuffer out(m * n);
  const float* pa = a.Data();
  par::ParallelFor(m, par::GrainRows(n), [&](int64_t row0, int64_t row1) {
    const simd::KernelTable& t = simd::Kernels();
    for (int64_t i = row0; i < row1; ++i) {
      const float* row = pa + i * n;
      float* orow = out.data() + i * n;
      const float mx = t.reduce_max(row, n);
      double denom = 0.0;
      t.exp_store_sum(row, mx, orow, &denom, n);
      const float inv = static_cast<float>(1.0 / denom);
      t.scale(orow, inv, orow, n);
    }
  });
  return MakeOpResult(
      a.Shape(), std::move(out), {a}, [a, m, n](TensorImpl& self) mutable {
        if (!a.RequiresGrad()) return;
        // dx = y * (dy - sum_j dy_j y_j) per row.
        a.impl().AccumulateGradFrom([&](float* g) {
          par::ParallelFor(
              m, par::GrainRows(n), [&](int64_t row0, int64_t row1) {
                const simd::KernelTable& t = simd::Kernels();
                for (int64_t i = row0; i < row1; ++i) {
                  const float* y = self.data.data() + i * n;
                  const float* dy = self.grad.data() + i * n;
                  const double dot = t.dot_f64(dy, y, n);
                  for (int64_t j = 0; j < n; ++j)
                    g[i * n + j] = y[j] * (dy[j] - static_cast<float>(dot));
                }
              });
        });
      });
}

Tensor LogSoftmax(const Tensor& a) {
  RETIA_OBS_TIMED_SCOPE("tensor.softmax.us");
  RETIA_CHECK_EQ(a.Rank(), 2);
  const int64_t m = a.Dim(0);
  const int64_t n = a.Dim(1);
  FloatBuffer out(m * n);
  const float* pa = a.Data();
  par::ParallelFor(m, par::GrainRows(n), [&](int64_t row0, int64_t row1) {
    const simd::KernelTable& t = simd::Kernels();
    for (int64_t i = row0; i < row1; ++i) {
      const float* row = pa + i * n;
      const float mx = t.reduce_max(row, n);
      const double denom = t.exp_sum(row, mx, n);
      const float lse = mx + static_cast<float>(std::log(denom));
      // row[j] + (-lse) == row[j] - lse exactly.
      t.add_scalar(row, -lse, out.data() + i * n, n);
    }
  });
  return MakeOpResult(
      a.Shape(), std::move(out), {a}, [a, m, n](TensorImpl& self) mutable {
        if (!a.RequiresGrad()) return;
        // dx = dy - softmax(x) * sum_j dy_j per row; softmax = exp(out).
        a.impl().AccumulateGradFrom([&](float* g) {
          par::ParallelFor(
              m, par::GrainRows(n), [&](int64_t row0, int64_t row1) {
                for (int64_t i = row0; i < row1; ++i) {
                  const float* y = self.data.data() + i * n;
                  const float* dy = self.grad.data() + i * n;
                  double total = 0.0;
                  for (int64_t j = 0; j < n; ++j) total += dy[j];
                  for (int64_t j = 0; j < n; ++j)
                    g[i * n + j] =
                        dy[j] - std::exp(y[j]) * static_cast<float>(total);
                }
              });
        });
      });
}

Tensor NllFromProbs(const Tensor& p, const std::vector<int64_t>& targets) {
  RETIA_CHECK_EQ(p.Rank(), 2);
  RETIA_CHECK_EQ(p.Dim(0), static_cast<int64_t>(targets.size()));
  const int64_t m = p.Dim(0);
  const int64_t n = p.Dim(1);
  constexpr float kEps = 1e-10f;
  const float* pp = p.Data();
  double loss = 0.0;
  for (int64_t i = 0; i < m; ++i) {
    RETIA_CHECK_LT(targets[i], n);
    loss -= std::log(pp[i * n + targets[i]] + kEps);
  }
  loss /= static_cast<double>(m);
  auto tgt = std::make_shared<std::vector<int64_t>>(targets);
  return MakeOpResult(
      {1}, {static_cast<float>(loss)}, {p},
      [p, tgt, m, n](TensorImpl& self) mutable {
        if (!p.RequiresGrad()) return;
        const float* pp = p.Data();
        const float scale = self.grad[0] / static_cast<float>(m);
        // Only the target entries are nonzero; adding +0 elsewhere would
        // change no bit.
        p.impl().AddIntoGrad([&](float* g, bool add) {
          if (!add) std::fill_n(g, m * n, 0.0f);
          for (int64_t i = 0; i < m; ++i) {
            const int64_t t = (*tgt)[i];
            g[i * n + t] += -scale / (pp[i * n + t] + kEps);
          }
        });
      });
}

Tensor CrossEntropyLogits(const Tensor& logits,
                          const std::vector<int64_t>& targets) {
  RETIA_OBS_TIMED_SCOPE("tensor.softmax_ce.us");
  RETIA_CHECK_EQ(logits.Rank(), 2);
  RETIA_CHECK_EQ(logits.Dim(0), static_cast<int64_t>(targets.size()));
  const int64_t m = logits.Dim(0);
  const int64_t n = logits.Dim(1);
  const float* pl = logits.Data();
  // Cache softmax for the backward pass. Per-row losses land in a buffer
  // and are summed serially in row order below, so the total matches the
  // serial accumulation bit-for-bit.
  auto probs = std::make_shared<FloatBuffer>(m * n);
  std::vector<double> row_loss(m);
  par::ParallelFor(m, par::GrainRows(n), [&](int64_t row0, int64_t row1) {
    const simd::KernelTable& t = simd::Kernels();
    for (int64_t i = row0; i < row1; ++i) {
      const float* row = pl + i * n;
      const float mx = t.reduce_max(row, n);
      const double denom = t.exp_sum(row, mx, n);
      const double lse = mx + std::log(denom);
      RETIA_CHECK_LT(targets[i], n);
      row_loss[i] = lse - row[targets[i]];
      t.exp_shift_store(row, lse, probs->data() + i * n, n);
    }
  });
  double loss = 0.0;
  for (int64_t i = 0; i < m; ++i) loss += row_loss[i];
  loss /= static_cast<double>(m);
  auto tgt = std::make_shared<std::vector<int64_t>>(targets);
  return MakeOpResult(
      {1}, {static_cast<float>(loss)}, {logits},
      [logits, tgt, probs, m, n](TensorImpl& self) mutable {
        if (!logits.RequiresGrad()) return;
        RETIA_OBS_TIMED_SCOPE("tensor.softmax_ce_bwd.us");
        const float scale = self.grad[0] / static_cast<float>(m);
        logits.impl().AccumulateGradFrom([&](float* g) {
          par::ParallelFor(
              m, par::GrainRows(n), [&](int64_t row0, int64_t row1) {
                const simd::KernelTable& t = simd::Kernels();
                for (int64_t i = row0; i < row1; ++i) {
                  t.scale(probs->data() + i * n, scale, g + i * n, n);
                  g[i * n + (*tgt)[i]] -= scale;
                }
              });
        });
      });
}

}  // namespace retia::tensor
