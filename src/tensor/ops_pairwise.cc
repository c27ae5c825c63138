#include <cmath>

#include "tensor/ops.h"

namespace retia::tensor {

Tensor PairwiseNegL1(const Tensor& a, const Tensor& b) {
  RETIA_CHECK_EQ(a.Rank(), 2);
  RETIA_CHECK_EQ(b.Rank(), 2);
  RETIA_CHECK_EQ(a.Dim(1), b.Dim(1));
  const int64_t m = a.Dim(0);
  const int64_t n = b.Dim(0);
  const int64_t d = a.Dim(1);
  FloatBuffer out(m * n);
  const float* pa = a.Data();
  const float* pb = b.Data();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * d;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = pb + j * d;
      float acc = 0.0f;
      for (int64_t k = 0; k < d; ++k) acc += std::fabs(arow[k] - brow[k]);
      out[i * n + j] = -acc;
    }
  }
  return MakeOpResult(
      {m, n}, std::move(out), {a, b}, [a, b, m, n, d](TensorImpl& self) mutable {
        const float* pa = a.Data();
        const float* pb = b.Data();
        const float* g = self.grad.data();
        FloatBuffer ga, gb;
        if (a.RequiresGrad()) ga.assign(m * d, 0.0f);
        if (b.RequiresGrad()) gb.assign(n * d, 0.0f);
        for (int64_t i = 0; i < m; ++i) {
          const float* arow = pa + i * d;
          for (int64_t j = 0; j < n; ++j) {
            const float gv = g[i * n + j];
            if (gv == 0.0f) continue;
            const float* brow = pb + j * d;
            for (int64_t k = 0; k < d; ++k) {
              // d(-|x|)/dx = -sign(x); sign(0) treated as 0.
              const float diff = arow[k] - brow[k];
              const float s = diff > 0.0f ? 1.0f : (diff < 0.0f ? -1.0f : 0.0f);
              if (!ga.empty()) ga[i * d + k] -= gv * s;
              if (!gb.empty()) gb[j * d + k] += gv * s;
            }
          }
        }
        if (!ga.empty()) a.impl().AccumulateGrad(ga.data(), m * d);
        if (!gb.empty()) b.impl().AccumulateGrad(gb.data(), n * d);
      });
}

Tensor PairwiseComplexNegDist(const Tensor& qre, const Tensor& qim,
                              const Tensor& ore, const Tensor& oim,
                              float gamma) {
  RETIA_CHECK_EQ(qre.Rank(), 2);
  RETIA_CHECK(qre.Shape() == qim.Shape());
  RETIA_CHECK(ore.Shape() == oim.Shape());
  RETIA_CHECK_EQ(qre.Dim(1), ore.Dim(1));
  const int64_t m = qre.Dim(0);
  const int64_t n = ore.Dim(0);
  const int64_t d = qre.Dim(1);
  constexpr float kEps = 1e-9f;
  FloatBuffer out(m * n);
  const float* pqr = qre.Data();
  const float* pqi = qim.Data();
  const float* por = ore.Data();
  const float* poi = oim.Data();
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t k = 0; k < d; ++k) {
        const float dre = pqr[i * d + k] - por[j * d + k];
        const float dim = pqi[i * d + k] - poi[j * d + k];
        acc += std::sqrt(dre * dre + dim * dim + kEps);
      }
      out[i * n + j] = gamma - acc;
    }
  return MakeOpResult(
      {m, n}, std::move(out), {qre, qim, ore, oim},
      [qre, qim, ore, oim, m, n, d](TensorImpl& self) mutable {
        const float* pqr = qre.Data();
        const float* pqi = qim.Data();
        const float* por = ore.Data();
        const float* poi = oim.Data();
        const float* g = self.grad.data();
        constexpr float kEps = 1e-9f;
        FloatBuffer gqr, gqi, gor, goi;
        if (qre.RequiresGrad()) gqr.assign(m * d, 0.0f);
        if (qim.RequiresGrad()) gqi.assign(m * d, 0.0f);
        if (ore.RequiresGrad()) gor.assign(n * d, 0.0f);
        if (oim.RequiresGrad()) goi.assign(n * d, 0.0f);
        for (int64_t i = 0; i < m; ++i)
          for (int64_t j = 0; j < n; ++j) {
            const float gv = g[i * n + j];
            if (gv == 0.0f) continue;
            for (int64_t k = 0; k < d; ++k) {
              const float dre = pqr[i * d + k] - por[j * d + k];
              const float dim = pqi[i * d + k] - poi[j * d + k];
              const float dist = std::sqrt(dre * dre + dim * dim + kEps);
              // out = gamma - sum dist => d out / d dre = -dre/dist.
              const float cre = -gv * dre / dist;
              const float cim = -gv * dim / dist;
              if (!gqr.empty()) gqr[i * d + k] += cre;
              if (!gqi.empty()) gqi[i * d + k] += cim;
              if (!gor.empty()) gor[j * d + k] -= cre;
              if (!goi.empty()) goi[j * d + k] -= cim;
            }
          }
        if (!gqr.empty()) qre.impl().AccumulateGrad(gqr.data(), m * d);
        if (!gqi.empty()) qim.impl().AccumulateGrad(gqi.data(), m * d);
        if (!gor.empty()) ore.impl().AccumulateGrad(gor.data(), n * d);
        if (!goi.empty()) oim.impl().AccumulateGrad(goi.data(), n * d);
      });
}

}  // namespace retia::tensor

namespace retia::tensor {

Tensor CosineHingeLoss(const Tensor& a, const Tensor& b, float min_cos) {
  RETIA_CHECK_EQ(a.Rank(), 2);
  RETIA_CHECK(a.Shape() == b.Shape());
  const int64_t m = a.Dim(0);
  const int64_t d = a.Dim(1);
  constexpr float kEps = 1e-8f;
  const float* pa = a.Data();
  const float* pb = b.Data();
  // Cache per-row cosine terms for the backward pass.
  auto dots = std::make_shared<FloatBuffer>(m);
  auto na = std::make_shared<FloatBuffer>(m);
  auto nb = std::make_shared<FloatBuffer>(m);
  double loss = 0.0;
  for (int64_t i = 0; i < m; ++i) {
    double dot = 0.0, aa = 0.0, bb = 0.0;
    for (int64_t k = 0; k < d; ++k) {
      dot += static_cast<double>(pa[i * d + k]) * pb[i * d + k];
      aa += static_cast<double>(pa[i * d + k]) * pa[i * d + k];
      bb += static_cast<double>(pb[i * d + k]) * pb[i * d + k];
    }
    (*dots)[i] = static_cast<float>(dot);
    (*na)[i] = static_cast<float>(std::sqrt(aa)) + kEps;
    (*nb)[i] = static_cast<float>(std::sqrt(bb)) + kEps;
    const float cos = (*dots)[i] / ((*na)[i] * (*nb)[i]);
    loss += std::max(0.0f, min_cos - cos);
  }
  loss /= static_cast<double>(m);
  return MakeOpResult(
      {1}, {static_cast<float>(loss)}, {a, b},
      [a, b, dots, na, nb, min_cos, m, d](TensorImpl& self) mutable {
        const float scale = self.grad[0] / static_cast<float>(m);
        const float* pa = a.Data();
        const float* pb = b.Data();
        FloatBuffer ga, gb;
        if (a.RequiresGrad()) ga.assign(m * d, 0.0f);
        if (b.RequiresGrad()) gb.assign(m * d, 0.0f);
        for (int64_t i = 0; i < m; ++i) {
          const float denom = (*na)[i] * (*nb)[i];
          const float cos = (*dots)[i] / denom;
          if (min_cos - cos <= 0.0f) continue;  // hinge inactive
          // d(-cos)/da_k = -(b_k/denom - a_k * cos / na^2)
          for (int64_t k = 0; k < d; ++k) {
            if (!ga.empty()) {
              ga[i * d + k] += scale * -(pb[i * d + k] / denom -
                                         pa[i * d + k] * cos /
                                             ((*na)[i] * (*na)[i]));
            }
            if (!gb.empty()) {
              gb[i * d + k] += scale * -(pa[i * d + k] / denom -
                                         pb[i * d + k] * cos /
                                             ((*nb)[i] * (*nb)[i]));
            }
          }
        }
        if (!ga.empty()) a.impl().AccumulateGrad(ga.data(), m * d);
        if (!gb.empty()) b.impl().AccumulateGrad(gb.data(), m * d);
      });
}

}  // namespace retia::tensor
