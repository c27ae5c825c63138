#include <cmath>
#include <memory>

#include "tensor/ops.h"

namespace retia::tensor {

Tensor LayerNormRows(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                     float eps) {
  RETIA_CHECK_EQ(a.Rank(), 2);
  RETIA_CHECK_EQ(gamma.Rank(), 1);
  RETIA_CHECK_EQ(beta.Rank(), 1);
  const int64_t m = a.Dim(0);
  const int64_t n = a.Dim(1);
  RETIA_CHECK_EQ(gamma.Dim(0), n);
  RETIA_CHECK_EQ(beta.Dim(0), n);
  const float* pa = a.Data();
  const float* pg = gamma.Data();
  const float* pb = beta.Data();
  FloatBuffer out(m * n);
  // Cache the normalised activations and inverse stddevs for backward.
  auto xhat = std::make_shared<FloatBuffer>(m * n);
  auto inv_std = std::make_shared<FloatBuffer>(m);
  for (int64_t i = 0; i < m; ++i) {
    double mean = 0.0;
    for (int64_t j = 0; j < n; ++j) mean += pa[i * n + j];
    mean /= n;
    double var = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      const double d = pa[i * n + j] - mean;
      var += d * d;
    }
    var /= n;
    const float is = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    (*inv_std)[i] = is;
    for (int64_t j = 0; j < n; ++j) {
      const float xh = (pa[i * n + j] - static_cast<float>(mean)) * is;
      (*xhat)[i * n + j] = xh;
      out[i * n + j] = pg[j] * xh + pb[j];
    }
  }
  return MakeOpResult(
      a.Shape(), std::move(out), {a, gamma, beta},
      [a, gamma, beta, xhat, inv_std, m, n](TensorImpl& self) mutable {
        const float* g = self.grad.data();
        const float* pg = gamma.Data();
        if (gamma.RequiresGrad()) {
          FloatBuffer gg(n, 0.0f);
          for (int64_t i = 0; i < m; ++i)
            for (int64_t j = 0; j < n; ++j)
              gg[j] += g[i * n + j] * (*xhat)[i * n + j];
          gamma.impl().AccumulateGrad(gg.data(), n);
        }
        if (beta.RequiresGrad()) {
          FloatBuffer gb(n, 0.0f);
          for (int64_t i = 0; i < m; ++i)
            for (int64_t j = 0; j < n; ++j) gb[j] += g[i * n + j];
          beta.impl().AccumulateGrad(gb.data(), n);
        }
        if (a.RequiresGrad()) {
          // dx = (1/N) * inv_std * (N*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat))
          // with dxhat = dy * gamma, per row.
          FloatBuffer ga(m * n);
          for (int64_t i = 0; i < m; ++i) {
            double sum_dxhat = 0.0;
            double sum_dxhat_xhat = 0.0;
            for (int64_t j = 0; j < n; ++j) {
              const double dxhat = static_cast<double>(g[i * n + j]) * pg[j];
              sum_dxhat += dxhat;
              sum_dxhat_xhat += dxhat * (*xhat)[i * n + j];
            }
            for (int64_t j = 0; j < n; ++j) {
              const double dxhat = static_cast<double>(g[i * n + j]) * pg[j];
              ga[i * n + j] = static_cast<float>(
                  (*inv_std)[i] / n *
                  (n * dxhat - sum_dxhat -
                   (*xhat)[i * n + j] * sum_dxhat_xhat));
            }
          }
          a.impl().AccumulateGrad(ga.data(), m * n);
        }
      });
}

}  // namespace retia::tensor
