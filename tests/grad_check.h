#ifndef RETIA_TESTS_GRAD_CHECK_H_
#define RETIA_TESTS_GRAD_CHECK_H_

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace retia::testing {

// Compares the autograd gradient of `fn` (a scalar-valued function of the
// given inputs) against central finite differences. Each input must have
// requires_grad set. `fn` is re-invoked for every perturbation, so it must
// be deterministic (no dropout/RRelu in training mode).
inline void CheckGradients(
    const std::function<tensor::Tensor()>& fn,
    std::vector<tensor::Tensor> inputs, float eps = 1e-3f,
    float tolerance = 2e-2f) {
  for (tensor::Tensor& input : inputs) {
    input.MutableGrad();
    input.ZeroGrad();
  }
  tensor::Tensor out = fn();
  ASSERT_EQ(out.NumElements(), 1) << "CheckGradients needs a scalar output";
  out.Backward();

  for (size_t which = 0; which < inputs.size(); ++which) {
    tensor::Tensor& input = inputs[which];
    const tensor::FloatBuffer analytic = input.Grad();
    const int64_t n = input.NumElements();
    for (int64_t i = 0; i < n; ++i) {
      const float saved = input.Data()[i];
      input.Data()[i] = saved + eps;
      const float up = fn().Item();
      input.Data()[i] = saved - eps;
      const float down = fn().Item();
      input.Data()[i] = saved;
      const float numeric = (up - down) / (2.0f * eps);
      const float denom =
          std::max(1.0f, std::max(std::fabs(numeric), std::fabs(analytic[i])));
      EXPECT_NEAR(analytic[i] / denom, numeric / denom, tolerance)
          << "input " << which << " element " << i << " analytic "
          << analytic[i] << " numeric " << numeric;
    }
  }
}

// Deterministically filled tensor with values in roughly [-1, 1].
inline tensor::Tensor TestTensor(std::vector<int64_t> shape, uint64_t seed,
                                 bool requires_grad = true) {
  tensor::Tensor t = tensor::Tensor::Zeros(std::move(shape), requires_grad);
  uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    t.Data()[i] = static_cast<float>((state >> 33) % 2000) / 1000.0f - 1.0f;
  }
  return t;
}

// The tensor::AggregateRows plan of a scatter-add: row e of an
// [idx.size(), n] table goes into output row idx[e] of [rows, n], with
// weight weights[e] (1 when `weights` is empty).
inline std::shared_ptr<const tensor::RowAggregation> ScatterPlan(
    const std::vector<int64_t>& idx, int64_t rows,
    std::vector<float> weights = {}) {
  if (weights.empty()) weights.assign(idx.size(), 1.0f);
  std::vector<int64_t> src(idx.size());
  for (size_t e = 0; e < idx.size(); ++e) src[e] = static_cast<int64_t>(e);
  return tensor::MakeRowAggregation(rows, 1, static_cast<int64_t>(idx.size()),
                                    idx, src, weights);
}

}  // namespace retia::testing

#endif  // RETIA_TESTS_GRAD_CHECK_H_
