#include "nn/init.h"

#include <cmath>

namespace retia::nn {

namespace {

void FanInOut(const std::vector<int64_t>& shape, int64_t* fan_in,
              int64_t* fan_out) {
  RETIA_CHECK(!shape.empty());
  if (shape.size() == 1) {
    *fan_in = *fan_out = shape[0];
    return;
  }
  // Trailing dims beyond the first two are receptive-field multipliers
  // (convolution kernels).
  int64_t receptive = 1;
  for (size_t i = 2; i < shape.size(); ++i) receptive *= shape[i];
  *fan_out = shape[0] * receptive;
  *fan_in = shape[1] * receptive;
}

}  // namespace

tensor::Tensor XavierUniform(std::vector<int64_t> shape, util::Rng* rng) {
  int64_t fan_in = 0;
  int64_t fan_out = 0;
  FanInOut(shape, &fan_in, &fan_out);
  const float a =
      std::sqrt(6.0f / static_cast<float>(std::max<int64_t>(fan_in + fan_out, 1)));
  return UniformInit(std::move(shape), -a, a, rng);
}

tensor::Tensor NormalInit(std::vector<int64_t> shape, float stddev,
                          util::Rng* rng) {
  tensor::Tensor t = tensor::Tensor::Zeros(std::move(shape));
  float* p = t.Data();
  const int64_t n = t.NumElements();
  for (int64_t i = 0; i < n; ++i) p[i] = rng->Normal(stddev);
  return t;
}

tensor::Tensor UniformInit(std::vector<int64_t> shape, float lo, float hi,
                           util::Rng* rng) {
  tensor::Tensor t = tensor::Tensor::Zeros(std::move(shape));
  if (rng == nullptr) return t;
  float* p = t.Data();
  const int64_t n = t.NumElements();
  for (int64_t i = 0; i < n; ++i) p[i] = rng->Uniform(lo, hi);
  return t;
}

}  // namespace retia::nn
