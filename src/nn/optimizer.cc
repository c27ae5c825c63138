#include "nn/optimizer.h"

#include <cmath>
#include <utility>

#include "par/parallel_for.h"
#include "simd/simd.h"
#include "util/check.h"

namespace retia::nn {

namespace {
// Elements per Adam/clip shard; shard boundaries derive from the tensor
// size only (never from the thread count), so updates are bit-identical
// for every pool size — see par/parallel_for.h.
constexpr int64_t kElementGrain = 1 << 14;
}  // namespace

Adam::Adam(std::vector<tensor::Tensor> params, Options options)
    : params_(std::move(params)), options_(options) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    const size_t n = params_[i].impl().data.size();
    m_[i].assign(n, 0.0f);
    v_[i].assign(n, 0.0f);
  }
}

void Adam::Step() {
  ++step_count_;
  const float bc1 =
      1.0f - std::pow(options_.beta1, static_cast<float>(step_count_));
  const float bc2 =
      1.0f - std::pow(options_.beta2, static_cast<float>(step_count_));
  for (size_t i = 0; i < params_.size(); ++i) {
    tensor::TensorImpl& impl = params_[i].impl();
    if (impl.grad.empty()) continue;
    const int64_t n = static_cast<int64_t>(impl.data.size());
    float* data = impl.data.data();
    const float* grad = impl.grad.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    // Element-parallel: every element's update is independent, so sharding
    // cannot change the result. The scalar backend's adam_update kernel is
    // the historical serial arithmetic verbatim.
    par::ParallelFor(n, kElementGrain, [&](int64_t j0, int64_t j1) {
      simd::Kernels().adam_update(data + j0, grad + j0, m + j0, v + j0,
                                  j1 - j0, options_.lr, options_.beta1,
                                  options_.beta2, options_.eps,
                                  options_.weight_decay, bc1, bc2);
    });
  }
}

void Adam::RestoreState(int64_t step_count, std::vector<std::vector<float>> m,
                        std::vector<std::vector<float>> v) {
  RETIA_CHECK(step_count >= 0);
  RETIA_CHECK_EQ(m.size(), params_.size());
  RETIA_CHECK_EQ(v.size(), params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    RETIA_CHECK_EQ(m[i].size(), params_[i].impl().data.size());
    RETIA_CHECK_EQ(v[i].size(), params_[i].impl().data.size());
  }
  step_count_ = step_count;
  m_ = std::move(m);
  v_ = std::move(v);
}

void Adam::ZeroGrad() {
  for (tensor::Tensor& p : params_) {
    if (p.HasGrad()) p.ZeroGrad();
  }
}

float ClipGradNorm(std::vector<tensor::Tensor>& params, float max_norm) {
  // Squared norm via DeterministicReduce: per-shard double partials folded
  // in shard order, shard boundaries a function of each tensor's size
  // only — the norm is bit-identical for every thread count.
  double total = 0.0;
  for (tensor::Tensor& p : params) {
    if (!p.HasGrad()) continue;
    const tensor::FloatBuffer& grad = p.impl().grad;
    const int64_t n = static_cast<int64_t>(grad.size());
    total = par::DeterministicReduce<double>(
        n, kElementGrain, total,
        [&](int64_t begin, int64_t end) {
          return simd::Kernels().sum_squares_f64(grad.data() + begin,
                                                 end - begin);
        },
        [](double acc, double partial) { return acc + partial; });
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (tensor::Tensor& p : params) {
      if (!p.HasGrad()) continue;
      tensor::FloatBuffer& grad = p.impl().grad;
      par::ParallelFor(static_cast<int64_t>(grad.size()), kElementGrain,
                       [&](int64_t j0, int64_t j1) {
                         simd::Kernels().scale(grad.data() + j0, scale,
                                               grad.data() + j0, j1 - j0);
                       });
    }
  }
  return norm;
}

}  // namespace retia::nn
