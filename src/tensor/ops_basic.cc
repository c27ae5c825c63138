#include <cmath>

#include "simd/simd.h"
#include "tensor/ops.h"

namespace retia::tensor {

namespace {

void CheckSameShape(const Tensor& a, const Tensor& b) {
  RETIA_CHECK_MSG(a.Shape() == b.Shape(),
                  "shape mismatch: " << a.ShapeString() << " vs "
                                     << b.ShapeString());
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  const int64_t n = a.NumElements();
  FloatBuffer out(n);
  simd::Kernels().add(a.Data(), b.Data(), out.data(), n);
  return MakeOpResult(a.Shape(), std::move(out), {a, b},
                      [a, b](TensorImpl& self) mutable {
                        const int64_t n = self.NumElements();
                        if (a.RequiresGrad())
                          a.impl().AccumulateGrad(self.grad.data(), n);
                        if (b.RequiresGrad())
                          b.impl().AccumulateGrad(self.grad.data(), n);
                      });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  const int64_t n = a.NumElements();
  FloatBuffer out(n);
  simd::Kernels().sub(a.Data(), b.Data(), out.data(), n);
  return MakeOpResult(
      a.Shape(), std::move(out), {a, b}, [a, b](TensorImpl& self) mutable {
        const int64_t n = self.NumElements();
        if (a.RequiresGrad()) a.impl().AccumulateGrad(self.grad.data(), n);
        if (b.RequiresGrad()) {
          // -g == g * -1.0f exactly (sign flip).
          b.impl().AddIntoGrad([&](float* dx, bool add) {
            simd::Kernels().scale_add(self.grad.data(), -1.0f, dx, n, add);
          });
        }
      });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  const int64_t n = a.NumElements();
  FloatBuffer out(n);
  simd::Kernels().mul(a.Data(), b.Data(), out.data(), n);
  return MakeOpResult(
      a.Shape(), std::move(out), {a, b}, [a, b](TensorImpl& self) mutable {
        const int64_t n = self.NumElements();
        if (a.RequiresGrad()) {
          a.impl().AddIntoGrad([&](float* dx, bool add) {
            simd::Kernels().mul_add(self.grad.data(), b.Data(), dx, n, add);
          });
        }
        if (b.RequiresGrad()) {
          b.impl().AddIntoGrad([&](float* dx, bool add) {
            simd::Kernels().mul_add(self.grad.data(), a.Data(), dx, n, add);
          });
        }
      });
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias) {
  RETIA_CHECK_EQ(a.Rank(), 2);
  RETIA_CHECK_EQ(bias.Rank(), 1);
  RETIA_CHECK_EQ(a.Dim(1), bias.Dim(0));
  const int64_t m = a.Dim(0);
  const int64_t n = a.Dim(1);
  FloatBuffer out(m * n);
  const float* pa = a.Data();
  const float* pb = bias.Data();
  for (int64_t i = 0; i < m; ++i)
    simd::Kernels().add(pa + i * n, pb, out.data() + i * n, n);
  return MakeOpResult(
      a.Shape(), std::move(out), {a, bias},
      [a, bias, m, n](TensorImpl& self) mutable {
        if (a.RequiresGrad())
          a.impl().AccumulateGrad(self.grad.data(), m * n);
        if (bias.RequiresGrad()) {
          FloatBuffer gb(n, 0.0f);
          for (int64_t i = 0; i < m; ++i)
            simd::Kernels().accumulate(self.grad.data() + i * n, gb.data(), n);
          bias.impl().AccumulateGrad(gb.data(), n);
        }
      });
}

Tensor Scale(const Tensor& a, float s) {
  const int64_t n = a.NumElements();
  FloatBuffer out(n);
  simd::Kernels().scale(a.Data(), s, out.data(), n);
  return MakeOpResult(
      a.Shape(), std::move(out), {a}, [a, s](TensorImpl& self) mutable {
        if (!a.RequiresGrad()) return;
        const int64_t n = self.NumElements();
        a.impl().AddIntoGrad([&](float* dx, bool add) {
          simd::Kernels().scale_add(self.grad.data(), s, dx, n, add);
        });
      });
}

Tensor Neg(const Tensor& a) { return Scale(a, -1.0f); }

namespace {

// An elementwise op's result whose gradient is a function of its output,
// dx += dy * f'(y), added by the kernel table's `backward` entry (looked
// up when the backward runs).
using OutputBackward = void (*simd::KernelTable::*)(const float*, const float*,
                                                    float*, int64_t, bool);

Tensor FromOutput(const Tensor& a, FloatBuffer out, OutputBackward backward) {
  return MakeOpResult(
      a.Shape(), std::move(out), {a}, [a, backward](TensorImpl& self) mutable {
        if (!a.RequiresGrad()) return;
        const int64_t n = self.NumElements();
        a.impl().AddIntoGrad([&](float* dx, bool add) {
          (simd::Kernels().*backward)(self.data.data(), self.grad.data(), dx,
                                      n, add);
        });
      });
}

// Unary op whose gradient depends on the input value.
template <typename Fwd, typename BwdFromIn>
Tensor UnaryFromInput(const Tensor& a, Fwd fwd, BwdFromIn bwd) {
  const int64_t n = a.NumElements();
  FloatBuffer out(n);
  const float* pa = a.Data();
  for (int64_t i = 0; i < n; ++i) out[i] = fwd(pa[i]);
  return MakeOpResult(
      a.Shape(), std::move(out), {a}, [a, bwd](TensorImpl& self) mutable {
        if (!a.RequiresGrad()) return;
        const int64_t n = self.NumElements();
        const float* pa = a.Data();
        const float* dy = self.grad.data();
        a.impl().AddIntoGrad([&](float* dx, bool add) {
          for (int64_t i = 0; i < n; ++i)
            dx[i] = (add ? dx[i] : 0.0f) + dy[i] * bwd(pa[i]);
        });
      });
}

}  // namespace

Tensor Sigmoid(const Tensor& a) {
  const int64_t n = a.NumElements();
  FloatBuffer out(n);
  const float* pa = a.Data();
  for (int64_t i = 0; i < n; ++i) out[i] = 1.0f / (1.0f + std::exp(-pa[i]));
  return FromOutput(a, std::move(out), &simd::KernelTable::sigmoid_backward);
}

Tensor Tanh(const Tensor& a) {
  const int64_t n = a.NumElements();
  FloatBuffer out(n);
  const float* pa = a.Data();
  for (int64_t i = 0; i < n; ++i) out[i] = std::tanh(pa[i]);
  return FromOutput(a, std::move(out), &simd::KernelTable::tanh_backward);
}

Tensor Relu(const Tensor& a) {
  const int64_t n = a.NumElements();
  FloatBuffer out(n);
  simd::Kernels().relu(a.Data(), out.data(), n);
  return FromOutput(a, std::move(out), &simd::KernelTable::relu_backward);
}

Tensor Cos(const Tensor& a) {
  return UnaryFromInput(a, [](float x) { return std::cos(x); },
                        [](float x) { return -std::sin(x); });
}

Tensor Sin(const Tensor& a) {
  return UnaryFromInput(a, [](float x) { return std::sin(x); },
                        [](float x) { return std::cos(x); });
}

namespace {

// Result of an op that multiplies its input by a per-element factor:
// dx += dy * factor.
Tensor WithFactorBackward(const Tensor& a, FloatBuffer out,
                          std::shared_ptr<const FloatBuffer> factor) {
  return MakeOpResult(
      a.Shape(), std::move(out), {a}, [a, factor](TensorImpl& self) mutable {
        if (!a.RequiresGrad()) return;
        const int64_t n = self.NumElements();
        a.impl().AddIntoGrad([&](float* dx, bool add) {
          simd::Kernels().mul_add(self.grad.data(), factor->data(), dx, n,
                                  add);
        });
      });
}

}  // namespace

Tensor RRelu(const Tensor& a, float lo, float hi, bool training,
             util::Rng* rng) {
  RETIA_CHECK_LE(lo, hi);
  const int64_t n = a.NumElements();
  const float* pa = a.Data();
  FloatBuffer out(n);
  const float eval_slope = 0.5f * (lo + hi);
  if (!training) {
    simd::Kernels().rrelu_eval(pa, eval_slope, out.data(), n);
    if (!GradModeEnabled() || !a.RequiresGrad()) {
      return MakeOpResult(a.Shape(), std::move(out), {}, nullptr);
    }
  }
  // The backward's per-element slope: 1 for non-negative inputs, else the
  // drawn slope in training and the mean one in eval mode.
  auto slopes = std::make_shared<FloatBuffer>(n);
  for (int64_t i = 0; i < n; ++i) {
    if (pa[i] >= 0.0f) {
      (*slopes)[i] = 1.0f;
      if (training) out[i] = pa[i];
    } else if (training) {
      RETIA_CHECK_MSG(rng != nullptr, "RRelu training mode needs an Rng");
      const float s = rng->Uniform(lo, hi);
      (*slopes)[i] = s;
      out[i] = pa[i] * s;
    } else {
      (*slopes)[i] = eval_slope;
    }
  }
  return WithFactorBackward(a, std::move(out), std::move(slopes));
}

Tensor Dropout(const Tensor& a, float p, bool training, util::Rng* rng) {
  // The identity: a gradient flowing back through a pass-through node
  // would reach `a` bit-unchanged (it starts at +0 and only adds), so the
  // node is left out. This relies on the output being a's only use.
  if (!training || p <= 0.0f) return a;
  RETIA_CHECK_MSG(rng != nullptr, "Dropout training mode needs an Rng");
  RETIA_CHECK_LT(p, 1.0f);
  const int64_t n = a.NumElements();
  const float keep = 1.0f - p;
  const float inv_keep = 1.0f / keep;
  auto mask = std::make_shared<FloatBuffer>(n);
  for (int64_t i = 0; i < n; ++i) {
    (*mask)[i] = rng->Bernoulli(keep) ? inv_keep : 0.0f;
  }
  FloatBuffer out(n);
  simd::Kernels().mul(a.Data(), mask->data(), out.data(), n);
  return WithFactorBackward(a, std::move(out), std::move(mask));
}

Tensor Sum(const Tensor& a) {
  const int64_t n = a.NumElements();
  const float* pa = a.Data();
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) acc += pa[i];
  return MakeOpResult({1}, {static_cast<float>(acc)}, {a},
                      [a, n](TensorImpl& self) mutable {
                        if (!a.RequiresGrad()) return;
                        const float g = self.grad[0];
                        a.impl().AddIntoGrad([&](float* dx, bool add) {
                          if (add) {
                            simd::Kernels().add_scalar(dx, g, dx, n);
                          } else {
                            std::fill_n(dx, n, 0.0f + g);
                          }
                        });
                      });
}

Tensor Mean(const Tensor& a) {
  const int64_t n = a.NumElements();
  return Scale(Sum(a), 1.0f / static_cast<float>(n));
}

}  // namespace retia::tensor
