#include "obs/obs.h"
#include "par/parallel_for.h"
#include "simd/simd.h"
#include "tensor/ops.h"

namespace retia::tensor {

// The convolution kernels (ConvTransE decode = Conv1d over the query
// batch) are parallelized over par::DefaultPool() with fixed shards that
// each own disjoint output slices:
//   forward      — (batch, cout) output maps,
//   input grad   — batch items,
//   weight grad  — Conv1d: input channels (every filter's ci slab);
//                  Conv2d: (cout, cin) filter planes (batch stays the
//                  outer loop inside a shard, preserving the serial
//                  accumulation order per filter element),
//   bias grad    — Conv1d: the weight grad's first shard;
//                  Conv2d: output channels.
// Every output element therefore sees the serial arithmetic in the serial
// order: results are bit-identical for every thread count. Conv1d runs the
// simd kernel table's conv1d family, which keeps that order on every
// backend (simd.h).

Tensor Conv1d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t pad) {
  RETIA_OBS_TIMED_SCOPE("tensor.conv1d.us");
  RETIA_CHECK_EQ(input.Rank(), 3);
  RETIA_CHECK_EQ(weight.Rank(), 3);
  const int64_t batch = input.Dim(0);
  const int64_t cin = input.Dim(1);
  const int64_t length = input.Dim(2);
  const int64_t cout = weight.Dim(0);
  RETIA_CHECK_EQ(weight.Dim(1), cin);
  RETIA_CHECK(cin > 0);  // the backward's bias grad rides a ci shard
  const int64_t ksize = weight.Dim(2);
  const int64_t lout = length + 2 * pad - ksize + 1;
  RETIA_CHECK(lout > 0);
  if (bias.defined()) {
    RETIA_CHECK_EQ(bias.Rank(), 1);
    RETIA_CHECK_EQ(bias.Dim(0), cout);
  }

  FloatBuffer out(batch * cout * lout);
  const simd::KernelTable& kernels = simd::Kernels();
  const float* pbias = bias.defined() ? bias.Data() : nullptr;
  par::ParallelFor(
      batch * cout, par::GrainRows(cin * lout * ksize),
      [&](int64_t map0, int64_t map1) {
        kernels.conv1d_forward(input.Data(), weight.Data(), pbias, out.data(),
                               map0, map1, cin, length, cout, ksize, pad);
      });
  return MakeOpResult(
      {batch, cout, lout}, std::move(out), {input, weight, bias},
      [input, weight, bias, batch, cin, length, cout, ksize, lout,
       pad](TensorImpl& self) mutable {
        RETIA_OBS_TIMED_SCOPE("tensor.conv1d_bwd.us");
        const simd::KernelTable& kernels = simd::Kernels();
        const float* g = self.grad.data();
        if (input.RequiresGrad()) {
          input.impl().AccumulateGradFrom([&](float* gx) {
            par::ParallelFor(
                batch, par::GrainRows(cout * cin * lout * ksize),
                [&](int64_t b0, int64_t b1) {
                  kernels.conv1d_input_grad(g, weight.Data(), gx, b0, b1, cin,
                                            length, cout, ksize, pad);
                });
          });
        }
        // The bias grad comes out of the weight-grad kernel's first shard,
        // which transposes each batch item's gradient block anyway.
        const bool bias_grad = bias.defined() && bias.RequiresGrad();
        FloatBuffer gb(bias_grad ? cout : 0);
        const auto weight_grad = [&](float* gw) {
          par::ParallelFor(
              cin, par::GrainRows(batch * cout * lout * ksize),
              [&](int64_t ci0, int64_t ci1) {
                kernels.conv1d_weight_grad(
                    g, input.Data(), gw,
                    bias_grad && ci0 == 0 ? gb.data() : nullptr, ci0, ci1,
                    batch, cin, length, cout, ksize, pad);
              });
        };
        if (weight.RequiresGrad()) {
          weight.impl().AccumulateGradFrom(weight_grad);
        } else if (bias_grad) {
          FloatBuffer unused(cout * cin * ksize);
          weight_grad(unused.data());
        }
        if (bias_grad) bias.impl().AccumulateGrad(gb.data(), cout);
      });
}

Tensor Conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t pad) {
  RETIA_OBS_TIMED_SCOPE("tensor.conv2d.us");
  RETIA_CHECK_EQ(input.Rank(), 4);
  RETIA_CHECK_EQ(weight.Rank(), 4);
  const int64_t batch = input.Dim(0);
  const int64_t cin = input.Dim(1);
  const int64_t h = input.Dim(2);
  const int64_t w = input.Dim(3);
  const int64_t cout = weight.Dim(0);
  RETIA_CHECK_EQ(weight.Dim(1), cin);
  const int64_t kh = weight.Dim(2);
  const int64_t kw = weight.Dim(3);
  const int64_t ho = h + 2 * pad - kh + 1;
  const int64_t wo = w + 2 * pad - kw + 1;
  RETIA_CHECK(ho > 0 && wo > 0);
  if (bias.defined()) {
    RETIA_CHECK_EQ(bias.Rank(), 1);
    RETIA_CHECK_EQ(bias.Dim(0), cout);
  }

  FloatBuffer out(batch * cout * ho * wo, 0.0f);
  const float* px = input.Data();
  const float* pw = weight.Data();
  par::ParallelFor(
      batch * cout, par::GrainRows(cin * ho * wo * kh * kw),
      [&](int64_t map0, int64_t map1) {
        for (int64_t map = map0; map < map1; ++map) {
          const int64_t b = map / cout;
          const int64_t co = map % cout;
          float* omap = out.data() + map * ho * wo;
          if (bias.defined()) {
            const float bv = bias.Data()[co];
            for (int64_t i = 0; i < ho * wo; ++i) omap[i] = bv;
          }
          for (int64_t ci = 0; ci < cin; ++ci) {
            const float* xmap = px + (b * cin + ci) * h * w;
            const float* wmap = pw + (co * cin + ci) * kh * kw;
            for (int64_t oy = 0; oy < ho; ++oy)
              for (int64_t ox = 0; ox < wo; ++ox) {
                float acc = 0.0f;
                for (int64_t ky = 0; ky < kh; ++ky) {
                  const int64_t sy = oy + ky - pad;
                  if (sy < 0 || sy >= h) continue;
                  for (int64_t kx = 0; kx < kw; ++kx) {
                    const int64_t sx = ox + kx - pad;
                    if (sx < 0 || sx >= w) continue;
                    acc += wmap[ky * kw + kx] * xmap[sy * w + sx];
                  }
                }
                omap[oy * wo + ox] += acc;
              }
          }
        }
      });
  return MakeOpResult(
      {batch, cout, ho, wo}, std::move(out), {input, weight, bias},
      [input, weight, bias, batch, cin, h, w, cout, kh, kw, ho, wo,
       pad](TensorImpl& self) mutable {
        const float* g = self.grad.data();
        const float* px = input.Data();
        const float* pw = weight.Data();
        if (input.RequiresGrad()) {
          FloatBuffer gx(batch * cin * h * w, 0.0f);
          par::ParallelFor(
              batch, par::GrainRows(cout * cin * ho * wo * kh * kw),
              [&](int64_t b0, int64_t b1) {
                for (int64_t b = b0; b < b1; ++b)
                  for (int64_t co = 0; co < cout; ++co) {
                    const float* gmap = g + (b * cout + co) * ho * wo;
                    for (int64_t ci = 0; ci < cin; ++ci) {
                      float* xmap = gx.data() + (b * cin + ci) * h * w;
                      const float* wmap = pw + (co * cin + ci) * kh * kw;
                      for (int64_t oy = 0; oy < ho; ++oy)
                        for (int64_t ox = 0; ox < wo; ++ox) {
                          const float gv = gmap[oy * wo + ox];
                          if (gv == 0.0f) continue;
                          for (int64_t ky = 0; ky < kh; ++ky) {
                            const int64_t sy = oy + ky - pad;
                            if (sy < 0 || sy >= h) continue;
                            for (int64_t kx = 0; kx < kw; ++kx) {
                              const int64_t sx = ox + kx - pad;
                              if (sx < 0 || sx >= w) continue;
                              xmap[sy * w + sx] += gv * wmap[ky * kw + kx];
                            }
                          }
                        }
                    }
                  }
              });
          input.impl().AccumulateGrad(gx.data(), batch * cin * h * w);
        }
        if (weight.RequiresGrad()) {
          FloatBuffer gw(cout * cin * kh * kw, 0.0f);
          par::ParallelFor(
              cout * cin, par::GrainRows(batch * ho * wo * kh * kw),
              [&](int64_t plane0, int64_t plane1) {
                for (int64_t b = 0; b < batch; ++b)
                  for (int64_t plane = plane0; plane < plane1; ++plane) {
                    const int64_t co = plane / cin;
                    const int64_t ci = plane % cin;
                    const float* gmap = g + (b * cout + co) * ho * wo;
                    const float* xmap = px + (b * cin + ci) * h * w;
                    float* wmap = gw.data() + plane * kh * kw;
                    for (int64_t oy = 0; oy < ho; ++oy)
                      for (int64_t ox = 0; ox < wo; ++ox) {
                        const float gv = gmap[oy * wo + ox];
                        if (gv == 0.0f) continue;
                        for (int64_t ky = 0; ky < kh; ++ky) {
                          const int64_t sy = oy + ky - pad;
                          if (sy < 0 || sy >= h) continue;
                          for (int64_t kx = 0; kx < kw; ++kx) {
                            const int64_t sx = ox + kx - pad;
                            if (sx < 0 || sx >= w) continue;
                            wmap[ky * kw + kx] += gv * xmap[sy * w + sx];
                          }
                        }
                      }
                  }
              });
          weight.impl().AccumulateGrad(gw.data(), cout * cin * kh * kw);
        }
        if (bias.defined() && bias.RequiresGrad()) {
          FloatBuffer gb(cout, 0.0f);
          par::ParallelFor(
              cout, par::GrainRows(batch * ho * wo),
              [&](int64_t co0, int64_t co1) {
                for (int64_t b = 0; b < batch; ++b)
                  for (int64_t co = co0; co < co1; ++co) {
                    const float* gmap = g + (b * cout + co) * ho * wo;
                    for (int64_t i = 0; i < ho * wo; ++i) gb[co] += gmap[i];
                  }
              });
          bias.impl().AccumulateGrad(gb.data(), cout);
        }
      });
}

}  // namespace retia::tensor
