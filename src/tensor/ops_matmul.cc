#include "obs/obs.h"
#include "simd/simd.h"
#include "tensor/ops.h"

namespace retia::tensor {

// All four GEMM shapes route through the simd::Gemm* drivers: row-blocked
// register-tiled micro-kernels from the active SIMD backend, sharded over
// par::DefaultPool() with tile-aligned fixed shards. Each shard owns a
// contiguous range of OUTPUT rows and every output element accumulates its
// contributions in a fixed index order, so results are bit-identical for
// every thread count (see simd/simd.h for the backend determinism
// contract). The drivers write every element of `out` (GemmNN's
// one-hot-like path zeroes its rows before it accumulates), so outputs and
// gradient contributions are unset FloatBuffers, and a first gradient
// contribution is written straight into the parent's gradient.

Tensor MatMul(const Tensor& a, const Tensor& b) {
  RETIA_OBS_TIMED_SCOPE("tensor.gemm.us");
  RETIA_CHECK_EQ(a.Rank(), 2);
  RETIA_CHECK_EQ(b.Rank(), 2);
  RETIA_CHECK_EQ(a.Dim(1), b.Dim(0));
  const int64_t m = a.Dim(0);
  const int64_t k = a.Dim(1);
  const int64_t n = b.Dim(1);
  FloatBuffer out(m * n);
  simd::GemmNN(a.Data(), b.Data(), out.data(), m, k, n);
  return MakeOpResult(
      {m, n}, std::move(out), {a, b}, [a, b, m, k, n](TensorImpl& self) mutable {
        // dA = dC * B^T ; dB = A^T * dC.
        RETIA_OBS_TIMED_SCOPE("tensor.gemm_bwd.us");
        if (a.RequiresGrad()) {
          a.impl().AccumulateGradFrom([&](float* ga) {
            simd::GemmNT(self.grad.data(), b.Data(), ga, m, n, k);
          });
        }
        if (b.RequiresGrad()) {
          b.impl().AccumulateGradFrom([&](float* gb) {
            simd::GemmTN(a.Data(), self.grad.data(), gb, m, k, n);
          });
        }
      });
}

Tensor MatMulTransposeB(const Tensor& a, const Tensor& b) {
  RETIA_OBS_TIMED_SCOPE("tensor.gemm.us");
  RETIA_CHECK_EQ(a.Rank(), 2);
  RETIA_CHECK_EQ(b.Rank(), 2);
  RETIA_CHECK_EQ(a.Dim(1), b.Dim(1));
  const int64_t m = a.Dim(0);
  const int64_t k = a.Dim(1);
  const int64_t n = b.Dim(0);
  FloatBuffer out(m * n);
  simd::GemmNT(a.Data(), b.Data(), out.data(), m, k, n);
  return MakeOpResult(
      {m, n}, std::move(out), {a, b}, [a, b, m, k, n](TensorImpl& self) mutable {
        // C = A B^T: dA = dC * B ; dB = dC^T * A.
        RETIA_OBS_TIMED_SCOPE("tensor.gemm_bwd.us");
        if (a.RequiresGrad()) {
          a.impl().AccumulateGradFrom([&](float* ga) {
            simd::GemmNN(self.grad.data(), b.Data(), ga, m, n, k);
          });
        }
        if (b.RequiresGrad()) {
          // dB[j,p] = sum_i dC[i,j] A[i,p] == dC^T * A.
          b.impl().AccumulateGradFrom([&](float* gb) {
            simd::GemmTN(self.grad.data(), a.Data(), gb, m, n, k);
          });
        }
      });
}

}  // namespace retia::tensor
