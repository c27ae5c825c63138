// Property-style parameterized sweeps over the tensor kernels that carry
// the RGCN message passing and the ConvTransE decoders.

#include <cstring>

#include <gtest/gtest.h>

#include "grad_check.h"
#include "par/thread_pool.h"
#include "simd/simd.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace retia::tensor {
namespace {

using ::retia::testing::CheckGradients;
using ::retia::testing::ScatterPlan;
using ::retia::testing::TestTensor;

// ---------------------------------------------------------------------------
// Conv1d across (channels, kernel size, padding) combinations: output
// length arithmetic and gradient correctness.

struct Conv1dCase {
  int64_t batch, cin, cout, length, ksize, pad;
};

class Conv1dSweep : public ::testing::TestWithParam<Conv1dCase> {};

TEST_P(Conv1dSweep, OutputLengthAndGradients) {
  const Conv1dCase c = GetParam();
  Tensor x = TestTensor({c.batch, c.cin, c.length}, 11);
  Tensor w = TestTensor({c.cout, c.cin, c.ksize}, 12);
  Tensor bias = TestTensor({c.cout}, 13);
  Tensor out = Conv1d(x, w, bias, c.pad);
  EXPECT_EQ(out.Dim(0), c.batch);
  EXPECT_EQ(out.Dim(1), c.cout);
  EXPECT_EQ(out.Dim(2), c.length + 2 * c.pad - c.ksize + 1);
  Tensor mask = TestTensor({out.NumElements()}, 14, false);
  CheckGradients(
      [&] {
        Tensor o = Conv1d(x, w, bias, c.pad);
        return Sum(Mul(Reshape(o, {1, o.NumElements()}),
                       Reshape(mask, {1, mask.NumElements()})));
      },
      {x, w, bias});
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Conv1dSweep,
    ::testing::Values(Conv1dCase{1, 1, 1, 4, 1, 0},
                      Conv1dCase{2, 2, 3, 6, 3, 1},
                      Conv1dCase{1, 3, 2, 5, 5, 2},
                      Conv1dCase{3, 2, 2, 8, 3, 0}));

// ---------------------------------------------------------------------------
// Gather/Scatter adjointness: <Gather(A, idx), B> == <A, Scatter(B, idx)>.
// This is the identity that makes the message-passing backward pass
// correct, checked over random index patterns.

class GatherScatterAdjoint : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GatherScatterAdjoint, InnerProductsMatch) {
  util::Rng rng(GetParam());
  const int64_t rows = 1 + rng.UniformInt(0, 9);
  const int64_t cols = 1 + rng.UniformInt(0, 5);
  const int64_t k = 1 + rng.UniformInt(0, 14);
  std::vector<int64_t> idx(k);
  for (auto& i : idx) i = rng.UniformInt(0, rows - 1);
  Tensor a = TestTensor({rows, cols}, GetParam() * 3 + 1, false);
  Tensor b = TestTensor({k, cols}, GetParam() * 3 + 2, false);
  const float lhs = Sum(Mul(GatherRows(a, idx), b)).Item();
  const float rhs =
      Sum(Mul(a, AggregateRows(b, ScatterPlan(idx, rows)))).Item();
  EXPECT_NEAR(lhs, rhs, 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GatherScatterAdjoint,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Scatter-then-gather of distinct indices is the identity.

TEST(GatherScatterProperty, ScatterOfDistinctIndicesRoundTrips) {
  std::vector<int64_t> idx = {3, 0, 2};
  Tensor b = TestTensor({3, 4}, 31, false);
  Tensor scattered = AggregateRows(b, ScatterPlan(idx, 5));
  Tensor back = GatherRows(scattered, idx);
  for (int64_t i = 0; i < b.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(back.Data()[i], b.Data()[i]);
  }
}

// ---------------------------------------------------------------------------
// Softmax + NllFromProbs equals CrossEntropyLogits (the two loss paths the
// models use must agree).

class LossEquivalence : public ::testing::TestWithParam<int64_t> {};

TEST_P(LossEquivalence, SoftmaxNllMatchesLogitCrossEntropy) {
  const int64_t cols = GetParam();
  Tensor logits = TestTensor({4, cols}, 41 + cols, false);
  std::vector<int64_t> targets;
  for (int64_t i = 0; i < 4; ++i) targets.push_back(i % cols);
  const float a = NllFromProbs(Softmax(logits), targets).Item();
  const float b = CrossEntropyLogits(logits, targets).Item();
  EXPECT_NEAR(a, b, 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LossEquivalence,
                         ::testing::Values(2, 3, 17, 101));

// ---------------------------------------------------------------------------
// MatMul associativity-with-transpose: (A B^T)^T == B A^T elementwise.

TEST(MatMulProperty, TransposeIdentity) {
  Tensor a = TestTensor({3, 5}, 51, false);
  Tensor b = TestTensor({4, 5}, 52, false);
  Tensor ab = MatMulTransposeB(a, b);   // [3,4]
  Tensor ba = MatMulTransposeB(b, a);   // [4,3]
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(ab.At(i, j), ba.At(j, i), 1e-4f);
    }
  }
}

// Linearity: (A+B) C == A C + B C.
TEST(MatMulProperty, Linearity) {
  Tensor a = TestTensor({3, 4}, 53, false);
  Tensor b = TestTensor({3, 4}, 54, false);
  Tensor c = TestTensor({4, 2}, 55, false);
  Tensor lhs = MatMul(Add(a, b), c);
  Tensor rhs = Add(MatMul(a, c), MatMul(b, c));
  for (int64_t i = 0; i < lhs.NumElements(); ++i) {
    EXPECT_NEAR(lhs.Data()[i], rhs.Data()[i], 1e-4f);
  }
}

// ---------------------------------------------------------------------------
// Parallel == serial, exactly: the randomized counterpart of the par_test
// end-to-end check. 50 random (shape, seed) draws; the parallel matmul and
// softmax-cross-entropy kernels must match a 1-thread pool byte for byte.

class ParallelSerialEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelSerialEquivalence, MatMulAndSoftmaxMatchSerialExactly) {
  util::Rng rng(GetParam() * 7919 + 1);
  const int64_t m = 1 + rng.UniformInt(0, 90);
  const int64_t k = 1 + rng.UniformInt(0, 60);
  const int64_t n = 1 + rng.UniformInt(0, 90);
  Tensor a = TestTensor({m, k}, GetParam() * 5 + 1);
  Tensor b = TestTensor({n, k}, GetParam() * 5 + 2);
  std::vector<int64_t> targets;
  for (int64_t i = 0; i < m; ++i) targets.push_back(i % n);

  struct Capture {
    FloatBuffer logits, soft, loss, ga, gb;
  };
  auto run = [&](int threads) {
    par::ThreadPool pool(threads);
    par::ScopedDefaultPool guard(&pool);
    Tensor logits = MatMulTransposeB(a, b);
    Tensor loss = CrossEntropyLogits(logits, targets);
    a.ZeroGrad();
    b.ZeroGrad();
    loss.Backward();
    Capture c;
    c.logits = logits.impl().data;
    c.soft = Softmax(logits).impl().data;
    c.loss = loss.impl().data;
    c.ga = a.impl().grad;
    c.gb = b.impl().grad;
    return c;
  };
  const Capture serial = run(1);
  const Capture parallel = run(8);
  auto expect_bytes = [](const FloatBuffer& got, const FloatBuffer& want,
                         const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    EXPECT_EQ(
        std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
        << what;
  };
  expect_bytes(parallel.logits, serial.logits, "logits");
  expect_bytes(parallel.soft, serial.soft, "softmax");
  expect_bytes(parallel.loss, serial.loss, "loss");
  expect_bytes(parallel.ga, serial.ga, "grad a");
  expect_bytes(parallel.gb, serial.gb, "grad b");
}

INSTANTIATE_TEST_SUITE_P(FiftyRandomShapes, ParallelSerialEquivalence,
                         ::testing::Range<uint64_t>(0, 50));

// ---------------------------------------------------------------------------
// SIMD-vs-scalar equivalence over the same 50-shape property set: for
// every supported backend, the full matmul + softmax-cross-entropy
// forward/backward pipeline must (a) stay within the documented tolerance
// of the scalar reference, and (b) be bit-identical between 1-thread and
// 8-thread pools under that backend.

class BackendEquivalenceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BackendEquivalenceSweep, PipelineNearScalarAndThreadInvariant) {
  util::Rng rng(GetParam() * 7919 + 1);
  const int64_t m = 1 + rng.UniformInt(0, 90);
  const int64_t k = 1 + rng.UniformInt(0, 60);
  const int64_t n = 1 + rng.UniformInt(0, 90);
  Tensor a = TestTensor({m, k}, GetParam() * 5 + 1);
  Tensor b = TestTensor({n, k}, GetParam() * 5 + 2);
  std::vector<int64_t> targets;
  for (int64_t i = 0; i < m; ++i) targets.push_back(i % n);

  struct Capture {
    FloatBuffer logits, soft, loss, ga, gb;
  };
  auto run = [&](simd::Backend backend, int threads) {
    simd::ScopedBackend backend_guard(backend);
    par::ThreadPool pool(threads);
    par::ScopedDefaultPool guard(&pool);
    Tensor logits = MatMulTransposeB(a, b);
    Tensor loss = CrossEntropyLogits(logits, targets);
    a.ZeroGrad();
    b.ZeroGrad();
    loss.Backward();
    Capture c;
    c.logits = logits.impl().data;
    c.soft = Softmax(logits).impl().data;
    c.loss = loss.impl().data;
    c.ga = a.impl().grad;
    c.gb = b.impl().grad;
    return c;
  };
  const Capture reference = run(simd::Backend::kScalar, 1);
  auto expect_near = [&](const FloatBuffer& got, const FloatBuffer& want,
                         const char* what,
                         simd::Backend backend) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(got[i], want[i], 1e-4f * (std::abs(want[i]) + 1.0f))
          << what << "[" << i << "] on " << simd::BackendName(backend)
          << " m=" << m << " k=" << k << " n=" << n;
    }
  };
  auto expect_bytes = [](const FloatBuffer& got, const FloatBuffer& want,
                         const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    EXPECT_EQ(
        std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
        << what;
  };
  for (simd::Backend backend :
       {simd::Backend::kScalar, simd::Backend::kSse2, simd::Backend::kNeon,
        simd::Backend::kAvx2}) {
    if (!simd::BackendSupported(backend)) continue;
    const Capture serial = run(backend, 1);
    expect_near(serial.logits, reference.logits, "logits", backend);
    expect_near(serial.soft, reference.soft, "softmax", backend);
    expect_near(serial.loss, reference.loss, "loss", backend);
    expect_near(serial.ga, reference.ga, "grad a", backend);
    expect_near(serial.gb, reference.gb, "grad b", backend);

    const Capture parallel = run(backend, 8);
    expect_bytes(parallel.logits, serial.logits, "logits across threads");
    expect_bytes(parallel.soft, serial.soft, "softmax across threads");
    expect_bytes(parallel.loss, serial.loss, "loss across threads");
    expect_bytes(parallel.ga, serial.ga, "grad a across threads");
    expect_bytes(parallel.gb, serial.gb, "grad b across threads");
  }
}

INSTANTIATE_TEST_SUITE_P(FiftyRandomShapes, BackendEquivalenceSweep,
                         ::testing::Range<uint64_t>(0, 50));

// ---------------------------------------------------------------------------
// The two owner-computes scatters over 50 random shapes: AggregateRows
// with a weight-1 scatter plan, and the table gradient of GatherRows (its
// backward). Both are byte-identical at every pool width and equal to a
// serial index-order loop, over small and large destination tables and
// duplicate-heavy and duplicate-free index vectors. (The suite and test
// names date from when a second, privatized kernel was compared here; they
// are kept so the sweep's ctest names stay stable.)

class ScatterAlgoEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScatterAlgoEquivalence, PrivatizedMatchesOwnerComputesAcrossThreads) {
  util::Rng rng(GetParam() * 104729 + 7);
  const int64_t rows = 1 + rng.UniformInt(0, 600);
  const int64_t cols = 1 + rng.UniformInt(0, 48);
  const int64_t k = 1 + rng.UniformInt(0, 8000);
  std::vector<int64_t> idx(k);
  for (auto& i : idx) i = rng.UniformInt(0, rows - 1);
  Tensor src = TestTensor({k, cols}, GetParam() * 11 + 3, false);
  const auto plan = ScatterPlan(idx, rows);

  // One float add per contribution, in index order.
  FloatBuffer serial(rows * cols, 0.0f);
  for (int64_t e = 0; e < k; ++e)
    for (int64_t j = 0; j < cols; ++j)
      serial[idx[e] * cols + j] += src.Data()[e * cols + j];

  for (int threads : {1, 2, 4, 8}) {
    par::ThreadPool pool(threads);
    par::ScopedDefaultPool guard(&pool);
    // The gather's output gradient is `src`, so the table's gradient is the
    // same scatter-add.
    Tensor table = Tensor::Zeros({rows, cols}, /*requires_grad=*/true);
    Sum(Mul(GatherRows(table, idx), src)).Backward();
    const FloatBuffer aggregated = AggregateRows(src, plan).impl().data;
    for (const FloatBuffer* got : {&aggregated, &table.Grad()}) {
      ASSERT_EQ(got->size(), serial.size());
      EXPECT_EQ(std::memcmp(got->data(), serial.data(),
                            got->size() * sizeof(float)),
                0)
          << (got == &aggregated ? "AggregateRows" : "GatherRows backward")
          << " threads=" << threads << " rows=" << rows << " cols=" << cols
          << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FiftyRandomShapes, ScatterAlgoEquivalence,
                         ::testing::Range<uint64_t>(0, 50));

// ---------------------------------------------------------------------------
// Conv2d padding edge cases: kernel as large as the padded input, pad
// bigger than the kernel overhang, and 1x1 kernels. Gradient-checked.

struct Conv2dCase {
  int64_t batch, cin, cout, h, w, ksize, pad;
};

class Conv2dPaddingSweep : public ::testing::TestWithParam<Conv2dCase> {};

TEST_P(Conv2dPaddingSweep, OutputShapeAndGradients) {
  const Conv2dCase c = GetParam();
  Tensor x = TestTensor({c.batch, c.cin, c.h, c.w}, 61);
  Tensor w = TestTensor({c.cout, c.cin, c.ksize, c.ksize}, 62);
  Tensor bias = TestTensor({c.cout}, 63);
  Tensor out = Conv2d(x, w, bias, c.pad);
  EXPECT_EQ(out.Dim(0), c.batch);
  EXPECT_EQ(out.Dim(1), c.cout);
  EXPECT_EQ(out.Dim(2), c.h + 2 * c.pad - c.ksize + 1);
  EXPECT_EQ(out.Dim(3), c.w + 2 * c.pad - c.ksize + 1);
  Tensor mask = TestTensor({out.NumElements()}, 64, false);
  CheckGradients(
      [&] {
        Tensor o = Conv2d(x, w, bias, c.pad);
        return Sum(Mul(Reshape(o, {1, o.NumElements()}),
                       Reshape(mask, {1, mask.NumElements()})));
      },
      {x, w, bias});
}

INSTANTIATE_TEST_SUITE_P(
    PaddingEdges, Conv2dPaddingSweep,
    ::testing::Values(Conv2dCase{1, 1, 1, 2, 2, 2, 0},   // kernel == input
                      Conv2dCase{1, 2, 2, 3, 3, 3, 2},   // pad > overhang
                      Conv2dCase{2, 1, 2, 3, 2, 1, 0},   // 1x1, no pad
                      Conv2dCase{1, 1, 1, 2, 3, 2, 1})); // rectangular input

// ---------------------------------------------------------------------------
// LayerNormRows: gradient-checked through the full normalisation (mean,
// variance, affine), including a constant row where the centered input is
// exactly zero.

TEST(LayerNormProperty, GradientsThroughNormalisation) {
  Tensor x = TestTensor({3, 5}, 71);
  Tensor gamma = TestTensor({5}, 72);
  Tensor beta = TestTensor({5}, 73);
  Tensor mask = TestTensor({15}, 74, false);
  CheckGradients(
      [&] {
        Tensor o = LayerNormRows(x, gamma, beta);
        return Sum(Mul(Reshape(o, {1, 15}), Reshape(mask, {1, 15})));
      },
      {x, gamma, beta});
}

TEST(LayerNormProperty, ConstantRowNormalisesToBeta) {
  Tensor x = Tensor::Full({2, 4}, 3.25f);
  Tensor gamma = TestTensor({4}, 75, false);
  Tensor beta = TestTensor({4}, 76, false);
  Tensor out = LayerNormRows(x, gamma, beta);
  // Centered input is exactly zero, so the output is beta exactly.
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(out.At(i, j), beta.Data()[j]);
    }
  }
}

// ---------------------------------------------------------------------------
// Duplicate-index scatter-add on AggregateRows: the adjoint of a
// duplicate-index gather, gradient-checked so the owner-computes parallel
// kernel proves it routes every duplicate's gradient.

TEST(GatherScatterProperty, DuplicateIndexScatterGradients) {
  const std::vector<int64_t> idx = {2, 0, 2, 2, 1, 0};  // heavy duplicates
  Tensor src = TestTensor({6, 3}, 81);
  Tensor mask = TestTensor({12}, 82, false);
  CheckGradients(
      [&] {
        Tensor o = AggregateRows(src, ScatterPlan(idx, 4));  // row 3 empty
        return Sum(Mul(Reshape(o, {1, 12}), Reshape(mask, {1, 12})));
      },
      {src});
}

TEST(GatherScatterProperty, DuplicateIndexGatherGradients) {
  const std::vector<int64_t> idx = {1, 1, 0, 1};
  Tensor table = TestTensor({3, 4}, 83);
  Tensor mask = TestTensor({16}, 84, false);
  CheckGradients(
      [&] {
        Tensor o = GatherRows(table, idx);
        return Sum(Mul(Reshape(o, {1, 16}), Reshape(mask, {1, 16})));
      },
      {table});
}

}  // namespace
}  // namespace retia::tensor
