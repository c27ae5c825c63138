#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "grad_check.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace retia::tensor {
namespace {

using ::retia::testing::CheckGradients;
using ::retia::testing::ScatterPlan;
using ::retia::testing::TestTensor;

// ---------------------------------------------------------------------------
// Construction and introspection.

TEST(TensorTest, ZerosHasCorrectShapeAndData) {
  Tensor t = Tensor::Zeros({3, 4});
  EXPECT_EQ(t.Rank(), 2);
  EXPECT_EQ(t.Dim(0), 3);
  EXPECT_EQ(t.Dim(1), 4);
  EXPECT_EQ(t.NumElements(), 12);
  for (int64_t i = 0; i < 12; ++i) EXPECT_EQ(t.Data()[i], 0.0f);
}

TEST(TensorTest, FromVectorChecksElementCount) {
  Tensor t = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.At(0, 1), 2.0f);
  EXPECT_EQ(t.At(1, 0), 3.0f);
  EXPECT_DEATH(Tensor::FromVector({2, 2}, {1, 2, 3}), "expected");
}

TEST(TensorTest, ScalarItem) {
  EXPECT_FLOAT_EQ(Tensor::Scalar(2.5f).Item(), 2.5f);
}

TEST(TensorTest, FullFillsValue) {
  Tensor t = Tensor::Full({5}, -1.5f);
  for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(t.Data()[i], -1.5f);
}

TEST(TensorTest, UndefinedTensorIsNotDefined) {
  Tensor t;
  EXPECT_FALSE(t.defined());
}

TEST(TensorTest, DetachDropsAutogradHistory) {
  Tensor a = TestTensor({2, 2}, 1);
  Tensor b = Add(a, a);
  Tensor d = b.Detach();
  EXPECT_FALSE(d.RequiresGrad());
  EXPECT_EQ(d.At(0, 0), b.At(0, 0));
  // Mutating the detached copy must not change the original.
  d.At(0, 0) += 1.0f;
  EXPECT_NE(d.At(0, 0), b.At(0, 0));
}

TEST(TensorTest, ShapeString) {
  EXPECT_EQ(Tensor::Zeros({2, 3}).ShapeString(), "[2, 3]");
}

// ---------------------------------------------------------------------------
// Forward correctness of elementwise arithmetic.

TEST(OpsForwardTest, AddSubMulElementwise) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {10, 20, 30, 40});
  EXPECT_EQ(Add(a, b).At(1, 1), 44.0f);
  EXPECT_EQ(Sub(b, a).At(0, 0), 9.0f);
  EXPECT_EQ(Mul(a, b).At(1, 0), 90.0f);
}

TEST(OpsForwardTest, ShapeMismatchDies) {
  Tensor a = Tensor::Zeros({2, 2});
  Tensor b = Tensor::Zeros({2, 3});
  EXPECT_DEATH(Add(a, b), "shape mismatch");
}

TEST(OpsForwardTest, AddRowBroadcast) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bias = Tensor::FromVector({3}, {10, 20, 30});
  Tensor c = AddRowBroadcast(a, bias);
  EXPECT_EQ(c.At(0, 0), 11.0f);
  EXPECT_EQ(c.At(1, 2), 36.0f);
}

TEST(OpsForwardTest, ScaleAndNeg) {
  Tensor a = Tensor::FromVector({3}, {1, -2, 3});
  EXPECT_EQ(Scale(a, 2.0f).Data()[1], -4.0f);
  EXPECT_EQ(Neg(a).Data()[2], -3.0f);
}

TEST(OpsForwardTest, ActivationsMatchClosedForms) {
  Tensor a = Tensor::FromVector({4}, {-2.0f, -0.5f, 0.0f, 1.5f});
  Tensor sig = Sigmoid(a);
  Tensor tanh = Tanh(a);
  Tensor relu = Relu(a);
  for (int64_t i = 0; i < 4; ++i) {
    const float x = a.Data()[i];
    EXPECT_NEAR(sig.Data()[i], 1.0f / (1.0f + std::exp(-x)), 1e-6f);
    EXPECT_NEAR(tanh.Data()[i], std::tanh(x), 1e-6f);
    EXPECT_EQ(relu.Data()[i], x > 0 ? x : 0.0f);
  }
}

TEST(OpsForwardTest, CosSin) {
  Tensor a = Tensor::FromVector({2}, {0.0f, 1.0f});
  EXPECT_NEAR(Cos(a).Data()[0], 1.0f, 1e-6f);
  EXPECT_NEAR(Sin(a).Data()[1], std::sin(1.0f), 1e-6f);
}

TEST(OpsForwardTest, RReluEvalUsesMeanSlope) {
  Tensor a = Tensor::FromVector({2}, {-1.0f, 2.0f});
  Tensor out = RRelu(a, 0.2f, 0.4f, /*training=*/false, nullptr);
  EXPECT_NEAR(out.Data()[0], -0.3f, 1e-6f);
  EXPECT_EQ(out.Data()[1], 2.0f);
}

TEST(OpsForwardTest, RReluTrainingSlopeWithinRange) {
  util::Rng rng(3);
  Tensor a = Tensor::Full({100}, -1.0f);
  Tensor out = RRelu(a, 1.0f / 8.0f, 1.0f / 3.0f, /*training=*/true, &rng);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_LE(out.Data()[i], -1.0f / 8.0f + 1e-6f);
    EXPECT_LE(-1.0f / 3.0f - 1e-6f, out.Data()[i]);
  }
}

TEST(OpsForwardTest, DropoutEvalIsIdentity) {
  Tensor a = TestTensor({3, 3}, 7, /*requires_grad=*/false);
  Tensor out = Dropout(a, 0.5f, /*training=*/false, nullptr);
  for (int64_t i = 0; i < 9; ++i) EXPECT_EQ(out.Data()[i], a.Data()[i]);
}

TEST(OpsForwardTest, DropoutPassThroughReturnsItsInput) {
  // Outside training, or at p = 0, Dropout adds no tape node: the
  // gradient of its only consumer lands in the input's bit-unchanged.
  Tensor a = TestTensor({3, 3}, 8);
  EXPECT_EQ(Dropout(a, 0.5f, /*training=*/false, nullptr).ptr(), a.ptr());
  util::Rng rng(5);
  EXPECT_EQ(Dropout(a, 0.0f, /*training=*/true, &rng).ptr(), a.ptr());
}

TEST(OpsForwardTest, DropoutTrainingZeroesAndRescales) {
  util::Rng rng(5);
  Tensor a = Tensor::Full({1000}, 1.0f);
  Tensor out = Dropout(a, 0.5f, /*training=*/true, &rng);
  int64_t zeros = 0;
  for (int64_t i = 0; i < 1000; ++i) {
    if (out.Data()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(out.Data()[i], 2.0f, 1e-6f);  // inverted dropout scaling
    }
  }
  EXPECT_GT(zeros, 350);
  EXPECT_LT(zeros, 650);
}

TEST(OpsForwardTest, SumAndMean) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(Sum(a).Item(), 10.0f);
  EXPECT_FLOAT_EQ(Mean(a).Item(), 2.5f);
}

// ---------------------------------------------------------------------------
// Matrix multiplication.

TEST(OpsForwardTest, MatMulKnownResult) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.At(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154.0f);
}

TEST(OpsForwardTest, MatMulTransposeBMatchesMatMul) {
  Tensor a = TestTensor({4, 5}, 11, false);
  Tensor b = TestTensor({3, 5}, 12, false);
  Tensor direct = MatMulTransposeB(a, b);
  // Compare against MatMul with a manually transposed b.
  std::vector<float> bt(5 * 3);
  for (int64_t i = 0; i < 3; ++i)
    for (int64_t j = 0; j < 5; ++j) bt[j * 3 + i] = b.At(i, j);
  Tensor ref = MatMul(a, Tensor::FromVector({5, 3}, bt));
  for (int64_t i = 0; i < 12; ++i)
    EXPECT_NEAR(direct.Data()[i], ref.Data()[i], 1e-5f);
}

TEST(OpsForwardTest, MatMulInnerDimMismatchDies) {
  EXPECT_DEATH(MatMul(Tensor::Zeros({2, 3}), Tensor::Zeros({4, 2})),
               "expected");
}

// ---------------------------------------------------------------------------
// Indexing / structure ops.

TEST(OpsForwardTest, GatherRows) {
  Tensor a = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor g = GatherRows(a, {2, 0, 2});
  EXPECT_EQ(g.Dim(0), 3);
  EXPECT_EQ(g.At(0, 0), 5.0f);
  EXPECT_EQ(g.At(1, 1), 2.0f);
  EXPECT_EQ(g.At(2, 1), 6.0f);
}

TEST(OpsForwardTest, GatherRowsOutOfRangeDies) {
  Tensor a = Tensor::Zeros({3, 2});
  EXPECT_DEATH(GatherRows(a, {3}), "expected");
}

TEST(OpsForwardTest, ScatterAddRowsAccumulatesDuplicates) {
  Tensor src = Tensor::FromVector({3, 2}, {1, 1, 2, 2, 3, 3});
  Tensor out = AggregateRows(src, ScatterPlan({1, 1, 0}, 3));
  EXPECT_EQ(out.At(0, 0), 3.0f);
  EXPECT_EQ(out.At(1, 0), 3.0f);  // 1 + 2
  EXPECT_EQ(out.At(2, 0), 0.0f);
}

TEST(OpsForwardTest, AggregateRowsSumsEntriesIntoSlotsInInputOrder) {
  // Table rows t0..t2, output [2 rows, 2 blocks * 2 cols]. Slot s is row
  // s / 2, column block s % 2; slot 1 is left empty.
  Tensor table = Tensor::FromVector({3, 2}, {1, 2, 10, 20, 100, 200});
  const auto plan = MakeRowAggregation(
      2, 2, 3, /*slot=*/{3, 0, 3, 2}, /*src=*/{0, 2, 1, 0},
      /*weight=*/{0.5f, 1.0f, 2.0f, -1.0f});
  Tensor out = AggregateRows(table, plan);
  ASSERT_EQ(out.Dim(0), 2);
  ASSERT_EQ(out.Dim(1), 4);
  const FloatBuffer want = {100, 200, 0,    0,   // slots 0, 1
                            -1,  -2,  20.5f, 41};  // slots 2, 3
  EXPECT_EQ(out.impl().data, want);
  // Slot 3's entries keep their input order: 0.5*t0 then 2*t1.
  EXPECT_EQ(plan->slot_src, (std::vector<int64_t>{2, 0, 0, 1}));
  EXPECT_EQ(plan->src_slot, (std::vector<int64_t>{3, 2, 3, 0}));
}

TEST(OpsForwardTest, AggregateRowsOutOfRangeDies) {
  EXPECT_DEATH(MakeRowAggregation(2, 1, 3, {2}, {0}, {1.0f}), "expected");
  EXPECT_DEATH(MakeRowAggregation(2, 1, 3, {0}, {3}, {1.0f}), "expected");
  const auto plan = MakeRowAggregation(2, 1, 3, {0}, {0}, {1.0f});
  EXPECT_DEATH(AggregateRows(Tensor::Zeros({4, 2}), plan), "expected");
}

// A snapshot with no facts gives plans with no entries: the output is all
// zeros and the backward adds nothing to the table's gradient.
TEST(OpsForwardTest, AggregateRowsOverEmptyPlanIsZerosAndAddsNoGradient) {
  Tensor table = TestTensor({3, 2}, 70);
  const auto plan = MakeRowAggregation(4, 2, 3, {}, {}, {});
  Tensor out = AggregateRows(table, plan);
  ASSERT_EQ(out.Shape(), (std::vector<int64_t>{4, 4}));
  EXPECT_EQ(out.impl().data, FloatBuffer(16, 0.0f));
  FloatBuffer& grad = table.MutableGrad();
  std::iota(grad.begin(), grad.end(), 0.5f);
  const FloatBuffer before = grad;
  Sum(out).Backward();
  EXPECT_EQ(table.Grad(), before);
}

TEST(OpsForwardTest, MulColBroadcast) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor s = Tensor::FromVector({2, 1}, {10, -1});
  Tensor out = MulColBroadcast(a, s);
  EXPECT_EQ(out.At(0, 1), 20.0f);
  EXPECT_EQ(out.At(1, 0), -3.0f);
}

TEST(OpsForwardTest, ConcatColsAndRows) {
  Tensor a = Tensor::FromVector({2, 1}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor cc = ConcatCols(a, b);
  EXPECT_EQ(cc.Dim(1), 3);
  EXPECT_EQ(cc.At(0, 1), 3.0f);
  EXPECT_EQ(cc.At(1, 0), 2.0f);
  Tensor c = Tensor::FromVector({1, 1}, {7});
  Tensor cr = ConcatRows(a, c);
  EXPECT_EQ(cr.Dim(0), 3);
  EXPECT_EQ(cr.At(2, 0), 7.0f);
}

TEST(OpsForwardTest, SliceColsAndRows) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor sc = SliceCols(a, 1, 2);
  EXPECT_EQ(sc.At(0, 0), 2.0f);
  EXPECT_EQ(sc.At(1, 1), 6.0f);
  Tensor sr = SliceRows(a, 1, 1);
  EXPECT_EQ(sr.Dim(0), 1);
  EXPECT_EQ(sr.At(0, 2), 6.0f);
}

TEST(OpsForwardTest, ReshapePreservesData) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, {3, 2});
  EXPECT_EQ(r.At(2, 1), 6.0f);
  EXPECT_DEATH(Reshape(a, {4, 2}), "expected");
}

// ---------------------------------------------------------------------------
// Softmax and losses.

TEST(OpsForwardTest, SoftmaxRowsSumToOne) {
  Tensor a = TestTensor({4, 7}, 21, false);
  Tensor s = Softmax(a);
  for (int64_t i = 0; i < 4; ++i) {
    double total = 0.0;
    for (int64_t j = 0; j < 7; ++j) {
      total += s.At(i, j);
      EXPECT_GT(s.At(i, j), 0.0f);
    }
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST(OpsForwardTest, SoftmaxInvariantToRowShift) {
  Tensor a = Tensor::FromVector({1, 3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({1, 3}, {101, 102, 103});
  Tensor sa = Softmax(a);
  Tensor sb = Softmax(b);
  for (int64_t j = 0; j < 3; ++j)
    EXPECT_NEAR(sa.At(0, j), sb.At(0, j), 1e-6f);
}

TEST(OpsForwardTest, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor a = TestTensor({3, 5}, 23, false);
  Tensor ls = LogSoftmax(a);
  Tensor s = Softmax(a);
  for (int64_t i = 0; i < 15; ++i)
    EXPECT_NEAR(ls.Data()[i], std::log(s.Data()[i]), 1e-5f);
}

TEST(OpsForwardTest, CrossEntropyLogitsMatchesManual) {
  Tensor logits = Tensor::FromVector({2, 3}, {1, 2, 3, 3, 2, 1});
  Tensor loss = CrossEntropyLogits(logits, {2, 0});
  Tensor ls = LogSoftmax(logits);
  const float expected = -(ls.At(0, 2) + ls.At(1, 0)) / 2.0f;
  EXPECT_NEAR(loss.Item(), expected, 1e-5f);
}

TEST(OpsForwardTest, NllFromProbsPerfectPredictionNearZero) {
  Tensor p = Tensor::FromVector({1, 3}, {0.0f, 1.0f, 0.0f});
  EXPECT_NEAR(NllFromProbs(p, {1}).Item(), 0.0f, 1e-5f);
  EXPECT_GT(NllFromProbs(p, {0}).Item(), 10.0f);  // wrong target blows up
}

// ---------------------------------------------------------------------------
// Convolutions.

TEST(OpsForwardTest, Conv1dIdentityKernel) {
  // One input channel, kernel [0,1,0] with pad 1 reproduces the input.
  Tensor x = Tensor::FromVector({1, 1, 4}, {1, 2, 3, 4});
  Tensor w = Tensor::FromVector({1, 1, 3}, {0, 1, 0});
  Tensor out = Conv1d(x, w, Tensor(), 1);
  ASSERT_EQ(out.Dim(2), 4);
  for (int64_t i = 0; i < 4; ++i)
    EXPECT_FLOAT_EQ(out.Data()[i], x.Data()[i]);
}

TEST(OpsForwardTest, Conv1dShiftKernelAndPadding) {
  // Kernel [1,0,0] with pad 1 shifts the signal right by one (zero-padded).
  Tensor x = Tensor::FromVector({1, 1, 4}, {1, 2, 3, 4});
  Tensor w = Tensor::FromVector({1, 1, 3}, {1, 0, 0});
  Tensor out = Conv1d(x, w, Tensor(), 1);
  EXPECT_FLOAT_EQ(out.Data()[0], 0.0f);
  EXPECT_FLOAT_EQ(out.Data()[1], 1.0f);
  EXPECT_FLOAT_EQ(out.Data()[3], 3.0f);
}

TEST(OpsForwardTest, Conv1dTwoChannelsSum) {
  Tensor x = Tensor::FromVector({1, 2, 2}, {1, 2, 10, 20});
  Tensor w = Tensor::FromVector({1, 2, 1}, {1, 1});
  Tensor out = Conv1d(x, w, Tensor(), 0);
  EXPECT_FLOAT_EQ(out.Data()[0], 11.0f);
  EXPECT_FLOAT_EQ(out.Data()[1], 22.0f);
}

TEST(OpsForwardTest, Conv1dBias) {
  Tensor x = Tensor::FromVector({1, 1, 2}, {0, 0});
  Tensor w = Tensor::FromVector({2, 1, 1}, {1, 1});
  Tensor bias = Tensor::FromVector({2}, {5, -3});
  Tensor out = Conv1d(x, w, bias, 0);
  EXPECT_FLOAT_EQ(out.Data()[0], 5.0f);
  EXPECT_FLOAT_EQ(out.Data()[2], -3.0f);
}

TEST(OpsForwardTest, Conv2dIdentityKernel) {
  Tensor x = Tensor::FromVector({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor w = Tensor::FromVector({1, 1, 3, 3}, {0, 0, 0, 0, 1, 0, 0, 0, 0});
  Tensor out = Conv2d(x, w, Tensor(), 1);
  ASSERT_EQ(out.Dim(2), 2);
  ASSERT_EQ(out.Dim(3), 2);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(out.Data()[i], x.Data()[i]);
}

TEST(OpsForwardTest, Conv2dBoxSum) {
  Tensor x = Tensor::Full({1, 1, 3, 3}, 1.0f);
  Tensor w = Tensor::Full({1, 1, 3, 3}, 1.0f);
  Tensor out = Conv2d(x, w, Tensor(), 1);
  // Center sees all 9 ones; corners see 4.
  EXPECT_FLOAT_EQ(out.Data()[4], 9.0f);
  EXPECT_FLOAT_EQ(out.Data()[0], 4.0f);
}

// ---------------------------------------------------------------------------
// Pairwise kernels.

TEST(OpsForwardTest, PairwiseNegL1KnownValues) {
  Tensor a = Tensor::FromVector({1, 2}, {0, 0});
  Tensor b = Tensor::FromVector({2, 2}, {1, 1, -2, 0});
  Tensor out = PairwiseNegL1(a, b);
  EXPECT_FLOAT_EQ(out.At(0, 0), -2.0f);
  EXPECT_FLOAT_EQ(out.At(0, 1), -2.0f);
}

TEST(OpsForwardTest, PairwiseComplexNegDistZeroDistanceGivesGamma) {
  Tensor q = Tensor::FromVector({1, 2}, {0.5f, -0.5f});
  Tensor out = PairwiseComplexNegDist(q, q, q, q, 3.0f);
  EXPECT_NEAR(out.At(0, 0), 3.0f, 1e-3f);
}

// ---------------------------------------------------------------------------
// Autograd: numerical gradient checks for every differentiable op.

TEST(GradTest, Add) {
  Tensor a = TestTensor({3, 4}, 31);
  Tensor b = TestTensor({3, 4}, 32);
  CheckGradients([&] { return Sum(Add(a, b)); }, {a, b});
}

TEST(GradTest, Sub) {
  Tensor a = TestTensor({3, 4}, 33);
  Tensor b = TestTensor({3, 4}, 34);
  CheckGradients([&] { return Sum(Sub(a, b)); }, {a, b});
}

TEST(GradTest, Mul) {
  Tensor a = TestTensor({3, 4}, 35);
  Tensor b = TestTensor({3, 4}, 36);
  CheckGradients([&] { return Sum(Mul(a, b)); }, {a, b});
}

TEST(GradTest, AddRowBroadcast) {
  Tensor a = TestTensor({3, 4}, 37);
  Tensor bias = TestTensor({4}, 38);
  CheckGradients([&] { return Sum(AddRowBroadcast(a, bias)); }, {a, bias});
}

TEST(GradTest, ScaleAndMean) {
  Tensor a = TestTensor({2, 5}, 39);
  CheckGradients([&] { return Mean(Scale(a, -2.5f)); }, {a});
}

TEST(GradTest, Sigmoid) {
  Tensor a = TestTensor({2, 3}, 41);
  CheckGradients([&] { return Sum(Sigmoid(a)); }, {a});
}

TEST(GradTest, Tanh) {
  Tensor a = TestTensor({2, 3}, 42);
  CheckGradients([&] { return Sum(Tanh(a)); }, {a});
}

TEST(GradTest, CosSin) {
  Tensor a = TestTensor({2, 3}, 43);
  CheckGradients([&] { return Sum(Add(Cos(a), Sin(a))); }, {a});
}

TEST(GradTest, RReluEvalMode) {
  Tensor a = TestTensor({2, 4}, 44);
  CheckGradients(
      [&] { return Sum(RRelu(a, 0.125f, 0.333f, false, nullptr)); }, {a});
}

TEST(GradTest, MatMul) {
  Tensor a = TestTensor({3, 4}, 45);
  Tensor b = TestTensor({4, 2}, 46);
  // Weight the output so the gradient is not uniform.
  Tensor w = TestTensor({3, 2}, 47, false);
  CheckGradients([&] { return Sum(Mul(MatMul(a, b), w)); }, {a, b});
}

TEST(GradTest, MatMulTransposeB) {
  Tensor a = TestTensor({3, 4}, 48);
  Tensor b = TestTensor({5, 4}, 49);
  Tensor w = TestTensor({3, 5}, 50, false);
  CheckGradients([&] { return Sum(Mul(MatMulTransposeB(a, b), w)); }, {a, b});
}

TEST(GradTest, GatherRows) {
  Tensor a = TestTensor({5, 3}, 51);
  Tensor w = TestTensor({4, 3}, 52, false);
  std::vector<int64_t> idx = {0, 2, 2, 4};
  CheckGradients([&] { return Sum(Mul(GatherRows(a, idx), w)); }, {a});
}

TEST(GradTest, ScatterAddRows) {
  Tensor a = TestTensor({4, 3}, 53);
  Tensor w = TestTensor({3, 3}, 54, false);
  std::vector<int64_t> idx = {1, 1, 0, 2};
  CheckGradients(
      [&] { return Sum(Mul(AggregateRows(a, ScatterPlan(idx, 3)), w)); }, {a});
}

TEST(GradTest, AggregateRows) {
  // Duplicate sources, several entries per slot and empty slots.
  Tensor table = TestTensor({4, 3}, 64);
  const auto plan =
      MakeRowAggregation(3, 2, 4, {0, 0, 5, 2, 5, 0, 3},
                         {1, 3, 1, 0, 2, 1, 3},
                         {0.5f, -1.5f, 2.0f, 1.0f, 0.25f, 1.0f, -0.75f});
  Tensor w = TestTensor({3, 6}, 65, false);
  CheckGradients([&] { return Sum(Mul(AggregateRows(table, plan), w)); },
                 {table});
}

TEST(GradTest, ConcatColsOfSeveralParts) {
  Tensor a = TestTensor({2, 3}, 66);
  Tensor b = TestTensor({2, 1}, 67);
  Tensor c = TestTensor({2, 2}, 68);
  Tensor w = TestTensor({2, 6}, 69, false);
  CheckGradients([&] { return Sum(Mul(ConcatCols({a, b, c}), w)); },
                 {a, b, c});
}

TEST(GradTest, MulColBroadcast) {
  Tensor a = TestTensor({3, 4}, 56);
  Tensor s = TestTensor({3, 1}, 57);
  CheckGradients([&] { return Sum(MulColBroadcast(a, s)); }, {a, s});
}

TEST(GradTest, ConcatColsSliceCols) {
  Tensor a = TestTensor({2, 3}, 58);
  Tensor b = TestTensor({2, 2}, 59);
  Tensor w = TestTensor({2, 2}, 60, false);
  CheckGradients(
      [&] { return Sum(Mul(SliceCols(ConcatCols(a, b), 2, 2), w)); }, {a, b});
}

TEST(GradTest, ConcatRowsSliceRows) {
  Tensor a = TestTensor({2, 3}, 61);
  Tensor b = TestTensor({3, 3}, 62);
  Tensor w = TestTensor({2, 3}, 63, false);
  CheckGradients(
      [&] { return Sum(Mul(SliceRows(ConcatRows(a, b), 1, 2), w)); }, {a, b});
}

TEST(GradTest, Reshape) {
  Tensor a = TestTensor({2, 6}, 64);
  Tensor w = TestTensor({4, 3}, 65, false);
  CheckGradients([&] { return Sum(Mul(Reshape(a, {4, 3}), w)); }, {a});
}

TEST(GradTest, Softmax) {
  Tensor a = TestTensor({2, 4}, 66);
  Tensor w = TestTensor({2, 4}, 67, false);
  CheckGradients([&] { return Sum(Mul(Softmax(a), w)); }, {a});
}

TEST(GradTest, LogSoftmax) {
  Tensor a = TestTensor({2, 4}, 68);
  Tensor w = TestTensor({2, 4}, 69, false);
  CheckGradients([&] { return Sum(Mul(LogSoftmax(a), w)); }, {a});
}

TEST(GradTest, CrossEntropyLogits) {
  Tensor a = TestTensor({3, 5}, 70);
  std::vector<int64_t> targets = {0, 3, 4};
  CheckGradients([&] { return CrossEntropyLogits(a, targets); }, {a});
}

TEST(GradTest, NllFromProbsViaSoftmax) {
  Tensor a = TestTensor({3, 5}, 71);
  std::vector<int64_t> targets = {1, 2, 0};
  CheckGradients([&] { return NllFromProbs(Softmax(a), targets); }, {a});
}

TEST(GradTest, Conv1d) {
  Tensor x = TestTensor({2, 2, 5}, 72);
  Tensor w = TestTensor({3, 2, 3}, 73);
  Tensor bias = TestTensor({3}, 74);
  Tensor mask = TestTensor({2 * 3 * 5}, 75, false);
  CheckGradients(
      [&] {
        Tensor out = Conv1d(x, w, bias, 1);
        return Sum(Mul(Reshape(out, {1, out.NumElements()}),
                       Reshape(mask, {1, mask.NumElements()})));
      },
      {x, w, bias});
}

TEST(GradTest, Conv2d) {
  Tensor x = TestTensor({1, 2, 4, 3}, 76);
  Tensor w = TestTensor({2, 2, 3, 3}, 77);
  Tensor bias = TestTensor({2}, 78);
  Tensor mask = TestTensor({2 * 4 * 3}, 79, false);
  CheckGradients(
      [&] {
        Tensor out = Conv2d(x, w, bias, 1);
        return Sum(Mul(Reshape(out, {1, out.NumElements()}),
                       Reshape(mask, {1, mask.NumElements()})));
      },
      {x, w, bias});
}

TEST(GradTest, PairwiseNegL1) {
  // Keep values well separated from ties so |.| is differentiable.
  Tensor a = Tensor::FromVector({2, 3}, {0.9f, -0.7f, 0.3f, -0.2f, 0.8f, -0.6f},
                                true);
  Tensor b = Tensor::FromVector({2, 3}, {0.1f, 0.4f, -0.9f, 0.6f, -0.3f, 0.2f},
                                true);
  Tensor w = TestTensor({2, 2}, 80, false);
  CheckGradients([&] { return Sum(Mul(PairwiseNegL1(a, b), w)); }, {a, b});
}

TEST(GradTest, PairwiseComplexNegDist) {
  Tensor qre = TestTensor({2, 3}, 81);
  Tensor qim = TestTensor({2, 3}, 82);
  Tensor ore = TestTensor({2, 3}, 83);
  Tensor oim = TestTensor({2, 3}, 84);
  Tensor w = TestTensor({2, 2}, 85, false);
  CheckGradients(
      [&] {
        return Sum(Mul(PairwiseComplexNegDist(qre, qim, ore, oim, 2.0f), w));
      },
      {qre, qim, ore, oim});
}

TEST(GradTest, FirstContributionOfNegativeZeroLandsAsPositiveZero) {
  // A gradient is written as 0.0f + g by its first contribution, like a
  // zero-filled buffer that g was added into, so it never holds -0.
  const std::vector<float> g = {-0.0f, 0.0f, -1.5f, -0.0f};
  Tensor direct = Tensor::Zeros({4}, /*requires_grad=*/true);
  direct.impl().AccumulateGrad(g.data(), 4);
  const std::vector<float> want = {0.0f, 0.0f, -1.5f, 0.0f};
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(direct.Grad()[i]),
              std::bit_cast<uint32_t>(want[i]))
        << i;
  }
  // The same through the elementwise backward kernels, whose terms are -0
  // here: Mul by a -0 weight, Scale by -0 and Relu's zero derivative under
  // a negative upstream gradient.
  Tensor a = TestTensor({1, 4}, 94);
  Tensor b = TestTensor({1, 4}, 95);
  Tensor c = Tensor::FromVector({1, 4}, {-1.0f, -2.0f, 0.5f, -0.0f}, true);
  const Tensor w = Tensor::FromVector({1, 4}, {-0.0f, -0.0f, -2.0f, -0.0f});
  Sum(Add(Add(Mul(a, w), Scale(b, -0.0f)), Mul(Relu(c), w))).Backward();
  for (const Tensor* t : {&a, &b, &c}) {
    for (int64_t i = 0; i < 4; ++i) {
      const float x = t->Grad()[i];
      if (x == 0.0f) {
        EXPECT_FALSE(std::signbit(x)) << i;
      }
    }
  }
  EXPECT_EQ(a.Grad()[2], -2.0f);
  EXPECT_EQ(c.Grad()[2], -2.0f);
}

TEST(GradTest, WindowBackwardIntoUntouchedParentMatchesZeroFilledReference) {
  // SliceCols, SliceRows and ConcatCols add only their own window into the
  // parent's gradient. A parent that no backward has touched yet must end
  // with the bits of one whose gradient was zero-filled beforehand.
  const Tensor w_cols = TestTensor({3, 2}, 96, false);
  const Tensor w_rows = TestTensor({2, 5}, 97, false);
  const Tensor w_cat = TestTensor({3, 7}, 98, false);
  const auto run = [&](bool zero_filled) {
    Tensor a = TestTensor({3, 5}, 99);
    Tensor b = TestTensor({3, 2}, 100);
    if (zero_filled) {
      a.MutableGrad();
      b.MutableGrad();
    }
    Add(Add(Sum(Mul(SliceCols(a, 1, 2), w_cols)),
            Sum(Mul(SliceRows(a, 1, 2), w_rows))),
        Sum(Mul(ConcatCols(a, b), w_cat)))
        .Backward();
    return std::vector<FloatBuffer>{a.Grad(), b.Grad()};
  };
  const std::vector<FloatBuffer> fresh = run(false);
  const std::vector<FloatBuffer> reference = run(true);
  ASSERT_EQ(fresh.size(), reference.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    ASSERT_EQ(fresh[i].size(), reference[i].size());
    EXPECT_EQ(std::memcmp(fresh[i].data(), reference[i].data(),
                          fresh[i].size() * sizeof(float)),
              0)
        << i;
  }
  // A lone window: every element outside it is exactly +0.
  Tensor c = TestTensor({3, 5}, 101);
  Sum(Mul(SliceCols(c, 1, 2), w_cols)).Backward();
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 5; ++j) {
      const float x = c.Grad()[i * 5 + j];
      if (j == 1 || j == 2) {
        EXPECT_EQ(x, w_cols.Data()[i * 2 + j - 1]);
      } else {
        EXPECT_EQ(std::bit_cast<uint32_t>(x), 0u) << i << "," << j;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Autograd machinery.

TEST(AutogradTest, GradAccumulatesWhenTensorUsedTwice) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2}, true);
  Tensor out = Sum(Add(a, a));
  out.Backward();
  EXPECT_FLOAT_EQ(a.Grad()[0], 2.0f);
  EXPECT_FLOAT_EQ(a.Grad()[1], 2.0f);
}

TEST(AutogradTest, DiamondGraphBackward) {
  // out = sum(a*a + a): d/da = 2a + 1.
  Tensor a = Tensor::FromVector({1, 3}, {1, 2, 3}, true);
  Sum(Add(Mul(a, a), a)).Backward();
  EXPECT_FLOAT_EQ(a.Grad()[0], 3.0f);
  EXPECT_FLOAT_EQ(a.Grad()[1], 5.0f);
  EXPECT_FLOAT_EQ(a.Grad()[2], 7.0f);
}

TEST(AutogradTest, NoGradGuardDisablesRecording) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2}, true);
  {
    tensor::NoGradGuard guard;
    Tensor out = Add(a, a);
    EXPECT_FALSE(out.RequiresGrad());
  }
  Tensor out = Add(a, a);
  EXPECT_TRUE(out.RequiresGrad());
}

TEST(AutogradTest, NoGradGuardNests) {
  EXPECT_TRUE(GradModeEnabled());
  {
    NoGradGuard g1;
    EXPECT_FALSE(GradModeEnabled());
    {
      NoGradGuard g2;
      EXPECT_FALSE(GradModeEnabled());
    }
    EXPECT_FALSE(GradModeEnabled());
  }
  EXPECT_TRUE(GradModeEnabled());
}

TEST(AutogradTest, ConstantInputsGetNoGradient) {
  Tensor a = TestTensor({2, 2}, 90, /*requires_grad=*/true);
  Tensor c = TestTensor({2, 2}, 91, /*requires_grad=*/false);
  Sum(Mul(a, c)).Backward();
  EXPECT_TRUE(a.HasGrad());
  EXPECT_FALSE(c.HasGrad());
}

TEST(AutogradTest, ZeroGradClears) {
  Tensor a = TestTensor({2, 2}, 92);
  Sum(a).Backward();
  EXPECT_FLOAT_EQ(a.Grad()[0], 1.0f);
  a.ZeroGrad();
  EXPECT_FLOAT_EQ(a.Grad()[0], 0.0f);
}

TEST(AutogradTest, BackwardFromNonScalarSeedsOnes) {
  Tensor a = TestTensor({2, 2}, 93);
  Tensor out = Scale(a, 3.0f);
  out.Backward();
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(a.Grad()[i], 3.0f);
}

// Deep chains must not overflow the stack (iterative DFS).
TEST(AutogradTest, DeepChainBackward) {
  Tensor a = Tensor::Scalar(1.0f, true);
  Tensor x = a;
  for (int i = 0; i < 5000; ++i) x = Scale(x, 1.0f);
  Sum(x).Backward();
  EXPECT_FLOAT_EQ(a.Grad()[0], 1.0f);
}

// ---------------------------------------------------------------------------
// Property-style parameterized sweep: softmax rows sum to one and gradients
// check out across many shapes.

class SoftmaxShapeTest
    : public ::testing::TestWithParam<std::pair<int64_t, int64_t>> {};

TEST_P(SoftmaxShapeTest, RowsSumToOne) {
  const auto [rows, cols] = GetParam();
  Tensor a = TestTensor({rows, cols}, 1000 + rows * 31 + cols, false);
  Tensor s = Softmax(a);
  for (int64_t i = 0; i < rows; ++i) {
    double total = 0.0;
    for (int64_t j = 0; j < cols; ++j) total += s.At(i, j);
    EXPECT_NEAR(total, 1.0, 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SoftmaxShapeTest,
    ::testing::Values(std::pair<int64_t, int64_t>{1, 1},
                      std::pair<int64_t, int64_t>{1, 17},
                      std::pair<int64_t, int64_t>{8, 3},
                      std::pair<int64_t, int64_t>{5, 64},
                      std::pair<int64_t, int64_t>{32, 5},
                      std::pair<int64_t, int64_t>{2, 301}));

class MatMulShapeTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {
};

TEST_P(MatMulShapeTest, GradientChecks) {
  const auto [m, k, n] = GetParam();
  Tensor a = TestTensor({m, k}, 2000 + m * 7 + k, true);
  Tensor b = TestTensor({k, n}, 3000 + k * 7 + n, true);
  CheckGradients([&] { return Mean(MatMul(a, b)); }, {a, b});
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulShapeTest,
                         ::testing::Values(std::tuple<int64_t, int64_t, int64_t>{1, 1, 1},
                                           std::tuple<int64_t, int64_t, int64_t>{2, 3, 4},
                                           std::tuple<int64_t, int64_t, int64_t>{5, 1, 5},
                                           std::tuple<int64_t, int64_t, int64_t>{1, 8, 2},
                                           std::tuple<int64_t, int64_t, int64_t>{6, 6, 6}));

}  // namespace
}  // namespace retia::tensor
