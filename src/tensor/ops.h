#ifndef RETIA_TENSOR_OPS_H_
#define RETIA_TENSOR_OPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace retia::tensor {

// All ops are pure functions building autograd tape edges when recording is
// enabled (see NoGradGuard). Shapes are validated with RETIA_CHECK.

// ---- Elementwise arithmetic -----------------------------------------------

// c = a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);
// c = a - b (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);
// c = a * b elementwise (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);
// c[i,j] = a[i,j] + bias[j]; `a` is 2-D, `bias` is 1-D of length a.Dim(1).
Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias);
// c = s * a.
Tensor Scale(const Tensor& a, float s);
// c = -a.
Tensor Neg(const Tensor& a);

// ---- Activations -----------------------------------------------------------

Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Cos(const Tensor& a);
Tensor Sin(const Tensor& a);

// Randomized leaky ReLU (the paper's activation, Eq. 1/4). In training mode
// each negative element gets a slope drawn uniformly from [lo, hi]; in eval
// mode the mean slope (lo+hi)/2 is used. `rng` may be null in eval mode.
Tensor RRelu(const Tensor& a, float lo, float hi, bool training,
             util::Rng* rng);

// Inverted dropout with keep-prob (1-p). In eval mode or at p = 0 it
// returns `a` itself, which adds no tape node; its gradient then lands in
// `a` bit-unchanged provided the result is `a`'s only use.
Tensor Dropout(const Tensor& a, float p, bool training, util::Rng* rng);

// ---- Reductions ------------------------------------------------------------

// Sum of all elements -> scalar tensor.
Tensor Sum(const Tensor& a);
// Mean of all elements -> scalar tensor.
Tensor Mean(const Tensor& a);

// ---- Matrix multiplication --------------------------------------------------

// [m,k] x [k,n] -> [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);
// a:[m,k], b:[n,k] -> a * b^T : [m,n]. The natural layout for scoring a batch
// of queries against an embedding table.
Tensor MatMulTransposeB(const Tensor& a, const Tensor& b);

// ---- Indexing / structure ----------------------------------------------------

// The two sparse ops: GatherRows for lookups, AggregateRows for every
// weighted row-sum (mean pooling, message aggregation).

// Rows of `a` selected by `idx` (values in [0, a.Dim(0))) -> [idx.size(), n].
// This is the embedding-lookup / per-edge gather primitive. Its backward
// scatter-adds the output gradient into `a` with fixed shards owning
// table-row ranges, each row summed in index order.
Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& idx);

// The fixed sparsity pattern of AggregateRows: entry j adds
// weight[j] * table[src[j]] into output slot slot[j]. For an [table_rows, n]
// table the output is [rows, blocks * n], and slot s is the n-wide column
// block s % blocks of row s / blocks (row s of the output viewed as
// [rows * blocks, n]). The entries are held twice, grouped by slot for the
// forward pass and by source row for the backward pass, each group in input
// order. Build it once per pattern with MakeRowAggregation; it is immutable
// and shared with the backward closures that use it.
struct RowAggregation {
  int64_t rows = 0;
  int64_t blocks = 1;
  int64_t table_rows = 0;
  // Entries of slot s: [slot_begin[s], slot_begin[s + 1]) of slot_src and
  // slot_weight.
  std::vector<int64_t> slot_begin;
  std::vector<int64_t> slot_src;
  std::vector<float> slot_weight;
  // Entries of source row i: [src_begin[i], src_begin[i + 1]) of src_slot
  // and src_weight.
  std::vector<int64_t> src_begin;
  std::vector<int64_t> src_slot;
  std::vector<float> src_weight;
};

// Checks every index and groups the entries (slot[j], src[j], weight[j]).
std::shared_ptr<const RowAggregation> MakeRowAggregation(
    int64_t rows, int64_t blocks, int64_t table_rows,
    const std::vector<int64_t>& slot, const std::vector<int64_t>& src,
    const std::vector<float>& weight);

// Sparse weighted row aggregation: out slot s = sum over its entries j, in
// input order, of weight[j] * table[src[j]]; empty slots are zero. Gradients
// flow to `table` (the weights are constants). Forward shards own slot
// ranges and backward shards own source-row ranges, and every output row
// is summed in entry order, so the result is bit-identical to the serial
// loop for every thread count. This is message passing with the transform
// deferred: a layer aggregates into per-slot rows first and then applies
// one GEMM per output row instead of one per edge.
Tensor AggregateRows(const Tensor& table,
                     const std::shared_ptr<const RowAggregation>& plan);

// c[i,j] = a[i,j] * s[i,0]; `s` is an [m,1] tensor. Gradients flow to both
// inputs. Used for the basis coefficients of the R-GCN basis decomposition.
Tensor MulColBroadcast(const Tensor& a, const Tensor& s);

// Rows [start, start+len) of a 2-D tensor.
Tensor SliceRows(const Tensor& a, int64_t start, int64_t len);

// [m,p] ++ [m,q] -> [m,p+q] along columns.
Tensor ConcatCols(const Tensor& a, const Tensor& b);
// [m,p_0] ++ ... ++ [m,p_k] -> [m, sum p_i] along columns, in one copy.
Tensor ConcatCols(const std::vector<Tensor>& parts);
// [p,n] ++ [q,n] -> [p+q,n] along rows.
Tensor ConcatRows(const Tensor& a, const Tensor& b);
// Columns [start, start+len) of a 2-D tensor.
Tensor SliceCols(const Tensor& a, int64_t start, int64_t len);
// Same data, new shape (element count must match). Gradient passes through.
Tensor Reshape(const Tensor& a, std::vector<int64_t> shape);

// ---- Softmax and losses -------------------------------------------------------

// Row-wise softmax of a 2-D tensor.
Tensor Softmax(const Tensor& a);
// Row-wise log-softmax (numerically stable).
Tensor LogSoftmax(const Tensor& a);

// Mean over rows of -log(p[i, target[i]] + eps). Consumes *probabilities*
// (possibly a sum of several softmax outputs, Eq. 13/14 of the paper).
Tensor NllFromProbs(const Tensor& p, const std::vector<int64_t>& targets);

// Standard softmax cross-entropy from logits (stable log-sum-exp form).
Tensor CrossEntropyLogits(const Tensor& logits,
                          const std::vector<int64_t>& targets);

// ---- Convolution ----------------------------------------------------------------

// input:[B,Cin,L], weight:[Cout,Cin,K], bias:[Cout] (may be undefined),
// zero padding `pad` on both ends -> [B,Cout,L+2*pad-K+1].
// ConvTransE (Eq. 11/12) uses Cin=2 (stacked subject/relation embeddings).
Tensor Conv1d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t pad);

// input:[B,Cin,H,W], weight:[Cout,Cin,KH,KW], bias:[Cout] (may be undefined),
// zero padding `pad` -> [B,Cout,H',W']. Used by the ConvE baseline.
Tensor Conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t pad);

// ---- Pairwise scoring kernels -----------------------------------------------------

// c[i,j] = -sum_k |a[i,k] - b[j,k]|. Translational scoring (TransE/TTransE)
// of a batch of queries against every candidate.
Tensor PairwiseNegL1(const Tensor& a, const Tensor& b);

// RotatE scoring: entities' complex embeddings given as (re, im) halves.
// c[i,j] = gamma - sum_k sqrt((qre[i,k]-ore[j,k])^2 + (qim[i,k]-oim[j,k])^2).
Tensor PairwiseComplexNegDist(const Tensor& qre, const Tensor& qim,
                              const Tensor& ore, const Tensor& oim,
                              float gamma);

// Row-wise layer normalisation (Ba et al. 2016):
//   y[i,:] = gamma * (x[i,:] - mean_i) / sqrt(var_i + eps) + beta.
// `gamma` and `beta` are length-n vectors. The paper's Sec. IV-D2/IV-E
// discusses how mean-pooling interacts with "the layer normalization
// process of complex networks"; this op makes that normalisation available
// to the decoders (ConvTransEDecoder with_layernorm).
Tensor LayerNormRows(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                     float eps = 1e-5f);

// Mean over rows of max(0, min_cos - cos_sim(a[i], b[i])): the static-graph
// angle constraint of RE-GCN (adopted by RETIA for the ICEWS datasets).
// Gradients flow to both `a` (evolving embeddings) and `b` (static
// embeddings).
Tensor CosineHingeLoss(const Tensor& a, const Tensor& b, float min_cos);

}  // namespace retia::tensor

#endif  // RETIA_TENSOR_OPS_H_
