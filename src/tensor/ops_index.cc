#include <algorithm>
#include <cstring>
#include <memory>

#include "obs/obs.h"
#include "par/parallel_for.h"
#include "simd/simd.h"
#include "tensor/ops.h"

namespace retia::tensor {

namespace {

// GatherRows' backward: scatter-add of `k` source rows into `rows`
// destination rows ("owner computes"). Each fixed shard owns a contiguous
// destination-row range, zeroes it, and scans the whole index list,
// accumulating only the rows it owns. Writes are disjoint across shards
// and every destination row receives its contributions in index order —
// exactly the serial accumulation, so the result is bit-identical for
// every thread count. Duplicate indices (one table row looked up several
// times) are therefore race-free by construction.
void ScatterAddRowsKernel(const float* src, const int64_t* idx, int64_t k,
                          int64_t n, int64_t rows, float* out) {
  const int64_t shards =
      std::min(par::NumShards(k * n, par::kTargetShardWork), rows);
  par::ParallelShards(shards, [&](int64_t shard) {
    const par::Range owned = par::ShardRange(rows, shards, shard);
    std::fill(out + owned.begin * n, out + owned.end * n, 0.0f);
    for (int64_t e = 0; e < k; ++e) {
      const int64_t d = idx[e];
      if (d < owned.begin || d >= owned.end) continue;
      simd::Kernels().accumulate(src + e * n, out + d * n, n);
    }
  });
}

// out[g] = sum over j in [begin[g], begin[g + 1]) of weight[j] * in[at[j]]
// for every group g in [0, groups), each n wide and summed in entry order
// from zero (an empty group is zero). Fixed shards own contiguous group
// ranges, so writes are disjoint and every group's sum is the serial one at
// any thread count. AggregateRows runs it by slot forward and by source row
// backward.
void SegmentedAxpyKernel(const int64_t* begin, const int64_t* at,
                         const float* weight, const float* in, int64_t groups,
                         int64_t n, float* out) {
  if (groups == 0) return;
  const int64_t shards = std::min(
      par::NumShards(begin[groups] * n, par::kTargetShardWork), groups);
  par::ParallelShards(shards, [&](int64_t shard) {
    const par::Range owned = par::ShardRange(groups, shards, shard);
    const simd::KernelTable& t = simd::Kernels();
    for (int64_t g = owned.begin; g < owned.end; ++g) {
      float* row = out + g * n;
      const int64_t j0 = begin[g];
      if (j0 == begin[g + 1]) {
        std::fill_n(row, n, 0.0f);
        continue;
      }
      // 0 + weight * in, exactly an axpy into a zeroed row.
      t.scale_add(in + at[j0] * n, weight[j0], row, n, /*add=*/false);
      for (int64_t j = j0 + 1; j < begin[g + 1]; ++j) {
        t.axpy(weight[j], in + at[j] * n, row, n);
      }
    }
  });
}

// Stable counting sort of entries [0, keys.size()) by key in [0, num_keys):
// returns the CSR offsets and writes the entry order to `order`.
std::vector<int64_t> GroupByKey(const std::vector<int64_t>& keys,
                                int64_t num_keys, std::vector<int64_t>* order) {
  std::vector<int64_t> begin(num_keys + 1, 0);
  for (int64_t key : keys) ++begin[key + 1];
  for (int64_t g = 0; g < num_keys; ++g) begin[g + 1] += begin[g];
  std::vector<int64_t> next(begin.begin(), begin.end() - 1);
  order->resize(keys.size());
  for (size_t j = 0; j < keys.size(); ++j) {
    (*order)[next[keys[j]]++] = static_cast<int64_t>(j);
  }
  return begin;
}

}  // namespace

Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& idx) {
  RETIA_OBS_TIMED_SCOPE("tensor.gather.us");
  RETIA_CHECK_EQ(a.Rank(), 2);
  const int64_t n = a.Dim(1);
  const int64_t rows = a.Dim(0);
  const int64_t k = static_cast<int64_t>(idx.size());
  FloatBuffer out(k * n);
  const float* pa = a.Data();
  for (int64_t e = 0; e < k; ++e) {
    RETIA_CHECK_LT(idx[e], rows);
    RETIA_CHECK_LE(0, idx[e]);
  }
  par::ParallelFor(k, par::GrainRows(n), [&](int64_t e0, int64_t e1) {
    for (int64_t e = e0; e < e1; ++e) {
      std::memcpy(out.data() + e * n, pa + idx[e] * n, n * sizeof(float));
    }
  });
  auto idx_copy = std::make_shared<std::vector<int64_t>>(idx);
  return MakeOpResult({k, n}, std::move(out), {a},
                      [a, idx_copy, rows, n, k](TensorImpl& self) mutable {
                        if (!a.RequiresGrad()) return;
                        // Adjoint of a gather is a (duplicate-index)
                        // scatter-add of the output grads.
                        a.impl().AccumulateGradFrom([&](float* ga) {
                          ScatterAddRowsKernel(self.grad.data(),
                                               idx_copy->data(), k, n, rows,
                                               ga);
                        });
                      });
}

std::shared_ptr<const RowAggregation> MakeRowAggregation(
    int64_t rows, int64_t blocks, int64_t table_rows,
    const std::vector<int64_t>& slot, const std::vector<int64_t>& src,
    const std::vector<float>& weight) {
  RETIA_CHECK_LE(0, rows);
  RETIA_CHECK_LE(1, blocks);
  RETIA_CHECK_LE(0, table_rows);
  RETIA_CHECK_EQ(slot.size(), src.size());
  RETIA_CHECK_EQ(slot.size(), weight.size());
  const int64_t num_slots = rows * blocks;
  for (size_t j = 0; j < slot.size(); ++j) {
    RETIA_CHECK_LT(slot[j], num_slots);
    RETIA_CHECK_LE(0, slot[j]);
    RETIA_CHECK_LT(src[j], table_rows);
    RETIA_CHECK_LE(0, src[j]);
  }
  auto plan = std::make_shared<RowAggregation>();
  plan->rows = rows;
  plan->blocks = blocks;
  plan->table_rows = table_rows;
  std::vector<int64_t> order;
  plan->slot_begin = GroupByKey(slot, num_slots, &order);
  plan->slot_src.reserve(order.size());
  plan->slot_weight.reserve(order.size());
  for (int64_t j : order) {
    plan->slot_src.push_back(src[j]);
    plan->slot_weight.push_back(weight[j]);
  }
  plan->src_begin = GroupByKey(src, table_rows, &order);
  plan->src_slot.reserve(order.size());
  plan->src_weight.reserve(order.size());
  for (int64_t j : order) {
    plan->src_slot.push_back(slot[j]);
    plan->src_weight.push_back(weight[j]);
  }
  return plan;
}

Tensor AggregateRows(const Tensor& table,
                     const std::shared_ptr<const RowAggregation>& plan) {
  RETIA_OBS_TIMED_SCOPE("tensor.aggregate_rows.us");
  RETIA_CHECK(plan != nullptr);
  RETIA_CHECK_EQ(table.Rank(), 2);
  RETIA_CHECK_EQ(table.Dim(0), plan->table_rows);
  const int64_t n = table.Dim(1);
  const int64_t num_slots = plan->rows * plan->blocks;
  FloatBuffer out(num_slots * n);
  SegmentedAxpyKernel(plan->slot_begin.data(), plan->slot_src.data(),
                      plan->slot_weight.data(), table.Data(), num_slots, n,
                      out.data());
  return MakeOpResult(
      {plan->rows, plan->blocks * n}, std::move(out), {table},
      [table, plan, n](TensorImpl& self) mutable {
        if (!table.RequiresGrad()) return;
        // Adjoint: table row i gathers weight * grad from the slots its
        // entries feed, in entry order.
        table.impl().AccumulateGradFrom([&](float* g) {
          SegmentedAxpyKernel(plan->src_begin.data(), plan->src_slot.data(),
                              plan->src_weight.data(), self.grad.data(),
                              plan->table_rows, n, g);
        });
      });
}

Tensor MulColBroadcast(const Tensor& a, const Tensor& s) {
  RETIA_CHECK_EQ(a.Rank(), 2);
  RETIA_CHECK_EQ(s.Rank(), 2);
  RETIA_CHECK_EQ(s.Dim(1), 1);
  RETIA_CHECK_EQ(a.Dim(0), s.Dim(0));
  const int64_t m = a.Dim(0);
  const int64_t n = a.Dim(1);
  FloatBuffer out(m * n);
  const float* pa = a.Data();
  const float* ps = s.Data();
  for (int64_t i = 0; i < m; ++i)
    simd::Kernels().scale(pa + i * n, ps[i], out.data() + i * n, n);
  return MakeOpResult(
      a.Shape(), std::move(out), {a, s},
      [a, s, m, n](TensorImpl& self) mutable {
        if (a.RequiresGrad()) {
          const float* ps = s.Data();
          a.impl().AddIntoGrad([&](float* ga, bool add) {
            for (int64_t i = 0; i < m; ++i)
              simd::Kernels().scale_add(self.grad.data() + i * n, ps[i],
                                        ga + i * n, n, add);
          });
        }
        if (s.RequiresGrad()) {
          FloatBuffer gs(m, 0.0f);
          const float* pa = a.Data();
          for (int64_t i = 0; i < m; ++i)
            for (int64_t j = 0; j < n; ++j)
              gs[i] += self.grad[i * n + j] * pa[i * n + j];
          s.impl().AccumulateGrad(gs.data(), m);
        }
      });
}

Tensor SliceRows(const Tensor& a, int64_t start, int64_t len) {
  RETIA_CHECK_EQ(a.Rank(), 2);
  RETIA_CHECK_LE(start + len, a.Dim(0));
  RETIA_CHECK_LE(0, start);
  const int64_t n = a.Dim(1);
  FloatBuffer out(len * n);
  std::memcpy(out.data(), a.Data() + start * n, len * n * sizeof(float));
  return MakeOpResult({len, n}, std::move(out), {a},
                      [a, start, len, n](TensorImpl& self) mutable {
                        if (!a.RequiresGrad()) return;
                        // Only the window is added: a +0 term would change
                        // no bit of a gradient (tensor.h).
                        TensorImpl& parent = a.impl();
                        parent.EnsureGrad();
                        simd::Kernels().accumulate(
                            self.grad.data(), parent.grad.data() + start * n,
                            len * n);
                      });
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  return ConcatCols(std::vector<Tensor>{a, b});
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  RETIA_CHECK(!parts.empty());
  const int64_t m = parts[0].Dim(0);
  std::vector<int64_t> offset;  // first output column of each part
  int64_t width = 0;
  for (const Tensor& part : parts) {
    RETIA_CHECK_EQ(part.Rank(), 2);
    RETIA_CHECK_EQ(part.Dim(0), m);
    offset.push_back(width);
    width += part.Dim(1);
  }
  FloatBuffer out(m * width);
  for (size_t p = 0; p < parts.size(); ++p) {
    const int64_t q = parts[p].Dim(1);
    const float* src = parts[p].Data();
    for (int64_t i = 0; i < m; ++i)
      std::memcpy(out.data() + i * width + offset[p], src + i * q,
                  q * sizeof(float));
  }
  return MakeOpResult(
      {m, width}, std::move(out), parts,
      [parts, offset, m, width](TensorImpl& self) mutable {
        const simd::KernelTable& t = simd::Kernels();
        for (size_t p = 0; p < parts.size(); ++p) {
          if (!parts[p].RequiresGrad()) continue;
          const int64_t q = parts[p].Dim(1);
          parts[p].impl().AddIntoGrad([&](float* dx, bool add) {
            for (int64_t i = 0; i < m; ++i) {
              const float* g = self.grad.data() + i * width + offset[p];
              if (add) {
                t.accumulate(g, dx + i * q, q);
              } else {
                t.add_scalar(g, 0.0f, dx + i * q, q);
              }
            }
          });
        }
      });
}

Tensor ConcatRows(const Tensor& a, const Tensor& b) {
  RETIA_CHECK_EQ(a.Rank(), 2);
  RETIA_CHECK_EQ(b.Rank(), 2);
  RETIA_CHECK_EQ(a.Dim(1), b.Dim(1));
  const int64_t p = a.Dim(0);
  const int64_t q = b.Dim(0);
  const int64_t n = a.Dim(1);
  FloatBuffer out((p + q) * n);
  std::memcpy(out.data(), a.Data(), p * n * sizeof(float));
  std::memcpy(out.data() + p * n, b.Data(), q * n * sizeof(float));
  return MakeOpResult(
      {p + q, n}, std::move(out), {a, b},
      [a, b, p, q, n](TensorImpl& self) mutable {
        if (a.RequiresGrad()) a.impl().AccumulateGrad(self.grad.data(), p * n);
        if (b.RequiresGrad())
          b.impl().AccumulateGrad(self.grad.data() + p * n, q * n);
      });
}

Tensor SliceCols(const Tensor& a, int64_t start, int64_t len) {
  RETIA_CHECK_EQ(a.Rank(), 2);
  RETIA_CHECK_LE(start + len, a.Dim(1));
  RETIA_CHECK_LE(0, start);
  const int64_t m = a.Dim(0);
  const int64_t n = a.Dim(1);
  FloatBuffer out(m * len);
  const float* pa = a.Data();
  for (int64_t i = 0; i < m; ++i)
    std::memcpy(out.data() + i * len, pa + i * n + start, len * sizeof(float));
  return MakeOpResult({m, len}, std::move(out), {a},
                      [a, start, len, m, n](TensorImpl& self) mutable {
                        if (!a.RequiresGrad()) return;
                        // Only the window is added: a +0 term would change
                        // no bit of a gradient (tensor.h).
                        TensorImpl& parent = a.impl();
                        parent.EnsureGrad();
                        for (int64_t i = 0; i < m; ++i) {
                          simd::Kernels().accumulate(
                              self.grad.data() + i * len,
                              parent.grad.data() + i * n + start, len);
                        }
                      });
}

Tensor Reshape(const Tensor& a, std::vector<int64_t> shape) {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  RETIA_CHECK_EQ(n, a.NumElements());
  FloatBuffer out(n);
  std::memcpy(out.data(), a.Data(), n * sizeof(float));
  return MakeOpResult(std::move(shape), std::move(out), {a},
                      [a](TensorImpl& self) mutable {
                        if (!a.RequiresGrad()) return;
                        a.impl().AccumulateGrad(self.grad.data(),
                                                self.NumElements());
                      });
}

}  // namespace retia::tensor
