#include "simd/simd.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "par/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace retia::simd {
namespace {

std::vector<Backend> SupportedBackends() {
  std::vector<Backend> backends;
  for (Backend b :
       {Backend::kScalar, Backend::kSse2, Backend::kNeon, Backend::kAvx2}) {
    if (BackendSupported(b)) backends.push_back(b);
  }
  return backends;
}

std::vector<float> RandVec(int64_t n, uint64_t seed) {
  std::vector<float> v(static_cast<size_t>(n));
  uint64_t state = seed * 2654435761u + 1;
  for (float& x : v) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    x = static_cast<float>(static_cast<uint32_t>(state >> 33)) /
            4294967295.0f * 4.0f -
        2.0f;
  }
  return v;
}

// Any contiguous float container (std::vector or tensor storage).
template <typename Floats>
void ExpectBitEqual(const Floats& got, const Floats& want, const char* what,
                    Backend backend) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(
      std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
      << what << " not bit-identical on backend " << BackendName(backend);
}

// Sizes straddling every vector width: sub-vector, exact multiples, and
// odd tails.
const int64_t kSizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 100, 257};

// ---- Dispatch --------------------------------------------------------------

TEST(DispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(BackendSupported(Backend::kScalar));
  ASSERT_NE(TableFor(Backend::kScalar), nullptr);
  EXPECT_STREQ(TableFor(Backend::kScalar)->name, "scalar");
  EXPECT_EQ(TableFor(Backend::kScalar)->vector_width, 1);
}

TEST(DispatchTest, BestSupportedIsSupported) {
  EXPECT_TRUE(BackendSupported(BestSupportedBackend()));
}

TEST(DispatchTest, ParseBackend) {
  Backend b = Backend::kAvx2;
  EXPECT_TRUE(ParseBackend("off", &b));
  EXPECT_EQ(b, Backend::kScalar);
  EXPECT_TRUE(ParseBackend("scalar", &b));
  EXPECT_EQ(b, Backend::kScalar);
  EXPECT_TRUE(ParseBackend("native", &b));
  EXPECT_EQ(b, BestSupportedBackend());
  EXPECT_TRUE(ParseBackend("sse2", &b));
  EXPECT_EQ(b, Backend::kSse2);
  EXPECT_TRUE(ParseBackend("avx2", &b));
  EXPECT_EQ(b, Backend::kAvx2);
  EXPECT_TRUE(ParseBackend("neon", &b));
  EXPECT_EQ(b, Backend::kNeon);

  b = Backend::kSse2;
  EXPECT_FALSE(ParseBackend(nullptr, &b));
  EXPECT_FALSE(ParseBackend("", &b));
  EXPECT_FALSE(ParseBackend("AVX2", &b));
  EXPECT_FALSE(ParseBackend("avx512", &b));
  EXPECT_EQ(b, Backend::kSse2) << "failed parse must leave *out untouched";
}

TEST(DispatchTest, BackendNameRoundTrips) {
  for (Backend b : SupportedBackends()) {
    Backend parsed = Backend::kScalar;
    EXPECT_TRUE(ParseBackend(BackendName(b), &parsed));
    EXPECT_EQ(parsed, b);
    EXPECT_STREQ(TableFor(b)->name, BackendName(b));
  }
}

TEST(DispatchTest, ScopedBackendOverridesAndRestores) {
  const Backend before = ActiveBackend();
  {
    ScopedBackend guard(Backend::kScalar);
    EXPECT_EQ(ActiveBackend(), Backend::kScalar);
    EXPECT_STREQ(Kernels().name, "scalar");
  }
  EXPECT_EQ(ActiveBackend(), before);
}

TEST(DispatchTest, ScopedBackendNests) {
  const Backend best = BestSupportedBackend();
  ScopedBackend outer(Backend::kScalar);
  {
    ScopedBackend inner(best);
    EXPECT_EQ(ActiveBackend(), best);
  }
  EXPECT_EQ(ActiveBackend(), Backend::kScalar);
}

TEST(DispatchTest, TableShapesAreConsistent) {
  for (Backend b : SupportedBackends()) {
    const KernelTable* t = TableFor(b);
    ASSERT_NE(t, nullptr);
    EXPECT_GE(t->vector_width, 1);
    EXPECT_EQ(t->gemm_strip, b == Backend::kScalar ? 1 : 2 * t->vector_width);
  }
}

// ---- Cross-backend bit-exact kernels ---------------------------------------

TEST(BitExactTest, ElementwiseMatchesScalarBitForBit) {
  const KernelTable* ref = TableFor(Backend::kScalar);
  for (Backend backend : SupportedBackends()) {
    const KernelTable* t = TableFor(backend);
    for (int64_t n : kSizes) {
      const std::vector<float> a = RandVec(n, 7 * n + 1);
      const std::vector<float> b = RandVec(n, 13 * n + 5);
      std::vector<float> want(n), got(n);

      ref->add(a.data(), b.data(), want.data(), n);
      t->add(a.data(), b.data(), got.data(), n);
      ExpectBitEqual(got, want, "add", backend);

      ref->sub(a.data(), b.data(), want.data(), n);
      t->sub(a.data(), b.data(), got.data(), n);
      ExpectBitEqual(got, want, "sub", backend);

      ref->mul(a.data(), b.data(), want.data(), n);
      t->mul(a.data(), b.data(), got.data(), n);
      ExpectBitEqual(got, want, "mul", backend);

      ref->scale(a.data(), 0.73f, want.data(), n);
      t->scale(a.data(), 0.73f, got.data(), n);
      ExpectBitEqual(got, want, "scale", backend);

      ref->add_scalar(a.data(), -1.375f, want.data(), n);
      t->add_scalar(a.data(), -1.375f, got.data(), n);
      ExpectBitEqual(got, want, "add_scalar", backend);

      want = b;
      got = b;
      ref->axpy(0.31f, a.data(), want.data(), n);
      t->axpy(0.31f, a.data(), got.data(), n);
      ExpectBitEqual(got, want, "axpy", backend);

      want = b;
      got = b;
      ref->accumulate(a.data(), want.data(), n);
      t->accumulate(a.data(), got.data(), n);
      ExpectBitEqual(got, want, "accumulate", backend);

      const float mref = ref->reduce_max(a.data(), n);
      const float mgot = t->reduce_max(a.data(), n);
      EXPECT_EQ(std::memcmp(&mref, &mgot, sizeof(float)), 0)
          << "reduce_max on " << BackendName(backend) << " n=" << n;
    }
  }
}

// NaN, ±0, ±Inf, denormals and ordinary values.
std::vector<float> SpecialValues() {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float den = std::numeric_limits<float>::denorm_min();
  return {nan,     -nan,   0.0f,  -0.0f, inf,  -inf,  den,  -den,
          1e-39f,  -1e-39f, std::numeric_limits<float>::min(),
          1.0f,    -1.0f,  0.5f,  -2.5f, 3e38f, -3e38f};
}

// Bit equality per element, except that any NaN matches a NaN (the
// kernels' contract leaves NaN payloads open).
void ExpectBitEqualOrBothNaN(const std::vector<float>& got,
                             const std::vector<float>& want, const char* what,
                             Backend backend) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(want[i])) {
      EXPECT_TRUE(std::isnan(got[i]))
          << what << " [" << i << "] on " << BackendName(backend);
    } else {
      EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
          << what << " [" << i << "] on " << BackendName(backend) << ": "
          << got[i] << " vs " << want[i];
    }
  }
}

TEST(BitExactTest, ActivationKernelsMatchScalarOnSpecialValues) {
  // x[i] and y[i] meet every pair of special values, then a random tail
  // that no vector width divides.
  const std::vector<float> special = SpecialValues();
  std::vector<float> x, y, base;
  for (size_t i = 0; i < special.size(); ++i) {
    for (size_t j = 0; j < special.size(); ++j) {
      x.push_back(special[i]);
      y.push_back(special[j]);
      base.push_back(special[(i + j) % special.size()]);
    }
  }
  const auto add_tail = [](std::vector<float>* v, uint64_t seed) {
    const std::vector<float> r = RandVec(37, seed);
    v->insert(v->end(), r.begin(), r.end());
  };
  add_tail(&x, 1);
  add_tail(&y, 2);
  add_tail(&base, 3);
  const int64_t n = static_cast<int64_t>(x.size());
  // What a fresh gradient holds before the first write (never read).
  const std::vector<float> unset(x.size(),
                                 std::numeric_limits<float>::quiet_NaN());
  const KernelTable* ref = TableFor(Backend::kScalar);
  for (Backend backend : SupportedBackends()) {
    const KernelTable* t = TableFor(backend);
    std::vector<float> want(x.size()), got(x.size());
    ref->relu(x.data(), want.data(), n);
    t->relu(x.data(), got.data(), n);
    ExpectBitEqualOrBothNaN(got, want, "relu", backend);
    ref->rrelu_eval(x.data(), 0.2291667f, want.data(), n);
    t->rrelu_eval(x.data(), 0.2291667f, got.data(), n);
    ExpectBitEqualOrBothNaN(got, want, "rrelu_eval", backend);
    for (bool add : {false, true}) {
      const std::vector<float>& start = add ? base : unset;
      // `run(table, dx)` runs one backward kernel of `table` into dx.
      const auto check = [&](const char* what, const auto& run) {
        want = start;
        got = start;
        run(*ref, want.data());
        run(*t, got.data());
        ExpectBitEqualOrBothNaN(got, want, what, backend);
      };
      check("relu_backward", [&](const KernelTable& k, float* dx) {
        k.relu_backward(y.data(), x.data(), dx, n, add);
      });
      check("sigmoid_backward", [&](const KernelTable& k, float* dx) {
        k.sigmoid_backward(y.data(), x.data(), dx, n, add);
      });
      check("tanh_backward", [&](const KernelTable& k, float* dx) {
        k.tanh_backward(y.data(), x.data(), dx, n, add);
      });
      check("mul_add", [&](const KernelTable& k, float* dx) {
        k.mul_add(x.data(), y.data(), dx, n, add);
      });
      check("scale_add", [&](const KernelTable& k, float* dx) {
        k.scale_add(x.data(), -1.0f, dx, n, add);
      });
    }
  }
}

TEST(BitExactTest, ElementwiseAllowsAliasedOutput) {
  for (Backend backend : SupportedBackends()) {
    const KernelTable* t = TableFor(backend);
    const int64_t n = 33;
    const std::vector<float> a = RandVec(n, 3);
    std::vector<float> want(n);
    t->scale(a.data(), 0.5f, want.data(), n);
    std::vector<float> in_place = a;
    t->scale(in_place.data(), 0.5f, in_place.data(), n);
    ExpectBitEqual(in_place, want, "aliased scale", backend);
  }
}

// ---- Tolerance-bound kernels ----------------------------------------------

TEST(ToleranceTest, ExpKernelsNearScalar) {
  const KernelTable* ref = TableFor(Backend::kScalar);
  for (Backend backend : SupportedBackends()) {
    const KernelTable* t = TableFor(backend);
    for (int64_t n : kSizes) {
      std::vector<float> x = RandVec(n, 17 * n + 3);
      for (int64_t i = 0; i < n; ++i) x[i] *= 20.0f;  // exercise wide range
      const float shift = ref->reduce_max(x.data(), n);

      std::vector<float> want(n), got(n);
      double want_sum = 0.0, got_sum = 0.0;
      ref->exp_store_sum(x.data(), shift, want.data(), &want_sum, n);
      t->exp_store_sum(x.data(), shift, got.data(), &got_sum, n);
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_NEAR(got[i], want[i], 2e-6f * std::abs(want[i]) + 1e-12f)
            << BackendName(backend) << " exp_store_sum[" << i << "] n=" << n;
      }
      EXPECT_NEAR(got_sum, want_sum, 2e-6 * want_sum + 1e-12)
          << BackendName(backend) << " sum n=" << n;

      EXPECT_NEAR(t->exp_sum(x.data(), shift, n),
                  ref->exp_sum(x.data(), shift, n), 2e-6 * want_sum + 1e-12)
          << BackendName(backend) << " exp_sum n=" << n;

      const double lse = shift + std::log(want_sum);
      ref->exp_shift_store(x.data(), lse, want.data(), n);
      t->exp_shift_store(x.data(), lse, got.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_NEAR(got[i], want[i], 2e-6f * std::abs(want[i]) + 1e-7f)
            << BackendName(backend) << " exp_shift_store[" << i << "]";
      }
    }
  }
}

TEST(ToleranceTest, F64ReductionsNearScalar) {
  const KernelTable* ref = TableFor(Backend::kScalar);
  for (Backend backend : SupportedBackends()) {
    const KernelTable* t = TableFor(backend);
    for (int64_t n : kSizes) {
      const std::vector<float> a = RandVec(n, 5 * n);
      const std::vector<float> b = RandVec(n, 11 * n);
      const double dref = ref->dot_f64(a.data(), b.data(), n);
      EXPECT_NEAR(t->dot_f64(a.data(), b.data(), n), dref,
                  1e-9 * (std::abs(dref) + n))
          << BackendName(backend) << " dot_f64 n=" << n;
      const double sref = ref->sum_squares_f64(a.data(), n);
      EXPECT_NEAR(t->sum_squares_f64(a.data(), n), sref, 1e-9 * (sref + n))
          << BackendName(backend) << " sum_squares n=" << n;
    }
  }
}

struct GemmShape {
  int64_t m, k, n;
};

const GemmShape kGemmShapes[] = {{1, 1, 1},   {2, 3, 2},   {3, 5, 7},
                                 {4, 8, 16},  {5, 16, 17}, {17, 33, 9},
                                 {16, 64, 32}, {33, 17, 50}, {64, 128, 64}};

TEST(ToleranceTest, GemmDriversNearScalar) {
  for (Backend backend : SupportedBackends()) {
    for (const GemmShape& s : kGemmShapes) {
      const std::vector<float> a = RandVec(s.m * s.k, s.m * 31 + s.k);
      const std::vector<float> b_nn = RandVec(s.k * s.n, s.n * 17 + 1);
      const std::vector<float> b_nt = RandVec(s.n * s.k, s.n * 19 + 2);
      const std::vector<float> g_tn = RandVec(s.m * s.n, s.m * 23 + 3);

      auto run = [&](Backend use) {
        ScopedBackend guard(use);
        std::vector<std::vector<float>> out;
        out.emplace_back(s.m * s.n);
        GemmNN(a.data(), b_nn.data(), out.back().data(), s.m, s.k, s.n);
        out.emplace_back(s.m * s.n);
        GemmNT(a.data(), b_nt.data(), out.back().data(), s.m, s.k, s.n);
        out.emplace_back(s.k * s.n);
        GemmTN(a.data(), g_tn.data(), out.back().data(), s.m, s.k, s.n);
        return out;
      };
      const auto want = run(Backend::kScalar);
      const auto got = run(backend);
      const char* names[] = {"NN", "NT", "TN"};
      for (int v = 0; v < 3; ++v) {
        ASSERT_EQ(got[v].size(), want[v].size());
        for (size_t i = 0; i < want[v].size(); ++i) {
          // FMA vs separate rounding over up to max(m,k) accumulation steps.
          EXPECT_NEAR(got[v][i], want[v][i],
                      2e-6f * (std::abs(want[v][i]) + 8.0f))
              << BackendName(backend) << " Gemm" << names[v] << " m=" << s.m
              << " k=" << s.k << " n=" << s.n << " elem " << i;
        }
      }
    }
  }
}

// Packs B exactly as simd::GemmNN's PackB does (layout documented on
// KernelTable::gemm_nn), so the dense kernel can be invoked directly.
std::vector<float> PackPanels(const std::vector<float>& b, int64_t k,
                              int64_t n, int64_t strip) {
  const int64_t nstrips = n / strip;
  std::vector<float> packed(static_cast<size_t>(nstrips * k * strip));
  for (int64_t s = 0; s < nstrips; ++s)
    for (int64_t p = 0; p < k; ++p)
      for (int64_t c = 0; c < strip; ++c)
        packed[(s * k + p) * strip + c] = b[p * n + s * strip + c];
  return packed;
}

// The sparse zero-skipping kernel must agree bit-for-bit with the dense
// kernel of the SAME backend: skipped products are exactly zero, and
// adding an exact zero never changes a finite accumulator.
TEST(SparseGemmTest, SparseMatchesDenseBitForBit) {
  const int64_t m = 23, k = 40;
  for (Backend backend : SupportedBackends()) {
    const KernelTable* t = TableFor(backend);
    for (int64_t n : {8, 17, 32, 50}) {
      std::vector<float> a(m * k, 0.0f);
      uint64_t state = 12345;
      for (int64_t i = 0; i < m; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        a[i * k + static_cast<int64_t>((state >> 33) % k)] =
            static_cast<float>(static_cast<uint32_t>(state)) / 1e9f - 2.0f;
      }
      const std::vector<float> b = RandVec(k * n, n + 77);
      const std::vector<float> packed =
          PackPanels(b, k, n, t->gemm_strip);

      std::vector<float> dense(m * n, 0.0f);
      t->gemm_nn(a.data(), b.data(),
                 t->needs_packed_b ? packed.data() : b.data(), dense.data(),
                 0, m, k, n);
      std::vector<float> sparse(m * n, 0.0f);
      t->gemm_nn_sparse(a.data(), b.data(), sparse.data(), 0, m, k, n);
      ExpectBitEqual(sparse, dense, "sparse vs dense gemm", backend);
    }
  }
}

// ---- Sharding / thread invariance ------------------------------------------

// Splitting the row range at any point must reproduce the unsplit result
// bit-for-bit (this is what makes tile-aligned sharding a pure perf knob).
TEST(DeterminismTest, RowSplitsAreBitInvariant) {
  const int64_t m = 13, k = 37, n = 29;
  for (Backend backend : SupportedBackends()) {
    const KernelTable* t = TableFor(backend);
    const std::vector<float> a = RandVec(m * k, 2);
    const std::vector<float> b = RandVec(k * n, 3);
    const std::vector<float> packed = PackPanels(b, k, n, t->gemm_strip);
    const float* bp = t->needs_packed_b ? packed.data() : b.data();

    std::vector<float> whole(m * n);
    t->gemm_nn(a.data(), b.data(), bp, whole.data(), 0, m, k, n);
    for (int64_t split : {1, 4, 7, 12}) {
      std::vector<float> parts(m * n);
      t->gemm_nn(a.data(), b.data(), bp, parts.data(), 0, split, k, n);
      t->gemm_nn(a.data(), b.data(), bp, parts.data(), split, m, k, n);
      ExpectBitEqual(parts, whole, "gemm_nn row split", backend);
    }

    std::vector<float> whole_nt(m * n);
    const std::vector<float> bt = RandVec(n * k, 4);
    t->gemm_nt(a.data(), bt.data(), whole_nt.data(), 0, m, k, n);
    for (int64_t split : {1, 4, 7, 12}) {
      std::vector<float> parts(m * n);
      t->gemm_nt(a.data(), bt.data(), parts.data(), 0, split, k, n);
      t->gemm_nt(a.data(), bt.data(), parts.data(), split, m, k, n);
      ExpectBitEqual(parts, whole_nt, "gemm_nt row split", backend);
    }

    const std::vector<float> g = RandVec(m * n, 5);
    std::vector<float> whole_tn(k * n);
    t->gemm_tn(a.data(), g.data(), whole_tn.data(), m, 0, k, k, n);
    for (int64_t split : {1, 4, 7, 12, 30}) {
      std::vector<float> parts(k * n);
      t->gemm_tn(a.data(), g.data(), parts.data(), m, 0, split, k, n);
      t->gemm_tn(a.data(), g.data(), parts.data(), m, split, k, k, n);
      ExpectBitEqual(parts, whole_tn, "gemm_tn row split", backend);
    }
  }
}

TEST(DeterminismTest, GemmDriversThreadCountInvariant) {
  const int64_t m = 200, k = 96, n = 64;
  const std::vector<float> a = RandVec(m * k, 31);
  const std::vector<float> b = RandVec(k * n, 32);
  for (Backend backend : SupportedBackends()) {
    ScopedBackend guard(backend);
    auto run = [&](int threads) {
      par::ThreadPool pool(threads);
      par::ScopedDefaultPool pool_guard(&pool);
      std::vector<float> out(m * n);
      GemmNN(a.data(), b.data(), out.data(), m, k, n);
      return out;
    };
    const std::vector<float> reference = run(1);
    for (int threads : {2, 8}) {
      ExpectBitEqual(run(threads), reference, "GemmNN across thread counts",
                     backend);
    }
  }
}

// The one-hot fast path keeps full-matrix results identical to the dense
// route through the public driver.
TEST(SparseGemmTest, DriverOneHotMatchesDense) {
  const int64_t m = 64, k = 100, n = 48;
  std::vector<float> onehot(m * k, 0.0f);
  for (int64_t i = 0; i < m; ++i) onehot[i * k + (i * 13) % k] = 1.5f;
  const std::vector<float> b = RandVec(k * n, 9);
  for (Backend backend : SupportedBackends()) {
    ScopedBackend guard(backend);
    const KernelTable* t = TableFor(backend);
    std::vector<float> via_driver(m * n);  // routed to the sparse kernel
    GemmNN(onehot.data(), b.data(), via_driver.data(), m, k, n);
    const std::vector<float> packed = PackPanels(b, k, n, t->gemm_strip);
    std::vector<float> dense(m * n, 0.0f);
    t->gemm_nn(onehot.data(), b.data(),
               t->needs_packed_b ? packed.data() : b.data(), dense.data(), 0,
               m, k, n);
    ExpectBitEqual(via_driver, dense, "one-hot driver vs dense kernel",
                   backend);
  }
}

TEST(AdamTest, AdamNearScalarAndExactTails) {
  const KernelTable* ref = TableFor(Backend::kScalar);
  for (Backend backend : SupportedBackends()) {
    const KernelTable* t = TableFor(backend);
    for (int64_t n : kSizes) {
      auto run = [&](const KernelTable* table) {
        std::vector<float> w = RandVec(n, n + 1);
        const std::vector<float> g = RandVec(n, n + 2);
        std::vector<float> m(n, 0.0f), v(n, 0.0f);
        for (int step = 1; step <= 3; ++step) {
          const float bc1 = 1.0f - std::pow(0.9f, static_cast<float>(step));
          const float bc2 = 1.0f - std::pow(0.999f, static_cast<float>(step));
          table->adam_update(w.data(), g.data(), m.data(), v.data(), n, 0.01f,
                             0.9f, 0.999f, 1e-8f, 0.001f, bc1, bc2);
        }
        return w;
      };
      const std::vector<float> want = run(ref);
      const std::vector<float> got = run(t);
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_NEAR(got[i], want[i], 1e-5f * (std::abs(want[i]) + 1.0f))
            << BackendName(backend) << " adam n=" << n << " elem " << i;
      }
    }
  }
}

// ---- Top-k selection -------------------------------------------------------

// Reference: the historical full-sort formulation of eval::TopKIndices'
// contract ("higher score wins, ties broken by the lower index").
std::vector<int64_t> TopKReference(const std::vector<float>& scores,
                                   int64_t k) {
  const int64_t n = static_cast<int64_t>(scores.size());
  const int64_t take = std::min(k, n);
  std::vector<int64_t> idx(n);
  for (int64_t i = 0; i < n; ++i) idx[i] = i;
  std::partial_sort(idx.begin(), idx.begin() + take, idx.end(),
                    [&scores](int64_t a, int64_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  idx.resize(take);
  return idx;
}

void ExpectTopK(const KernelTable* t, const std::vector<float>& scores,
                int64_t k, Backend backend, const char* what) {
  const std::vector<int64_t> want = TopKReference(scores, k);
  std::vector<int64_t> got(std::min<int64_t>(
      k, static_cast<int64_t>(scores.size())));
  const int64_t took = t->topk_select_f32(
      scores.data(), static_cast<int64_t>(scores.size()), k, got.data());
  ASSERT_EQ(took, static_cast<int64_t>(want.size()))
      << what << " backend " << BackendName(backend) << " k=" << k;
  got.resize(took);
  EXPECT_EQ(got, want) << what << " backend " << BackendName(backend)
                       << " k=" << k << " n=" << scores.size();
}

TEST(TopKSelectTest, MatchesPartialSortReferenceOnEveryBackend) {
  for (Backend backend : SupportedBackends()) {
    const KernelTable* t = TableFor(backend);
    for (int64_t n : kSizes) {
      const std::vector<float> scores = RandVec(n, 31 * n + 3);
      for (int64_t k : {int64_t{1}, int64_t{3}, int64_t{10}, n / 2, n, n + 7}) {
        if (k <= 0) continue;
        ExpectTopK(t, scores, k, backend, "random");
      }
    }
  }
}

TEST(TopKSelectTest, TiesBreakByLowerIndexOnEveryBackend) {
  for (Backend backend : SupportedBackends()) {
    const KernelTable* t = TableFor(backend);
    for (int64_t n : kSizes) {
      // Quantize to a handful of distinct values so ties are everywhere,
      // including runs straddling vector-block boundaries.
      std::vector<float> scores = RandVec(n, 17 * n + 11);
      for (float& s : scores) s = std::floor(s * 2.0f) * 0.5f;
      for (int64_t k : {int64_t{1}, int64_t{5}, n, n + 3}) {
        if (k <= 0) continue;
        ExpectTopK(t, scores, k, backend, "ties");
      }
      // The adversarial extreme: every element ties, so the answer must be
      // exactly the first min(k, n) indices.
      const std::vector<float> equal(static_cast<size_t>(n), 1.25f);
      ExpectTopK(t, equal, std::min<int64_t>(5, n), backend, "all-equal");
    }
  }
}

TEST(TopKSelectTest, EdgeShapes) {
  for (Backend backend : SupportedBackends()) {
    const KernelTable* t = TableFor(backend);
    int64_t idx[4] = {-1, -1, -1, -1};
    // k == 0 and n == 0 select nothing (and never touch idx).
    const float one = 3.5f;
    EXPECT_EQ(t->topk_select_f32(&one, 1, 0, idx), 0);
    EXPECT_EQ(t->topk_select_f32(&one, 0, 4, idx), 0);
    EXPECT_EQ(idx[0], -1);
    // Descending and ascending inputs (worst cases for the insertion
    // buffer on one side and the threshold filter on the other).
    std::vector<float> descending, ascending;
    for (int64_t i = 0; i < 40; ++i) {
      descending.push_back(static_cast<float>(100 - i));
      ascending.push_back(static_cast<float>(i));
    }
    ExpectTopK(t, descending, 7, backend, "descending");
    ExpectTopK(t, ascending, 7, backend, "ascending");
    // Negative scores keep the same order semantics.
    std::vector<float> negative = RandVec(33, 97);
    for (float& s : negative) s = -std::abs(s) - 1.0f;
    ExpectTopK(t, negative, 5, backend, "negative");
  }
}

TEST(TopKSelectTest, BackendsBitIdenticalToScalar) {
  const KernelTable* ref = TableFor(Backend::kScalar);
  for (Backend backend : SupportedBackends()) {
    const KernelTable* t = TableFor(backend);
    for (int64_t n : {int64_t{64}, int64_t{257}, int64_t{1000}}) {
      std::vector<float> scores = RandVec(n, 7 * n + 29);
      for (float& s : scores) s = std::floor(s * 8.0f) * 0.125f;  // some ties
      for (int64_t k : {int64_t{1}, int64_t{10}, int64_t{64}}) {
        std::vector<int64_t> want(k), got(k);
        const int64_t want_n =
            ref->topk_select_f32(scores.data(), n, k, want.data());
        const int64_t got_n =
            t->topk_select_f32(scores.data(), n, k, got.data());
        ASSERT_EQ(got_n, want_n);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              static_cast<size_t>(want_n) * sizeof(int64_t)),
                  0)
            << "topk not bit-identical on backend " << BackendName(backend)
            << " n=" << n << " k=" << k;
      }
    }
  }
}

// ---- Conv1d ----------------------------------------------------------------

struct Conv1dShape {
  int64_t batch, cin, length, cout, ksize, pad;
  int64_t lout() const { return length + 2 * pad - ksize + 1; }
};

struct Conv1dOutputs {
  std::vector<float> out, gx, gw, gbias;
};

// tensor::Conv1d's loops before the kernel table took them over, kept as
// the reference every backend must reproduce bit for bit.
Conv1dOutputs ReferenceConv1d(const Conv1dShape& sh, const float* x,
                              const float* w, const float* bias,
                              const float* g) {
  const int64_t batch = sh.batch, cin = sh.cin, length = sh.length;
  const int64_t cout = sh.cout, ksize = sh.ksize, pad = sh.pad;
  const int64_t lout = sh.lout();
  Conv1dOutputs r;
  r.out.assign(batch * cout * lout, 0.0f);
  for (int64_t map = 0; map < batch * cout; ++map) {
    const int64_t b = map / cout;
    const int64_t co = map % cout;
    float* orow = r.out.data() + map * lout;
    if (bias != nullptr) {
      for (int64_t l = 0; l < lout; ++l) orow[l] = bias[co];
    }
    for (int64_t ci = 0; ci < cin; ++ci) {
      const float* xrow = x + (b * cin + ci) * length;
      const float* wrow = w + (co * cin + ci) * ksize;
      for (int64_t l = 0; l < lout; ++l) {
        float acc = 0.0f;
        for (int64_t kk = 0; kk < ksize; ++kk) {
          const int64_t src = l + kk - pad;
          if (src >= 0 && src < length) acc += wrow[kk] * xrow[src];
        }
        orow[l] += acc;
      }
    }
  }
  r.gx.assign(batch * cin * length, 0.0f);
  for (int64_t b = 0; b < batch; ++b)
    for (int64_t co = 0; co < cout; ++co) {
      const float* grow = g + (b * cout + co) * lout;
      for (int64_t ci = 0; ci < cin; ++ci) {
        float* xrow = r.gx.data() + (b * cin + ci) * length;
        const float* wrow = w + (co * cin + ci) * ksize;
        for (int64_t l = 0; l < lout; ++l)
          for (int64_t kk = 0; kk < ksize; ++kk) {
            const int64_t src = l + kk - pad;
            if (src >= 0 && src < length) xrow[src] += grow[l] * wrow[kk];
          }
      }
    }
  r.gw.assign(cout * cin * ksize, 0.0f);
  for (int64_t b = 0; b < batch; ++b)
    for (int64_t plane = 0; plane < cout * cin; ++plane) {
      const int64_t co = plane / cin;
      const int64_t ci = plane % cin;
      const float* grow = g + (b * cout + co) * lout;
      const float* xrow = x + (b * cin + ci) * length;
      float* wrow = r.gw.data() + plane * ksize;
      for (int64_t l = 0; l < lout; ++l)
        for (int64_t kk = 0; kk < ksize; ++kk) {
          const int64_t src = l + kk - pad;
          if (src >= 0 && src < length) wrow[kk] += grow[l] * xrow[src];
        }
    }
  r.gbias.assign(cout, 0.0f);
  for (int64_t b = 0; b < batch; ++b)
    for (int64_t co = 0; co < cout; ++co) {
      const float* grow = g + (b * cout + co) * lout;
      for (int64_t l = 0; l < lout; ++l) r.gbias[co] += grow[l];
    }
  return r;
}

// The three kernels of one table, each over its whole range split in two
// at `split` (a fraction in [0, 1]): the halves write disjoint outputs, so
// every split must give the same bits. The first weight-grad half, empty
// at split 0, also writes the bias grad.
Conv1dOutputs TableConv1d(const KernelTable& t, const Conv1dShape& sh,
                          const float* x, const float* w, const float* bias,
                          const float* g, double split) {
  const int64_t maps = sh.batch * sh.cout;
  const int64_t m = static_cast<int64_t>(split * maps);
  const int64_t b = static_cast<int64_t>(split * sh.batch);
  const int64_t c = static_cast<int64_t>(split * sh.cin);
  Conv1dOutputs r;
  r.out.assign(maps * sh.lout(), 0.0f);
  t.conv1d_forward(x, w, bias, r.out.data(), 0, m, sh.cin, sh.length,
                   sh.cout, sh.ksize, sh.pad);
  t.conv1d_forward(x, w, bias, r.out.data(), m, maps, sh.cin, sh.length,
                   sh.cout, sh.ksize, sh.pad);
  r.gx.assign(sh.batch * sh.cin * sh.length, 0.0f);
  t.conv1d_input_grad(g, w, r.gx.data(), 0, b, sh.cin, sh.length, sh.cout,
                      sh.ksize, sh.pad);
  t.conv1d_input_grad(g, w, r.gx.data(), b, sh.batch, sh.cin, sh.length,
                      sh.cout, sh.ksize, sh.pad);
  r.gw.assign(sh.cout * sh.cin * sh.ksize, 0.0f);
  r.gbias.assign(sh.cout, 0.0f);
  t.conv1d_weight_grad(g, x, r.gw.data(), r.gbias.data(), 0, c, sh.batch,
                       sh.cin, sh.length, sh.cout, sh.ksize, sh.pad);
  t.conv1d_weight_grad(g, x, r.gw.data(), nullptr, c, sh.cin, sh.batch,
                       sh.cin, sh.length, sh.cout, sh.ksize, sh.pad);
  return r;
}

void ExpectConv1dBitEqual(const Conv1dOutputs& got, const Conv1dOutputs& want,
                          const char* what, Backend backend,
                          const Conv1dShape& sh) {
  SCOPED_TRACE(::testing::Message()
               << what << ": batch " << sh.batch << " cin " << sh.cin
               << " length " << sh.length << " cout " << sh.cout << " ksize "
               << sh.ksize << " pad " << sh.pad);
  ExpectBitEqual(got.out, want.out, "conv1d forward", backend);
  ExpectBitEqual(got.gx, want.gx, "conv1d input grad", backend);
  ExpectBitEqual(got.gw, want.gw, "conv1d weight grad", backend);
  ExpectBitEqual(got.gbias, want.gbias, "conv1d bias grad", backend);
}

TEST(BitExactTest, Conv1dMatchesScalarBitForBit) {
  const KernelTable* ref = TableFor(Backend::kScalar);
  uint64_t state = 12345;
  const auto pick = [&state](int64_t lo, int64_t hi) {  // uniform in [lo, hi]
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return lo + static_cast<int64_t>((state >> 33) %
                                     static_cast<uint64_t>(hi - lo + 1));
  };
  int64_t cases = 0;
  for (int64_t length : {1, 3, 4, 7, 8, 9, 31, 32, 33}) {
    for (int64_t ksize : {1, 3, 5}) {
      for (int64_t pad = 0; pad < ksize; ++pad) {
        for (int64_t cout : {1, 7, 16, 17}) {
          const Conv1dShape sh{pick(1, 5), pick(1, 3), length, cout, ksize,
                               pad};
          if (sh.lout() <= 0) continue;
          const uint64_t seed = static_cast<uint64_t>(++cases);
          const std::vector<float> x =
              RandVec(sh.batch * sh.cin * sh.length, 4 * seed);
          const std::vector<float> w =
              RandVec(sh.cout * sh.cin * sh.ksize, 4 * seed + 1);
          const std::vector<float> bias = RandVec(sh.cout, 4 * seed + 2);
          const std::vector<float> g =
              RandVec(sh.batch * sh.cout * sh.lout(), 4 * seed + 3);
          // Every third case runs without a bias.
          const float* pb = cases % 3 == 0 ? nullptr : bias.data();
          const Conv1dOutputs want =
              ReferenceConv1d(sh, x.data(), w.data(), pb, g.data());
          ExpectConv1dBitEqual(TableConv1d(*ref, sh, x.data(), w.data(), pb,
                                           g.data(), 1.0),
                               want, "scalar table vs reference",
                               Backend::kScalar, sh);
          for (Backend backend : SupportedBackends()) {
            ScopedBackend guard(backend);
            for (double split : {0.0, 0.5, 1.0}) {
              ExpectConv1dBitEqual(TableConv1d(Kernels(), sh, x.data(),
                                               w.data(), pb, g.data(), split),
                                   want, "table vs reference", backend, sh);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 300);

  // An Inf at the first input position (which the first output positions
  // read next to a padding tap) and a NaN at the last upstream-gradient
  // position must propagate exactly as the scalar loops propagate them.
  const Conv1dShape sh{2, 2, 33, 17, 3, 1};
  std::vector<float> x = RandVec(sh.batch * sh.cin * sh.length, 91);
  const std::vector<float> w = RandVec(sh.cout * sh.cin * sh.ksize, 92);
  const std::vector<float> bias = RandVec(sh.cout, 93);
  std::vector<float> g = RandVec(sh.batch * sh.cout * sh.lout(), 94);
  x[(1 * sh.cin + 0) * sh.length + 0] = std::numeric_limits<float>::infinity();
  g[(1 * sh.cout + 3) * sh.lout() + sh.lout() - 1] =
      std::numeric_limits<float>::quiet_NaN();
  const Conv1dOutputs want =
      ReferenceConv1d(sh, x.data(), w.data(), bias.data(), g.data());
  EXPECT_TRUE(std::isinf(want.out[(1 * sh.cout + 0) * sh.lout() + 1]));
  EXPECT_TRUE(std::isnan(want.gw[(3 * sh.cin + 0) * sh.ksize + 0]));
  for (Backend backend : SupportedBackends()) {
    ExpectConv1dBitEqual(TableConv1d(*TableFor(backend), sh, x.data(),
                                     w.data(), bias.data(), g.data(), 0.5),
                         want, "Inf/NaN inputs", backend, sh);
  }
}

// tensor::Conv1d forward plus backward, at the decoder's training shape and
// at 13 channels (not a multiple of 8), gives the same bits at every pool
// width on every backend, and its bias gradient, with or without a weight
// gradient, is the serial (b, l) sum of the output gradient, channel by
// channel.
TEST(DeterminismTest, Conv1dThreadCountInvariant) {
  struct Shape {
    int64_t batch, cin, length, cout, ksize;
    uint64_t seed;
  };
  for (const Shape& sh : {Shape{120, 2, 32, 16, 3, 61},
                          Shape{180, 2, 32, 13, 3, 64}}) {
    const std::vector<float> xv =
        RandVec(sh.batch * sh.cin * sh.length, sh.seed);
    const std::vector<float> wv =
        RandVec(sh.cout * sh.cin * sh.ksize, sh.seed + 1);
    const std::vector<float> bv = RandVec(sh.cout, sh.seed + 2);
    for (Backend backend : SupportedBackends()) {
      ScopedBackend guard(backend);
      // y, x.grad, w.grad (empty without weight_grad), b.grad, then y.grad.
      auto run = [&](int threads, bool weight_grad = true) {
        par::ThreadPool pool(threads);
        par::ScopedDefaultPool pool_guard(&pool);
        tensor::Tensor x = tensor::Tensor::FromVector(
            {sh.batch, sh.cin, sh.length}, xv, /*requires_grad=*/true);
        tensor::Tensor w = tensor::Tensor::FromVector(
            {sh.cout, sh.cin, sh.ksize}, wv, weight_grad);
        tensor::Tensor b = tensor::Tensor::FromVector({sh.cout}, bv,
                                                      /*requires_grad=*/true);
        tensor::Tensor y = tensor::Conv1d(x, w, b, /*pad=*/1);
        tensor::Sum(tensor::Mul(y, y)).Backward();
        return std::vector<tensor::FloatBuffer>{
            y.impl().data, x.Grad(),
            weight_grad ? w.Grad() : tensor::FloatBuffer(), b.Grad(),
            y.Grad()};
      };
      const auto reference = run(1);
      const tensor::FloatBuffer& gy = reference[4];
      const int64_t lout = sh.length + 2 * /*pad=*/1 - sh.ksize + 1;
      tensor::FloatBuffer gb(sh.cout, 0.0f);
      for (int64_t b = 0; b < sh.batch; ++b)
        for (int64_t co = 0; co < sh.cout; ++co)
          for (int64_t l = 0; l < lout; ++l)
            gb[co] += gy[(b * sh.cout + co) * lout + l];
      ExpectBitEqual(reference[3], gb, "Conv1d bias grad vs serial loop",
                     backend);
      ExpectBitEqual(run(4, /*weight_grad=*/false)[3], gb,
                     "Conv1d bias grad without a weight grad", backend);
      for (int threads : {2, 4, 8}) {
        const auto got = run(threads);
        for (size_t i = 0; i < got.size(); ++i) {
          ExpectBitEqual(got[i], reference[i], "Conv1d across thread counts",
                         backend);
        }
      }
    }
  }
}

}  // namespace
}  // namespace retia::simd
