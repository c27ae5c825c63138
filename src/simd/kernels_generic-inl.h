// Generic SIMD kernel bodies, parameterized on a vector-traits type and
// instantiated once per backend translation unit (kernels_avx2.cc,
// kernels_sse2.cc, kernels_neon.cc) so each instantiation is compiled with
// that backend's ISA flags. Include this inside an anonymous namespace in
// `namespace retia::simd` (after <algorithm>, <cmath>, <cstdint>,
// <cstring>, <vector>, and simd/kernels_quant-inl.h, whose shared reference
// kernels the table below installs); the traits types live in anonymous
// namespaces too, so the template instantiations are TU-local and never
// collide across backends.
//
// Traits interface (V):
//   using Vec;                     // register of kWidth floats
//   using DVec;                    // register of kWidth/2 doubles
//   static constexpr int kWidth;   // floats per Vec
//   static constexpr bool kFused;  // Madd is a fused multiply-add
//   Vec  Load(const float*);       // unaligned
//   void Store(float*, Vec);       // unaligned
//   Vec  Set1(float); Vec Zero();
//   Vec  Add(Vec, Vec); Vec Sub(Vec, Vec); Vec Mul(Vec, Vec); Vec Div(Vec, Vec);
//   Vec  Madd(Vec a, Vec b, Vec c);   // a*b + c
//   Vec  Max(Vec, Vec); Vec Min(Vec, Vec); Vec Sqrt(Vec);
//   Vec  Gt(Vec a, Vec b); Vec Ge(Vec a, Vec b);  // lane mask, false on NaN
//   Vec  Select(Vec mask, Vec a, Vec b);          // mask ? a : b per lane
//   Vec  RoundNearest(Vec);           // round-to-nearest-even, float-valued
//   Vec  PowTwo(Vec n);               // 2^int(n) for integral n in [-126,127]
//   DVec DZero(); DVec DAdd(DVec, DVec); DVec DMul(DVec, DVec);
//   DVec WidenLo(Vec); DVec WidenHi(Vec);   // f32 -> f64, low/high half
//   float  ReduceAdd(Vec);            // fixed pairwise lane tree
//   double DReduceAdd(DVec);          // fixed pairwise lane tree
//   float  ReduceMax(Vec);
//
// Determinism: every reduction folds lanes with the traits' fixed tree and
// appends the scalar tail in index order; every GEMM output element
// receives its contributions in increasing k (or m) index order, so
// results are invariant to row sharding. Scalar tails use std::fma when
// kFused so a value computed in a tail is bit-identical to the same value
// computed in a vector lane.

template <typename V>
struct Gen {
  using Vec = typename V::Vec;
  using DVec = typename V::DVec;
  static constexpr int64_t W = V::kWidth;
  static constexpr int64_t S = 2 * W;  // GEMM column-strip width

  static float MaddS(float a, float b, float c) {
    if constexpr (V::kFused) {
      return std::fma(a, b, c);
    } else {
      return a * b + c;
    }
  }

  // ---- Elementwise ---------------------------------------------------------

  static void AddK(const float* a, const float* b, float* y, int64_t n) {
    int64_t i = 0;
    for (; i + W <= n; i += W)
      V::Store(y + i, V::Add(V::Load(a + i), V::Load(b + i)));
    for (; i < n; ++i) y[i] = a[i] + b[i];
  }

  static void SubK(const float* a, const float* b, float* y, int64_t n) {
    int64_t i = 0;
    for (; i + W <= n; i += W)
      V::Store(y + i, V::Sub(V::Load(a + i), V::Load(b + i)));
    for (; i < n; ++i) y[i] = a[i] - b[i];
  }

  static void MulK(const float* a, const float* b, float* y, int64_t n) {
    int64_t i = 0;
    for (; i + W <= n; i += W)
      V::Store(y + i, V::Mul(V::Load(a + i), V::Load(b + i)));
    for (; i < n; ++i) y[i] = a[i] * b[i];
  }

  static void ScaleK(const float* a, float s, float* y, int64_t n) {
    const Vec sv = V::Set1(s);
    int64_t i = 0;
    for (; i + W <= n; i += W) V::Store(y + i, V::Mul(V::Load(a + i), sv));
    for (; i < n; ++i) y[i] = a[i] * s;
  }

  static void AddScalarK(const float* a, float c, float* y, int64_t n) {
    const Vec cv = V::Set1(c);
    int64_t i = 0;
    for (; i + W <= n; i += W) V::Store(y + i, V::Add(V::Load(a + i), cv));
    for (; i < n; ++i) y[i] = a[i] + c;
  }

  // Unfused on purpose (mul then add, like the scalar reference) so axpy
  // stays bit-exact across every backend; the GEMM kernels use the fused
  // FusedAxpy below instead.
  static void AxpyK(float alpha, const float* x, float* y, int64_t n) {
    const Vec av = V::Set1(alpha);
    int64_t i = 0;
    for (; i + W <= n; i += W)
      V::Store(y + i, V::Add(V::Mul(av, V::Load(x + i)), V::Load(y + i)));
    for (; i < n; ++i) y[i] += alpha * x[i];
  }

  static void AccumulateK(const float* x, float* y, int64_t n) {
    int64_t i = 0;
    for (; i + W <= n; i += W)
      V::Store(y + i, V::Add(V::Load(y + i), V::Load(x + i)));
    for (; i < n; ++i) y[i] += x[i];
  }

  // ---- Activations and elementwise backward --------------------------------
  //
  // Compare and select, never Max: x86's max happens to return
  // x > 0 ? x : 0, but NEON's returns NaN for a NaN input.

  static void ReluK(const float* x, float* y, int64_t n) {
    const Vec zero = V::Zero();
    int64_t i = 0;
    for (; i + W <= n; i += W) {
      const Vec v = V::Load(x + i);
      V::Store(y + i, V::Select(V::Gt(v, zero), v, zero));
    }
    for (; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }

  static void RReluEvalK(const float* x, float slope, float* y, int64_t n) {
    const Vec zero = V::Zero();
    const Vec sv = V::Set1(slope);
    int64_t i = 0;
    for (; i + W <= n; i += W) {
      const Vec v = V::Load(x + i);
      V::Store(y + i, V::Select(V::Ge(v, zero), v, V::Mul(v, sv)));
    }
    for (; i < n; ++i) y[i] = x[i] >= 0.0f ? x[i] : x[i] * slope;
  }

  // y = base + term(i) with base = y when `add`, else +0 (simd.h).
  template <typename VecTerm, typename ScalarTerm>
  static void AddTerms(float* y, int64_t n, bool add, VecTerm vterm,
                       ScalarTerm sterm) {
    int64_t i = 0;
    if (add) {
      for (; i + W <= n; i += W)
        V::Store(y + i, V::Add(V::Load(y + i), vterm(i)));
      for (; i < n; ++i) y[i] = y[i] + sterm(i);
    } else {
      const Vec zero = V::Zero();
      for (; i + W <= n; i += W) V::Store(y + i, V::Add(zero, vterm(i)));
      for (; i < n; ++i) y[i] = 0.0f + sterm(i);
    }
  }

  static void ReluBackwardK(const float* y, const float* dy, float* dx,
                            int64_t n, bool add) {
    const Vec zero = V::Zero();
    const Vec one = V::Set1(1.0f);
    AddTerms(
        dx, n, add,
        [&](int64_t i) {
          const Vec d = V::Select(V::Gt(V::Load(y + i), zero), one, zero);
          return V::Mul(V::Load(dy + i), d);
        },
        [&](int64_t i) { return dy[i] * (y[i] > 0.0f ? 1.0f : 0.0f); });
  }

  static void SigmoidBackwardK(const float* y, const float* dy, float* dx,
                               int64_t n, bool add) {
    const Vec one = V::Set1(1.0f);
    AddTerms(
        dx, n, add,
        [&](int64_t i) {
          const Vec yv = V::Load(y + i);
          return V::Mul(V::Load(dy + i), V::Mul(yv, V::Sub(one, yv)));
        },
        [&](int64_t i) { return dy[i] * (y[i] * (1.0f - y[i])); });
  }

  static void TanhBackwardK(const float* y, const float* dy, float* dx,
                            int64_t n, bool add) {
    const Vec one = V::Set1(1.0f);
    AddTerms(
        dx, n, add,
        [&](int64_t i) {
          const Vec yv = V::Load(y + i);
          return V::Mul(V::Load(dy + i), V::Sub(one, V::Mul(yv, yv)));
        },
        [&](int64_t i) { return dy[i] * (1.0f - y[i] * y[i]); });
  }

  static void MulAddK(const float* a, const float* b, float* y, int64_t n,
                      bool add) {
    AddTerms(
        y, n, add,
        [&](int64_t i) { return V::Mul(V::Load(a + i), V::Load(b + i)); },
        [&](int64_t i) { return a[i] * b[i]; });
  }

  static void ScaleAddK(const float* x, float s, float* y, int64_t n,
                        bool add) {
    const Vec sv = V::Set1(s);
    AddTerms(
        y, n, add, [&](int64_t i) { return V::Mul(V::Load(x + i), sv); },
        [&](int64_t i) { return x[i] * s; });
  }

  // ---- Reductions ----------------------------------------------------------

  static float ReduceMaxK(const float* x, int64_t n) {
    // Max is order-insensitive for non-NaN data, so this equals the serial
    // scan bit-for-bit.
    if (n < W) {
      float mx = x[0];
      for (int64_t i = 1; i < n; ++i) mx = std::max(mx, x[i]);
      return mx;
    }
    Vec m = V::Load(x);
    int64_t i = W;
    for (; i + W <= n; i += W) m = V::Max(m, V::Load(x + i));
    float mx = V::ReduceMax(m);
    for (; i < n; ++i) mx = std::max(mx, x[i]);
    return mx;
  }

  static double DotF64K(const float* a, const float* b, int64_t n) {
    // Mirrors the scalar reference's precision (float product, double
    // accumulation); only the lane-tree fold order differs.
    DVec lo = V::DZero(), hi = V::DZero();
    int64_t i = 0;
    for (; i + W <= n; i += W) {
      const Vec p = V::Mul(V::Load(a + i), V::Load(b + i));
      lo = V::DAdd(lo, V::WidenLo(p));
      hi = V::DAdd(hi, V::WidenHi(p));
    }
    double acc = V::DReduceAdd(lo) + V::DReduceAdd(hi);
    for (; i < n; ++i) acc += a[i] * b[i];
    return acc;
  }

  static double SumSquaresF64K(const float* x, int64_t n) {
    // Squares in double (exact for float inputs), like the scalar
    // reference; only the accumulation order differs.
    DVec lo = V::DZero(), hi = V::DZero();
    int64_t i = 0;
    for (; i + W <= n; i += W) {
      const Vec v = V::Load(x + i);
      const DVec l = V::WidenLo(v);
      const DVec h = V::WidenHi(v);
      lo = V::DAdd(lo, V::DMul(l, l));
      hi = V::DAdd(hi, V::DMul(h, h));
    }
    double acc = V::DReduceAdd(lo) + V::DReduceAdd(hi);
    for (; i < n; ++i) acc += static_cast<double>(x[i]) * x[i];
    return acc;
  }

  // ---- Vector exp (Cephes-style polynomial, ~2 ulp) ------------------------

  static Vec ExpV(Vec x) {
    x = V::Min(x, V::Set1(88.3762626647950f));
    x = V::Max(x, V::Set1(-87.3365478515625f));
    // n = round(x / ln 2); r = x - n*ln2 via two-part Cody-Waite.
    const Vec nf = V::RoundNearest(V::Mul(x, V::Set1(1.44269504088896341f)));
    Vec r = V::Madd(nf, V::Set1(-0.693359375f), x);
    r = V::Madd(nf, V::Set1(2.12194440e-4f), r);
    Vec p = V::Set1(1.9875691500e-4f);
    p = V::Madd(p, r, V::Set1(1.3981999507e-3f));
    p = V::Madd(p, r, V::Set1(8.3334519073e-3f));
    p = V::Madd(p, r, V::Set1(4.1665795894e-2f));
    p = V::Madd(p, r, V::Set1(1.6666665459e-1f));
    p = V::Madd(p, r, V::Set1(5.0000001201e-1f));
    const Vec r2 = V::Mul(r, r);
    const Vec e = V::Madd(r2, p, V::Add(r, V::Set1(1.0f)));
    return V::Mul(e, V::PowTwo(nf));
  }

  static void ExpStoreSumK(const float* x, float shift, float* y, double* sum,
                           int64_t n) {
    const Vec sh = V::Set1(shift);
    DVec lo = V::DZero(), hi = V::DZero();
    int64_t i = 0;
    for (; i + W <= n; i += W) {
      const Vec e = ExpV(V::Sub(V::Load(x + i), sh));
      V::Store(y + i, e);
      lo = V::DAdd(lo, V::WidenLo(e));
      hi = V::DAdd(hi, V::WidenHi(e));
    }
    double acc = V::DReduceAdd(lo) + V::DReduceAdd(hi);
    for (; i < n; ++i) {
      y[i] = std::exp(x[i] - shift);
      acc += y[i];
    }
    *sum = acc;
  }

  static double ExpSumK(const float* x, float shift, int64_t n) {
    const Vec sh = V::Set1(shift);
    DVec lo = V::DZero(), hi = V::DZero();
    int64_t i = 0;
    for (; i + W <= n; i += W) {
      const Vec e = ExpV(V::Sub(V::Load(x + i), sh));
      lo = V::DAdd(lo, V::WidenLo(e));
      hi = V::DAdd(hi, V::WidenHi(e));
    }
    double acc = V::DReduceAdd(lo) + V::DReduceAdd(hi);
    for (; i < n; ++i) acc += std::exp(x[i] - shift);
    return acc;
  }

  static void ExpShiftStoreK(const float* x, double shift, float* y,
                             int64_t n) {
    // The shift is applied at float precision here (the scalar reference
    // subtracts in double); tolerance-bound, like the polynomial exp.
    const Vec sh = V::Set1(static_cast<float>(shift));
    int64_t i = 0;
    for (; i + W <= n; i += W)
      V::Store(y + i, ExpV(V::Sub(V::Load(x + i), sh)));
    for (; i < n; ++i) y[i] = static_cast<float>(std::exp(x[i] - shift));
  }

  // ---- GEMM micro-kernels --------------------------------------------------
  //
  // Register-blocked 4xS tiles: 4 output rows x one S-wide column strip
  // held in 8 vector accumulators, with the k (resp. m) loop innermost so
  // each output element accumulates in index order. Column remainders
  // (n % S) fall back to scalar MaddS loops; row remainders to a 1-row
  // variant of the same tile. Under a fused Madd both remainders compute
  // the exact same value the full tile would, so tiling and sharding
  // never change results.

  // NN: packed-panel layout from simd::detail::PackB — strip s holds
  // B[p][s*S + c] at bp[(s*k + p)*S + c] for the n/S full strips.
  static void GemmNNK(const float* a, const float* b, const float* bp,
                      float* out, int64_t i0, int64_t i1, int64_t k,
                      int64_t n) {
    const int64_t nstrips = n / S;
    const int64_t nfull = nstrips * S;
    int64_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      const float* arow[4] = {a + i * k, a + (i + 1) * k, a + (i + 2) * k,
                              a + (i + 3) * k};
      for (int64_t s = 0; s < nstrips; ++s) {
        const float* panel = bp + s * k * S;
        Vec c00 = V::Zero(), c01 = V::Zero(), c10 = V::Zero(),
            c11 = V::Zero(), c20 = V::Zero(), c21 = V::Zero(),
            c30 = V::Zero(), c31 = V::Zero();
        for (int64_t p = 0; p < k; ++p) {
          const Vec b0 = V::Load(panel + p * S);
          const Vec b1 = V::Load(panel + p * S + W);
          Vec av = V::Set1(arow[0][p]);
          c00 = V::Madd(av, b0, c00);
          c01 = V::Madd(av, b1, c01);
          av = V::Set1(arow[1][p]);
          c10 = V::Madd(av, b0, c10);
          c11 = V::Madd(av, b1, c11);
          av = V::Set1(arow[2][p]);
          c20 = V::Madd(av, b0, c20);
          c21 = V::Madd(av, b1, c21);
          av = V::Set1(arow[3][p]);
          c30 = V::Madd(av, b0, c30);
          c31 = V::Madd(av, b1, c31);
        }
        float* o = out + i * n + s * S;
        V::Store(o, c00);
        V::Store(o + W, c01);
        V::Store(o + n, c10);
        V::Store(o + n + W, c11);
        V::Store(o + 2 * n, c20);
        V::Store(o + 2 * n + W, c21);
        V::Store(o + 3 * n, c30);
        V::Store(o + 3 * n + W, c31);
      }
      for (int64_t j = nfull; j < n; ++j) {
        for (int r = 0; r < 4; ++r) {
          float acc = 0.0f;
          for (int64_t p = 0; p < k; ++p)
            acc = MaddS(arow[r][p], b[p * n + j], acc);
          out[(i + r) * n + j] = acc;
        }
      }
    }
    for (; i < i1; ++i) {
      const float* arow = a + i * k;
      for (int64_t s = 0; s < nstrips; ++s) {
        const float* panel = bp + s * k * S;
        Vec c0 = V::Zero(), c1 = V::Zero();
        for (int64_t p = 0; p < k; ++p) {
          const Vec av = V::Set1(arow[p]);
          c0 = V::Madd(av, V::Load(panel + p * S), c0);
          c1 = V::Madd(av, V::Load(panel + p * S + W), c1);
        }
        V::Store(out + i * n + s * S, c0);
        V::Store(out + i * n + s * S + W, c1);
      }
      for (int64_t j = nfull; j < n; ++j) {
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p)
          acc = MaddS(arow[p], b[p * n + j], acc);
        out[i * n + j] = acc;
      }
    }
  }

  // y += alpha * x with the backend's Madd; matches the lanes the dense NN
  // kernel would have produced for the same (finite) data.
  static void FusedAxpy(float alpha, const float* x, float* y, int64_t n) {
    const Vec av = V::Set1(alpha);
    int64_t j = 0;
    for (; j + W <= n; j += W)
      V::Store(y + j, V::Madd(av, V::Load(x + j), V::Load(y + j)));
    for (; j < n; ++j) y[j] = MaddS(alpha, x[j], y[j]);
  }

  static void GemmNNSparseK(const float* a, const float* b, float* out,
                            int64_t i0, int64_t i1, int64_t k, int64_t n) {
    for (int64_t i = i0; i < i1; ++i) {
      const float* arow = a + i * k;
      float* orow = out + i * n;
      std::fill_n(orow, n, 0.0f);
      for (int64_t p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        FusedAxpy(av, b + p * n, orow, n);
      }
    }
  }

  // One dot product, k in W-lane chunks (lane l holds the p = l mod W
  // partial), folded with the traits' fixed tree, scalar tail appended in
  // index order.
  static float Dot1(const float* x, const float* y, int64_t k) {
    Vec acc = V::Zero();
    int64_t p = 0;
    for (; p + W <= k; p += W)
      acc = V::Madd(V::Load(x + p), V::Load(y + p), acc);
    float s = V::ReduceAdd(acc);
    for (; p < k; ++p) s = MaddS(x[p], y[p], s);
    return s;
  }

  static void GemmNTK(const float* a, const float* b, float* out, int64_t i0,
                      int64_t i1, int64_t k, int64_t n) {
    const int64_t kfull = k / W * W;
    int64_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      const float* arow[4] = {a + i * k, a + (i + 1) * k, a + (i + 2) * k,
                              a + (i + 3) * k};
      int64_t j = 0;
      for (; j + 2 <= n; j += 2) {
        const float* b0 = b + j * k;
        const float* b1 = b + (j + 1) * k;
        Vec c00 = V::Zero(), c01 = V::Zero(), c10 = V::Zero(),
            c11 = V::Zero(), c20 = V::Zero(), c21 = V::Zero(),
            c30 = V::Zero(), c31 = V::Zero();
        for (int64_t p = 0; p < kfull; p += W) {
          const Vec vb0 = V::Load(b0 + p);
          const Vec vb1 = V::Load(b1 + p);
          Vec va = V::Load(arow[0] + p);
          c00 = V::Madd(va, vb0, c00);
          c01 = V::Madd(va, vb1, c01);
          va = V::Load(arow[1] + p);
          c10 = V::Madd(va, vb0, c10);
          c11 = V::Madd(va, vb1, c11);
          va = V::Load(arow[2] + p);
          c20 = V::Madd(va, vb0, c20);
          c21 = V::Madd(va, vb1, c21);
          va = V::Load(arow[3] + p);
          c30 = V::Madd(va, vb0, c30);
          c31 = V::Madd(va, vb1, c31);
        }
        float s[4][2] = {{V::ReduceAdd(c00), V::ReduceAdd(c01)},
                         {V::ReduceAdd(c10), V::ReduceAdd(c11)},
                         {V::ReduceAdd(c20), V::ReduceAdd(c21)},
                         {V::ReduceAdd(c30), V::ReduceAdd(c31)}};
        for (int64_t p = kfull; p < k; ++p) {
          for (int r = 0; r < 4; ++r) {
            s[r][0] = MaddS(arow[r][p], b0[p], s[r][0]);
            s[r][1] = MaddS(arow[r][p], b1[p], s[r][1]);
          }
        }
        for (int r = 0; r < 4; ++r) {
          out[(i + r) * n + j] = s[r][0];
          out[(i + r) * n + j + 1] = s[r][1];
        }
      }
      for (; j < n; ++j) {
        for (int r = 0; r < 4; ++r)
          out[(i + r) * n + j] = Dot1(arow[r], b + j * k, k);
      }
    }
    for (; i < i1; ++i) {
      for (int64_t j = 0; j < n; ++j)
        out[i * n + j] = Dot1(a + i * k, b + j * k, k);
    }
  }

  static void GemmTNK(const float* a, const float* g, float* out, int64_t m,
                      int64_t p0, int64_t p1, int64_t k, int64_t n) {
    const int64_t nstrips = n / S;
    const int64_t nfull = nstrips * S;
    int64_t p = p0;
    for (; p + 4 <= p1; p += 4) {
      for (int64_t s = 0; s < nstrips; ++s) {
        const int64_t j0 = s * S;
        Vec c00 = V::Zero(), c01 = V::Zero(), c10 = V::Zero(),
            c11 = V::Zero(), c20 = V::Zero(), c21 = V::Zero(),
            c30 = V::Zero(), c31 = V::Zero();
        for (int64_t i = 0; i < m; ++i) {
          const Vec g0 = V::Load(g + i * n + j0);
          const Vec g1 = V::Load(g + i * n + j0 + W);
          const float* ai = a + i * k + p;
          Vec av = V::Set1(ai[0]);
          c00 = V::Madd(av, g0, c00);
          c01 = V::Madd(av, g1, c01);
          av = V::Set1(ai[1]);
          c10 = V::Madd(av, g0, c10);
          c11 = V::Madd(av, g1, c11);
          av = V::Set1(ai[2]);
          c20 = V::Madd(av, g0, c20);
          c21 = V::Madd(av, g1, c21);
          av = V::Set1(ai[3]);
          c30 = V::Madd(av, g0, c30);
          c31 = V::Madd(av, g1, c31);
        }
        float* o = out + p * n + j0;
        V::Store(o, c00);
        V::Store(o + W, c01);
        V::Store(o + n, c10);
        V::Store(o + n + W, c11);
        V::Store(o + 2 * n, c20);
        V::Store(o + 2 * n + W, c21);
        V::Store(o + 3 * n, c30);
        V::Store(o + 3 * n + W, c31);
      }
      for (int64_t j = nfull; j < n; ++j) {
        for (int r = 0; r < 4; ++r) {
          float acc = 0.0f;
          for (int64_t i = 0; i < m; ++i)
            acc = MaddS(a[i * k + p + r], g[i * n + j], acc);
          out[(p + r) * n + j] = acc;
        }
      }
    }
    for (; p < p1; ++p) {
      for (int64_t s = 0; s < nstrips; ++s) {
        const int64_t j0 = s * S;
        Vec c0 = V::Zero(), c1 = V::Zero();
        for (int64_t i = 0; i < m; ++i) {
          const Vec av = V::Set1(a[i * k + p]);
          c0 = V::Madd(av, V::Load(g + i * n + j0), c0);
          c1 = V::Madd(av, V::Load(g + i * n + j0 + W), c1);
        }
        V::Store(out + p * n + j0, c0);
        V::Store(out + p * n + j0 + W, c1);
      }
      for (int64_t j = nfull; j < n; ++j) {
        float acc = 0.0f;
        for (int64_t i = 0; i < m; ++i)
          acc = MaddS(a[i * k + p], g[i * n + j], acc);
        out[p * n + j] = acc;
      }
    }
  }

  // ---- Optimizer -----------------------------------------------------------

  static void AdamK(float* w, const float* g, float* m, float* v, int64_t n,
                    float lr, float beta1, float beta2, float eps,
                    float weight_decay, float bc1, float bc2) {
    const Vec vb1 = V::Set1(beta1), vb1c = V::Set1(1.0f - beta1);
    const Vec vb2 = V::Set1(beta2), vb2c = V::Set1(1.0f - beta2);
    const Vec vwd = V::Set1(weight_decay);
    const Vec vlr = V::Set1(lr), veps = V::Set1(eps);
    const Vec vbc1 = V::Set1(bc1), vbc2 = V::Set1(bc2);
    int64_t j = 0;
    for (; j + W <= n; j += W) {
      Vec gj = V::Load(g + j);
      const Vec wj = V::Load(w + j);
      if (weight_decay != 0.0f) gj = V::Madd(vwd, wj, gj);
      const Vec mj = V::Madd(vb1, V::Load(m + j), V::Mul(vb1c, gj));
      const Vec vj = V::Madd(vb2, V::Load(v + j), V::Mul(vb2c, V::Mul(gj, gj)));
      V::Store(m + j, mj);
      V::Store(v + j, vj);
      const Vec mhat = V::Div(mj, vbc1);
      const Vec vhat = V::Div(vj, vbc2);
      const Vec step = V::Div(V::Mul(vlr, mhat), V::Add(V::Sqrt(vhat), veps));
      V::Store(w + j, V::Sub(wj, step));
    }
    for (; j < n; ++j) {
      float gj = g[j];
      if (weight_decay != 0.0f) gj = MaddS(weight_decay, w[j], gj);
      m[j] = MaddS(beta1, m[j], (1.0f - beta1) * gj);
      v[j] = MaddS(beta2, v[j], (1.0f - beta2) * gj * gj);
      const float mhat = m[j] / bc1;
      const float vhat = v[j] / bc2;
      w[j] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }

  // ---- Conv1d --------------------------------------------------------------
  //
  // The scalar loops' products and sums in their order (see the KernelTable
  // entry): Mul then Add, never Madd, and padding taps are skipped by
  // range, never multiplied by a zero pad. Vectors run along the positions
  // whose taps are all in range; the border positions run the scalar loop.
  // Forward and input grad build each element whole in a register, so the
  // last strip of a row is shifted back to end where the in-range
  // positions end: the elements it computes twice get the identical value
  // twice, which saves a scalar tail.

  static void Conv1dForwardK(const float* x, const float* w, const float* bias,
                             float* out, int64_t map0, int64_t map1,
                             int64_t cin, int64_t length, int64_t cout,
                             int64_t ksize, int64_t pad) {
    const int64_t lout = length + 2 * pad - ksize + 1;
    // Every tap of an output position l in [lo, hi) reads inside x.
    const int64_t lo = std::min(pad, lout);
    const int64_t hi = std::max(lo, lout - pad);
    for (int64_t map = map0; map < map1; ++map) {
      const int64_t b = map / cout;
      const int64_t co = map % cout;
      const float* xb = x + b * cin * length;
      const float* wc = w + co * cin * ksize;
      const float init = bias != nullptr ? bias[co] : 0.0f;
      float* orow = out + map * lout;
      const auto one = [&](int64_t l) {
        float o = init;
        for (int64_t ci = 0; ci < cin; ++ci) {
          const float* xrow = xb + ci * length;
          const float* wrow = wc + ci * ksize;
          float acc = 0.0f;
          for (int64_t kk = 0; kk < ksize; ++kk) {
            const int64_t src = l + kk - pad;
            if (src >= 0 && src < length) acc += wrow[kk] * xrow[src];
          }
          o += acc;
        }
        orow[l] = o;
      };
      for (int64_t l = 0; l < lo; ++l) one(l);
      if (hi - lo >= W) {
        for (int64_t l = lo;; l += W) {
          l = std::min(l, hi - W);
          Vec o = V::Set1(init);
          for (int64_t ci = 0; ci < cin; ++ci) {
            const float* xs = xb + ci * length + l - pad;
            const float* wrow = wc + ci * ksize;
            Vec acc = V::Zero();
            for (int64_t kk = 0; kk < ksize; ++kk)
              acc = V::Add(acc, V::Mul(V::Set1(wrow[kk]), V::Load(xs + kk)));
            o = V::Add(o, acc);
          }
          V::Store(orow + l, o);
          if (l + W == hi) break;
        }
      } else {
        for (int64_t l = lo; l < hi; ++l) one(l);
      }
      for (int64_t l = hi; l < lout; ++l) one(l);
    }
  }

  static void Conv1dInputGradK(const float* g, const float* w, float* gx,
                               int64_t b0, int64_t b1, int64_t cin,
                               int64_t length, int64_t cout, int64_t ksize,
                               int64_t pad) {
    const int64_t lout = length + 2 * pad - ksize + 1;
    // Input position s takes terms from output positions l = s + pad - kk;
    // for s in [lo, hi) every tap's l is inside [0, lout). Ascending l is
    // descending kk.
    const int64_t lo =
        std::min(length, std::max<int64_t>(0, ksize - 1 - pad));
    const int64_t hi = std::max(lo, std::min(length, lout - pad));
    for (int64_t b = b0; b < b1; ++b) {
      const float* gb = g + b * cout * lout;
      for (int64_t ci = 0; ci < cin; ++ci) {
        float* xrow = gx + (b * cin + ci) * length;
        const float* wci = w + ci * ksize;
        const auto one = [&](int64_t s) {
          float acc = 0.0f;
          for (int64_t co = 0; co < cout; ++co) {
            const float* grow = gb + co * lout;
            const float* wrow = wci + co * cin * ksize;
            for (int64_t kk = ksize - 1; kk >= 0; --kk) {
              const int64_t l = s + pad - kk;
              if (l >= 0 && l < lout) acc += grow[l] * wrow[kk];
            }
          }
          xrow[s] = acc;
        };
        for (int64_t s = 0; s < lo; ++s) one(s);
        if (hi - lo >= W) {
          for (int64_t s = lo;; s += W) {
            s = std::min(s, hi - W);
            Vec acc = V::Zero();
            for (int64_t co = 0; co < cout; ++co) {
              const float* gs = gb + co * lout + s + pad;
              const float* wrow = wci + co * cin * ksize;
              for (int64_t kk = ksize - 1; kk >= 0; --kk)
                acc = V::Add(acc,
                             V::Mul(V::Load(gs - kk), V::Set1(wrow[kk])));
            }
            V::Store(xrow + s, acc);
            if (s + W == hi) break;
          }
        } else {
          for (int64_t s = lo; s < hi; ++s) one(s);
        }
        for (int64_t s = hi; s < length; ++s) one(s);
      }
    }
  }

  static void Conv1dWeightGradK(const float* g, const float* x, float* gw,
                                float* gbias, int64_t ci0, int64_t ci1,
                                int64_t batch, int64_t cin, int64_t length,
                                int64_t cout, int64_t ksize, int64_t pad) {
    const int64_t lout = length + 2 * pad - ksize + 1;
    const int64_t cfull = cout / W * W;
    // acc[(ci - ci0) * ksize + kk][co] accumulates gw[co, ci, kk] with the
    // output channels contiguous, and gt holds one batch item of g
    // transposed to [l][co], so these sums and gbias's run W output
    // channels at a time while each one still adds its (b, l) terms in
    // ascending order.
    std::vector<float> acc(static_cast<size_t>((ci1 - ci0) * ksize * cout),
                           0.0f);
    std::vector<float> gt(static_cast<size_t>(lout * cout));
    if (gbias != nullptr) std::fill(gbias, gbias + cout, 0.0f);
    for (int64_t b = 0; b < batch; ++b) {
      const float* gb = g + b * cout * lout;
      for (int64_t co = 0; co < cout; ++co)
        for (int64_t l = 0; l < lout; ++l)
          gt[l * cout + co] = gb[co * lout + l];
      if (gbias != nullptr) {
        for (int64_t c = 0; c < cfull; c += W) {
          Vec v = V::Load(gbias + c);
          for (int64_t l = 0; l < lout; ++l)
            v = V::Add(v, V::Load(gt.data() + l * cout + c));
          V::Store(gbias + c, v);
        }
        for (int64_t c = cfull; c < cout; ++c) {
          float s = gbias[c];
          for (int64_t l = 0; l < lout; ++l) s += gt[l * cout + c];
          gbias[c] = s;
        }
      }
      for (int64_t ci = ci0; ci < ci1; ++ci) {
        const float* xrow = x + (b * cin + ci) * length;
        for (int64_t kk = 0; kk < ksize; ++kk) {
          // The output positions whose tap kk reads inside x.
          const int64_t l0 = std::max<int64_t>(0, pad - kk);
          const int64_t l1 = std::min(lout, length + pad - kk);
          const int64_t shift = kk - pad;
          float* a = acc.data() + ((ci - ci0) * ksize + kk) * cout;
          for (int64_t c = 0; c < cfull; c += W) {
            Vec v = V::Load(a + c);
            for (int64_t l = l0; l < l1; ++l)
              v = V::Add(v, V::Mul(V::Load(gt.data() + l * cout + c),
                                   V::Set1(xrow[l + shift])));
            V::Store(a + c, v);
          }
          for (int64_t c = cfull; c < cout; ++c) {
            float s = a[c];
            for (int64_t l = l0; l < l1; ++l)
              s += gt[l * cout + c] * xrow[l + shift];
            a[c] = s;
          }
        }
      }
    }
    for (int64_t co = 0; co < cout; ++co)
      for (int64_t ci = ci0; ci < ci1; ++ci)
        for (int64_t kk = 0; kk < ksize; ++kk)
          gw[(co * cin + ci) * ksize + kk] =
              acc[((ci - ci0) * ksize + kk) * cout + co];
  }

  // ---- Top-k selection -----------------------------------------------------

  // Same sorted-insertion selection as the scalar reference, plus a vector
  // prefilter: once the buffer holds k entries, whole W-wide blocks whose
  // vector max is not strictly above the current k-th best score are
  // skipped without per-element work. The threshold only grows during the
  // scan, and a tie with the incumbent k-th best can never displace it
  // (later index loses the tie-break), so the skip is exact and the result
  // is bit-identical to the scalar kernel. Pure selection — no float
  // arithmetic — for non-NaN scores (reduce_max contract).
  static int64_t TopKSelectF32K(const float* scores, int64_t n, int64_t k,
                                int64_t* idx) {
    const int64_t take = std::min(k, n);
    if (take <= 0) return 0;
    int64_t filled = 0;
    const auto insert = [&](int64_t i, float s) {
      if (filled == take) {
        if (!(s > scores[idx[take - 1]])) return;
        --filled;
      }
      int64_t j = filled;
      for (; j > 0 && s > scores[idx[j - 1]]; --j) idx[j] = idx[j - 1];
      idx[j] = i;
      ++filled;
    };
    int64_t i = 0;
    for (; i + W <= n; i += W) {
      if (filled == take) {
        const float tau = scores[idx[take - 1]];
        if (!(V::ReduceMax(V::Load(scores + i)) > tau)) continue;
      }
      for (int64_t j = i; j < i + W; ++j) insert(j, scores[j]);
    }
    for (; i < n; ++i) insert(i, scores[i]);
    return filled;
  }
};

// Fills a KernelTable with the Gen<V> kernels. The table is a function
// local so each backend TU owns exactly one instance.
template <typename V>
const KernelTable* MakeGenericTable(const char* name) {
  static const KernelTable table = {
      name,
      V::kWidth,
      /*gemm_strip=*/2 * V::kWidth,
      /*needs_packed_b=*/true,
      &Gen<V>::AddK,
      &Gen<V>::SubK,
      &Gen<V>::MulK,
      &Gen<V>::ScaleK,
      &Gen<V>::AddScalarK,
      &Gen<V>::AxpyK,
      &Gen<V>::AccumulateK,
      &Gen<V>::ReluK,
      &Gen<V>::RReluEvalK,
      &Gen<V>::ReluBackwardK,
      &Gen<V>::SigmoidBackwardK,
      &Gen<V>::TanhBackwardK,
      &Gen<V>::MulAddK,
      &Gen<V>::ScaleAddK,
      &Gen<V>::ReduceMaxK,
      &Gen<V>::DotF64K,
      &Gen<V>::SumSquaresF64K,
      &Gen<V>::ExpStoreSumK,
      &Gen<V>::ExpSumK,
      &Gen<V>::ExpShiftStoreK,
      &Gen<V>::GemmNNK,
      &Gen<V>::GemmNNSparseK,
      &Gen<V>::GemmNTK,
      &Gen<V>::GemmTNK,
      &Gen<V>::AdamK,
      &Gen<V>::Conv1dForwardK,
      &Gen<V>::Conv1dInputGradK,
      &Gen<V>::Conv1dWeightGradK,
      // Quantized family: the shared references from kernels_quant-inl.h
      // (bit-exact across backends by construction). Backends with a
      // vectorized int8 GEMM override gemm_nt_i8 after copying this table.
      QuantizeRowsI8K,
      GemmNTI8K,
      F32ToF16K,
      F16ToF32K,
      &Gen<V>::TopKSelectF32K,
  };
  return &table;
}
