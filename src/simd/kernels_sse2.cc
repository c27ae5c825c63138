// SSE2 backend (4-wide). SSE2 is part of the x86-64 baseline, so this
// file needs no extra compile flags and the table is always supported on
// x86-64. No FMA: Madd lowers to mul + add (kFused = false), so scalar
// tails use plain a*b + c and match the vector lanes exactly.

#if defined(__x86_64__) || defined(_M_X64)

#include <emmintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "simd/tables.h"

namespace retia::simd {
namespace {

struct Sse2Traits {
  using Vec = __m128;
  using DVec = __m128d;
  static constexpr int kWidth = 4;
  static constexpr bool kFused = false;

  static Vec Load(const float* p) { return _mm_loadu_ps(p); }
  static void Store(float* p, Vec v) { _mm_storeu_ps(p, v); }
  static Vec Set1(float x) { return _mm_set1_ps(x); }
  static Vec Zero() { return _mm_setzero_ps(); }
  static Vec Add(Vec a, Vec b) { return _mm_add_ps(a, b); }
  static Vec Sub(Vec a, Vec b) { return _mm_sub_ps(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm_mul_ps(a, b); }
  static Vec Div(Vec a, Vec b) { return _mm_div_ps(a, b); }
  static Vec Madd(Vec a, Vec b, Vec c) {
    return _mm_add_ps(_mm_mul_ps(a, b), c);
  }
  static Vec Max(Vec a, Vec b) { return _mm_max_ps(a, b); }
  static Vec Min(Vec a, Vec b) { return _mm_min_ps(a, b); }
  static Vec Sqrt(Vec a) { return _mm_sqrt_ps(a); }
  static Vec Gt(Vec a, Vec b) { return _mm_cmpgt_ps(a, b); }
  static Vec Ge(Vec a, Vec b) { return _mm_cmpge_ps(a, b); }
  static Vec Select(Vec mask, Vec a, Vec b) {
    return _mm_or_ps(_mm_and_ps(mask, a), _mm_andnot_ps(mask, b));
  }
  // cvtps_epi32 rounds per MXCSR, which retia never changes from its
  // power-on default of round-to-nearest-even.
  static Vec RoundNearest(Vec v) {
    return _mm_cvtepi32_ps(_mm_cvtps_epi32(v));
  }
  static Vec PowTwo(Vec nf) {
    __m128i n = _mm_cvtps_epi32(nf);
    n = _mm_add_epi32(n, _mm_set1_epi32(127));
    n = _mm_slli_epi32(n, 23);
    return _mm_castsi128_ps(n);
  }

  static DVec DZero() { return _mm_setzero_pd(); }
  static DVec DAdd(DVec a, DVec b) { return _mm_add_pd(a, b); }
  static DVec DMul(DVec a, DVec b) { return _mm_mul_pd(a, b); }
  static DVec WidenLo(Vec v) { return _mm_cvtps_pd(v); }
  static DVec WidenHi(Vec v) {
    return _mm_cvtps_pd(_mm_movehl_ps(v, v));
  }

  static float ReduceAdd(Vec v) {
    __m128 h = _mm_add_ps(v, _mm_movehl_ps(v, v));
    h = _mm_add_ss(h, _mm_shuffle_ps(h, h, 0x55));
    return _mm_cvtss_f32(h);
  }
  static double DReduceAdd(DVec v) {
    const __m128d h = _mm_add_sd(v, _mm_unpackhi_pd(v, v));
    return _mm_cvtsd_f64(h);
  }
  static float ReduceMax(Vec v) {
    __m128 h = _mm_max_ps(v, _mm_movehl_ps(v, v));
    h = _mm_max_ss(h, _mm_shuffle_ps(h, h, 0x55));
    return _mm_cvtss_f32(h);
  }
};

#include "simd/kernels_quant-inl.h"
#include "simd/kernels_generic-inl.h"

// Vectorized int8 NT GEMM. Sign-extends 8 bytes per side to 8x i16
// (compare-against-zero + unpacklo; SSE2 has no cvtepi8_epi16), then
// _mm_madd_epi16 produces 4 exact i32 pair-sums per step. i16*i16
// products and their pairwise sums fit i32 without saturation
// (|a*b| <= 127^2), the i32 accumulation is exact for k < 2^17, and the
// scale epilogue keeps the reference rounding order, so this is
// bit-identical to GemmNTI8K.
void GemmNTI8Sse2(const int8_t* a, const float* sa, const int8_t* b,
                  const float* sb, float* out, int64_t i0, int64_t i1,
                  int64_t k, int64_t n) {
  const __m128i zero = _mm_setzero_si128();
  for (int64_t i = i0; i < i1; ++i) {
    const int8_t* ai = a + i * k;
    for (int64_t j = 0; j < n; ++j) {
      const int8_t* bj = b + j * k;
      __m128i acc = zero;
      int64_t p = 0;
      for (; p + 8 <= k; p += 8) {
        __m128i av = _mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(ai + p));
        __m128i bv = _mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(bj + p));
        av = _mm_unpacklo_epi8(av, _mm_cmpgt_epi8(zero, av));
        bv = _mm_unpacklo_epi8(bv, _mm_cmpgt_epi8(zero, bv));
        acc = _mm_add_epi32(acc, _mm_madd_epi16(av, bv));
      }
      __m128i h = _mm_add_epi32(acc, _mm_srli_si128(acc, 8));
      h = _mm_add_epi32(h, _mm_srli_si128(h, 4));
      int32_t sum = _mm_cvtsi128_si32(h);
      for (; p < k; ++p) {
        sum += static_cast<int32_t>(ai[p]) * static_cast<int32_t>(bj[p]);
      }
      const float m = sa[i] * sb[j];
      out[i * n + j] = static_cast<float>(sum) * m;
    }
  }
}

}  // namespace

const KernelTable* GetSse2Table() {
  static const KernelTable table = [] {
    KernelTable t = *MakeGenericTable<Sse2Traits>("sse2");
    t.gemm_nt_i8 = GemmNTI8Sse2;
    return t;
  }();
  return &table;
}

}  // namespace retia::simd

#endif  // x86-64
