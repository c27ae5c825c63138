// AVX2 + FMA backend (8-wide). This file is compiled with -mavx2 -mfma
// (see src/simd/CMakeLists.txt); dispatch.cc only calls GetAvx2Table()
// after __builtin_cpu_supports confirms both features, and the accessor
// itself performs no vector work.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "simd/tables.h"

namespace retia::simd {
namespace {

struct Avx2Traits {
  using Vec = __m256;
  using DVec = __m256d;
  static constexpr int kWidth = 8;
  static constexpr bool kFused = true;

  static Vec Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
  static Vec Set1(float x) { return _mm256_set1_ps(x); }
  static Vec Zero() { return _mm256_setzero_ps(); }
  static Vec Add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
  static Vec Sub(Vec a, Vec b) { return _mm256_sub_ps(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }
  static Vec Div(Vec a, Vec b) { return _mm256_div_ps(a, b); }
  static Vec Madd(Vec a, Vec b, Vec c) { return _mm256_fmadd_ps(a, b, c); }
  static Vec Max(Vec a, Vec b) { return _mm256_max_ps(a, b); }
  static Vec Min(Vec a, Vec b) { return _mm256_min_ps(a, b); }
  static Vec Sqrt(Vec a) { return _mm256_sqrt_ps(a); }
  static Vec Gt(Vec a, Vec b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
  static Vec Ge(Vec a, Vec b) { return _mm256_cmp_ps(a, b, _CMP_GE_OQ); }
  static Vec Select(Vec mask, Vec a, Vec b) {
    return _mm256_blendv_ps(b, a, mask);
  }
  static Vec RoundNearest(Vec v) {
    return _mm256_round_ps(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static Vec PowTwo(Vec nf) {
    __m256i n = _mm256_cvtps_epi32(nf);
    n = _mm256_add_epi32(n, _mm256_set1_epi32(127));
    n = _mm256_slli_epi32(n, 23);
    return _mm256_castsi256_ps(n);
  }

  static DVec DZero() { return _mm256_setzero_pd(); }
  static DVec DAdd(DVec a, DVec b) { return _mm256_add_pd(a, b); }
  static DVec DMul(DVec a, DVec b) { return _mm256_mul_pd(a, b); }
  static DVec WidenLo(Vec v) {
    return _mm256_cvtps_pd(_mm256_castps256_ps128(v));
  }
  static DVec WidenHi(Vec v) {
    return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
  }

  static float ReduceAdd(Vec v) {
    __m128 h = _mm_add_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));
    h = _mm_add_ps(h, _mm_movehl_ps(h, h));
    h = _mm_add_ss(h, _mm_shuffle_ps(h, h, 0x55));
    return _mm_cvtss_f32(h);
  }
  static double DReduceAdd(DVec v) {
    __m128d h = _mm_add_pd(_mm256_castpd256_pd128(v),
                           _mm256_extractf128_pd(v, 1));
    h = _mm_add_sd(h, _mm_unpackhi_pd(h, h));
    return _mm_cvtsd_f64(h);
  }
  static float ReduceMax(Vec v) {
    __m128 h = _mm_max_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));
    h = _mm_max_ps(h, _mm_movehl_ps(h, h));
    h = _mm_max_ss(h, _mm_shuffle_ps(h, h, 0x55));
    return _mm_cvtss_f32(h);
  }
};

#include "simd/kernels_quant-inl.h"
#include "simd/kernels_generic-inl.h"

// Vectorized int8 NT GEMM: 16 bytes per side sign-extended with
// _mm256_cvtepi8_epi16, then _mm256_madd_epi16 gives 8 exact i32
// pair-sums per step (the u8xs8 maddubs trick is deliberately NOT used:
// its i16 pair-sums can saturate at 2*255*127 > 32767). All integer
// arithmetic is exact and the scale epilogue keeps the reference
// rounding order, so this is bit-identical to GemmNTI8K.
void GemmNTI8Avx2(const int8_t* a, const float* sa, const int8_t* b,
                  const float* sb, float* out, int64_t i0, int64_t i1,
                  int64_t k, int64_t n) {
  for (int64_t i = i0; i < i1; ++i) {
    const int8_t* ai = a + i * k;
    for (int64_t j = 0; j < n; ++j) {
      const int8_t* bj = b + j * k;
      __m256i acc = _mm256_setzero_si256();
      int64_t p = 0;
      for (; p + 16 <= k; p += 16) {
        const __m256i av = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(ai + p)));
        const __m256i bv = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(bj + p)));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, bv));
      }
      __m128i h = _mm_add_epi32(_mm256_castsi256_si128(acc),
                                _mm256_extracti128_si256(acc, 1));
      h = _mm_add_epi32(h, _mm_srli_si128(h, 8));
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

const KernelTable* GetAvx2Table() {
  static const KernelTable table = [] {
    KernelTable t = *MakeGenericTable<Avx2Traits>("avx2");
    t.gemm_nt_i8 = GemmNTI8Avx2;
#if defined(RETIA_HAVE_AVXVNNI)
    // vpdpbusd micro-kernel (kernels_avx2vnni.cc): exact i32 accumulate,
    // so still bit-identical — picked only when the CPU actually has it.
    if (__builtin_cpu_supports("avxvnni")) t.gemm_nt_i8 = GemmNTI8Avx2Vnni;
#endif
    return t;
  }();
  return &table;
}

}  // namespace retia::simd

#endif  // x86-64
