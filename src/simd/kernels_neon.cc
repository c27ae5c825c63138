// NEON backend (4-wide) for aarch64, where Advanced SIMD is part of the
// baseline — always compiled in and always supported, no extra flags or
// runtime detection needed. vfmaq_f32 is a true fused multiply-add, so
// like AVX2 this backend sets kFused and its scalar tails use std::fma.

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "simd/tables.h"

namespace retia::simd {
namespace {

struct NeonTraits {
  using Vec = float32x4_t;
  using DVec = float64x2_t;
  static constexpr int kWidth = 4;
  static constexpr bool kFused = true;

  static Vec Load(const float* p) { return vld1q_f32(p); }
  static void Store(float* p, Vec v) { vst1q_f32(p, v); }
  static Vec Set1(float x) { return vdupq_n_f32(x); }
  static Vec Zero() { return vdupq_n_f32(0.0f); }
  static Vec Add(Vec a, Vec b) { return vaddq_f32(a, b); }
  static Vec Sub(Vec a, Vec b) { return vsubq_f32(a, b); }
  static Vec Mul(Vec a, Vec b) { return vmulq_f32(a, b); }
  static Vec Div(Vec a, Vec b) { return vdivq_f32(a, b); }
  static Vec Madd(Vec a, Vec b, Vec c) { return vfmaq_f32(c, a, b); }
  static Vec Max(Vec a, Vec b) { return vmaxq_f32(a, b); }
  static Vec Min(Vec a, Vec b) { return vminq_f32(a, b); }
  static Vec Sqrt(Vec a) { return vsqrtq_f32(a); }
  static Vec Gt(Vec a, Vec b) {
    return vreinterpretq_f32_u32(vcgtq_f32(a, b));
  }
  static Vec Ge(Vec a, Vec b) {
    return vreinterpretq_f32_u32(vcgeq_f32(a, b));
  }
  static Vec Select(Vec mask, Vec a, Vec b) {
    return vbslq_f32(vreinterpretq_u32_f32(mask), a, b);
  }
  static Vec RoundNearest(Vec v) { return vrndnq_f32(v); }
  static Vec PowTwo(Vec nf) {
    int32x4_t n = vcvtnq_s32_f32(nf);
    n = vaddq_s32(n, vdupq_n_s32(127));
    n = vshlq_n_s32(n, 23);
    return vreinterpretq_f32_s32(n);
  }

  static DVec DZero() { return vdupq_n_f64(0.0); }
  static DVec DAdd(DVec a, DVec b) { return vaddq_f64(a, b); }
  static DVec DMul(DVec a, DVec b) { return vmulq_f64(a, b); }
  static DVec WidenLo(Vec v) { return vcvt_f64_f32(vget_low_f32(v)); }
  static DVec WidenHi(Vec v) { return vcvt_high_f64_f32(v); }

  static float ReduceAdd(Vec v) {
    // (l0+l2) + (l1+l3): pairwise within halves, then across — the same
    // tree shape as the x86 backends.
    float32x2_t h = vadd_f32(vget_low_f32(v), vget_high_f32(v));
    h = vpadd_f32(h, h);
    return vget_lane_f32(h, 0);
  }
  static double DReduceAdd(DVec v) {
    return vgetq_lane_f64(v, 0) + vgetq_lane_f64(v, 1);
  }
  static float ReduceMax(Vec v) {
    float32x2_t h = vmax_f32(vget_low_f32(v), vget_high_f32(v));
    h = vpmax_f32(h, h);
    return vget_lane_f32(h, 0);
  }
};

#include "simd/kernels_quant-inl.h"
#include "simd/kernels_generic-inl.h"

}  // namespace

const KernelTable* GetNeonTable() {
  return MakeGenericTable<NeonTraits>("neon");
}

}  // namespace retia::simd

#endif  // aarch64
