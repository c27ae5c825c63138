#ifndef RETIA_SIMD_SIMD_H_
#define RETIA_SIMD_SIMD_H_

#include <cstdint>

namespace retia::simd {

// Portable fixed-width vectorization layer for the hot-path kernels.
//
// Every kernel exists in one scalar reference implementation plus SIMD
// backends (SSE2/AVX2 on x86-64, NEON on aarch64) selected at runtime by
// CPU detection, overridable with RETIA_SIMD (see ParseBackend). The
// scalar backend reproduces the pre-SIMD serial kernels bit-exactly; the
// SIMD backends obey the determinism contract below.
//
// DETERMINISM CONTRACT (extends par/parallel_for.h):
//  * For a fixed build and backend, every kernel is a pure function of its
//    inputs: results are bit-identical across thread counts and across
//    which shard runs where. Reductions fold their vector lanes in a fixed
//    lane-tree order (pairwise within 128-bit halves, then across halves,
//    then the scalar tail in index order), never in arrival order.
//  * Bit-exact across ALL backends: elementwise add/sub/mul/scale/axpy/
//    accumulate (one correctly-rounded op per element), the activation
//    and elementwise-backward kernels (compare-and-select, unfused
//    arithmetic in the scalar expressions' order), reduce_max
//    (max is order-insensitive for non-NaN data), the Conv1d family
//    (unfused products summed in the scalar loops' order, see below), and
//    the whole quantized family quantize_rows_i8 / gemm_nt_i8 /
//    f32_to_f16 / f16_to_f32 (int32 accumulation is exact; see the
//    section comment below).
//  * Tolerance-bound against the scalar reference (documented in
//    docs/PERFORMANCE.md, enforced by tests/simd_test.cc and the
//    tensor_property_test backend sweep): the GEMM kernels (FMA keeps the
//    double-rounded products of the scalar path from being reproduced),
//    the f64 lane-tree reductions (dot_f64, sum_squares_f64), the
//    polynomial vector exp used by the softmax family, and adam_update.
struct KernelTable {
  const char* name;     // "scalar", "sse2", "avx2", "neon"
  int vector_width;     // floats per vector register (1 for scalar)
  int gemm_strip;       // GEMM column-strip width (2 * vector_width)
  bool needs_packed_b;  // GemmNN packs B into strip panels for this table

  // ---- Elementwise (y may alias a and/or b) -------------------------------
  void (*add)(const float* a, const float* b, float* y, int64_t n);
  void (*sub)(const float* a, const float* b, float* y, int64_t n);
  void (*mul)(const float* a, const float* b, float* y, int64_t n);
  // y = s * a.
  void (*scale)(const float* a, float s, float* y, int64_t n);
  // y = a + c.
  void (*add_scalar)(const float* a, float c, float* y, int64_t n);
  // y += alpha * x.
  void (*axpy)(float alpha, const float* x, float* y, int64_t n);
  // y += x.
  void (*accumulate)(const float* x, float* y, int64_t n);

  // ---- Activations and elementwise backward --------------------------------
  // Branch-free compare-and-select forms of the scalar expressions below,
  // bit-exact across backends for every input, NaN, ±0, ±Inf and denormals
  // included (NaN payloads aside).
  //
  // y = x > 0 ? x : 0 (NaN and -0 give +0). y may alias x.
  void (*relu)(const float* x, float* y, int64_t n);
  // y = x >= 0 ? x : x * slope, eval-mode RRelu (-0 stays -0). y may
  // alias x.
  void (*rrelu_eval)(const float* x, float slope, float* y, int64_t n);
  // The backward kernels write dx = base + term per element, where base is
  // dx itself when `add` is set and +0 when it is not (dx is then a fresh,
  // unset gradient, see tensor/tensor.h). The term is rounded as written,
  // one op at a time (multiply, then add; never fused). dx aliases no input.
  //   relu_backward     term = dy * (y > 0 ? 1 : 0), y = Relu's output;
  //   sigmoid_backward  term = dy * (y * (1 - y)),   y = Sigmoid's output;
  //   tanh_backward     term = dy * (1 - y * y),     y = Tanh's output.
  void (*relu_backward)(const float* y, const float* dy, float* dx, int64_t n,
                        bool add);
  void (*sigmoid_backward)(const float* y, const float* dy, float* dx,
                           int64_t n, bool add);
  void (*tanh_backward)(const float* y, const float* dy, float* dx, int64_t n,
                        bool add);
  // term = a * b: Mul's backward and the RRelu and Dropout mask multiply.
  void (*mul_add)(const float* a, const float* b, float* y, int64_t n,
                  bool add);
  // term = x * s.
  void (*scale_add)(const float* x, float s, float* y, int64_t n, bool add);

  // ---- Reductions (fixed lane-tree fold order) ----------------------------
  // Max element; n must be >= 1.
  float (*reduce_max)(const float* x, int64_t n);
  // sum_i double(a[i] * b[i]): float product, double accumulation.
  double (*dot_f64)(const float* a, const float* b, int64_t n);
  // sum_i double(x[i]) * double(x[i]).
  double (*sum_squares_f64)(const float* x, int64_t n);

  // ---- Softmax building blocks -------------------------------------------
  // y[i] = exp(x[i] - shift); *sum = lane-tree double sum of the y values.
  void (*exp_store_sum)(const float* x, float shift, float* y, double* sum,
                        int64_t n);
  // Like exp_store_sum without materializing y.
  double (*exp_sum)(const float* x, float shift, int64_t n);
  // y[i] = float(exp(x[i] - shift)) with the shift applied at the
  // backend's precision (double in the scalar reference).
  void (*exp_shift_store)(const float* x, double shift, float* y, int64_t n);

  // ---- GEMM micro-kernels -------------------------------------------------
  // All operate on a row range of the OUTPUT and fully overwrite it
  // (compute-and-store; no dependence on prior output contents);
  // gemm_nn_sparse zeroes its row range and then accumulates into it. Every
  // output element always receives its k (resp. m) contributions in
  // increasing index order, so results never depend on sharding.
  //
  // NN: out[i,j] = sum_p A[i,p] B[p,j] for i in [i0,i1). `bp` is the
  // packed-panel form of B produced by PackB when needs_packed_b is set
  // (otherwise null and the kernel reads the row-major `b` directly).
  void (*gemm_nn)(const float* a, const float* b, const float* bp, float* out,
                  int64_t i0, int64_t i1, int64_t k, int64_t n);
  // NN over a mostly-zero A: zeroes out's rows, then adds the products of
  // the nonzero A elements only (skipping a zero one is an exact no-op
  // under both plain and fused multiply-add). Bit-identical to gemm_nn for
  // finite inputs.
  void (*gemm_nn_sparse)(const float* a, const float* b, float* out,
                         int64_t i0, int64_t i1, int64_t k, int64_t n);
  // NT: out[i,j] = sum_p A[i,p] B[j,p] for i in [i0,i1); B is [n,k].
  void (*gemm_nt)(const float* a, const float* b, float* out, int64_t i0,
                  int64_t i1, int64_t k, int64_t n);
  // TN: out[p,j] = sum_i A[i,p] G[i,j] for p in [p0,p1); A is [m,k],
  // G is [m,n], out is [k,n].
  void (*gemm_tn)(const float* a, const float* g, float* out, int64_t m,
                  int64_t p0, int64_t p1, int64_t k, int64_t n);

  // ---- Optimizer ----------------------------------------------------------
  // One Adam step over w[0..n): m = b1*m + (1-b1)*g'; v = b2*v + (1-b2)*g'^2;
  // w -= lr * (m/bc1) / (sqrt(v/bc2) + eps), g' = g + weight_decay * w.
  void (*adam_update)(float* w, const float* g, float* m, float* v, int64_t n,
                      float lr, float beta1, float beta2, float eps,
                      float weight_decay, float bc1, float bc2);

  // ---- Conv1d (the Conv-TransE decoders) ----------------------------------
  // Input x is [batch, cin, length], weight w is [cout, cin, ksize], the
  // output (and its gradient g) is [batch, cout, lout] with
  // lout = length + 2*pad - ksize + 1. Taps that fall on the zero padding
  // are skipped, never multiplied. Each kernel writes every element of its
  // output range, whatever it held before, and is BIT-EXACT across
  // backends: every output element receives the scalar loops' unfused
  // products, summed in their order —
  //   forward      out[b,co,l] = bias[co] (0 when bias is null), then per
  //                ci the tap sum acc = 0 + w*x + ... (kk ascending) added
  //                as one term;
  //   input grad   gx[b,ci,s] = 0 + g*w over co ascending, then l
  //                ascending;
  //   weight grad  gw[co,ci,kk] = 0 + g*x over b ascending, then l
  //                ascending;
  //   bias grad    gbias[co] = 0 + g over b ascending, then l ascending.
  // The range arguments select disjoint outputs, so any sharding over them
  // gives the same bits.
  //
  // Forward over the output maps map = b*cout + co in [map0, map1).
  void (*conv1d_forward)(const float* x, const float* w, const float* bias,
                         float* out, int64_t map0, int64_t map1, int64_t cin,
                         int64_t length, int64_t cout, int64_t ksize,
                         int64_t pad);
  // Input gradient gx[b0..b1) from g and w.
  void (*conv1d_input_grad)(const float* g, const float* w, float* gx,
                            int64_t b0, int64_t b1, int64_t cin,
                            int64_t length, int64_t cout, int64_t ksize,
                            int64_t pad);
  // Weight gradient gw[:, ci0..ci1, :] from g and x. When gbias is not
  // null it also writes the whole bias gradient gbias[0..cout), whatever
  // the ci range; one shard passes it. The vector backends transpose each
  // batch item of g for the weight sums anyway, so the bias sums run W
  // output channels at a time off the same transposed block.
  void (*conv1d_weight_grad)(const float* g, const float* x, float* gw,
                             float* gbias, int64_t ci0, int64_t ci1,
                             int64_t batch, int64_t cin, int64_t length,
                             int64_t cout, int64_t ksize, int64_t pad);

  // ---- Quantized inference (docs/QUANTIZATION.md) -------------------------
  // All four kernels are BIT-EXACT across backends: quantize clamps in f32
  // to [-127, 127] before a round-to-nearest-even convert (identical to the
  // SSE2/AVX2 min/max + cvtps_epi32 sequence under the default MXCSR), the
  // int8 GEMM accumulates in exact order-insensitive int32 arithmetic with
  // a fixed scale-epilogue rounding order, and the f16 converts are pure
  // bit manipulation. Only gemm_nt_i8 has vectorized overrides; the other
  // three share one reference implementation in every table.
  //
  // Per-row symmetric quantization of A[rows,cols]: scales[i] = amax_i/127,
  // q[i,c] = rne(clamp(a[i,c] * 127/amax_i, -127, 127)); all-zero (or
  // non-finite-free zero-amax) rows store scale 0 and all-zero codes.
  void (*quantize_rows_i8)(const float* a, int8_t* q, float* scales,
                           int64_t rows, int64_t cols);
  // NT GEMM over quantized rows: out[i,j] = float(sum_p Ai8[i,p]*Bi8[j,p])
  // * (sa[i]*sb[j]) for i in [i0,i1); Bi8 is [n,k]. The int32 dot is exact
  // for k <= 2^16 on every implementation (plain s8 x s8 needs only
  // |acc| <= k * 127^2, but the AVX-VNNI override's +128 offset form
  // accumulates |(a+128) * b| <= k * 255 * 127, which caps k at 2^16);
  // the epilogue multiplies the two scales first, then the converted sum,
  // in that fixed order.
  void (*gemm_nt_i8)(const int8_t* a, const float* sa, const int8_t* b,
                     const float* sb, float* out, int64_t i0, int64_t i1,
                     int64_t k, int64_t n);
  // IEEE binary16 converts with round-to-nearest-even (software bit
  // manipulation on every backend; overflow -> inf, NaN payload -> qNaN).
  void (*f32_to_f16)(const float* x, uint16_t* y, int64_t n);
  void (*f16_to_f32)(const uint16_t* x, float* y, int64_t n);

  // ---- Top-k selection ----------------------------------------------------
  // Writes the indices of the min(k, n) largest scores into idx[], best
  // first, and returns that count. The order is the unique total order
  // "higher score wins, ties broken by the lower index" — exactly the
  // contract of eval::TopKIndices — so every correct implementation is
  // BIT-IDENTICAL across backends (pure selection, no float arithmetic).
  // Implementations keep a sorted k-candidate buffer and only admit
  // elements strictly above the current k-th best score (exact, because a
  // later index can never displace an equal-scored incumbent); the SIMD
  // backends prefilter whole vector blocks against that threshold with a
  // vector max. Non-NaN scores only (same contract as reduce_max).
  int64_t (*topk_select_f32)(const float* scores, int64_t n, int64_t k,
                             int64_t* idx);
};

// Backends in preference order (higher enum value wins when supported).
enum class Backend { kScalar = 0, kSse2 = 1, kNeon = 2, kAvx2 = 3 };

// Stable lower-case name ("scalar", "sse2", "neon", "avx2").
const char* BackendName(Backend backend);

// Best backend for the running CPU (compile-time ISA availability plus
// runtime CPU detection; kScalar is always available).
Backend BestSupportedBackend();

// True when `backend` is compiled into this binary and the CPU can run it.
bool BackendSupported(Backend backend);

// Parses a RETIA_SIMD value: off|scalar -> kScalar, native -> best
// supported, or an explicit backend name. Returns false (leaving *out
// untouched) for null/empty/unknown values.
bool ParseBackend(const char* value, Backend* out);

// The active backend: RETIA_SIMD override when set and supported (an
// unsupported or malformed value warns once and falls back), otherwise
// BestSupportedBackend(). Resolved once per process.
Backend ActiveBackend();

// Kernel table of the active backend.
const KernelTable& Kernels();

// Kernel table for an explicit backend, or null when unsupported.
const KernelTable* TableFor(Backend backend);

// Test hook: forces `backend` until destruction (CHECK-fails when
// unsupported). Swap only while no kernels run concurrently — installs a
// process-wide table, so worker threads mid-kernel would mix backends
// (individual kernels stay correct; bit-reproducibility claims would not).
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend backend);
  ~ScopedBackend();
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  const KernelTable* previous_;
};

// ---- Whole-matrix GEMM drivers --------------------------------------------
// Shard the output rows over par::DefaultPool() (fixed problem-size-derived
// shards, see par/parallel_for.h), pack B when the active backend wants
// packed panels, and route one-hot-like A matrices (density <= 1/8,
// decided by an O(mk) scan) to the zero-skipping sparse kernel. Every path
// fully overwrites `out`, whatever it held (an empty reduction writes
// zeros), so callers may pass unset buffers.

// out[m,n] = A[m,k] * B[k,n].
void GemmNN(const float* a, const float* b, float* out, int64_t m, int64_t k,
            int64_t n);
// out[m,n] = A[m,k] * B[n,k]^T.
void GemmNT(const float* a, const float* b, float* out, int64_t m, int64_t k,
            int64_t n);
// out[k,n] = A[m,k]^T * G[m,n].
void GemmTN(const float* a, const float* g, float* out, int64_t m, int64_t k,
            int64_t n);
// Quantized NT driver: out[m,n] = dequant(A8[m,k] * B8[n,k]^T) using the
// active backend's gemm_nt_i8 micro-kernel, sharded like GemmNT. Bit-exact
// across backends and thread counts (int32 dot + fixed scale epilogue).
void GemmNTQuant(const int8_t* a, const float* sa, const int8_t* b,
                 const float* sb, float* out, int64_t m, int64_t k, int64_t n);

// Partial top-k selection via the active backend's topk_select_f32 (see the
// KernelTable entry for the exact contract). Single-threaded — callers run
// it once per score row, typically already inside a sharded loop.
int64_t TopKSelectF32(const float* scores, int64_t n, int64_t k, int64_t* idx);

}  // namespace retia::simd

#endif  // RETIA_SIMD_SIMD_H_
