#ifndef RETIA_TENSOR_TENSOR_H_
#define RETIA_TENSOR_TENSOR_H_

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "util/check.h"

namespace retia::tensor {

class Tensor;

// Allocator whose value-less construct default-initializes, so a vector of
// floats sized with it is left unset instead of zero-filled (copies and
// fills construct through std::construct_at as usual). Under
// AddressSanitizer every such float is set to a quiet NaN (0x7fc0dead),
// so a kernel that reads an element before writing it poisons its result
// and the test that runs it fails.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
#if defined(__SANITIZE_ADDRESS__)
    if constexpr (std::is_same_v<U, float>) {
      *p = std::bit_cast<float>(0x7fc0deadu);
    }
#endif
  }
};

// Tensor storage. FloatBuffer(n) leaves its n floats unset; every op
// writes each element of its output (and of its backward scratch) once,
// and the few kernels that accumulate zero their own output first
// (DESIGN.md §10).
using FloatBuffer = std::vector<float, DefaultInitAllocator<float>>;

// Reference-counted tensor storage plus the autograd tape hooks.
//
// A Tensor produced by an op records its parents and a backward function;
// Tensor::Backward() topologically sorts the reachable graph and runs the
// backward functions in reverse order, accumulating into each node's `grad`.
struct TensorImpl {
  std::vector<int64_t> shape;
  FloatBuffer data;

  // Autograd state. `grad` is allocated to data.size() by the first
  // contribution, which writes it as 0.0f + g: a gradient starts at +0 and
  // only ever adds, so it never holds -0 and adding a +0 term to it changes
  // no bit. `parents` keeps upstream nodes alive for the backward pass.
  bool requires_grad = false;
  FloatBuffer grad;
  std::vector<Tensor> parents;
  std::function<void(TensorImpl&)> backward_fn;

  int64_t NumElements() const {
    int64_t n = 1;
    for (int64_t d : shape) n *= d;
    return n;
  }

  // Adds `g` (same length as data) into grad.
  void AccumulateGrad(const float* g, int64_t n);

  // Adds a contribution that `write(dst)` produces in full (every element
  // of dst overwritten) into grad. The first contribution is written
  // straight into grad; later ones go through a scratch buffer.
  template <typename Write>
  void AccumulateGradFrom(Write&& write) {
    if (grad.empty()) {
      grad = FloatBuffer(data.size());
      write(grad.data());
      ZeroPlusGrad();
    } else {
      FloatBuffer g(data.size());
      write(g.data());
      AccumulateGrad(g.data(), static_cast<int64_t>(g.size()));
    }
  }

  // Runs `add_into(dst, add)` on grad. `add` is false for the first
  // contribution, when dst is unset and the kernel must write 0.0f + term
  // to every element, and true afterwards, when it adds term.
  template <typename AddInto>
  void AddIntoGrad(AddInto&& add_into) {
    const bool add = !grad.empty();
    if (!add) grad = FloatBuffer(data.size());
    add_into(grad.data(), add);
  }

  // Zero-fills grad if it does not exist yet, for backwards that add into a
  // window of it only.
  void EnsureGrad();

 private:
  // grad = 0.0f + grad, in place.
  void ZeroPlusGrad();
};

// Value-semantics handle to a shared TensorImpl. Copies are shallow (they
// alias the same storage), mirroring the behaviour of torch.Tensor handles.
class Tensor {
 public:
  // Default-constructed handle is "undefined"; defined() returns false.
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  // ---- Factories ----------------------------------------------------------
  static Tensor Zeros(std::vector<int64_t> shape, bool requires_grad = false);
  static Tensor Full(std::vector<int64_t> shape, float value,
                     bool requires_grad = false);
  static Tensor FromVector(std::vector<int64_t> shape,
                           const std::vector<float>& data,
                           bool requires_grad = false);
  // 1x1 scalar tensor.
  static Tensor Scalar(float value, bool requires_grad = false);

  // ---- Introspection ------------------------------------------------------
  bool defined() const { return impl_ != nullptr; }
  int Rank() const { return static_cast<int>(impl().shape.size()); }
  int64_t Dim(int i) const;
  const std::vector<int64_t>& Shape() const { return impl().shape; }
  int64_t NumElements() const { return impl().NumElements(); }
  std::string ShapeString() const;

  // ---- Data access --------------------------------------------------------
  float* Data() { return impl().data.data(); }
  const float* Data() const { return impl().data.data(); }
  // 2-D element accessors (the dominant case in this library).
  float& At(int64_t i, int64_t j);
  float At(int64_t i, int64_t j) const;
  // Scalar value of a 1-element tensor.
  float Item() const;

  // ---- Autograd -----------------------------------------------------------
  bool RequiresGrad() const { return impl().requires_grad; }
  void SetRequiresGrad(bool value) { impl().requires_grad = value; }
  // Gradient buffer; CHECK-fails if no gradient has been accumulated yet.
  const FloatBuffer& Grad() const;
  // Gradient buffer, zero-filled if no gradient has been accumulated yet.
  FloatBuffer& MutableGrad();
  bool HasGrad() const { return !impl().grad.empty(); }
  void ZeroGrad();

  // Runs reverse-mode accumulation from this tensor. If the tensor is not a
  // scalar, the seed gradient is all-ones.
  void Backward();

  // Deep copy with no autograd history.
  Tensor Detach() const;

  TensorImpl& impl() const {
    RETIA_CHECK_MSG(impl_ != nullptr, "use of undefined Tensor");
    return *impl_;
  }
  const std::shared_ptr<TensorImpl>& ptr() const { return impl_; }

 private:
  std::shared_ptr<TensorImpl> impl_;
};

// RAII guard disabling autograd recording (used during evaluation so that
// forward passes do not build a tape). Nestable.
//
// THREAD-SAFETY INVARIANT: grad mode is tracked in a thread_local counter,
// so a NoGradGuard only affects the thread that constructed it. Any thread
// running grad-free forward passes concurrently (e.g. the serve workers)
// must install its OWN guard; otherwise ops on that thread record tape
// edges whose `parents` handles alias the shared parameter tensors, and a
// later Backward() would race on their grad buffers. With a per-thread
// guard in place, concurrent forward passes over shared parameters are
// safe: every op allocates a fresh result tensor, never mutates its
// inputs, and the only rng-consuming ops (Dropout, RRelu) are pure
// pass-throughs outside training mode (audited 2026-08; keep it that way).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

// True when ops should record autograd edges.
bool GradModeEnabled();

// Internal helper for op implementations: constructs the result tensor and
// wires the tape edge when recording is enabled and any parent needs grad.
Tensor MakeOpResult(std::vector<int64_t> shape, FloatBuffer data,
                    std::vector<Tensor> parents,
                    std::function<void(TensorImpl&)> backward_fn);

}  // namespace retia::tensor

#endif  // RETIA_TENSOR_TENSOR_H_
