#include "tensor/tensor.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "simd/simd.h"

namespace retia::tensor {

namespace {
thread_local int g_no_grad_depth = 0;
}  // namespace

void TensorImpl::EnsureGrad() {
  if (grad.empty()) grad.assign(data.size(), 0.0f);
}

void TensorImpl::ZeroPlusGrad() {
  // 0.0f + g turns -0 into +0 and keeps every other bit, exactly what a
  // zero-filled buffer with g added into it holds.
  simd::Kernels().add_scalar(grad.data(), 0.0f, grad.data(),
                             static_cast<int64_t>(grad.size()));
}

void TensorImpl::AccumulateGrad(const float* g, int64_t n) {
  RETIA_CHECK_EQ(static_cast<size_t>(n), data.size());
  if (grad.empty()) {
    grad = FloatBuffer(data.size());
    simd::Kernels().add_scalar(g, 0.0f, grad.data(), n);
  } else {
    simd::Kernels().accumulate(g, grad.data(), n);
  }
}

Tensor Tensor::Zeros(std::vector<int64_t> shape, bool requires_grad) {
  return Full(std::move(shape), 0.0f, requires_grad);
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value,
                    bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data.assign(impl->NumElements(), value);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::FromVector(std::vector<int64_t> shape,
                          const std::vector<float>& data, bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data.assign(data.begin(), data.end());
  impl->requires_grad = requires_grad;
  RETIA_CHECK_EQ(static_cast<int64_t>(impl->data.size()), impl->NumElements());
  return Tensor(std::move(impl));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromVector({1}, {value}, requires_grad);
}

int64_t Tensor::Dim(int i) const {
  RETIA_CHECK_LT(i, Rank());
  return impl().shape[i];
}

std::string Tensor::ShapeString() const {
  std::ostringstream oss;
  oss << "[";
  for (size_t i = 0; i < impl().shape.size(); ++i) {
    if (i) oss << ", ";
    oss << impl().shape[i];
  }
  oss << "]";
  return oss.str();
}

float& Tensor::At(int64_t i, int64_t j) {
  RETIA_CHECK_EQ(Rank(), 2);
  RETIA_CHECK_LT(i, Dim(0));
  RETIA_CHECK_LT(j, Dim(1));
  return impl().data[i * Dim(1) + j];
}

float Tensor::At(int64_t i, int64_t j) const {
  return const_cast<Tensor*>(this)->At(i, j);
}

float Tensor::Item() const {
  RETIA_CHECK_EQ(NumElements(), 1);
  return impl().data[0];
}

const FloatBuffer& Tensor::Grad() const {
  RETIA_CHECK_MSG(!impl().grad.empty(), "tensor has no accumulated gradient");
  return impl().grad;
}

FloatBuffer& Tensor::MutableGrad() {
  impl().EnsureGrad();
  return impl().grad;
}

void Tensor::ZeroGrad() {
  std::fill(impl().grad.begin(), impl().grad.end(), 0.0f);
}

void Tensor::Backward() {
  TensorImpl* root = &impl();
  root->grad.assign(root->data.size(), 1.0f);

  // Iterative post-order DFS to get a topological order of the tape.
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  struct Frame {
    TensorImpl* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0});
  visited.insert(root);
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      TensorImpl* parent = frame.node->parents[frame.next_parent].ptr().get();
      ++frame.next_parent;
      if (parent != nullptr && visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }
  // order is post-order: parents before children; walk in reverse so each
  // node's grad is complete before it propagates to its parents.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn && !node->grad.empty()) {
      node->backward_fn(*node);
    }
  }
}

Tensor Tensor::Detach() const {
  auto impl_copy = std::make_shared<TensorImpl>();
  impl_copy->shape = impl().shape;
  impl_copy->data = impl().data;
  impl_copy->requires_grad = false;
  return Tensor(std::move(impl_copy));
}

NoGradGuard::NoGradGuard() : previous_(g_no_grad_depth > 0) {
  ++g_no_grad_depth;
  (void)previous_;
}

NoGradGuard::~NoGradGuard() { --g_no_grad_depth; }

bool GradModeEnabled() { return g_no_grad_depth == 0; }

Tensor MakeOpResult(std::vector<int64_t> shape, FloatBuffer data,
                    std::vector<Tensor> parents,
                    std::function<void(TensorImpl&)> backward_fn) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  RETIA_CHECK_EQ(static_cast<int64_t>(impl->data.size()), impl->NumElements());
  bool needs_grad = false;
  if (GradModeEnabled()) {
    for (const Tensor& p : parents) {
      if (p.defined() && p.RequiresGrad()) {
        needs_grad = true;
        break;
      }
    }
  }
  if (needs_grad) {
    impl->requires_grad = true;
    impl->parents = std::move(parents);
    impl->backward_fn = std::move(backward_fn);
  }
  return Tensor(std::move(impl));
}

}  // namespace retia::tensor
