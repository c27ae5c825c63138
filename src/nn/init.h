#ifndef RETIA_NN_INIT_H_
#define RETIA_NN_INIT_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace retia::nn {

// Xavier/Glorot uniform initialisation: U(-a, a), a = sqrt(6/(fan_in+fan_out)).
// `shape` must be rank >= 1; fan_in/fan_out are derived from the trailing
// two dimensions (rank-1 tensors use fan_in = fan_out = size). Like
// UniformInit, a null `rng` draws nothing and leaves the storage
// zero-filled, for callers that overwrite every value right away
// (RetiaModel::Clone).
tensor::Tensor XavierUniform(std::vector<int64_t> shape, util::Rng* rng);

// N(0, stddev) initialisation.
tensor::Tensor NormalInit(std::vector<int64_t> shape, float stddev,
                          util::Rng* rng);

// U(lo, hi) initialisation; zero-filled storage when `rng` is null.
tensor::Tensor UniformInit(std::vector<int64_t> shape, float lo, float hi,
                           util::Rng* rng);

}  // namespace retia::nn

#endif  // RETIA_NN_INIT_H_
