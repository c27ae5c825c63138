#ifndef RETIA_SERVE_SNAPSHOT_H_
#define RETIA_SERVE_SNAPSHOT_H_

#include <memory>
#include <string>

#include "ckpt/result.h"
#include "core/retia.h"

namespace retia::serve {

// A model snapshot is everything a serving process needs to rebuild a
// trained RetiaModel without the training program, stored as one
// crash-safe RETIACKPT2 artifact at <prefix>.ckpt: the full RetiaConfig
// and dataset name (meta section), the parameters, and — when
// SetEntityTypes() installed one — the static-constraint entity-type
// table as its own versioned section, so static-constraint models
// round-trip instead of failing at load. docs/CHECKPOINTS.md specifies
// the format.
//
// Both calls report failures as ckpt::Result instead of aborting, so a
// serving process can refuse a bad snapshot and keep running.

// Atomically writes <prefix>.ckpt (tmp + fsync + rename; a crash leaves
// either the old snapshot or the new one, never a torn file).
ckpt::Result SaveModelSnapshot(const core::RetiaModel& model,
                               const std::string& prefix,
                               const std::string& dataset_name = "");

// Quantized snapshot (docs/QUANTIZATION.md): same artifact shape, but the
// parameters ride the model.params.q8 / model.params.f16 dtype sections
// (~3.5x smaller files). LoadModelSnapshot reads both kinds transparently
// — quantized payloads are dequantized into the f32 model at load, so the
// serving path downstream is identical. Serving/eval only: a quantized
// snapshot cannot seed further training.
ckpt::Result SaveQuantizedModelSnapshot(const core::RetiaModel& model,
                                        const std::string& prefix,
                                        const std::string& dataset_name = "");

// Rebuilds the model from <prefix>.ckpt; a v1 RETIACKPT1 file is rejected
// as kBadMagic. On success `*model` holds the model in eval mode
// (SetTraining(false)), ready for frozen scoring, and `dataset_name` (when
// non-null) receives the name stored at save time. On failure `*model` is
// untouched.
[[nodiscard]] ckpt::Result LoadModelSnapshot(
    const std::string& prefix, std::unique_ptr<core::RetiaModel>* model,
    std::string* dataset_name = nullptr);

}  // namespace retia::serve

#endif  // RETIA_SERVE_SNAPSHOT_H_
