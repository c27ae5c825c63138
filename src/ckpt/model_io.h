#ifndef RETIA_CKPT_MODEL_IO_H_
#define RETIA_CKPT_MODEL_IO_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/result.h"
#include "core/retia.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace retia::ckpt {

// Typed encode/decode of the standard artifact sections. Encoders are
// infallible (they serialize live objects); decoders validate everything
// against the in-memory target and return kSchemaMismatch naming the
// offending parameter or key rather than trusting the file.

// Canonical section names (docs/CHECKPOINTS.md).
inline constexpr char kSectionMeta[] = "meta";
inline constexpr char kSectionParams[] = "model.params";
inline constexpr char kSectionParamsQ8[] = "model.params.q8";
inline constexpr char kSectionParamsF16[] = "model.params.f16";
inline constexpr char kSectionStaticTypes[] = "model.static_types";
inline constexpr char kSectionAdam[] = "optim.adam";
inline constexpr char kSectionRng[] = "rng.model";
inline constexpr char kSectionCursor[] = "train.cursor";
inline constexpr char kSectionBestParams[] = "train.best_params";
inline constexpr char kSectionRecords[] = "train.records";

// Ordered key/value metadata (the "meta" section).
using Meta = std::vector<std::pair<std::string, std::string>>;

// Value of `key` in `meta`; kMissingSection (naming the key) when absent.
Result MetaLookup(const Meta& meta, const std::string& key, std::string* out);

// ---- Section payloads ----------------------------------------------------

// Named parameters of a module: names, shapes, float payloads.
// DecodeParams validates a payload against `module` (count, order, names,
// shapes, sizes, trailing bytes) and returns its values in
// NamedParameters() order without touching the module. DecodeParamsInto
// installs them only once all of that passed, so a failed decode leaves
// every parameter as it was.
std::string EncodeParams(const nn::Module& module);
Result DecodeParams(const nn::Module& module, std::string_view payload,
                    std::vector<std::vector<float>>* values);
Result DecodeParamsInto(nn::Module* module, std::string_view payload);

std::string EncodeMeta(const Meta& meta);
Result DecodeMeta(std::string_view payload, Meta* out);

// Adam state: step count plus both moment vectors per parameter.
std::string EncodeAdam(const nn::Adam& adam);
Result DecodeAdamInto(nn::Adam* adam, std::string_view payload);

// Full util::Rng engine state (std::mt19937_64 stream serialization).
std::string EncodeRng(const util::Rng& rng);
Result DecodeRngInto(util::Rng* rng, std::string_view payload);

// ---- RetiaConfig <-> meta ------------------------------------------------

// Appends every RetiaConfig field to `meta`.
void AppendRetiaConfigMeta(const core::RetiaConfig& config, Meta* meta);
Result RetiaConfigFromMeta(const Meta& meta, core::RetiaConfig* out);

// ---- Model artifacts (the serve snapshot, v2) ----------------------------

// One self-contained artifact: meta (config + dataset name), parameters,
// and — when SetEntityTypes() installed one — the static-constraint
// entity-type table as its own versioned section, so such models round-trip
// instead of failing on a parameter-count mismatch at load.
Result SaveModelArtifact(const core::RetiaModel& model,
                         const std::string& path,
                         const std::string& dataset_name);

// Quantized variant (docs/QUANTIZATION.md): instead of the f32
// model.params section, parameters are split across model.params.q8
// (per-row symmetric int8 + f32 scales; every parameter where
// QuantizesAsInt8(shape) holds) and model.params.f16 (IEEE binary16;
// everything else — biases, norm gains, small tables). Both sections are
// always written, either may carry zero entries. Eval/serve snapshots
// only: a quantized artifact cannot seed training (no f32 payload).
Result SaveQuantizedModelArtifact(const core::RetiaModel& model,
                                  const std::string& path,
                                  const std::string& dataset_name);

// Section routing rule, shared by saver and loader (and documented in
// docs/QUANTIZATION.md): rank >= 2 with at least 16 trailing elements per
// leading row quantizes to int8; everything else stores f16.
bool QuantizesAsInt8(const std::vector<int64_t>& shape);

// Dequantizes the q8 + f16 section pair into `module`'s f32 parameters,
// all or nothing like DecodeParamsInto.
Result DecodeQuantizedParamsInto(nn::Module* module,
                                 std::string_view q8_payload,
                                 std::string_view f16_payload);

// Rebuilds the model from a v2 artifact; on any error (a v1 RETIACKPT1
// file is kBadMagic) `out` is untouched. Accepts both f32 (model.params) and
// quantized (model.params.q8 + .f16) artifacts — quantized payloads are
// dequantized into the in-memory f32 parameters, so every downstream
// consumer is format-agnostic. The model is returned in train mode;
// serving callers flip SetTraining(false) themselves.
Result LoadModelArtifact(const std::string& path,
                         std::unique_ptr<core::RetiaModel>* out,
                         std::string* dataset_name);

}  // namespace retia::ckpt

#endif  // RETIA_CKPT_MODEL_IO_H_
