#include "ckpt/model_io.h"

#include <cstdio>
#include <cstdlib>

#include "ckpt/artifact.h"
#include "ckpt/bytes.h"
#include "quant/quant.h"

namespace retia::ckpt {

namespace {

std::string ShapeString(const std::vector<int64_t>& shape) {
  std::string s = "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(shape[i]);
  }
  return s + "]";
}

std::string FloatString(float v) {
  char buf[32];
  // %.9g round-trips any float32 exactly.
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(v));
  return buf;
}

// Typed meta lookups. Missing keys and malformed values both name the key.
Result MetaString(const Meta& meta, const std::string& key,
                  std::string* out) {
  Result r = MetaLookup(meta, key, out);
  if (!r.ok()) {
    return Result::Error(ErrorCode::kSchemaMismatch,
                         "meta is missing key '" + key + "'");
  }
  return r;
}

Result MetaInt(const Meta& meta, const std::string& key, int64_t* out) {
  std::string v;
  RETIA_CKPT_RETURN_IF_ERROR(MetaString(meta, key, &v));
  char* end = nullptr;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0') {
    return Result::Error(ErrorCode::kCorrupt,
                         "meta key '" + key + "' has non-integer value '" +
                             v + "'");
  }
  *out = static_cast<int64_t>(parsed);
  return Result::Ok();
}

Result MetaFloat(const Meta& meta, const std::string& key, float* out) {
  std::string v;
  RETIA_CKPT_RETURN_IF_ERROR(MetaString(meta, key, &v));
  char* end = nullptr;
  const float parsed = std::strtof(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') {
    return Result::Error(ErrorCode::kCorrupt,
                         "meta key '" + key + "' has non-float value '" + v +
                             "'");
  }
  *out = parsed;
  return Result::Ok();
}

Result MetaBool(const Meta& meta, const std::string& key, bool* out) {
  std::string v;
  RETIA_CKPT_RETURN_IF_ERROR(MetaString(meta, key, &v));
  if (v != "0" && v != "1") {
    return Result::Error(ErrorCode::kCorrupt,
                         "meta key '" + key + "' has non-boolean value '" +
                             v + "'");
  }
  *out = v == "1";
  return Result::Ok();
}

// Entry header of every parameter section (f32, q8 and f16): name, rank,
// dims. Decoding validates it against the live parameter: order, rank
// cap, shape.
void EncodeParamHeader(ByteWriter* w, const std::string& name,
                       const std::vector<int64_t>& shape) {
  w->Str(name);
  w->U32(static_cast<uint32_t>(shape.size()));
  for (int64_t dim : shape) w->I64(dim);
}

Result DecodeParamHeader(ByteReader* r, const std::string& expected_name,
                         const std::vector<int64_t>& expected_shape,
                         const char* section) {
  std::string name;
  RETIA_CKPT_RETURN_IF_ERROR(r->Str(&name));
  if (name != expected_name) {
    return Result::Error(ErrorCode::kSchemaMismatch,
                         std::string("parameter order mismatch in ") +
                             section + ": artifact has '" + name +
                             "', model expects '" + expected_name + "'");
  }
  uint32_t rank = 0;
  RETIA_CKPT_RETURN_IF_ERROR(r->U32(&rank));
  if (rank > 16) {
    return Result::Error(ErrorCode::kCorrupt,
                         "implausible rank for parameter '" + name + "'");
  }
  std::vector<int64_t> shape(rank);
  for (uint32_t d = 0; d < rank; ++d) {
    RETIA_CKPT_RETURN_IF_ERROR(r->I64(&shape[d]));
  }
  if (shape != expected_shape) {
    return Result::Error(ErrorCode::kSchemaMismatch,
                         "shape mismatch for parameter '" + name +
                             "' (artifact " + ShapeString(shape) + ", model " +
                             ShapeString(expected_shape) + ")");
  }
  return Result::Ok();
}

// Installs decoded values, one per NamedParameters() entry; only called
// once every entry has validated.
void InstallParams(nn::Module* module,
                   std::vector<std::vector<float>> values) {
  auto named = module->NamedParameters();
  for (size_t i = 0; i < named.size(); ++i) {
    named[i].second.impl().data.assign(values[i].begin(), values[i].end());
  }
}

// The sections every model artifact opens with, f32 or quantized: meta
// (artifact kind, dataset name, RetiaConfig) and, for a static-constraint
// model, the SetEntityTypes() table.
void AddModelHeaderSections(const core::RetiaModel& model,
                            const std::string& dataset_name,
                            ArtifactWriter* writer) {
  Meta meta = {{"artifact", "retia.model"}, {"dataset_name", dataset_name}};
  AppendRetiaConfigMeta(model.config(), &meta);
  writer->AddSection(kSectionMeta, EncodeMeta(meta));
  if (model.has_entity_types()) {
    ByteWriter types;
    types.I64(model.num_static_types());
    const auto& table = model.entity_types();
    types.U64(table.size());
    for (int64_t t : table) types.I64(t);
    writer->AddSection(kSectionStaticTypes, types.Take());
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Parameters.

std::string EncodeParams(const nn::Module& module) {
  ByteWriter w;
  const auto named = module.NamedParameters();
  w.U64(named.size());
  for (const auto& [name, t] : named) {
    EncodeParamHeader(&w, name, t.Shape());
    w.FloatArray(t.Data(), t.NumElements());
  }
  return w.Take();
}

Result DecodeParams(const nn::Module& module, std::string_view payload,
                    std::vector<std::vector<float>>* values) {
  ByteReader r(payload, kSectionParams);
  uint64_t count = 0;
  RETIA_CKPT_RETURN_IF_ERROR(r.U64(&count));
  const auto named = module.NamedParameters();
  if (count != named.size()) {
    return Result::Error(ErrorCode::kSchemaMismatch,
                         "artifact has " + std::to_string(count) +
                             " parameters, model has " +
                             std::to_string(named.size()));
  }
  std::vector<std::vector<float>> decoded(count);
  for (uint64_t i = 0; i < count; ++i) {
    const auto& [name, t] = named[i];
    RETIA_CKPT_RETURN_IF_ERROR(
        DecodeParamHeader(&r, name, t.Shape(), kSectionParams));
    RETIA_CKPT_RETURN_IF_ERROR(r.FloatArray(&decoded[i]));
    if (static_cast<int64_t>(decoded[i].size()) != t.NumElements()) {
      return Result::Error(ErrorCode::kCorrupt,
                           "element count mismatch for parameter '" + name +
                               "'");
    }
  }
  RETIA_CKPT_RETURN_IF_ERROR(r.ExpectEnd());
  *values = std::move(decoded);
  return Result::Ok();
}

Result DecodeParamsInto(nn::Module* module, std::string_view payload) {
  std::vector<std::vector<float>> values;
  RETIA_CKPT_RETURN_IF_ERROR(DecodeParams(*module, payload, &values));
  InstallParams(module, std::move(values));
  return Result::Ok();
}

// ---------------------------------------------------------------------------
// Quantized parameters (docs/QUANTIZATION.md).

bool QuantizesAsInt8(const std::vector<int64_t>& shape) {
  if (shape.size() < 2) return false;
  int64_t cols = 1;
  for (size_t d = 1; d < shape.size(); ++d) cols *= shape[d];
  return cols >= 16;
}

Result SaveQuantizedModelArtifact(const core::RetiaModel& model,
                                  const std::string& path,
                                  const std::string& dataset_name) {
  ArtifactWriter writer;
  AddModelHeaderSections(model, dataset_name, &writer);

  const auto named = model.NamedParameters();
  ByteWriter q8, f16;
  uint64_t q8_count = 0, f16_count = 0;
  for (const auto& [name, t] : named) {
    if (QuantizesAsInt8(t.Shape())) ++q8_count;
    else ++f16_count;
  }
  q8.U64(q8_count);
  f16.U64(f16_count);
  for (const auto& [name, t] : named) {
    if (QuantizesAsInt8(t.Shape())) {
      const int64_t rows = t.Shape()[0];
      const int64_t cols = t.NumElements() / rows;
      const quant::QuantizedRows q = quant::QuantizeRows(t.Data(), rows, cols);
      EncodeParamHeader(&q8, name, t.Shape());
      q8.FloatArray(q.scales.data(), rows);
      q8.U64(static_cast<uint64_t>(q.data.size()));
      q8.Raw(q.data.data(), q.data.size());
    } else {
      const std::vector<uint16_t> h =
          quant::EncodeF16(t.Data(), t.NumElements());
      EncodeParamHeader(&f16, name, t.Shape());
      f16.U64(static_cast<uint64_t>(h.size()));
      f16.Raw(h.data(), h.size() * sizeof(uint16_t));
    }
  }
  writer.AddSection(kSectionParamsQ8, q8.Take());
  writer.AddSection(kSectionParamsF16, f16.Take());
  return writer.WriteFile(path);
}

// Routing mirrors the saver: each parameter's section is a pure function
// of its shape, so both readers are walked in NamedParameters order and
// must end exactly when the parameter list does.
Result DecodeQuantizedParamsInto(nn::Module* module,
                                 std::string_view q8_payload,
                                 std::string_view f16_payload) {
  ByteReader q8(q8_payload, kSectionParamsQ8);
  ByteReader f16(f16_payload, kSectionParamsF16);
  const auto named = module->NamedParameters();
  uint64_t q8_count = 0, f16_count = 0;
  RETIA_CKPT_RETURN_IF_ERROR(q8.U64(&q8_count));
  RETIA_CKPT_RETURN_IF_ERROR(f16.U64(&f16_count));
  if (q8_count + f16_count != named.size()) {
    return Result::Error(ErrorCode::kSchemaMismatch,
                         "quantized artifact has " +
                             std::to_string(q8_count + f16_count) +
                             " parameters, model has " +
                             std::to_string(named.size()));
  }
  uint64_t q8_seen = 0, f16_seen = 0;
  std::vector<std::vector<float>> values;
  values.reserve(named.size());
  for (const auto& [name, t] : named) {
    if (QuantizesAsInt8(t.Shape())) {
      if (++q8_seen > q8_count) {
        return Result::Error(ErrorCode::kSchemaMismatch,
                             "q8 section entry count does not cover "
                             "parameter '" + name + "'");
      }
      RETIA_CKPT_RETURN_IF_ERROR(
          DecodeParamHeader(&q8, name, t.Shape(), kSectionParamsQ8));
      const int64_t rows = t.Shape()[0];
      const int64_t cols = t.NumElements() / rows;
      quant::QuantizedRows q;
      q.rows = rows;
      q.cols = cols;
      RETIA_CKPT_RETURN_IF_ERROR(q8.FloatArray(&q.scales));
      if (static_cast<int64_t>(q.scales.size()) != rows) {
        return Result::Error(ErrorCode::kCorrupt,
                             "scale count mismatch for parameter '" + name +
                                 "'");
      }
      uint64_t nbytes = 0;
      RETIA_CKPT_RETURN_IF_ERROR(q8.U64(&nbytes));
      if (nbytes != static_cast<uint64_t>(rows * cols)) {
        return Result::Error(ErrorCode::kCorrupt,
                             "int8 payload size mismatch for parameter '" +
                                 name + "'");
      }
      q.data.resize(static_cast<size_t>(nbytes));
      RETIA_CKPT_RETURN_IF_ERROR(q8.Raw(q.data.data(), q.data.size()));
      values.emplace_back(static_cast<size_t>(t.NumElements()));
      quant::DequantizeInto(q, values.back().data());
    } else {
      if (++f16_seen > f16_count) {
        return Result::Error(ErrorCode::kSchemaMismatch,
                             "f16 section entry count does not cover "
                             "parameter '" + name + "'");
      }
      RETIA_CKPT_RETURN_IF_ERROR(
          DecodeParamHeader(&f16, name, t.Shape(), kSectionParamsF16));
      uint64_t count = 0;
      RETIA_CKPT_RETURN_IF_ERROR(f16.U64(&count));
      if (count != static_cast<uint64_t>(t.NumElements())) {
        return Result::Error(ErrorCode::kCorrupt,
                             "f16 element count mismatch for parameter '" +
                                 name + "'");
      }
      std::vector<uint16_t> h(static_cast<size_t>(count));
      RETIA_CKPT_RETURN_IF_ERROR(
          f16.Raw(h.data(), h.size() * sizeof(uint16_t)));
      values.push_back(quant::DecodeF16(h.data(), t.NumElements()));
    }
  }
  if (q8_seen != q8_count || f16_seen != f16_count) {
    return Result::Error(ErrorCode::kSchemaMismatch,
                         "quantized artifact section split does not match "
                         "the model's parameter shapes");
  }
  RETIA_CKPT_RETURN_IF_ERROR(q8.ExpectEnd());
  RETIA_CKPT_RETURN_IF_ERROR(f16.ExpectEnd());
  InstallParams(module, std::move(values));
  return Result::Ok();
}

// ---------------------------------------------------------------------------
// Meta.

std::string EncodeMeta(const Meta& meta) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(meta.size()));
  for (const auto& [key, value] : meta) {
    w.Str(key);
    w.Str(value);
  }
  return w.Take();
}

Result DecodeMeta(std::string_view payload, Meta* out) {
  ByteReader r(payload, kSectionMeta);
  uint32_t count = 0;
  RETIA_CKPT_RETURN_IF_ERROR(r.U32(&count));
  Meta meta;
  meta.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string key, value;
    RETIA_CKPT_RETURN_IF_ERROR(r.Str(&key));
    RETIA_CKPT_RETURN_IF_ERROR(r.Str(&value));
    meta.emplace_back(std::move(key), std::move(value));
  }
  RETIA_CKPT_RETURN_IF_ERROR(r.ExpectEnd());
  *out = std::move(meta);
  return Result::Ok();
}

Result MetaLookup(const Meta& meta, const std::string& key, std::string* out) {
  for (const auto& [k, v] : meta) {
    if (k == key) {
      *out = v;
      return Result::Ok();
    }
  }
  return Result::Error(ErrorCode::kMissingSection,
                       "meta has no key '" + key + "'");
}

// ---------------------------------------------------------------------------
// Adam.

std::string EncodeAdam(const nn::Adam& adam) {
  ByteWriter w;
  w.I64(adam.step_count());
  const auto& m = adam.first_moments();
  const auto& v = adam.second_moments();
  w.U64(m.size());
  for (size_t i = 0; i < m.size(); ++i) {
    w.FloatArray(m[i].data(), static_cast<int64_t>(m[i].size()));
    w.FloatArray(v[i].data(), static_cast<int64_t>(v[i].size()));
  }
  return w.Take();
}

Result DecodeAdamInto(nn::Adam* adam, std::string_view payload) {
  ByteReader r(payload, kSectionAdam);
  int64_t step_count = 0;
  RETIA_CKPT_RETURN_IF_ERROR(r.I64(&step_count));
  if (step_count < 0) {
    return Result::Error(ErrorCode::kCorrupt, "negative Adam step count");
  }
  uint64_t count = 0;
  RETIA_CKPT_RETURN_IF_ERROR(r.U64(&count));
  const auto& current_m = adam->first_moments();
  if (count != current_m.size()) {
    return Result::Error(ErrorCode::kSchemaMismatch,
                         "artifact Adam state covers " +
                             std::to_string(count) +
                             " parameters, optimizer has " +
                             std::to_string(current_m.size()));
  }
  std::vector<std::vector<float>> m(count), v(count);
  for (uint64_t i = 0; i < count; ++i) {
    RETIA_CKPT_RETURN_IF_ERROR(r.FloatArray(&m[i]));
    RETIA_CKPT_RETURN_IF_ERROR(r.FloatArray(&v[i]));
    if (m[i].size() != current_m[i].size() ||
        v[i].size() != current_m[i].size()) {
      return Result::Error(ErrorCode::kSchemaMismatch,
                           "artifact Adam moments for parameter " +
                               std::to_string(i) + " have wrong size");
    }
  }
  RETIA_CKPT_RETURN_IF_ERROR(r.ExpectEnd());
  adam->RestoreState(step_count, std::move(m), std::move(v));
  return Result::Ok();
}

// ---------------------------------------------------------------------------
// Rng.

std::string EncodeRng(const util::Rng& rng) {
  ByteWriter w;
  w.Str(rng.SaveStateString());
  return w.Take();
}

Result DecodeRngInto(util::Rng* rng, std::string_view payload) {
  ByteReader r(payload, kSectionRng);
  std::string state;
  RETIA_CKPT_RETURN_IF_ERROR(r.Str(&state));
  RETIA_CKPT_RETURN_IF_ERROR(r.ExpectEnd());
  if (!rng->LoadStateString(state)) {
    return Result::Error(ErrorCode::kCorrupt,
                         "invalid mt19937_64 engine state");
  }
  return Result::Ok();
}

// ---------------------------------------------------------------------------
// RetiaConfig <-> meta.

void AppendRetiaConfigMeta(const core::RetiaConfig& c, Meta* meta) {
  meta->emplace_back("num_entities", std::to_string(c.num_entities));
  meta->emplace_back("num_relations", std::to_string(c.num_relations));
  meta->emplace_back("dim", std::to_string(c.dim));
  meta->emplace_back("history_len", std::to_string(c.history_len));
  meta->emplace_back("rgcn_layers", std::to_string(c.rgcn_layers));
  meta->emplace_back("num_bases", std::to_string(c.num_bases));
  meta->emplace_back("conv_kernels", std::to_string(c.conv_kernels));
  meta->emplace_back("conv_kernel_size", std::to_string(c.conv_kernel_size));
  meta->emplace_back("dropout", FloatString(c.dropout));
  meta->emplace_back("lambda_entity", FloatString(c.lambda_entity));
  meta->emplace_back("use_eam", c.use_eam ? "1" : "0");
  meta->emplace_back("use_ram", c.use_ram ? "1" : "0");
  meta->emplace_back("use_tim", c.use_tim ? "1" : "0");
  meta->emplace_back("hyper_mode",
                     std::to_string(static_cast<int>(c.hyper_mode)));
  meta->emplace_back("relation_mode",
                     std::to_string(static_cast<int>(c.relation_mode)));
  meta->emplace_back("time_variability_decode",
                     c.time_variability_decode ? "1" : "0");
  meta->emplace_back("use_static_constraint",
                     c.use_static_constraint ? "1" : "0");
  meta->emplace_back("static_angle_step_deg",
                     FloatString(c.static_angle_step_deg));
  meta->emplace_back("static_weight", FloatString(c.static_weight));
  // The seed reproduces the frozen (non-parameter) ablation embeddings,
  // which are derived from the RNG at construction.
  meta->emplace_back("seed", std::to_string(c.seed));
}

Result RetiaConfigFromMeta(const Meta& meta, core::RetiaConfig* out) {
  core::RetiaConfig c;
  int64_t hyper_mode = 0;
  int64_t relation_mode = 0;
  int64_t seed = 0;
  RETIA_CKPT_RETURN_IF_ERROR(MetaInt(meta, "num_entities", &c.num_entities));
  RETIA_CKPT_RETURN_IF_ERROR(MetaInt(meta, "num_relations",
                                     &c.num_relations));
  RETIA_CKPT_RETURN_IF_ERROR(MetaInt(meta, "dim", &c.dim));
  RETIA_CKPT_RETURN_IF_ERROR(MetaInt(meta, "history_len", &c.history_len));
  RETIA_CKPT_RETURN_IF_ERROR(MetaInt(meta, "rgcn_layers", &c.rgcn_layers));
  RETIA_CKPT_RETURN_IF_ERROR(MetaInt(meta, "num_bases", &c.num_bases));
  RETIA_CKPT_RETURN_IF_ERROR(MetaInt(meta, "conv_kernels", &c.conv_kernels));
  RETIA_CKPT_RETURN_IF_ERROR(MetaInt(meta, "conv_kernel_size",
                                     &c.conv_kernel_size));
  RETIA_CKPT_RETURN_IF_ERROR(MetaFloat(meta, "dropout", &c.dropout));
  RETIA_CKPT_RETURN_IF_ERROR(MetaFloat(meta, "lambda_entity",
                                       &c.lambda_entity));
  RETIA_CKPT_RETURN_IF_ERROR(MetaBool(meta, "use_eam", &c.use_eam));
  RETIA_CKPT_RETURN_IF_ERROR(MetaBool(meta, "use_ram", &c.use_ram));
  RETIA_CKPT_RETURN_IF_ERROR(MetaBool(meta, "use_tim", &c.use_tim));
  RETIA_CKPT_RETURN_IF_ERROR(MetaInt(meta, "hyper_mode", &hyper_mode));
  RETIA_CKPT_RETURN_IF_ERROR(MetaInt(meta, "relation_mode", &relation_mode));
  RETIA_CKPT_RETURN_IF_ERROR(MetaBool(meta, "time_variability_decode",
                                      &c.time_variability_decode));
  RETIA_CKPT_RETURN_IF_ERROR(MetaBool(meta, "use_static_constraint",
                                      &c.use_static_constraint));
  RETIA_CKPT_RETURN_IF_ERROR(MetaFloat(meta, "static_angle_step_deg",
                                       &c.static_angle_step_deg));
  RETIA_CKPT_RETURN_IF_ERROR(MetaFloat(meta, "static_weight",
                                       &c.static_weight));
  RETIA_CKPT_RETURN_IF_ERROR(MetaInt(meta, "seed", &seed));
  c.hyper_mode = static_cast<core::HyperMode>(hyper_mode);
  c.relation_mode = static_cast<core::RelationMode>(relation_mode);
  c.seed = static_cast<uint64_t>(seed);
  *out = c;
  return Result::Ok();
}

// ---------------------------------------------------------------------------
// Model artifacts.

Result SaveModelArtifact(const core::RetiaModel& model,
                         const std::string& path,
                         const std::string& dataset_name) {
  ArtifactWriter writer;
  AddModelHeaderSections(model, dataset_name, &writer);
  writer.AddSection(kSectionParams, EncodeParams(model));
  return writer.WriteFile(path);
}

Result LoadModelArtifact(const std::string& path,
                         std::unique_ptr<core::RetiaModel>* out,
                         std::string* dataset_name) {
  ArtifactReader reader;
  RETIA_CKPT_RETURN_IF_ERROR(ArtifactReader::Open(path, &reader));

  std::string_view meta_bytes;
  RETIA_CKPT_RETURN_IF_ERROR(reader.Section(kSectionMeta, &meta_bytes));
  Meta meta;
  RETIA_CKPT_RETURN_IF_ERROR(DecodeMeta(meta_bytes, &meta));
  core::RetiaConfig config;
  RETIA_CKPT_RETURN_IF_ERROR(RetiaConfigFromMeta(meta, &config));
  if (dataset_name != nullptr) {
    std::string name;
    RETIA_CKPT_RETURN_IF_ERROR(MetaString(meta, "dataset_name", &name));
    *dataset_name = std::move(name);
  }

  auto model = std::make_unique<core::RetiaModel>(config);

  // The static-constraint table must be installed before the parameters
  // are decoded: SetEntityTypes registers the per-type embedding, and the
  // parameter list in the artifact includes it.
  if (reader.Has(kSectionStaticTypes)) {
    std::string_view types_bytes;
    RETIA_CKPT_RETURN_IF_ERROR(reader.Section(kSectionStaticTypes,
                                              &types_bytes));
    ByteReader r(types_bytes, kSectionStaticTypes);
    int64_t num_types = 0;
    RETIA_CKPT_RETURN_IF_ERROR(r.I64(&num_types));
    uint64_t count = 0;
    RETIA_CKPT_RETURN_IF_ERROR(r.U64(&count));
    if (num_types <= 0 ||
        count != static_cast<uint64_t>(config.num_entities)) {
      return Result::Error(ErrorCode::kCorrupt,
                           "static-type table covers " +
                               std::to_string(count) + " entities, model has " +
                               std::to_string(config.num_entities));
    }
    std::vector<int64_t> types(count);
    for (uint64_t i = 0; i < count; ++i) {
      RETIA_CKPT_RETURN_IF_ERROR(r.I64(&types[i]));
      if (types[i] < 0 || types[i] >= num_types) {
        return Result::Error(ErrorCode::kCorrupt,
                             "static type of entity " + std::to_string(i) +
                                 " out of range");
      }
    }
    RETIA_CKPT_RETURN_IF_ERROR(r.ExpectEnd());
    if (!config.use_static_constraint) {
      return Result::Error(ErrorCode::kSchemaMismatch,
                           "artifact carries a static-type table but "
                           "use_static_constraint is off in its config");
    }
    model->SetEntityTypes(types, num_types);
  }

  if (reader.Has(kSectionParams)) {
    std::string_view params_bytes;
    RETIA_CKPT_RETURN_IF_ERROR(reader.Section(kSectionParams, &params_bytes));
    RETIA_CKPT_RETURN_IF_ERROR(DecodeParamsInto(model.get(), params_bytes));
  } else {
    // Quantized artifact: both dtype sections must be present (either may
    // hold zero entries). A file with neither spelling of the parameters
    // reports the canonical f32 section as missing.
    if (!reader.Has(kSectionParamsQ8) || !reader.Has(kSectionParamsF16)) {
      std::string_view params_bytes;
      return reader.Section(kSectionParams, &params_bytes);
    }
    std::string_view q8_bytes, f16_bytes;
    RETIA_CKPT_RETURN_IF_ERROR(reader.Section(kSectionParamsQ8, &q8_bytes));
    RETIA_CKPT_RETURN_IF_ERROR(reader.Section(kSectionParamsF16, &f16_bytes));
    RETIA_CKPT_RETURN_IF_ERROR(
        DecodeQuantizedParamsInto(model.get(), q8_bytes, f16_bytes));
  }

  *out = std::move(model);
  return Result::Ok();
}

}  // namespace retia::ckpt
