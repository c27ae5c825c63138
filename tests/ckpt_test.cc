// Tests for retia::ckpt — the RETIACKPT2 artifact container, the typed
// section codecs, v1 file rejection, trainer SaveState/ResumeState
// resume-exactness, all-or-nothing parameter decodes, and the retia::fail
// fault-injection hooks. Registered under the ctest label `ckpt` so
// `ctest -L ckpt` runs just these, typically in a
// -DRETIA_SANITIZE=address build (scripts/check.sh).

#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/ckpt.h"
#include "core/retia.h"
#include "graph/graph_cache.h"
#include "nn/linear.h"
#include "serve/snapshot.h"
#include "tensor/tensor.h"
#include "tkg/synthetic.h"
#include "train/trainer.h"
#include "util/fail.h"
#include "util/rng.h"

namespace retia {
namespace {

using ckpt::ArtifactReader;
using ckpt::ArtifactWriter;
using ckpt::ErrorCode;
using ckpt::Result;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// One-section artifact with known byte offsets, the corruption target:
//   [0,11)   magic "RETIACKPT2\n"
//   [11,15)  u32 version (= 2)
//   [15,19)  u32 section count (= 1)
//   [19,23)  u32 name length (= 1)
//   [23,24)  name "s"
//   [24,32)  u64 payload length (= 11)
//   [32,36)  u32 payload CRC
//   [36,47)  payload "hello world"
//   [47,51)  u32 file CRC
std::string OneSectionArtifact() {
  ArtifactWriter w;
  w.AddSection("s", "hello world");
  return w.Serialize();
}

// ---------------------------------------------------------------------------
// Corruption matrix: every class of damage maps to the right error code.

TEST(ArtifactCorruptionTest, IntactArtifactParses) {
  ArtifactReader reader;
  const Result r = ArtifactReader::Parse(OneSectionArtifact(), &reader);
  ASSERT_TRUE(r.ok()) << r.ToString();
  EXPECT_TRUE(reader.Has("s"));
  std::string_view payload;
  ASSERT_TRUE(reader.Section("s", &payload).ok());
  EXPECT_EQ(payload, "hello world");
}

TEST(ArtifactCorruptionTest, FlippedMagicIsBadMagic) {
  std::string bytes = OneSectionArtifact();
  bytes[0] ^= 0x20;
  ArtifactReader reader;
  EXPECT_EQ(ArtifactReader::Parse(bytes, &reader).code(),
            ErrorCode::kBadMagic);
}

TEST(ArtifactCorruptionTest, TruncationInsideMagicIsTruncated) {
  ArtifactReader reader;
  EXPECT_EQ(ArtifactReader::Parse(OneSectionArtifact().substr(0, 5),
                                  &reader).code(),
            ErrorCode::kTruncated);
  EXPECT_EQ(ArtifactReader::Parse("", &reader).code(), ErrorCode::kTruncated);
}

TEST(ArtifactCorruptionTest, WrongVersionIsBadVersion) {
  std::string bytes = OneSectionArtifact();
  bytes[11] = 9;
  ArtifactReader reader;
  const Result r = ArtifactReader::Parse(bytes, &reader);
  EXPECT_EQ(r.code(), ErrorCode::kBadVersion);
  EXPECT_NE(r.detail().find("version 9"), std::string::npos) << r.ToString();
}

TEST(ArtifactCorruptionTest, PayloadBitFlipIsCorruptNamingTheSection) {
  std::string bytes = OneSectionArtifact();
  bytes[40] ^= 0x01;  // inside "hello world"
  ArtifactReader reader;
  const Result r = ArtifactReader::Parse(bytes, &reader);
  EXPECT_EQ(r.code(), ErrorCode::kCorrupt);
  EXPECT_NE(r.detail().find("section 's'"), std::string::npos)
      << r.ToString();
}

TEST(ArtifactCorruptionTest, SectionCrcBitFlipIsCorrupt) {
  std::string bytes = OneSectionArtifact();
  bytes[33] ^= 0x01;  // inside the stored section CRC
  ArtifactReader reader;
  EXPECT_EQ(ArtifactReader::Parse(bytes, &reader).code(),
            ErrorCode::kCorrupt);
}

TEST(ArtifactCorruptionTest, FileCrcBitFlipIsCorrupt) {
  std::string bytes = OneSectionArtifact();
  bytes[bytes.size() - 1] ^= 0x01;
  ArtifactReader reader;
  const Result r = ArtifactReader::Parse(bytes, &reader);
  EXPECT_EQ(r.code(), ErrorCode::kCorrupt);
  EXPECT_NE(r.detail().find("file CRC"), std::string::npos) << r.ToString();
}

TEST(ArtifactCorruptionTest, TruncationInsidePayloadIsTruncated) {
  ArtifactReader reader;
  const Result r =
      ArtifactReader::Parse(OneSectionArtifact().substr(0, 45), &reader);
  EXPECT_EQ(r.code(), ErrorCode::kTruncated);
  EXPECT_NE(r.detail().find("'s'"), std::string::npos) << r.ToString();
}

TEST(ArtifactCorruptionTest, MissingFooterIsTruncated) {
  const std::string bytes = OneSectionArtifact();
  ArtifactReader reader;
  EXPECT_EQ(ArtifactReader::Parse(bytes.substr(0, bytes.size() - 2),
                                  &reader).code(),
            ErrorCode::kTruncated);
}

TEST(ArtifactCorruptionTest, TrailingBytesAreCorrupt) {
  ArtifactReader reader;
  EXPECT_EQ(ArtifactReader::Parse(OneSectionArtifact() + "x", &reader).code(),
            ErrorCode::kCorrupt);
}

TEST(ArtifactCorruptionTest, V1MagicsAreBadMagic) {
  core::RetiaConfig config;
  config.num_entities = 8;
  config.num_relations = 2;
  config.dim = 4;
  auto model = std::make_unique<core::RetiaModel>(config);
  const core::RetiaModel* untouched = model.get();
  const std::string prefix = TempPath("v1_snapshot");
  for (const std::string& bytes :
       {std::string("RETIACKPT1\n\x02\0\0\0\0\0\0\0junk", 23),
        std::string("RETIASIDE1\nformat_version\t1\n")}) {
    ArtifactReader reader;
    EXPECT_EQ(ArtifactReader::Parse(bytes, &reader).code(),
              ErrorCode::kBadMagic);
    // The serve loader reports the same code and leaves its output alone.
    ASSERT_TRUE(ckpt::WriteFileDurably(prefix + ".ckpt", bytes).ok());
    const Result r = serve::LoadModelSnapshot(prefix, &model);
    EXPECT_EQ(r.code(), ErrorCode::kBadMagic) << r.ToString();
    EXPECT_EQ(model.get(), untouched);
  }
}

TEST(ArtifactCorruptionTest, AbsentSectionIsMissingSection) {
  ArtifactReader reader;
  ASSERT_TRUE(ArtifactReader::Parse(OneSectionArtifact(), &reader).ok());
  std::string_view payload;
  EXPECT_EQ(reader.Section("nope", &payload).code(),
            ErrorCode::kMissingSection);
}

TEST(ArtifactCorruptionTest, EveryTruncationPointIsRejected) {
  const std::string bytes = OneSectionArtifact();
  for (size_t len = 0; len < bytes.size(); ++len) {
    ArtifactReader reader;
    const Result r = ArtifactReader::Parse(bytes.substr(0, len), &reader);
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes parsed";
  }
}

TEST(ArtifactCorruptionTest, OpenPrefixesErrorsWithThePath) {
  const std::string path = TempPath("corrupt_prefix.ckpt");
  std::string bytes = OneSectionArtifact();
  bytes[40] ^= 0x01;
  ASSERT_TRUE(ckpt::WriteFileDurably(path, bytes).ok());
  ArtifactReader reader;
  const Result r = ArtifactReader::Open(path, &reader);
  EXPECT_EQ(r.code(), ErrorCode::kCorrupt);
  EXPECT_NE(r.detail().find(path), std::string::npos) << r.ToString();
}

// ---------------------------------------------------------------------------
// Round-trip property test over randomized module shapes.

class RandomModule : public nn::Module {
 public:
  RandomModule(uint64_t shape_seed, uint64_t init_seed) {
    util::Rng shapes(shape_seed);
    util::Rng init(init_seed);
    const int64_t num_layers = shapes.UniformInt(1, 4);
    for (int64_t i = 0; i < num_layers; ++i) {
      const int64_t in = shapes.UniformInt(1, 9);
      const int64_t out = shapes.UniformInt(1, 9);
      layers_.push_back(std::make_unique<nn::Linear>(in, out, &init));
      RegisterModule("layer" + std::to_string(i), layers_.back().get());
    }
  }

 private:
  std::vector<std::unique_ptr<nn::Linear>> layers_;
};

TEST(ArtifactRoundTripTest, RandomizedModuleShapesRoundTripBitExactly) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    RandomModule src(seed, /*init_seed=*/seed + 100);
    const std::string path =
        TempPath("roundtrip_" + std::to_string(seed) + ".ckpt");
    ArtifactWriter writer;
    writer.AddSection(ckpt::kSectionParams, ckpt::EncodeParams(src));
    ASSERT_TRUE(writer.WriteFile(path).ok()) << "seed " << seed;

    // Same shapes, different initialization: every value must be replaced.
    RandomModule dst(seed, /*init_seed=*/seed + 999);
    ArtifactReader reader;
    ASSERT_TRUE(ArtifactReader::Open(path, &reader).ok()) << "seed " << seed;
    std::string_view payload;
    ASSERT_TRUE(reader.Section(ckpt::kSectionParams, &payload).ok());
    const Result r = ckpt::DecodeParamsInto(&dst, payload);
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.ToString();

    auto s = src.NamedParameters();
    auto d = dst.NamedParameters();
    ASSERT_EQ(s.size(), d.size());
    for (size_t i = 0; i < s.size(); ++i) {
      EXPECT_EQ(s[i].second.impl().data, d[i].second.impl().data)
          << "seed " << seed << " parameter " << s[i].first;
    }
  }
}

TEST(ArtifactRoundTripTest, ShapeMismatchIsSchemaMismatchNamingParameter) {
  RandomModule src(3, 100);
  RandomModule other(7, 100);  // different shapes with high probability
  const std::string payload = ckpt::EncodeParams(src);
  const Result r = ckpt::DecodeParamsInto(&other, payload);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kSchemaMismatch);
}

// ---------------------------------------------------------------------------
// Typed section codecs.

TEST(SectionCodecTest, MetaRoundTripsAndRejectsTrailingBytes) {
  const ckpt::Meta meta = {{"a", "1"}, {"b", "two"}, {"empty", ""}};
  const std::string payload = ckpt::EncodeMeta(meta);
  ckpt::Meta out;
  ASSERT_TRUE(ckpt::DecodeMeta(payload, &out).ok());
  EXPECT_EQ(out, meta);
  EXPECT_EQ(ckpt::DecodeMeta(payload + "junk", &out).code(),
            ErrorCode::kCorrupt);
  EXPECT_EQ(ckpt::DecodeMeta(payload.substr(0, payload.size() - 1),
                             &out).code(),
            ErrorCode::kTruncated);
}

TEST(SectionCodecTest, RngStateRoundTripReplaysTheStream) {
  util::Rng src(1234);
  // Advance so the saved state is mid-stream, not the seed state.
  for (int i = 0; i < 57; ++i) src.Uniform(0.0f, 1.0f);
  const std::string payload = ckpt::EncodeRng(src);

  util::Rng dst(999);
  ASSERT_TRUE(ckpt::DecodeRngInto(&dst, payload).ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(src.Uniform(0.0f, 1.0f), dst.Uniform(0.0f, 1.0f));
  }
}

TEST(SectionCodecTest, GarbageRngStateIsCorrupt) {
  ckpt::ByteWriter w;
  w.Str("not an engine state");
  util::Rng rng(1);
  EXPECT_EQ(ckpt::DecodeRngInto(&rng, w.bytes()).code(), ErrorCode::kCorrupt);
}

TEST(SectionCodecTest, AdamStateValidatesShapes) {
  util::Rng rng(5);
  nn::Linear a(4, 3, &rng), b(7, 2, &rng);
  nn::Adam opt_a(a.Parameters(), nn::Adam::Options{.lr = 1e-3f});
  const std::string payload = ckpt::EncodeAdam(opt_a);

  nn::Adam opt_a2(a.Parameters(), nn::Adam::Options{.lr = 1e-3f});
  EXPECT_TRUE(ckpt::DecodeAdamInto(&opt_a2, payload).ok());
  EXPECT_EQ(opt_a2.step_count(), opt_a.step_count());

  nn::Adam opt_b(b.Parameters(), nn::Adam::Options{.lr = 1e-3f});
  EXPECT_EQ(ckpt::DecodeAdamInto(&opt_b, payload).code(),
            ErrorCode::kSchemaMismatch);
}

// ---------------------------------------------------------------------------
// Model artifacts.

tkg::SyntheticConfig SmokeDataConfig() {
  tkg::SyntheticConfig config;
  config.name = "ckpt-test";
  config.num_entities = 40;
  config.num_relations = 6;
  config.num_timestamps = 12;
  config.facts_per_timestamp = 10;
  config.num_schemas = 40;
  config.seed = 17;
  return config;
}

core::RetiaConfig SmokeModelConfig(const tkg::TkgDataset& dataset) {
  core::RetiaConfig config;
  config.num_entities = dataset.num_entities();
  config.num_relations = dataset.num_relations();
  config.dim = 8;
  config.history_len = 2;
  config.conv_kernels = 2;
  config.dropout = 0.2f;  // training consumes the model RNG
  config.seed = 21;
  return config;
}

TEST(ModelArtifactTest, RoundTripRebuildsConfigAndParameters) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(SmokeDataConfig());
  core::RetiaModel model(SmokeModelConfig(dataset));
  const std::string path = TempPath("model_artifact.ckpt");
  ASSERT_TRUE(ckpt::SaveModelArtifact(model, path, dataset.name()).ok());

  std::unique_ptr<core::RetiaModel> loaded;
  std::string dataset_name;
  const Result r = ckpt::LoadModelArtifact(path, &loaded, &dataset_name);
  ASSERT_TRUE(r.ok()) << r.ToString();
  EXPECT_EQ(dataset_name, dataset.name());
  EXPECT_EQ(loaded->config().dim, model.config().dim);
  auto s = model.NamedParameters();
  auto d = loaded->NamedParameters();
  ASSERT_EQ(s.size(), d.size());
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s[i].second.impl().data, d[i].second.impl().data)
        << s[i].first;
  }
}

// ---------------------------------------------------------------------------
// Quantized artifacts (model.params.q8 / model.params.f16 sections,
// docs/QUANTIZATION.md).

// A model whose big matrices clear the QuantizesAsInt8 floor (inner size
// >= 16), so the q8 section carries real weight.
core::RetiaConfig QuantSmokeModelConfig(const tkg::TkgDataset& dataset) {
  core::RetiaConfig config = SmokeModelConfig(dataset);
  config.dim = 16;
  return config;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(QuantizedArtifactTest, RoundTripDequantizesWithinPerOpBounds) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(SmokeDataConfig());
  core::RetiaModel model(QuantSmokeModelConfig(dataset));
  const std::string path = TempPath("quant_artifact.ckpt");
  ASSERT_TRUE(ckpt::SaveQuantizedModelArtifact(model, path, dataset.name())
                  .ok());

  std::unique_ptr<core::RetiaModel> loaded;
  std::string dataset_name;
  const Result r = ckpt::LoadModelArtifact(path, &loaded, &dataset_name);
  ASSERT_TRUE(r.ok()) << r.ToString();
  EXPECT_EQ(dataset_name, dataset.name());
  EXPECT_EQ(loaded->config().dim, model.config().dim);

  auto s = model.NamedParameters();
  auto d = loaded->NamedParameters();
  ASSERT_EQ(s.size(), d.size());
  for (size_t i = 0; i < s.size(); ++i) {
    const auto& shape = s[i].second.impl().shape;
    const tensor::FloatBuffer& orig = s[i].second.impl().data;
    const tensor::FloatBuffer& back = d[i].second.impl().data;
    ASSERT_EQ(orig.size(), back.size()) << s[i].first;
    if (ckpt::QuantizesAsInt8(shape)) {
      // int8 rows: |err| <= scale / 2 = row_amax / 254 per element.
      const size_t cols = orig.size() / static_cast<size_t>(shape[0]);
      for (int64_t row = 0; row < shape[0]; ++row) {
        float amax = 0.0f;
        for (size_t c = 0; c < cols; ++c) {
          amax = std::max(amax, std::fabs(orig[row * cols + c]));
        }
        const float bound = amax / 254.0f + 1e-7f;
        for (size_t c = 0; c < cols; ++c) {
          const size_t idx = row * cols + c;
          ASSERT_NEAR(back[idx], orig[idx], bound)
              << s[i].first << " row " << row << " col " << c;
        }
      }
    } else {
      // f16: half-ulp relative for normals plus the subnormal absolute
      // floor (2^-25).
      for (size_t j = 0; j < orig.size(); ++j) {
        ASSERT_LE(std::fabs(back[j] - orig[j]),
                  std::fabs(orig[j]) * 4.8829e-4f + 3.0e-8f)
            << s[i].first << " [" << j << "]";
      }
    }
  }
}

TEST(QuantizedArtifactTest, QuantizedFileAtLeastHalvesSnapshotBytes) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(SmokeDataConfig());
  core::RetiaModel model(QuantSmokeModelConfig(dataset));
  const std::string f32_path = TempPath("size_f32.ckpt");
  const std::string q_path = TempPath("size_quant.ckpt");
  ASSERT_TRUE(ckpt::SaveModelArtifact(model, f32_path, dataset.name()).ok());
  ASSERT_TRUE(
      ckpt::SaveQuantizedModelArtifact(model, q_path, dataset.name()).ok());
  const auto f32_bytes = std::filesystem::file_size(f32_path);
  const auto q_bytes = std::filesystem::file_size(q_path);
  // The >= 2x snapshot-memory gate (docs/QUANTIZATION.md): enforced here
  // at test scale, re-measured at bench scale by bench_kernels.sh.
  EXPECT_GE(f32_bytes, 2 * q_bytes)
      << "f32 " << f32_bytes << "B vs quantized " << q_bytes << "B";
}

TEST(QuantizedArtifactTest, PayloadBitFlipsAreCorrupt) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(SmokeDataConfig());
  core::RetiaModel model(QuantSmokeModelConfig(dataset));
  const std::string path = TempPath("quant_corrupt.ckpt");
  ASSERT_TRUE(ckpt::SaveQuantizedModelArtifact(model, path, dataset.name())
                  .ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 1000u);
  // The q8/f16 payloads dominate the file, so flips at the quartile
  // offsets all land inside a section payload and must be caught by the
  // per-section CRC.
  for (const size_t at :
       {bytes.size() / 4, bytes.size() / 2, 3 * bytes.size() / 4}) {
    std::string damaged = bytes;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x20);
    ArtifactReader reader;
    EXPECT_EQ(ArtifactReader::Parse(damaged, &reader).code(),
              ErrorCode::kCorrupt)
        << "flip at offset " << at;
  }
}

TEST(QuantizedArtifactTest, TruncationSweepIsRejected) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(SmokeDataConfig());
  core::RetiaModel model(QuantSmokeModelConfig(dataset));
  const std::string path = TempPath("quant_trunc.ckpt");
  ASSERT_TRUE(ckpt::SaveQuantizedModelArtifact(model, path, dataset.name())
                  .ok());
  const std::string bytes = ReadFileBytes(path);
  // Dense sweep over the header/footer, strided through the payload bulk
  // (a full per-byte sweep is O(n^2) CRC work at this file size).
  std::vector<size_t> cuts;
  for (size_t i = 0; i < std::min<size_t>(64, bytes.size()); ++i) {
    cuts.push_back(i);
  }
  for (size_t i = 64; i + 64 < bytes.size(); i += 251) cuts.push_back(i);
  for (size_t i = bytes.size() - 64; i < bytes.size(); ++i) cuts.push_back(i);
  for (const size_t cut : cuts) {
    ArtifactReader reader;
    EXPECT_FALSE(ArtifactReader::Parse(bytes.substr(0, cut), &reader).ok())
        << "prefix of " << cut << " bytes parsed";
  }
}

TEST(QuantizedArtifactTest, MissingF16SectionReportsParamsMissing) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(SmokeDataConfig());
  core::RetiaModel model(QuantSmokeModelConfig(dataset));
  const std::string path = TempPath("quant_missing_f16.ckpt");
  ASSERT_TRUE(ckpt::SaveQuantizedModelArtifact(model, path, dataset.name())
                  .ok());
  ArtifactReader reader;
  ASSERT_TRUE(ArtifactReader::Open(path, &reader).ok());
  // Rebuild the artifact without the f16 half: a quantized artifact needs
  // BOTH dtype sections, so the loader reports the parameter payload
  // missing rather than silently zero-filling the f16-routed tensors.
  ArtifactWriter writer;
  for (const std::string& name : reader.SectionNames()) {
    if (name == ckpt::kSectionParamsF16) continue;
    std::string_view payload;
    ASSERT_TRUE(reader.Section(name, &payload).ok());
    writer.AddSection(name, std::string(payload));
  }
  const std::string half_path = TempPath("quant_missing_f16_half.ckpt");
  WriteFileBytes(half_path, writer.Serialize());
  std::unique_ptr<core::RetiaModel> loaded;
  EXPECT_EQ(ckpt::LoadModelArtifact(half_path, &loaded, nullptr).code(),
            ErrorCode::kMissingSection);
  EXPECT_EQ(loaded, nullptr);
}

TEST(QuantizedArtifactTest, QuantizedSnapshotServesCloseToF32Snapshot) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(SmokeDataConfig());
  core::RetiaModel model(QuantSmokeModelConfig(dataset));
  const std::string f32_prefix = TempPath("serve_f32_snap");
  const std::string q_prefix = TempPath("serve_quant_snap");
  ASSERT_TRUE(
      serve::SaveModelSnapshot(model, f32_prefix, dataset.name()).ok());
  ASSERT_TRUE(
      serve::SaveQuantizedModelSnapshot(model, q_prefix, dataset.name())
          .ok());

  // The f32 artifact still loads through the same dispatching loader
  // (pre-quantization snapshots stay readable), and the quantized one
  // serves scores within decode tolerance of it.
  std::unique_ptr<core::RetiaModel> f32_model;
  std::unique_ptr<core::RetiaModel> q_model;
  ASSERT_TRUE(serve::LoadModelSnapshot(f32_prefix, &f32_model).ok());
  ASSERT_TRUE(serve::LoadModelSnapshot(q_prefix, &q_model).ok());

  graph::GraphCache cache(&dataset);
  tensor::NoGradGuard guard;
  const int64_t t = dataset.num_timestamps() - 1;
  const std::vector<int64_t> history =
      cache.HistoryBefore(t, f32_model->history_len());
  std::vector<std::pair<int64_t, int64_t>> queries;
  for (int64_t s = 0; s < 8; ++s) queries.emplace_back(s, s % 6);
  const tensor::Tensor a =
      f32_model->ScoreObjectsFrozen(f32_model->Evolve(cache, history),
                                    queries);
  const tensor::Tensor b =
      q_model->ScoreObjectsFrozen(q_model->Evolve(cache, history), queries);
  ASSERT_EQ(a.Shape(), b.Shape());
  for (int64_t i = 0; i < a.Dim(0); ++i) {
    for (int64_t j = 0; j < a.Dim(1); ++j) {
      EXPECT_NEAR(a.At(i, j), b.At(i, j), 0.05) << "(" << i << "," << j
                                                << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Trainer SaveState / ResumeState.

TEST(TrainerResumeTest, InterruptedRunResumesBitIdentically) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(SmokeDataConfig());
  const std::string state_path = TempPath("trainer_state.ckpt");

  // Reference: 4 epochs uninterrupted, no checkpointing at all (saving
  // must have no effect on the trajectory).
  train::TrainConfig tc;
  tc.max_epochs = 4;
  tc.patience = 99;
  core::RetiaModel model_a(SmokeModelConfig(dataset));
  graph::GraphCache cache_a(&dataset);
  train::Trainer trainer_a(&model_a, &cache_a, tc);
  const std::vector<train::EpochRecord> records_a = trainer_a.TrainGeneral();
  ASSERT_EQ(records_a.size(), 4u);

  // Interrupted: 2 epochs with per-epoch state saves, then stop (as if
  // the process died during epoch 2).
  train::TrainConfig tc_half = tc;
  tc_half.max_epochs = 2;
  tc_half.checkpoint_path = state_path;
  core::RetiaModel model_b(SmokeModelConfig(dataset));
  graph::GraphCache cache_b(&dataset);
  train::Trainer trainer_b(&model_b, &cache_b, tc_half);
  trainer_b.TrainGeneral();

  // Resumed: a fresh process-equivalent — new model object, new trainer —
  // continues from the state file to the full 4 epochs.
  core::RetiaModel model_c(SmokeModelConfig(dataset));
  graph::GraphCache cache_c(&dataset);
  train::Trainer trainer_c(&model_c, &cache_c, tc);
  const Result resumed = trainer_c.ResumeState(state_path);
  ASSERT_TRUE(resumed.ok()) << resumed.ToString();
  EXPECT_EQ(trainer_c.next_epoch(), 2);
  const std::vector<train::EpochRecord> records_c = trainer_c.TrainGeneral();

  // Records match exactly — losses and validation MRR are bit-identical;
  // `seconds` is wall clock and excluded.
  ASSERT_EQ(records_c.size(), records_a.size());
  for (size_t i = 0; i < records_a.size(); ++i) {
    EXPECT_EQ(records_a[i].joint_loss, records_c[i].joint_loss) << i;
    EXPECT_EQ(records_a[i].entity_loss, records_c[i].entity_loss) << i;
    EXPECT_EQ(records_a[i].relation_loss, records_c[i].relation_loss) << i;
    EXPECT_EQ(records_a[i].valid_entity_mrr, records_c[i].valid_entity_mrr)
        << i;
  }

  // Final (best-validation-restored) parameters are bit-identical.
  auto pa = model_a.NamedParameters();
  auto pc = model_c.NamedParameters();
  ASSERT_EQ(pa.size(), pc.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].second.impl().data, pc[i].second.impl().data)
        << pa[i].first;
  }
}

TEST(TrainerResumeTest, MissingStateFileIsIoError) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(SmokeDataConfig());
  core::RetiaModel model(SmokeModelConfig(dataset));
  graph::GraphCache cache(&dataset);
  train::Trainer trainer(&model, &cache, {});
  EXPECT_EQ(trainer.ResumeState(TempPath("no_such_state.ckpt")).code(),
            ErrorCode::kIoError);
}

TEST(TrainerResumeTest, ModelArtifactIsRejectedAsSchemaMismatch) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(SmokeDataConfig());
  core::RetiaModel model(SmokeModelConfig(dataset));
  const std::string path = TempPath("not_a_trainer_state.ckpt");
  ASSERT_TRUE(ckpt::SaveModelArtifact(model, path, dataset.name()).ok());

  graph::GraphCache cache(&dataset);
  train::Trainer trainer(&model, &cache, {});
  const Result r = trainer.ResumeState(path);
  EXPECT_EQ(r.code(), ErrorCode::kSchemaMismatch);
}

TEST(TrainerResumeTest, ArchitectureMismatchLeavesTrainerUsable) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(SmokeDataConfig());
  const std::string state_path = TempPath("trainer_state_mismatch.ckpt");
  core::RetiaModel model(SmokeModelConfig(dataset));
  graph::GraphCache cache(&dataset);
  train::TrainConfig tc;
  tc.max_epochs = 1;
  tc.patience = 99;
  train::Trainer trainer(&model, &cache, tc);
  trainer.TrainGeneral();
  ASSERT_TRUE(trainer.SaveState(state_path).ok());

  core::RetiaConfig other_config = SmokeModelConfig(dataset);
  other_config.dim = 12;  // different architecture
  core::RetiaModel other(other_config);
  graph::GraphCache other_cache(&dataset);
  train::Trainer other_trainer(&other, &other_cache, tc);
  EXPECT_EQ(other_trainer.ResumeState(state_path).code(),
            ErrorCode::kSchemaMismatch);
  // The mismatch was detected before any state mutation.
  EXPECT_EQ(other_trainer.next_epoch(), 0);
}

std::vector<tensor::FloatBuffer> ParamValues(const nn::Module& module) {
  std::vector<tensor::FloatBuffer> values;
  for (const auto& [name, t] : module.NamedParameters()) {
    values.push_back(t.impl().data);
  }
  return values;
}

// Names of the parameters whose bytes differ from `before`.
std::vector<std::string> ChangedParams(
    const nn::Module& module, const std::vector<tensor::FloatBuffer>& before) {
  std::vector<std::string> changed;
  const auto named = module.NamedParameters();
  for (size_t i = 0; i < named.size(); ++i) {
    const tensor::FloatBuffer& now = named[i].second.impl().data;
    if (now.size() != before[i].size() ||
        std::memcmp(now.data(), before[i].data(),
                    now.size() * sizeof(float)) != 0) {
      changed.push_back(named[i].first);
    }
  }
  return changed;
}

TEST(TrainerResumeTest, FailedDecodesLeaveParametersAndCursorUntouched) {
  // A conv_kernels = 4 model's sections against a conv_kernels = 8 model:
  // the parameter lists have the same length and the same q8/f16 split,
  // and the first shape mismatch (entity_decoder.conv_weight) comes after
  // dozens of matching entries, so a decode that wrote each entry as it
  // validated would fail with those already overwritten.
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(SmokeDataConfig());
  core::RetiaConfig source_config = QuantSmokeModelConfig(dataset);
  source_config.conv_kernels = 4;
  core::RetiaConfig target_config = source_config;
  target_config.conv_kernels = 8;
  train::TrainConfig tc;
  tc.max_epochs = 1;
  tc.patience = 99;

  // The source saves before training, as a fine-tune-only trainer does:
  // with no best-params section, whose size checks would otherwise see
  // the mismatch first, ResumeState meets it in the params section.
  core::RetiaModel source(source_config);
  graph::GraphCache source_cache(&dataset);
  train::Trainer source_trainer(&source, &source_cache, tc);
  const std::string mismatch_path = TempPath("untouched_mismatch.ckpt");
  ASSERT_TRUE(source_trainer.SaveState(mismatch_path).ok());
  const std::string quant_path = TempPath("untouched_quant.ckpt");
  ASSERT_TRUE(
      ckpt::SaveQuantizedModelArtifact(source, quant_path, dataset.name())
          .ok());

  // A same-architecture trainer state with other parameters whose RNG
  // section is not an engine state: its params and Adam sections decode,
  // so the RNG is the last thing that can fail.
  core::RetiaConfig sibling_config = target_config;
  sibling_config.seed = 99;
  core::RetiaModel sibling(sibling_config);
  graph::GraphCache sibling_cache(&dataset);
  train::Trainer sibling_trainer(&sibling, &sibling_cache, tc);
  sibling_trainer.TrainGeneral();
  const std::string sibling_path = TempPath("untouched_sibling.ckpt");
  ASSERT_TRUE(sibling_trainer.SaveState(sibling_path).ok());
  ArtifactReader sibling_reader;
  ASSERT_TRUE(ArtifactReader::Open(sibling_path, &sibling_reader).ok());
  ArtifactWriter bad_rng;
  for (const std::string& name : sibling_reader.SectionNames()) {
    std::string_view payload;
    ASSERT_TRUE(sibling_reader.Section(name, &payload).ok());
    ckpt::ByteWriter garbage;
    garbage.Str("not an engine state");
    bad_rng.AddSection(name, name == ckpt::kSectionRng ? garbage.Take()
                                                       : std::string(payload));
  }
  const std::string bad_rng_path = TempPath("untouched_bad_rng.ckpt");
  ASSERT_TRUE(bad_rng.WriteFile(bad_rng_path).ok());

  core::RetiaModel target(target_config);
  graph::GraphCache target_cache(&dataset);
  train::Trainer target_trainer(&target, &target_cache, tc);
  target_trainer.TrainGeneral();
  const std::vector<train::EpochRecord> records = target_trainer.records();
  const std::string rng_state = target.MutableRng()->SaveStateString();
  ASSERT_EQ(target_trainer.next_epoch(), 1);
  ASSERT_EQ(records.size(), 1u);

  // Each failed decode, on its own, must leave every parameter's bytes as
  // they were before it.
  const auto expect_untouched = [&target](const char* what, ErrorCode code,
                                          const auto& decode) {
    const std::vector<tensor::FloatBuffer> before = ParamValues(target);
    EXPECT_EQ(decode().code(), code) << what;
    EXPECT_EQ(ChangedParams(target, before), std::vector<std::string>{})
        << what;
  };
  expect_untouched("f32 section", ErrorCode::kSchemaMismatch, [&] {
    return ckpt::DecodeParamsInto(&target, ckpt::EncodeParams(source));
  });
  ArtifactReader reader;
  ASSERT_TRUE(ArtifactReader::Open(quant_path, &reader).ok());
  std::string_view q8, f16;
  ASSERT_TRUE(reader.Section(ckpt::kSectionParamsQ8, &q8).ok());
  ASSERT_TRUE(reader.Section(ckpt::kSectionParamsF16, &f16).ok());
  expect_untouched("q8/f16 sections", ErrorCode::kSchemaMismatch, [&] {
    return ckpt::DecodeQuantizedParamsInto(&target, q8, f16);
  });
  expect_untouched("mismatching trainer state", ErrorCode::kSchemaMismatch,
                   [&] { return target_trainer.ResumeState(mismatch_path); });
  expect_untouched("trainer state with a bad RNG section", ErrorCode::kCorrupt,
                   [&] { return target_trainer.ResumeState(bad_rng_path); });

  EXPECT_EQ(target_trainer.next_epoch(), 1);
  EXPECT_EQ(target.MutableRng()->SaveStateString(), rng_state);
  ASSERT_EQ(target_trainer.records().size(), records.size());
  const train::EpochRecord& kept = target_trainer.records().front();
  EXPECT_EQ(kept.joint_loss, records[0].joint_loss);
  EXPECT_EQ(kept.entity_loss, records[0].entity_loss);
  EXPECT_EQ(kept.relation_loss, records[0].relation_loss);
  EXPECT_EQ(kept.valid_entity_mrr, records[0].valid_entity_mrr);
  EXPECT_EQ(kept.seconds, records[0].seconds);
}

// ---------------------------------------------------------------------------
// Fault injection through retia::fail.

class FailPlanTest : public ::testing::Test {
 protected:
  void TearDown() override { fail::Clear(); }
};

TEST_F(FailPlanTest, FailedWritePreservesOldArtifactAndLeavesNoTmp) {
  const std::string path = TempPath("fail_write.ckpt");
  ArtifactWriter old_writer;
  old_writer.AddSection("s", "old contents");
  ASSERT_TRUE(old_writer.WriteFile(path).ok());

  fail::InstallPlan({.fail_write_n = 1});
  ArtifactWriter new_writer;
  new_writer.AddSection("s", "new contents");
  const Result r = new_writer.WriteFile(path);
  EXPECT_EQ(r.code(), ErrorCode::kIoError);
  EXPECT_NE(r.detail().find("injected"), std::string::npos) << r.ToString();
  fail::Clear();

  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  ArtifactReader reader;
  ASSERT_TRUE(ArtifactReader::Open(path, &reader).ok());
  std::string_view payload;
  ASSERT_TRUE(reader.Section("s", &payload).ok());
  EXPECT_EQ(payload, "old contents");
}

TEST_F(FailPlanTest, TruncatedCloseNeverPublishesALoadableArtifact) {
  const std::string bytes = OneSectionArtifact();
  for (size_t keep = 0; keep < bytes.size(); keep += 3) {
    const std::string path =
        TempPath("fail_truncate_" + std::to_string(keep) + ".ckpt");
    fail::InstallPlan({.truncate_on_close = static_cast<int64_t>(keep)});
    ArtifactWriter writer;
    writer.AddSection("s", "hello world");
    // The torn write itself "succeeds" — the filesystem lied.
    ASSERT_TRUE(writer.WriteFile(path).ok()) << "keep=" << keep;
    fail::Clear();

    ArtifactReader reader;
    const Result r = ArtifactReader::Open(path, &reader);
    EXPECT_FALSE(r.ok()) << "torn file of " << keep << " bytes loaded";
  }
}

TEST_F(FailPlanTest, SigkillAfterRenameLeavesAValidArtifact) {
  const std::string path = TempPath("crash_after_rename.ckpt");
  EXPECT_EXIT(
      {
        fail::InstallPlan({.crash_after_rename_n = 1});
        ArtifactWriter writer;
        writer.AddSection("s", "survived the crash");
        static_cast<void>(writer.WriteFile(path));
      },
      ::testing::KilledBySignal(SIGKILL), "");

  // The child died right after the commit rename; the artifact it
  // published must be complete and valid.
  ArtifactReader reader;
  const Result r = ArtifactReader::Open(path, &reader);
  ASSERT_TRUE(r.ok()) << r.ToString();
  std::string_view payload;
  ASSERT_TRUE(reader.Section("s", &payload).ok());
  EXPECT_EQ(payload, "survived the crash");
}

TEST_F(FailPlanTest, PlanParsesFromEnvironment) {
  ::setenv("RETIA_FAIL_WRITE_N", "3", 1);
  ::setenv("RETIA_FAIL_TRUNCATE", "17", 1);
  ::setenv("RETIA_FAIL_CRASH_AFTER_RENAME", "2", 1);
  const fail::Plan plan = fail::ReadPlanFromEnv();
  EXPECT_EQ(plan.fail_write_n, 3);
  EXPECT_EQ(plan.truncate_on_close, 17);
  EXPECT_EQ(plan.crash_after_rename_n, 2);

  ::setenv("RETIA_FAIL_WRITE_N", "junk", 1);
  ::unsetenv("RETIA_FAIL_TRUNCATE");
  ::unsetenv("RETIA_FAIL_CRASH_AFTER_RENAME");
  const fail::Plan fallback = fail::ReadPlanFromEnv();
  EXPECT_EQ(fallback.fail_write_n, 0);
  EXPECT_EQ(fallback.truncate_on_close, -1);
  EXPECT_EQ(fallback.crash_after_rename_n, 0);
  ::unsetenv("RETIA_FAIL_WRITE_N");
}

}  // namespace
}  // namespace retia
