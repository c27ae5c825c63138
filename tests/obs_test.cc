// retia::obs test suite.
//
// Covers the histogram bucket/quantile math, trace-event JSON validity
// (parsed back with a small JSON parser, the same check a chrome://tracing
// load would do), exact counter sums under concurrent increments from pool
// threads, and the determinism guard: enabling metrics + tracing must not
// change a single bit of a training step's parameters or gradients.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/retia.h"
#include "graph/graph_cache.h"
#include "nn/optimizer.h"
#include "obs/obs.h"
#include "par/thread_pool.h"
#include "tensor/tensor.h"
#include "tkg/synthetic.h"

namespace retia::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser — just enough to validate the
// exporters' output by parsing it back (structure + types), the way a
// trace viewer would.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool Has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& At(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out)) return false;
    SkipSpace();
    return pos_ == text_.size();  // no trailing garbage
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool Literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::kString;
        return ParseString(&out->str);
      case 't':
        out->kind = JsonValue::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->kind = JsonValue::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->kind = JsonValue::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      out->push_back(text_[pos_]);
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    out->number = std::strtod(begin, &end);
    if (end == begin) return false;
    out->kind = JsonValue::kNumber;
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

JsonValue ParseOrDie(const std::string& text) {
  JsonValue value;
  EXPECT_TRUE(JsonParser(text).Parse(&value)) << "invalid JSON: " << text;
  return value;
}

// ---------------------------------------------------------------------------
// Histogram bucket edges.

TEST(HistogramBucketTest, IndexMatchesPowerOfTwoEdges) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 4);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11);
}

TEST(HistogramBucketTest, EveryValueFallsInsideItsBucketEdges) {
  for (int64_t value : {0, 1, 2, 3, 5, 63, 64, 65, 1000, 1 << 20}) {
    const int bucket = Histogram::BucketIndex(value);
    EXPECT_LE(Histogram::BucketLowerEdge(bucket), value) << value;
    EXPECT_LT(value, Histogram::BucketUpperEdge(bucket)) << value;
  }
}

TEST(HistogramBucketTest, HugeAndNegativeValuesClampToEndBuckets) {
  EXPECT_EQ(Histogram::BucketIndex(-5), 0);
  EXPECT_EQ(Histogram::BucketIndex(int64_t{1} << 62),
            Histogram::kNumBuckets - 1);
}

TEST(HistogramBucketTest, EdgesTileWithoutGaps) {
  for (int b = 1; b < Histogram::kNumBuckets - 1; ++b) {
    EXPECT_EQ(Histogram::BucketUpperEdge(b - 1), Histogram::BucketLowerEdge(b));
  }
}

// ---------------------------------------------------------------------------
// Quantile math.

TEST(HistogramQuantileTest, EmptyHistogramIsZero) {
  std::array<int64_t, Histogram::kNumBuckets> buckets{};
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 0, 0.5), 0.0);
}

TEST(HistogramQuantileTest, SingleBucketInterpolatesWithinEdges) {
  std::array<int64_t, Histogram::kNumBuckets> buckets{};
  const int bucket = Histogram::BucketIndex(100);  // [64, 128)
  buckets[bucket] = 1000;
  for (double q : {0.01, 0.50, 0.95, 0.99}) {
    const double est = Histogram::QuantileFromBuckets(buckets, 1000, q);
    EXPECT_GE(est, Histogram::BucketLowerEdge(bucket)) << q;
    EXPECT_LE(est, Histogram::BucketUpperEdge(bucket)) << q;
  }
  // Interpolation is monotone in q.
  EXPECT_LT(Histogram::QuantileFromBuckets(buckets, 1000, 0.1),
            Histogram::QuantileFromBuckets(buckets, 1000, 0.9));
}

TEST(HistogramQuantileTest, SplitDistributionPicksTheRightBucket) {
  // 90 samples in [8,16), 10 samples in [1024,2048): p50 must come from
  // the low bucket, p99 from the high one.
  std::array<int64_t, Histogram::kNumBuckets> buckets{};
  buckets[Histogram::BucketIndex(10)] = 90;
  buckets[Histogram::BucketIndex(1500)] = 10;
  const double p50 = Histogram::QuantileFromBuckets(buckets, 100, 0.50);
  const double p99 = Histogram::QuantileFromBuckets(buckets, 100, 0.99);
  EXPECT_GE(p50, 8.0);
  EXPECT_LE(p50, 16.0);
  EXPECT_GE(p99, 1024.0);
  EXPECT_LE(p99, 2048.0);
}

TEST(HistogramQuantileTest, RecordedSnapshotMatchesHandComputedStats) {
  Histogram hist;
  for (int i = 0; i < 100; ++i) hist.Record(10);
  for (int i = 0; i < 5; ++i) hist.Record(5000);
  const Histogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.count, 105);
  EXPECT_DOUBLE_EQ(snap.sum, 100 * 10.0 + 5 * 5000.0);
  EXPECT_NEAR(snap.mean, snap.sum / 105.0, 1e-9);
  EXPECT_LE(snap.p50, 16.0);        // bucket of 10 is [8, 16)
  EXPECT_GE(snap.p99, 4096.0);      // bucket of 5000 is [4096, 8192)
  int64_t total = 0;
  for (int64_t b : snap.buckets) total += b;
  EXPECT_EQ(total, snap.count);
}

// ---------------------------------------------------------------------------
// Counter / gauge semantics.

TEST(CounterTest, ConcurrentIncrementsFromPoolThreadsSumExactly) {
  Counter* counter =
      MetricsRegistry::Get().GetCounter("obs_test.concurrent_counter");
  counter->Reset();
  par::ThreadPool pool(8);
  const int64_t kShards = 500;
  const int64_t kAddsPerShard = 200;
  pool.ParallelRun(kShards, [&](int64_t) {
    for (int64_t i = 0; i < kAddsPerShard; ++i) counter->Add(1);
  });
  EXPECT_EQ(counter->Value(), kShards * kAddsPerShard);
}

TEST(GaugeTest, RoundTripsDoubleValues) {
  Gauge gauge;
  for (double v : {0.0, 1.5, -3.25, 1e-30, 6.02e23}) {
    gauge.Set(v);
    EXPECT_EQ(gauge.Value(), v);
  }
}

TEST(MetricsMacroTest, TimedScopeRecordsOneSamplePerExecution) {
#if defined(RETIA_OBS_DISABLE)
  GTEST_SKIP() << "instrumentation macros compiled out in this build";
#endif
  SetMetricsEnabled(true);
  Histogram* hist =
      MetricsRegistry::Get().GetHistogram("obs_test.macro_scope.us");
  hist->Reset();
  for (int i = 0; i < 3; ++i) {
    RETIA_OBS_TIMED_SCOPE("obs_test.macro_scope.us");
  }
  EXPECT_EQ(hist->Snap().count, 3);
  SetMetricsEnabled(false);
  {
    RETIA_OBS_TIMED_SCOPE("obs_test.macro_scope.us");
  }
  SetMetricsEnabled(true);
  EXPECT_EQ(hist->Snap().count, 3);  // disabled execution recorded nothing
}

// ---------------------------------------------------------------------------
// Registry behaviour.

TEST(MetricsRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  Counter* a = registry.GetCounter("obs_test.stable");
  Counter* b = registry.GetCounter("obs_test.stable");
  EXPECT_EQ(a, b);
  std::vector<std::string> names = registry.Names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_NE(std::find(names.begin(), names.end(), "obs_test.stable"),
            names.end());
}

TEST(MetricsRegistryTest, ToJsonParsesBackWithAllThreeSections) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.GetCounter("obs_test.json_counter")->Add(7);
  registry.GetGauge("obs_test.json_gauge")->Set(2.5);
  registry.GetHistogram("obs_test.json_hist")->Record(42);
  const JsonValue root = ParseOrDie(registry.ToJson());
  ASSERT_EQ(root.kind, JsonValue::kObject);
  ASSERT_TRUE(root.Has("counters"));
  ASSERT_TRUE(root.Has("gauges"));
  ASSERT_TRUE(root.Has("histograms"));
  EXPECT_EQ(root.At("counters").At("obs_test.json_counter").number, 7.0);
  EXPECT_EQ(root.At("gauges").At("obs_test.json_gauge").number, 2.5);
  const JsonValue& hist = root.At("histograms").At("obs_test.json_hist");
  EXPECT_GE(hist.At("count").number, 1.0);
  for (const char* key : {"count", "sum", "mean", "p50", "p95", "p99"}) {
    EXPECT_TRUE(hist.Has(key)) << key;
  }
  ASSERT_TRUE(hist.Has("buckets"));
  EXPECT_EQ(hist.At("buckets").kind, JsonValue::kArray);
}

// ---------------------------------------------------------------------------
// Tracing: JSON validity (parse-back) and ring-buffer accounting.

TEST(TraceTest, ExportedJsonIsValidChromeTraceFormat) {
#if defined(RETIA_OBS_DISABLE)
  GTEST_SKIP() << "instrumentation macros compiled out in this build";
#endif
  Trace::Clear();
  Trace::Enable();
  {
    RETIA_OBS_TRACE_SPAN("obs_test.outer");
    RETIA_OBS_TRACE_SPAN("obs_test.inner");
  }
  Trace::RecordComplete("obs_test.manual", /*start_ns=*/1000,
                        /*duration_ns=*/2500);
  Trace::Disable();

  const JsonValue root = ParseOrDie(Trace::ToJson());
  ASSERT_EQ(root.kind, JsonValue::kObject);
  EXPECT_EQ(root.At("displayTimeUnit").str, "ms");
  const JsonValue& events = root.At("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::kArray);
  ASSERT_EQ(events.array.size(), 3u);
  double last_ts = -1.0;
  for (const JsonValue& event : events.array) {
    ASSERT_EQ(event.kind, JsonValue::kObject);
    EXPECT_EQ(event.At("ph").str, "X");
    EXPECT_EQ(event.At("cat").str, "retia");
    EXPECT_EQ(event.At("pid").number, 1.0);
    EXPECT_GT(event.At("tid").number, 0.0);
    EXPECT_FALSE(event.At("name").str.empty());
    EXPECT_GE(event.At("dur").number, 0.0);
    EXPECT_GE(event.At("ts").number, last_ts);  // sorted by start time
    last_ts = event.At("ts").number;
  }
  Trace::Clear();
}

TEST(TraceTest, WriteFileRoundTripsThroughDisk) {
#if defined(RETIA_OBS_DISABLE)
  GTEST_SKIP() << "instrumentation macros compiled out in this build";
#endif
  Trace::Clear();
  Trace::Enable();
  { RETIA_OBS_TRACE_SPAN("obs_test.file_span"); }
  Trace::Disable();
  const std::string path = ::testing::TempDir() + "obs_test_trace.json";
  ASSERT_TRUE(Trace::WriteFile(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  const JsonValue root = ParseOrDie(content);
  ASSERT_EQ(root.At("traceEvents").kind, JsonValue::kArray);
  EXPECT_EQ(root.At("traceEvents").array.size(), 1u);
  EXPECT_EQ(root.At("traceEvents").array[0].At("name").str,
            "obs_test.file_span");
  Trace::Clear();
}

TEST(TraceTest, RingOverflowDropsOldestAndCountsThem) {
  Trace::Clear();
  Trace::Enable();
  const int64_t kEvents = Trace::kRingCapacity + 500;
  for (int64_t i = 0; i < kEvents; ++i) {
    Trace::RecordComplete("obs_test.flood", i * 10, 5);
  }
  Trace::Disable();
  EXPECT_EQ(Trace::EventCount(), Trace::kRingCapacity);
  EXPECT_EQ(Trace::DroppedCount(), 500);
  Trace::Clear();
  EXPECT_EQ(Trace::EventCount(), 0);
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  Trace::Clear();
  ASSERT_FALSE(Trace::Enabled());
  { RETIA_OBS_TRACE_SPAN("obs_test.off"); }
  EXPECT_EQ(Trace::EventCount(), 0);
}

// ---------------------------------------------------------------------------
// RETIA-layer spans: a cold Evolve traces Algorithm 1 once per history
// timestamp and the TIM, RAM and EAM once per step, on the caller's thread
// inside the caller's span; the decode traces once per ScoreObjects.

tkg::TkgDataset SpanDataset() {
  tkg::SyntheticConfig sc = tkg::SyntheticConfig::Icews14Like();
  sc.num_entities = 60;
  sc.num_timestamps = 10;
  sc.facts_per_timestamp = 20;
  sc.num_schemas = 80;
  return tkg::GenerateSynthetic(sc);
}

core::RetiaConfig SpanModelConfig(const tkg::TkgDataset& ds) {
  core::RetiaConfig config;
  config.num_entities = ds.num_entities();
  config.num_relations = ds.num_relations();
  config.dim = 8;
  config.history_len = 3;
  config.conv_kernels = 2;
  return config;
}

TEST(TraceTest, ColdEvolveTracesEachLayerOncePerHistoryStep) {
#if defined(RETIA_OBS_DISABLE)
  GTEST_SKIP() << "instrumentation macros compiled out in this build";
#endif
  const tkg::TkgDataset ds = SpanDataset();
  core::RetiaModel model(SpanModelConfig(ds));
  model.SetTraining(false);
  graph::GraphCache cache(&ds);
  const std::vector<int64_t> history = cache.HistoryBefore(8, 3);
  ASSERT_EQ(history.size(), 3u);
  Trace::Clear();
  Trace::Enable();
  {
    RETIA_OBS_TRACE_SPAN("obs_test.caller");
    const auto states = model.Evolve(cache, history);
    model.ScoreObjects(states, {{0, 0}, {1, 2}});
  }
  Trace::Disable();
  const JsonValue root = ParseOrDie(Trace::ToJson());
  Trace::Clear();

  const JsonValue* caller = nullptr;
  for (const JsonValue& e : root.At("traceEvents").array) {
    if (e.At("name").str == "obs_test.caller") caller = &e;
  }
  ASSERT_NE(caller, nullptr);
  const double begin = caller->At("ts").number;
  const double end = begin + caller->At("dur").number;
  std::map<std::string, int> nested;  // caller-thread spans inside it
  std::map<std::string, int> anywhere;
  for (const JsonValue& e : root.At("traceEvents").array) {
    const std::string& name = e.At("name").str;
    ++anywhere[name];
    const double ts = e.At("ts").number;
    // ts and dur are printed to the nanosecond, in microseconds.
    if (&e != caller && e.At("tid").number == caller->At("tid").number &&
        ts >= begin && ts + e.At("dur").number <= end + 0.002) {
      ++nested[name];
    }
  }
  for (const char* layer : {"core.evolve.tim", "core.evolve.ram",
                            "core.evolve.eam"}) {
    EXPECT_EQ(nested[layer], 3) << layer;
    EXPECT_EQ(anywhere[layer], 3) << layer;
  }
  EXPECT_EQ(nested["core.decode"], 1);
  // Prefetch may build the hypergraphs on pool threads.
  EXPECT_EQ(anywhere["graph.hypergraph"], 3);
}

TEST(TraceTest, UntracedEvolveRecordsNothing) {
  const tkg::TkgDataset ds = SpanDataset();
  core::RetiaModel model(SpanModelConfig(ds));
  model.SetTraining(false);
  graph::GraphCache cache(&ds);
  Trace::Clear();
  ASSERT_FALSE(Trace::Enabled());
  model.ScoreObjects(model.Evolve(cache, cache.HistoryBefore(8, 3)),
                     {{0, 0}});
  EXPECT_EQ(Trace::EventCount(), 0);
}

// ---------------------------------------------------------------------------
// Determinism guard: turning instrumentation on must not perturb training
// by a single bit. Mirrors par_test's end-to-end step; memcmp, no
// tolerance.

struct RunResult {
  std::vector<tensor::FloatBuffer> grads;
  std::vector<tensor::FloatBuffer> params;
  float loss = 0.0f;
};

RunResult RunTrainStep(const tkg::TkgDataset& ds) {
  par::ThreadPool pool(4);
  par::ScopedDefaultPool guard(&pool);
  core::RetiaConfig config;
  config.num_entities = ds.num_entities();
  config.num_relations = ds.num_relations();
  config.dim = 16;
  config.history_len = 3;
  config.conv_kernels = 4;
  config.num_bases = 2;
  core::RetiaModel model(config);
  model.SetTraining(false);  // keep RNG-free; gradients still flow
  graph::GraphCache cache(&ds);
  auto states = model.Evolve(cache, cache.HistoryBefore(8, config.history_len));
  auto loss = model.ComputeLoss(states, ds.FactsAt(8));
  loss.joint.Backward();
  std::vector<tensor::Tensor> params = model.Parameters();
  nn::ClipGradNorm(params, 1.0f);
  RunResult result;
  result.loss = loss.joint.Item();
  for (const tensor::Tensor& p : params) result.grads.push_back(p.impl().grad);
  nn::Adam opt(params, nn::Adam::Options{.lr = 1e-2f});
  opt.Step();
  for (const tensor::Tensor& p : params) result.params.push_back(p.impl().data);
  return result;
}

TEST(DeterminismGuardTest, TracingAndMetricsDoNotChangeModelOutputs) {
  tkg::SyntheticConfig sc = tkg::SyntheticConfig::Icews14Like();
  sc.num_entities = 80;
  sc.num_timestamps = 12;
  sc.facts_per_timestamp = 30;
  sc.num_schemas = 120;
  const tkg::TkgDataset ds = tkg::GenerateSynthetic(sc);

  SetMetricsEnabled(false);
  ASSERT_FALSE(Trace::Enabled());
  const RunResult baseline = RunTrainStep(ds);

  SetMetricsEnabled(true);
  Trace::Enable();
  const RunResult instrumented = RunTrainStep(ds);
  Trace::Disable();
  Trace::Clear();

  EXPECT_EQ(std::memcmp(&baseline.loss, &instrumented.loss, sizeof(float)), 0);
  ASSERT_EQ(baseline.grads.size(), instrumented.grads.size());
  for (size_t i = 0; i < baseline.grads.size(); ++i) {
    ASSERT_EQ(baseline.grads[i].size(), instrumented.grads[i].size());
    EXPECT_EQ(std::memcmp(baseline.grads[i].data(),
                          instrumented.grads[i].data(),
                          baseline.grads[i].size() * sizeof(float)),
              0)
        << "grad " << i;
  }
  ASSERT_EQ(baseline.params.size(), instrumented.params.size());
  for (size_t i = 0; i < baseline.params.size(); ++i) {
    EXPECT_EQ(std::memcmp(baseline.params[i].data(),
                          instrumented.params[i].data(),
                          baseline.params[i].size() * sizeof(float)),
              0)
        << "param " << i;
  }
}

}  // namespace
}  // namespace retia::obs
