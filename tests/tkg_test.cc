#include <cstdio>
#include <set>

#include <gtest/gtest.h>

#include "tkg/dataset.h"
#include "tkg/synthetic.h"

namespace retia::tkg {
namespace {

std::vector<Quadruple> MakeQuads() {
  // 5 timestamps, 2 facts each.
  std::vector<Quadruple> quads;
  for (int64_t t = 0; t < 5; ++t) {
    quads.push_back({0, 0, 1, t});
    quads.push_back({1, 1, 2, t});
  }
  return quads;
}

// ---------------------------------------------------------------------------
// TkgDataset.

TEST(TkgDatasetTest, StatsCountSplits) {
  TkgDataset ds("toy", 3, 2, MakeQuads(), {{0, 0, 2, 5}}, {{2, 1, 0, 6}});
  DatasetStats s = ds.Stats();
  EXPECT_EQ(s.num_train, 10);
  EXPECT_EQ(s.num_valid, 1);
  EXPECT_EQ(s.num_test, 1);
  EXPECT_EQ(s.num_entities, 3);
  EXPECT_EQ(s.num_relations, 2);
  EXPECT_EQ(s.num_timestamps, 7);
}

TEST(TkgDatasetTest, FactsAtMergesSplits) {
  TkgDataset ds("toy", 3, 2, MakeQuads(), {{0, 0, 2, 4}}, {});
  EXPECT_EQ(ds.FactsAt(4).size(), 3u);  // 2 train + 1 valid
  EXPECT_TRUE(ds.FactsAt(99).empty());
}

TEST(TkgDatasetTest, TimesPerSplitSortedAndDistinct) {
  TkgDataset ds("toy", 3, 2, MakeQuads(), {{0, 0, 2, 7}, {0, 1, 2, 6}}, {});
  EXPECT_EQ(ds.train_times(), (std::vector<int64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ds.valid_times(), (std::vector<int64_t>{6, 7}));
  EXPECT_TRUE(ds.test_times().empty());
}

TEST(TkgDatasetTest, OutOfRangeEntityDies) {
  EXPECT_DEATH(TkgDataset("bad", 2, 2, {{5, 0, 1, 0}}, {}, {}), "expected");
}

TEST(TkgDatasetTest, OutOfRangeRelationDies) {
  EXPECT_DEATH(TkgDataset("bad", 3, 1, {{0, 1, 1, 0}}, {}, {}), "expected");
}

TEST(TkgDatasetTest, NegativeRelationDies) {
  EXPECT_DEATH(TkgDataset("bad", 3, 2, {{0, -1, 1, 0}}, {}, {}),
               "0 <= q.relation");
}

TEST(TkgDatasetTest, CopySharesEveryBucket) {
  TkgDataset ds("toy", 3, 2, MakeQuads(), {{0, 0, 2, 4}}, {{2, 1, 0, 6}});
  const TkgDataset copy(ds);
  EXPECT_EQ(copy.all_times(), ds.all_times());
  for (int64_t t : ds.all_times()) {
    EXPECT_EQ(copy.FactsAt(t).data(), ds.FactsAt(t).data()) << "t=" << t;
  }
  EXPECT_EQ(copy.train().data(), ds.train().data());
  EXPECT_EQ(copy.valid().data(), ds.valid().data());
  EXPECT_EQ(copy.test().data(), ds.test().data());
}

TEST(TkgDatasetTest, AppendAfterCopyLeavesTheCopyUnchanged) {
  TkgDataset ds("toy", 3, 2, MakeQuads(), {}, {});
  const TkgDataset copy(ds);
  const std::vector<int64_t> times = copy.all_times();
  std::vector<std::vector<Quadruple>> facts;
  for (int64_t t : times) facts.push_back(copy.FactsAt(t));

  ds.AppendBucket(5, {{2, 1, 0, 5}});
  ds.AppendBucket(9, {{1, 0, 2, 9}, {0, 1, 1, 9}});
  EXPECT_EQ(ds.max_time(), 9);
  EXPECT_EQ(ds.FactsAt(9).size(), 2u);

  EXPECT_EQ(copy.max_time(), 4);
  EXPECT_EQ(copy.all_times(), times);
  EXPECT_TRUE(copy.FactsAt(5).empty());
  EXPECT_TRUE(copy.FactsAt(9).empty());
  for (size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(copy.FactsAt(times[i]), facts[i]);
    EXPECT_EQ(copy.FactsAt(times[i]).data(), ds.FactsAt(times[i]).data());
  }
}

// ---------------------------------------------------------------------------
// TSV round trip.

TEST(TkgIoTest, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/quads.tsv";
  std::vector<Quadruple> quads = MakeQuads();
  SaveQuadrupleFile(path, quads);
  std::vector<Quadruple> loaded = LoadQuadrupleFile(path);
  EXPECT_EQ(loaded, quads);
  std::remove(path.c_str());
}

TEST(TkgIoTest, GranularityDividesTimestamps) {
  const std::string path = ::testing::TempDir() + "/quads_gran.tsv";
  SaveQuadrupleFile(path, {{0, 0, 1, 48}, {1, 0, 2, 72}});
  std::vector<Quadruple> loaded = LoadQuadrupleFile(path, /*granularity=*/24);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].time, 2);
  EXPECT_EQ(loaded[1].time, 3);
  std::remove(path.c_str());
}

TEST(TkgIoTest, MissingFileDies) {
  EXPECT_DEATH(LoadQuadrupleFile("/nonexistent/file.tsv"), "cannot open");
}

// ---------------------------------------------------------------------------
// SplitByTime.

TEST(SplitByTimeTest, ProportionsRespectTimestampBoundaries) {
  std::vector<Quadruple> all;
  for (int64_t t = 0; t < 10; ++t)
    for (int64_t i = 0; i < 3; ++i) all.push_back({i, 0, i + 1, t});
  std::vector<Quadruple> train, valid, test;
  SplitByTime(all, SplitProportions{0.8, 0.1}, &train, &valid, &test);
  EXPECT_EQ(train.size(), 24u);  // timestamps 0..7
  EXPECT_EQ(valid.size(), 3u);   // timestamp 8
  EXPECT_EQ(test.size(), 3u);    // timestamp 9
}

TEST(SplitByTimeTest, SplitsAreTimeOrdered) {
  std::vector<Quadruple> all;
  for (int64_t t = 0; t < 20; ++t) all.push_back({0, 0, 1, 19 - t});
  std::vector<Quadruple> train, valid, test;
  SplitByTime(all, SplitProportions{}, &train, &valid, &test);
  int64_t max_train = -1, min_valid = 1'000'000, max_valid = -1,
          min_test = 1'000'000;
  for (const auto& q : train) max_train = std::max(max_train, q.time);
  for (const auto& q : valid) {
    min_valid = std::min(min_valid, q.time);
    max_valid = std::max(max_valid, q.time);
  }
  for (const auto& q : test) min_test = std::min(min_test, q.time);
  EXPECT_LT(max_train, min_valid);
  EXPECT_LT(max_valid, min_test);
}

TEST(SplitByTimeTest, TooFewTimestampsDies) {
  std::vector<Quadruple> all = {{0, 0, 1, 0}, {0, 0, 1, 1}};
  std::vector<Quadruple> train, valid, test;
  EXPECT_DEATH(SplitByTime(all, SplitProportions{}, &train, &valid, &test),
               "at least 3 timestamps");
}

TEST(SplitByTimeTest, EverySplitNonEmptyOnSmallInputs) {
  std::vector<Quadruple> all = {{0, 0, 1, 0}, {0, 0, 1, 1}, {0, 0, 1, 2}};
  std::vector<Quadruple> train, valid, test;
  SplitByTime(all, SplitProportions{}, &train, &valid, &test);
  EXPECT_EQ(train.size(), 1u);
  EXPECT_EQ(valid.size(), 1u);
  EXPECT_EQ(test.size(), 1u);
}

// ---------------------------------------------------------------------------
// Synthetic generator: properties that must hold for all five profiles.

class SyntheticProfileTest
    : public ::testing::TestWithParam<SyntheticConfig> {};

TEST_P(SyntheticProfileTest, RespectsDeclaredVocabulary) {
  TkgDataset ds = GenerateSynthetic(GetParam());
  for (const auto* split : {&ds.train(), &ds.valid(), &ds.test()}) {
    for (const Quadruple& q : *split) {
      EXPECT_LT(q.subject, ds.num_entities());
      EXPECT_LT(q.object, ds.num_entities());
      EXPECT_LT(q.relation, ds.num_relations());
      EXPECT_NE(q.subject, q.object);  // generator forbids self loops
      EXPECT_GE(q.time, 0);
      EXPECT_LT(q.time, GetParam().num_timestamps);
    }
  }
}

TEST_P(SyntheticProfileTest, SplitIsEightTenOneOne) {
  TkgDataset ds = GenerateSynthetic(GetParam());
  const double total = static_cast<double>(
      ds.train().size() + ds.valid().size() + ds.test().size());
  EXPECT_GT(ds.train().size() / total, 0.7);
  EXPECT_LT(ds.train().size() / total, 0.9);
  EXPECT_GT(ds.valid().size(), 0u);
  EXPECT_GT(ds.test().size(), 0u);
}

TEST_P(SyntheticProfileTest, NoDuplicateFactsWithinATimestamp) {
  TkgDataset ds = GenerateSynthetic(GetParam());
  for (int64_t t = 0; t < GetParam().num_timestamps; ++t) {
    std::set<std::tuple<int64_t, int64_t, int64_t>> seen;
    for (const Quadruple& q : ds.FactsAt(t)) {
      EXPECT_TRUE(seen.insert({q.subject, q.relation, q.object}).second)
          << "duplicate fact at t=" << t;
    }
  }
}

TEST_P(SyntheticProfileTest, DeterministicForFixedSeed) {
  TkgDataset a = GenerateSynthetic(GetParam());
  TkgDataset b = GenerateSynthetic(GetParam());
  ASSERT_EQ(a.train().size(), b.train().size());
  EXPECT_EQ(a.train(), b.train());
  EXPECT_EQ(a.test(), b.test());
}

TEST_P(SyntheticProfileTest, EveryTimestampHasFacts) {
  TkgDataset ds = GenerateSynthetic(GetParam());
  for (int64_t t = 0; t < GetParam().num_timestamps; ++t) {
    EXPECT_FALSE(ds.FactsAt(t).empty()) << "empty timestamp " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, SyntheticProfileTest,
    ::testing::Values(SyntheticConfig::Icews14Like(),
                      SyntheticConfig::Icews0515Like(),
                      SyntheticConfig::Icews18Like(),
                      SyntheticConfig::YagoLike(), SyntheticConfig::WikiLike()),
    [](const ::testing::TestParamInfo<SyntheticConfig>& info) {
      std::string name = info.param.name;
      for (char& c : name)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

// The structural contrast the generators must reproduce (Sec. 1 of
// DESIGN.md): YAGO/WIKI-like data repeats facts across timestamps far more
// than ICEWS-like data. This is what makes extrapolation easy there.
TEST(SyntheticContrastTest, YagoRepeatsMoreThanIcews) {
  auto repetition_rate = [](const TkgDataset& ds) {
    std::set<std::tuple<int64_t, int64_t, int64_t>> seen;
    int64_t repeated = 0;
    int64_t total = 0;
    for (const auto* split : {&ds.train(), &ds.valid(), &ds.test()}) {
      for (const Quadruple& q : *split) {
        ++total;
        if (!seen.insert({q.subject, q.relation, q.object}).second)
          ++repeated;
      }
    }
    return static_cast<double>(repeated) / static_cast<double>(total);
  };
  const double yago =
      repetition_rate(GenerateSynthetic(SyntheticConfig::YagoLike()));
  const double icews =
      repetition_rate(GenerateSynthetic(SyntheticConfig::Icews14Like()));
  EXPECT_GT(yago, icews + 0.15) << "yago=" << yago << " icews=" << icews;
}

TEST(SyntheticContrastTest, DatasetSizesOrderedLikeTableV) {
  // ICEWS18-like has the most entities, YAGO-like the fewest relations.
  TkgDataset i18 = GenerateSynthetic(SyntheticConfig::Icews18Like());
  TkgDataset i14 = GenerateSynthetic(SyntheticConfig::Icews14Like());
  TkgDataset yago = GenerateSynthetic(SyntheticConfig::YagoLike());
  EXPECT_GT(i18.num_entities(), i14.num_entities());
  EXPECT_LT(yago.num_relations(), i14.num_relations());
}

}  // namespace
}  // namespace retia::tkg
