#include <filesystem>

#include <gtest/gtest.h>

#include "bench_common.h"

namespace retia::bench {
namespace {

// One directory per test: ctest runs each case as its own process, in
// parallel, so a shared directory let one case's cleanup delete the
// files of another mid-test.
class ResultsCacheTest : public ::testing::Test {
 protected:
  ResultsCacheTest()
      : dir_(::testing::TempDir() + "/retia_cache_test_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()),
        cache_(dir_) {}
  ~ResultsCacheTest() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  ResultsCache cache_;
};

RunResult SampleResult() {
  RunResult r;
  r.offline_entity_mrr = 41.5;
  r.offline_entity_h1 = 30.86;
  r.offline_entity_h3 = 46.6;
  r.offline_entity_h10 = 62.47;
  r.offline_relation_mrr = 41.06;
  r.online_entity_mrr = 45.29;
  r.online_entity_h1 = 34.6;
  r.online_entity_h3 = 50.88;
  r.online_entity_h10 = 66.06;
  r.online_relation_mrr = 42.05;
  r.train_seconds = 12.5;
  r.predict_seconds = 0.75;
  r.curve.push_back({2.5, 3.0, 1.2, 20.0, 1.5});
  r.curve.push_back({2.0, 2.4, 0.9, 25.0, 1.4});
  return r;
}

TEST_F(ResultsCacheTest, MissReturnsFalse) {
  RunResult r;
  EXPECT_FALSE(cache_.Load("nope", &r));
}

TEST_F(ResultsCacheTest, StoreLoadRoundTrip) {
  const RunResult in = SampleResult();
  cache_.Store("key1", in);
  RunResult out;
  ASSERT_TRUE(cache_.Load("key1", &out));
  EXPECT_DOUBLE_EQ(out.offline_entity_mrr, in.offline_entity_mrr);
  EXPECT_DOUBLE_EQ(out.online_relation_mrr, in.online_relation_mrr);
  EXPECT_DOUBLE_EQ(out.train_seconds, in.train_seconds);
  EXPECT_DOUBLE_EQ(out.predict_seconds, in.predict_seconds);
  ASSERT_EQ(out.curve.size(), 2u);
  EXPECT_DOUBLE_EQ(out.curve[1].joint_loss, 2.0);
  EXPECT_DOUBLE_EQ(out.curve[0].valid_entity_mrr, 20.0);
}

TEST_F(ResultsCacheTest, GetOrComputeInvokesOnceThenReuses) {
  int calls = 0;
  auto compute = [&] {
    ++calls;
    return SampleResult();
  };
  RunResult a = cache_.GetOrCompute("memo", compute);
  RunResult b = cache_.GetOrCompute("memo", compute);
  EXPECT_EQ(calls, 1);
  EXPECT_DOUBLE_EQ(a.online_entity_mrr, b.online_entity_mrr);
}

TEST_F(ResultsCacheTest, KeysAreSanitizedToFilenames) {
  cache_.Store("ICEWS05-15-like__static_Conv-TransE", SampleResult());
  RunResult out;
  EXPECT_TRUE(cache_.Load("ICEWS05-15-like__static_Conv-TransE", &out));
  // A key differing only in a sanitized character must not alias... the
  // sanitizer maps non-alphanumerics to '_', so verify the exact file name.
  EXPECT_TRUE(std::filesystem::exists(
      dir_ + "/ICEWS05-15-like__static_Conv-TransE.result"));
}

TEST(BenchParamsTest, HistoryLengthOrderingMatchesPaper) {
  // Paper: k(YAGO/WIKI) < k(ICEWS18) < k(ICEWS14/05-15).
  const int64_t yago = ParamsFor("YAGO-like").history_len;
  const int64_t wiki = ParamsFor("WIKI-like").history_len;
  const int64_t i18 = ParamsFor("ICEWS18-like").history_len;
  const int64_t i14 = ParamsFor("ICEWS14-like").history_len;
  const int64_t i0515 = ParamsFor("ICEWS05-15-like").history_len;
  EXPECT_EQ(yago, wiki);
  EXPECT_LT(yago, i18);
  EXPECT_LT(i18, i14);
  EXPECT_EQ(i14, i0515);
}

TEST(BenchProfilesTest, FiveProfilesInPaperOrder) {
  const auto profiles = AllProfiles();
  ASSERT_EQ(profiles.size(), 5u);
  EXPECT_EQ(profiles[0].name, "ICEWS14-like");
  EXPECT_EQ(profiles[1].name, "ICEWS05-15-like");
  EXPECT_EQ(profiles[2].name, "ICEWS18-like");
  EXPECT_EQ(profiles[3].name, "YAGO-like");
  EXPECT_EQ(profiles[4].name, "WIKI-like");
  EXPECT_EQ(IcewsProfiles().size(), 3u);
  EXPECT_EQ(YagoWikiProfiles().size(), 2u);
}

}  // namespace
}  // namespace retia::bench
