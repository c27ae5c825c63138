#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace retia::util {
namespace {

// ---------------------------------------------------------------------------
// Check macros.

TEST(CheckTest, PassingConditionsAreSilent) {
  RETIA_CHECK(true);
  RETIA_CHECK_EQ(1, 1);
  RETIA_CHECK_LT(1, 2);
  RETIA_CHECK_LE(2, 2);
  RETIA_CHECK_MSG(true, "never shown");
}

TEST(CheckTest, FailureAborts) {
  EXPECT_DEATH(RETIA_CHECK(false), "expected false");
  EXPECT_DEATH(RETIA_CHECK_EQ(1, 2), "1 vs 2");
  EXPECT_DEATH(RETIA_CHECK_LT(3, 2), "3 vs 2");
  EXPECT_DEATH(RETIA_CHECK_MSG(false, "context " << 42), "context 42");
}

// ---------------------------------------------------------------------------
// Rng.

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1'000'000), b.UniformInt(0, 1'000'000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(7);
  Rng b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1'000'000) == b.UniformInt(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformWithinRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const float x = rng.Uniform(-2.0f, 3.0f);
    EXPECT_LE(-2.0f, x);
    EXPECT_LT(x, 3.0f);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(10);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 3));
  EXPECT_EQ(seen, (std::set<int64_t>{0, 1, 2, 3}));
}

TEST(RngTest, BernoulliRate) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10'000.0, 0.3, 0.03);
}

TEST(RngTest, ZipfStaysInRangeAndIsSkewed) {
  Rng rng(12);
  const int64_t n = 100;
  std::vector<int64_t> counts(n, 0);
  for (int i = 0; i < 20'000; ++i) {
    const int64_t x = rng.Zipf(n, 1.2);
    ASSERT_GE(x, 0);
    ASSERT_LT(x, n);
    ++counts[x];
  }
  // Head item must be much more popular than the tail.
  EXPECT_GT(counts[0], counts[n - 1] * 5);
  // And the ordering should be broadly decreasing: head quartile dominates.
  int64_t head = 0, tail = 0;
  for (int64_t i = 0; i < n / 4; ++i) head += counts[i];
  for (int64_t i = 3 * n / 4; i < n; ++i) tail += counts[i];
  EXPECT_GT(head, tail * 2);
}

TEST(RngTest, ZipfAlphaZeroIsUniform) {
  Rng rng(13);
  std::vector<int64_t> counts(4, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.Zipf(4, 0.0)];
  for (int64_t c : counts) EXPECT_NEAR(c, 2000, 300);
}

// ---------------------------------------------------------------------------
// Timer / duration formatting.

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 2'000'000; ++i) x += std::sqrt(i);
  EXPECT_GT(t.Seconds(), 0.0);
  EXPECT_GE(t.Millis(), 0.0);
  t.Reset();
  EXPECT_LT(t.Seconds(), 1.0);  // reset rewinds the stopwatch
}

TEST(FormatDurationTest, PicksPaperUnits) {
  EXPECT_EQ(FormatDuration(3.33), "3.33 s");
  EXPECT_EQ(FormatDuration(8.46 * 60), "8.46 min");
  EXPECT_EQ(FormatDuration(3.93 * 3600), "3.93 h");
  EXPECT_EQ(FormatDuration(2.26 * 86400), "2.26 d");
}

// ---------------------------------------------------------------------------
// TablePrinter.

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"a", "long_header"});
  table.AddRow({"xxxxxx", "1"});
  std::ostringstream oss;
  table.Print(oss);
  const std::string out = oss.str();
  // Header, separator, one data row.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("xxxxxx"), std::string::npos);
}

TEST(TablePrinterTest, ArityMismatchDies) {
  TablePrinter table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only-one"}), "expected");
}

TEST(TablePrinterTest, NumFormatsAndDashesNegatives) {
  EXPECT_EQ(TablePrinter::Num(45.288), "45.29");
  EXPECT_EQ(TablePrinter::Num(45.288, 1), "45.3");
  EXPECT_EQ(TablePrinter::Num(-1.0), "-");
}

TEST(RngStateTest, SaveLoadResumesTheExactStream) {
  Rng src(7);
  for (int i = 0; i < 123; ++i) src.Normal(1.0f);
  const std::string state = src.SaveStateString();

  Rng dst(1);  // different seed, fully overwritten by the state load
  ASSERT_TRUE(dst.LoadStateString(state));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(src.Uniform(0.0f, 1.0f), dst.Uniform(0.0f, 1.0f));
    EXPECT_EQ(src.UniformInt(0, 1000), dst.UniformInt(0, 1000));
  }
}

TEST(RngStateTest, GarbageStateIsRejectedAndLeavesEngineUntouched) {
  Rng a(3);
  Rng b(3);
  EXPECT_FALSE(a.LoadStateString("not an engine state"));
  // The failed load must not have disturbed the stream.
  EXPECT_EQ(a.Uniform(0.0f, 1.0f), b.Uniform(0.0f, 1.0f));
}

TEST(EnvTest, ParseIntAcceptsIntegersOnly) {
  int64_t v = -1;
  EXPECT_TRUE(Env::ParseInt("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(Env::ParseInt("-7", &v));
  EXPECT_EQ(v, -7);
  v = 99;
  EXPECT_FALSE(Env::ParseInt(nullptr, &v));
  EXPECT_FALSE(Env::ParseInt("", &v));
  EXPECT_FALSE(Env::ParseInt("4x", &v));
  EXPECT_FALSE(Env::ParseInt("abc", &v));
  EXPECT_EQ(v, 99);  // untouched on failure
}

TEST(EnvTest, TypedAccessorsFallBackOnJunk) {
  ::setenv("RETIA_TEST_ENV_INT", "17", 1);
  EXPECT_EQ(Env::IntOr("RETIA_TEST_ENV_INT", 5), 17);
  ::setenv("RETIA_TEST_ENV_INT", "junk", 1);
  EXPECT_EQ(Env::IntOr("RETIA_TEST_ENV_INT", 5), 5);
  ::setenv("RETIA_TEST_ENV_INT", "-3", 1);
  EXPECT_EQ(Env::PositiveIntOr("RETIA_TEST_ENV_INT", 8), 8);
  ::unsetenv("RETIA_TEST_ENV_INT");
  EXPECT_EQ(Env::IntOr("RETIA_TEST_ENV_INT", 5), 5);
  EXPECT_FALSE(Env::IsSet("RETIA_TEST_ENV_INT"));

  ::setenv("RETIA_TEST_ENV_STR", "hello", 1);
  EXPECT_EQ(Env::StringOr("RETIA_TEST_ENV_STR", "d"), "hello");
  ::unsetenv("RETIA_TEST_ENV_STR");
  EXPECT_EQ(Env::StringOr("RETIA_TEST_ENV_STR", "d"), "d");
}

}  // namespace
}  // namespace retia::util
