// Tests for the core substrate: status/result, rng, strings, formatting,
// memory tracking, and table printing.

#include <cmath>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "core/mem_tracker.h"
#include "core/rng.h"
#include "core/status.h"
#include "core/string_util.h"
#include "core/table_printer.h"
#include "core/timer.h"

namespace promptem::core {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad shape");
}

TEST(StatusTest, AllCodesHaveNames) {
  const StatusCode codes[] = {
      StatusCode::kOk,          StatusCode::kInvalidArgument,
      StatusCode::kNotFound,    StatusCode::kOutOfRange,
      StatusCode::kFailedPrecondition, StatusCode::kInternal,
      StatusCode::kIOError,     StatusCode::kUnimplemented};
  for (StatusCode code : codes) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 4);
}

TEST(RngTest, BoundedDrawInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextU64(10), 10u);
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, FloatInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const float f = rng.NextFloat();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const float g = rng.Gaussian();
    sum += g;
    sq += static_cast<double>(g) * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, IntegerBernoulliMatchesDoubleCompare) {
  // Edge probabilities: never, the smallest non-zero, the dropout rate,
  // a half, and the largest below one.
  const double kTwoM53 = 1.0 / 9007199254740992.0;
  for (const double p : {0.0, kTwoM53, 0.1, 0.5, 1.0 - kTwoM53}) {
    SCOPED_TRACE(p);
    const uint64_t threshold = Rng::BernoulliThreshold(p);
    Rng by_double(29);
    Rng by_integer(29);
    for (int i = 0; i < 1000000; ++i) {
      ASSERT_EQ(by_double.Bernoulli(p), by_integer.BernoulliBelow(threshold))
          << "draw " << i;
    }
    // Random draws rarely land next to the cut, so check it directly:
    // the 53-bit values just below and at the threshold.
    for (uint64_t x : {threshold - 1, threshold, threshold + 1}) {
      if (x >= (uint64_t{1} << 53)) continue;
      EXPECT_EQ(static_cast<double>(x) * kTwoM53 < p, x < threshold)
          << "x=" << x;
    }
  }
  // The float rate dropout passes, widened as Bernoulli widens it.
  EXPECT_EQ(Rng::BernoulliThreshold(0.1f),
            static_cast<uint64_t>(std::ceil(static_cast<double>(0.1f) *
                                            9007199254740992.0)));
  EXPECT_EQ(Rng::BernoulliThreshold(1.0), uint64_t{1} << 53);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(15);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  EXPECT_EQ(std::set<int>(v.begin(), v.end()),
            std::set<int>(original.begin(), original.end()));
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], counts[1]);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(19);
  Rng child = a.Fork();
  EXPECT_NE(a.NextU64(), child.NextU64());
}

TEST(StringUtilTest, SplitAndJoin) {
  auto parts = SplitString("a b\tc\nd");
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(JoinStrings(parts, "-"), "a-b-c-d");
}

TEST(StringUtilTest, SplitDropsEmptyPieces) {
  EXPECT_EQ(SplitString("  a   b  ").size(), 2u);
  EXPECT_TRUE(SplitString("   ").empty());
}

TEST(StringUtilTest, ToLowerTrim) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(Trim("  hi \n"), "hi");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, DigitsAndAffixes) {
  EXPECT_TRUE(IsAllDigits("0123"));
  EXPECT_FALSE(IsAllDigits("12a"));
  EXPECT_FALSE(IsAllDigits(""));
  EXPECT_TRUE(StartsWith("promptem", "prom"));
  EXPECT_TRUE(EndsWith("promptem", "tem"));
  EXPECT_FALSE(StartsWith("p", "prom"));
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a,b,,c", ",", ";"), "a;b;;c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
}

TEST(StringUtilTest, EditDistance) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("same", "same"), 0u);
}

TEST(StringUtilTest, TokenJaccard) {
  EXPECT_DOUBLE_EQ(TokenJaccard("a b c", "a b c"), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("a b", "c d"), 0.0);
  EXPECT_NEAR(TokenJaccard("a b c", "b c d"), 0.5, 1e-9);
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.234), "1.23");
}

TEST(StringUtilTest, ParseInt64AcceptsOnlyCompleteLiterals) {
  long long value = 0;
  EXPECT_TRUE(ParseInt64("42", &value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(ParseInt64("-7", &value));
  EXPECT_EQ(value, -7);
  EXPECT_TRUE(ParseInt64("0", &value));
  EXPECT_EQ(value, 0);
  for (const char* bad : {"", " ", "12x", "x12", "1.5", "1e3", "0.1",
                          "--3", "nan", "99999999999999999999"}) {
    EXPECT_FALSE(ParseInt64(bad, &value)) << '"' << bad << '"';
  }
}

TEST(StringUtilTest, ParseFiniteDoubleRejectsNanAndInf) {
  double value = 0.0;
  EXPECT_TRUE(ParseFiniteDouble("0.25", &value));
  EXPECT_DOUBLE_EQ(value, 0.25);
  EXPECT_TRUE(ParseFiniteDouble("-1e-3", &value));
  EXPECT_DOUBLE_EQ(value, -1e-3);
  // The atof hole these exist to close: strtod happily reads nan/inf,
  // and every range check ('nan <= 0', 'nan > 1') is false — the value
  // would sail through flag validation and poison later comparisons.
  for (const char* bad : {"nan", "NaN", "-nan", "inf", "Infinity", "-inf",
                          "", " ", "0.1x", "x0.1", "1..2", "1e999"}) {
    EXPECT_FALSE(ParseFiniteDouble(bad, &value)) << '"' << bad << '"';
  }
}

TEST(TimerTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(26.64), "26.6s");
  EXPECT_EQ(FormatDuration(444.0), "7.4m");
  EXPECT_EQ(FormatDuration(183600.0), "51.0h");
}

TEST(TimerTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(29200000000ull), "29.2G");
  EXPECT_EQ(FormatBytes(105300000ull), "105.3M");
  EXPECT_EQ(FormatBytes(1500), "1.5K");
  EXPECT_EQ(FormatBytes(12), "12B");
}

TEST(TimerTest, ElapsedMonotonic) {
  Timer t;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
}

TEST(MemTrackerTest, TracksPeak) {
  MemTracker::ResetPeak();
  const size_t base = MemTracker::CurrentBytes();
  MemTracker::Add(1000);
  MemTracker::Add(500);
  EXPECT_EQ(MemTracker::CurrentBytes(), base + 1500);
  MemTracker::Sub(1400);
  EXPECT_EQ(MemTracker::CurrentBytes(), base + 100);
  EXPECT_GE(MemTracker::PeakBytes(), base + 1500);
  MemTracker::Sub(100);
}

TEST(MemTrackerTest, ScopedPeakResets) {
  MemTracker::Add(64);
  {
    ScopedPeakMemory scope;
    MemTracker::Add(128);
    MemTracker::Sub(128);
    EXPECT_GE(scope.Peak(), MemTracker::CurrentBytes() + 128);
  }
  MemTracker::Sub(64);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "f1"});
  t.AddRow({"PromptEM", "94.2"});
  t.AddRow({"BERT", "91.6"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("PromptEM"), std::string::npos);
  EXPECT_NE(s.find("| name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("|-"), std::string::npos);
}

TEST(TablePrinterTest, PctFormatsOneDecimal) {
  EXPECT_EQ(TablePrinter::Pct(0.9415), "94.2");
  EXPECT_EQ(TablePrinter::Pct(1.0), "100.0");
}

TEST(TablePrinterTest, CsvEscapesCommas) {
  TablePrinter t({"a"});
  t.AddRow({"x,y"});
  EXPECT_EQ(t.ToCsv(), "a\n\"x,y\"\n");
}

}  // namespace
}  // namespace promptem::core
