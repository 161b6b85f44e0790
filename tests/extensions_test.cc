// Tests for the adoption-path extensions: the JSON parser, CSV/JSONL
// dataset I/O and the blocking substrate.

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "data/blocking.h"
#include "data/io.h"
#include "data/json.h"
#include "data/benchmarks.h"
#include "data/serializer.h"

namespace promptem {
namespace {

// --- JSON ---

TEST(JsonTest, ParsesScalars) {
  EXPECT_EQ(data::ParseJson("\"hi\"").value().as_string(), "hi");
  EXPECT_DOUBLE_EQ(data::ParseJson("3.5").value().as_number(), 3.5);
  EXPECT_DOUBLE_EQ(data::ParseJson("-12e2").value().as_number(), -1200.0);
  EXPECT_DOUBLE_EQ(data::ParseJson("true").value().as_number(), 1.0);
  EXPECT_EQ(data::ParseJson("null").value().as_string(), "");
}

TEST(JsonTest, ParsesNestedStructure) {
  auto v = data::ParseJson(
      R"({"title":"sams teach","authors":["a","b"],"meta":{"pages":288}})");
  ASSERT_TRUE(v.ok());
  const auto& obj = v.value().as_object();
  ASSERT_EQ(obj.size(), 3u);
  EXPECT_EQ(obj[0].second.as_string(), "sams teach");
  EXPECT_EQ(obj[1].second.as_list().size(), 2u);
  EXPECT_DOUBLE_EQ(
      obj[2].second.as_object()[0].second.as_number(), 288.0);
}

TEST(JsonTest, HandlesEscapes) {
  auto v = data::ParseJson(R"("a\"b\\c\ndA")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().as_string(), "a\"b\\c\ndA");
}

TEST(JsonTest, UnicodeEscapeUtf8) {
  auto v = data::ParseJson(R"("é")");  // é
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().as_string(), "\xC3\xA9");
}

TEST(JsonTest, SurrogatePairsDecodeToUtf8) {
  // U+1F600 (emoji), U+10000 (first non-BMP), U+10FFFF (last code point).
  EXPECT_EQ(data::ParseJson(R"("\uD83D\uDE00")").value().as_string(),
            "\xF0\x9F\x98\x80");
  EXPECT_EQ(data::ParseJson(R"("\uD800\uDC00")").value().as_string(),
            "\xF0\x90\x80\x80");
  EXPECT_EQ(data::ParseJson(R"("\uDBFF\uDFFF")").value().as_string(),
            "\xF4\x8F\xBF\xBF");
  // Mixed with a BMP escape and plain text on both sides.
  EXPECT_EQ(data::ParseJson(R"("a\u00e9\uD83D\uDE00z")").value().as_string(),
            "a\xC3\xA9\xF0\x9F\x98\x80z");
}

TEST(JsonTest, UnpairedSurrogatesRejected) {
  EXPECT_FALSE(data::ParseJson(R"("\uD83D")").ok());       // high, then end
  EXPECT_FALSE(data::ParseJson(R"("\uD83Dxy")").ok());     // high, then text
  EXPECT_FALSE(data::ParseJson(R"("\uD83D\n")").ok());     // high, then \n
  EXPECT_FALSE(data::ParseJson(R"("\uD83D\uD83D")").ok()); // high twice
  EXPECT_FALSE(data::ParseJson(R"("\uD83DA")").ok()); // high then BMP
  EXPECT_FALSE(data::ParseJson(R"("\uDC00")").ok());       // lone low
}

TEST(JsonTest, SurrogateRoundTripThroughJsonl) {
  // The writer passes UTF-8 bytes through raw; the reader must produce
  // the same bytes from the escaped form, so both spellings round-trip.
  auto v = data::ParseJson(R"({"name":"\uD83D\uDE00 deluxe"})");
  ASSERT_TRUE(v.ok());
  auto again = data::ParseJson(data::ToJson(v.value()));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(data::ToJson(v.value()), data::ToJson(again.value()));
  EXPECT_EQ(again.value().as_object()[0].second.as_string(),
            "\xF0\x9F\x98\x80 deluxe");
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(data::ParseJson("{").ok());
  EXPECT_FALSE(data::ParseJson("[1,]").ok());
  EXPECT_FALSE(data::ParseJson("\"unterminated").ok());
  EXPECT_FALSE(data::ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(data::ParseJson("12 34").ok());
  EXPECT_FALSE(data::ParseJson("nul").ok());
  // Nesting past the depth cap is rejected at the offending bracket
  // instead of recursing until the stack runs out.
  const auto deep = data::ParseJson(std::string(30000, '['));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(deep.status().message().find("offset 256"), std::string::npos)
      << deep.status().ToString();
  EXPECT_TRUE(
      data::ParseJson(std::string(256, '[') + std::string(256, ']')).ok());
}

TEST(JsonTest, DuplicateKeysLastWins) {
  auto v = data::ParseJson(R"({"a":1,"a":2})");
  ASSERT_TRUE(v.ok());
  const auto& obj = v.value().as_object();
  ASSERT_EQ(obj.size(), 1u);
  EXPECT_DOUBLE_EQ(obj[0].second.as_number(), 2.0);
}

TEST(JsonTest, RoundTrip) {
  const std::string doc =
      R"({"title":"a, \"quoted\"","year":2012,"tags":["x","y"]})";
  auto v = data::ParseJson(doc);
  ASSERT_TRUE(v.ok());
  auto again = data::ParseJson(data::ToJson(v.value()));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(data::ToJson(v.value()), data::ToJson(again.value()));
}

TEST(JsonTest, RecordParsingRequiresObject) {
  EXPECT_TRUE(data::ParseJsonRecord(R"({"a":"b"})").ok());
  EXPECT_FALSE(data::ParseJsonRecord("[1,2]").ok());
}

// --- CSV / dataset I/O ---

TEST(CsvTest, SplitHandlesQuoting) {
  auto f = data::SplitCsvLine(R"(a,"b,c","d""e",)");
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[1], "b,c");
  EXPECT_EQ(f[2], "d\"e");
  EXPECT_EQ(f[3], "");
}

TEST(CsvTest, EscapeRoundTrip) {
  const std::string tricky = "a,\"b\"\nc";
  auto f = data::SplitCsvLine(data::CsvEscape(tricky));
  // Newline inside field is out of scope for the line-based reader, but
  // commas and quotes round-trip.
  EXPECT_EQ(data::SplitCsvLine(data::CsvEscape("x,\"y\""))[0], "x,\"y\"");
  (void)f;
  (void)tricky;
}

TEST(IoTest, DatasetRoundTripAllFormats) {
  namespace fs = std::filesystem;
  // SEMI-REL exercises JSONL (left, nested) + CSV (right).
  data::BenchmarkGenOptions small;
  small.size_scale = 0.2;
  data::GemDataset ds =
      data::GenerateBenchmark(data::BenchmarkKind::kSemiRel, 5, small);
  const std::string dir = "/tmp/promptem_io_test";
  fs::remove_all(dir);
  ASSERT_TRUE(data::SaveGemDataset(ds, dir).ok());

  auto loaded = data::LoadGemDataset(dir, "roundtrip");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const data::GemDataset& back = loaded.value();
  ASSERT_EQ(back.left_table.size(), ds.left_table.size());
  ASSERT_EQ(back.right_table.size(), ds.right_table.size());
  ASSERT_EQ(back.train.size(), ds.train.size());
  EXPECT_EQ(back.test.size(), ds.test.size());
  // Serialization of a nested record survives the JSONL round trip.
  EXPECT_EQ(data::SerializeRecord(back.left_table[0]),
            data::SerializeRecord(ds.left_table[0]));
  // CSV round trip preserves relational attribute values.
  EXPECT_EQ(data::SerializeRecord(back.right_table[0]),
            data::SerializeRecord(ds.right_table[0]));
  fs::remove_all(dir);
}

TEST(IoTest, TextTableRoundTrip) {
  namespace fs = std::filesystem;
  data::BenchmarkGenOptions small;
  small.size_scale = 0.2;
  data::GemDataset ds =
      data::GenerateBenchmark(data::BenchmarkKind::kSemiTextW, 5, small);
  const std::string dir = "/tmp/promptem_io_test_text";
  fs::remove_all(dir);
  ASSERT_TRUE(data::SaveGemDataset(ds, dir).ok());
  auto loaded = data::LoadGemDataset(dir, "text");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().right_table[0].format,
            data::RecordFormat::kTextual);
  EXPECT_EQ(loaded.value().right_table[0].text, ds.right_table[0].text);
  fs::remove_all(dir);
}

TEST(IoTest, LoadPairsValidatesRanges) {
  const std::string path = "/tmp/promptem_pairs_test.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("0,0,1\n5,0,0\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(data::LoadPairsCsv(path, 2, 2).ok());  // 5 out of range
  EXPECT_TRUE(data::LoadPairsCsv(path, 6, 2).ok());
  std::remove(path.c_str());
}

TEST(IoTest, MissingFilesSurfaceNotFound) {
  auto r = data::LoadGemDataset("/tmp/definitely_missing_promptem", "x");
  EXPECT_FALSE(r.ok());
}

TEST(IoTest, CsvNumericCellsBecomeNumbers) {
  const std::string path = "/tmp/promptem_csv_test.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("name,year\nalpha,2012\n", f);
    std::fclose(f);
  }
  auto table = data::LoadCsvTable(path);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table.value().size(), 1u);
  EXPECT_TRUE(table.value()[0].attrs[1].second.is_number());
  EXPECT_TRUE(table.value()[0].attrs[0].second.is_string());
  std::remove(path.c_str());
}

// --- blocking ---

TEST(BlockingTest, KeepsTrueMatchesPrunesSpace) {
  data::GemDataset ds =
      data::GenerateBenchmark(data::BenchmarkKind::kSemiHomo, 7);
  data::OverlapBlocker::Config config;
  config.top_k = 10;
  data::OverlapBlocker blocker(ds.left_table, ds.right_table, config);
  auto candidates = blocker.Drain();

  std::vector<data::PairExample> gold;
  for (const auto& p : ds.train) {
    if (p.label == 1) gold.push_back(p);
  }
  auto quality = data::EvaluateBlocking(candidates, gold,
                                        ds.left_table.size(),
                                        ds.right_table.size());
  EXPECT_GT(quality.pair_completeness, 0.8);
  EXPECT_GT(quality.reduction_ratio, 0.9);
}

TEST(BlockingTest, PairScorePositiveForMatches) {
  data::BenchmarkGenOptions small;
  small.size_scale = 0.3;
  data::GemDataset ds =
      data::GenerateBenchmark(data::BenchmarkKind::kRelHeter, 7, small);
  data::OverlapBlocker blocker(ds.left_table, ds.right_table);
  EXPECT_GT(blocker.PairScore(0, 0), 0.0);
}

TEST(BlockingTest, TopKBoundsCandidatesPerLeft) {
  data::BenchmarkGenOptions small;
  small.size_scale = 0.3;
  data::GemDataset ds =
      data::GenerateBenchmark(data::BenchmarkKind::kSemiHomo, 7, small);
  data::OverlapBlocker::Config config;
  config.top_k = 3;
  data::OverlapBlocker blocker(ds.left_table, ds.right_table, config);
  auto candidates = blocker.Drain();
  std::map<int, int> per_left;
  for (const auto& c : candidates) ++per_left[c.left_index];
  for (const auto& [left, count] : per_left) EXPECT_LE(count, 3);
}

TEST(BlockingQualityTest, Formulae) {
  std::vector<data::PairExample> candidates = {{0, 0, 0}, {1, 2, 0}};
  std::vector<data::PairExample> gold = {{0, 0, 1}, {1, 1, 1}};
  auto q = data::EvaluateBlocking(candidates, gold, 10, 10);
  EXPECT_DOUBLE_EQ(q.pair_completeness, 0.5);
  EXPECT_DOUBLE_EQ(q.reduction_ratio, 1.0 - 2.0 / 100.0);
}

}  // namespace
}  // namespace promptem
