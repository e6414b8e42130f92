#include <gtest/gtest.h>

#include <sstream>

#include "trace/chrometrace.hpp"
#include "trace/csv.hpp"
#include "trace/gantt.hpp"
#include "trace/table.hpp"
#include "util/error.hpp"

namespace faaspart::trace {
namespace {

using util::seconds;

TimePoint at(std::int64_t s) { return TimePoint{} + seconds(s); }

TEST(Table, RendersHeaderAndRows) {
  Table t({"processes", "mode", "time (s)"});
  t.add_row({"1", "timeshare", "490.0"});
  t.add_row({"4", "mps", "196.2"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("processes"), std::string::npos);
  EXPECT_NE(out.find("timeshare"), std::string::npos);
  EXPECT_NE(out.find("196.2"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, RowWidthMismatchRejected) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), util::Error);
}

TEST(Table, EmptyHeaderRejected) {
  EXPECT_THROW(Table({}), util::Error);
}

TEST(Table, ColumnsAlign) {
  Table t({"name", "v"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  const std::string out = t.to_string();
  // All lines equal length → alignment happened.
  std::istringstream is(out);
  std::string line;
  std::size_t len = 0;
  while (std::getline(is, line)) {
    if (len == 0) len = line.size();
    EXPECT_EQ(line.size(), len);
  }
}

TEST(Gantt, RendersLanesAndGlyphs) {
  Recorder rec;
  const auto g0 = rec.add_lane("gpu0");
  const auto g1 = rec.add_lane("gpu1");
  rec.record(g0, "train", "phase:train", at(0), at(50));
  rec.record(g1, "infer", "phase:infer", at(50), at(100));
  std::ostringstream os;
  render_gantt(os, rec, {.width = 50});
  const std::string out = os.str();
  EXPECT_NE(out.find("gpu0"), std::string::npos);
  EXPECT_NE(out.find("gpu1"), std::string::npos);
  EXPECT_NE(out.find('t'), std::string::npos);  // train glyph
  EXPECT_NE(out.find('i'), std::string::npos);  // infer glyph
}

TEST(Gantt, EmptyTimeline) {
  Recorder rec;
  std::ostringstream os;
  render_gantt(os, rec);
  EXPECT_NE(os.str().find("empty"), std::string::npos);
}

TEST(Gantt, CategoryFilter) {
  Recorder rec;
  const auto l = rec.add_lane("w");
  rec.record(l, "a", "phase:train", at(0), at(10));
  rec.record(l, "b", "kernel:decode", at(0), at(10));
  std::ostringstream os;
  render_gantt(os, rec, {.width = 20, .show_axis = false, .category_prefix = "phase:"});
  const std::string out = os.str();
  EXPECT_NE(out.find('t'), std::string::npos);
  EXPECT_EQ(out.find('d'), std::string::npos);
}

TEST(Csv, QuotesSpecialFields) {
  std::ostringstream os;
  CsvWriter w(os);
  w.row({"a", "b,c", "say \"hi\"", "multi\nline"});
  EXPECT_EQ(os.str(), "a,\"b,c\",\"say \"\"hi\"\"\",\"multi\nline\"\n");
}

TEST(Csv, PlainRow) {
  std::ostringstream os;
  CsvWriter w(os);
  w.row({"x", "1", "2.5"});
  EXPECT_EQ(os.str(), "x,1,2.5\n");
}

TEST(Csv, QuotesCarriageReturns) {
  // A bare \r (Windows-edited app name, say) must be quoted too, or Excel
  // and the RFC-4180 readers split the row.
  std::ostringstream os;
  CsvWriter w(os);
  w.row({"a\rb", "plain"});
  EXPECT_EQ(os.str(), "\"a\rb\",plain\n");
}

TEST(Csv, CommaInModelNameRoundTrips) {
  // The motivating case: an app named "llama2,13b" must stay one field.
  std::ostringstream os;
  CsvWriter w(os);
  w.row({"llama2,13b", "done"});
  EXPECT_EQ(os.str(), "\"llama2,13b\",done\n");
}

TEST(ChromeTrace, IsWellFormed) {
  Recorder rec;
  const auto lane = rec.add_lane("cpu/worker0");
  for (int i = 0; i < 3; ++i) rec.record(lane, "traced", "task", at(i), at(i + 1));
  std::ostringstream os;
  write_chrome_trace(os, rec, "test-run");
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("traced"), std::string::npos);
  EXPECT_NE(json.find("test-run"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  int braces = 0;
  int brackets = 0;
  for (const char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ChromeTrace, EscapesStrings) {
  Recorder rec;
  const auto lane = rec.add_lane("lane \"quoted\"\n");
  rec.record(lane, "name\twith\ttabs", "cat\\slash", TimePoint{0},
             TimePoint{1000});
  std::ostringstream os;
  write_chrome_trace(os, rec);
  const std::string json = os.str();
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\\\slash"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

}  // namespace
}  // namespace faaspart::trace
