#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <typeinfo>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace faaspart::util {
namespace {

TEST(Strings, SplitBasic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, SplitNoSeparator) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("z"), "z");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("MIG-abc", "MIG-"));
  EXPECT_FALSE(starts_with("MI", "MIG"));
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("GPU-0"), "gpu-0"); }

TEST(Strings, Strf) { EXPECT_EQ(strf("x=", 3, " y=", 4.5), "x=3 y=4.5"); }

// strf takes shortcuts for strings and integers; every value must still
// render exactly as an ostringstream renders it. (tests/prop/pager_ops.hpp
// hashes strf output into its op stream, so drift would silently change
// the property suite's inputs.)
template <typename T>
std::string streamed(const T& v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

template <typename T>
void expect_strf_parity(std::initializer_list<T> values) {
  for (const T& v : values) {
    EXPECT_EQ(strf(v), streamed(v)) << "type " << typeid(T).name();
    EXPECT_EQ(strf("<", v, ">"), "<" + streamed(v) + ">");
  }
}

enum class Colour { kRed = 2 };
enum Plain { kPlainValue = 7 };
std::ostream& operator<<(std::ostream& os, Colour c) {
  return os << "colour#" << static_cast<int>(c);
}

TEST(Strings, StrfMatchesOstreamForIntegers) {
  expect_strf_parity<short>({0, -1, std::numeric_limits<short>::min(),
                             std::numeric_limits<short>::max()});
  expect_strf_parity<unsigned short>({0, 65535});
  expect_strf_parity<int>({0, 7, -42, std::numeric_limits<int>::min(),
                           std::numeric_limits<int>::max()});
  expect_strf_parity<unsigned>({0u, std::numeric_limits<unsigned>::max()});
  expect_strf_parity<long>({0L, std::numeric_limits<long>::min(),
                            std::numeric_limits<long>::max()});
  expect_strf_parity<unsigned long>({0UL,
                                     std::numeric_limits<unsigned long>::max()});
  expect_strf_parity<long long>({std::numeric_limits<long long>::min(), -1LL});
  expect_strf_parity<std::int64_t>({INT64_MIN, INT64_MAX, -1});
  expect_strf_parity<std::uint64_t>({UINT64_MAX, 0, 1ULL << 63});
  expect_strf_parity<std::size_t>({0, 123456789});
}

TEST(Strings, StrfMatchesOstreamForCharactersAndBool) {
  // Character types print as characters, never as numbers.
  expect_strf_parity<char>({'a', 'Z', ' '});
  expect_strf_parity<signed char>({'x', 65});
  expect_strf_parity<unsigned char>({'y', 66});
  expect_strf_parity<std::int8_t>({'q', 48});
  expect_strf_parity<std::uint8_t>({'r', 49});
  expect_strf_parity<bool>({true, false});
  EXPECT_EQ(strf(true, false), "10");
  // Wide and UTF character types cannot be streamed into a char stream at
  // all; strf must not quietly print them as integers instead.
  static_assert(!detail::kStrfToChars<wchar_t>);
  static_assert(!detail::kStrfToChars<char8_t>);
  static_assert(!detail::kStrfToChars<char16_t>);
  static_assert(!detail::kStrfToChars<char32_t>);
  static_assert(!detail::kStrfToChars<bool>);
  static_assert(detail::kStrfToChars<std::int64_t>);
}

TEST(Strings, StrfMatchesOstreamForFloatingPoint) {
  expect_strf_parity<double>({4.5, 1e-7, 1e21, 0.1, -0.0, 123456789.0, 1.0 / 3});
  expect_strf_parity<float>({4.5f, 1e-7f, 3.25f});
  expect_strf_parity<long double>({4.5L, 1e21L});
  expect_strf_parity<double>({std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()});
}

TEST(Strings, StrfMatchesOstreamForTextEnumsAndUserTypes) {
  const std::string s = "string";
  const std::string_view sv = "view";
  const char* cstr = "cstr";
  char mutable_buf[] = "buf";
  EXPECT_EQ(strf(s, sv, cstr, mutable_buf, "lit"), "stringviewcstrbuflit");
  EXPECT_EQ(strf(std::string()), "");
  EXPECT_EQ(strf(), "");
  EXPECT_EQ(strf(Colour::kRed), streamed(Colour::kRed));
  EXPECT_EQ(strf(kPlainValue), streamed(kPlainValue));
  int x = 0;
  const void* ptr = &x;
  EXPECT_EQ(strf(ptr), streamed(ptr));
  // A mix: the stream and the shortcuts interleave in argument order.
  std::ostringstream os;
  os << "a" << 1 << 2.5 << 'c' << Colour::kRed << -3LL << true << sv;
  EXPECT_EQ(strf("a", 1, 2.5, 'c', Colour::kRed, -3LL, true, sv), os.str());
}

TEST(Strings, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(Error, CheckMacroThrows) {
  EXPECT_THROW(FP_CHECK(1 == 2), Error);
  EXPECT_NO_THROW(FP_CHECK(1 == 1));
}

TEST(Error, CheckMessageIncluded) {
  try {
    FP_CHECK_MSG(false, "context detail");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context detail"), std::string::npos);
  }
}

TEST(Error, Hierarchy) {
  EXPECT_THROW(throw OutOfMemoryError("40 GB"), Error);
  EXPECT_THROW(throw ConfigError("bad"), Error);
  EXPECT_THROW(throw StateError("bad"), Error);
  EXPECT_THROW(throw NotFoundError("bad"), Error);
}

}  // namespace
}  // namespace faaspart::util
