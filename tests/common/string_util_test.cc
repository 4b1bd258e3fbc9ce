#include "common/string_util.h"

#include <gtest/gtest.h>

namespace fungusdb {
namespace {

TEST(FormatBytesTest, SmallValuesInBytes) {
  EXPECT_EQ(FormatBytes(0), "0 B");
  EXPECT_EQ(FormatBytes(512), "512 B");
}

TEST(FormatBytesTest, BinaryUnits) {
  EXPECT_EQ(FormatBytes(1024), "1.0 KiB");
  EXPECT_EQ(FormatBytes(1536), "1.5 KiB");
  EXPECT_EQ(FormatBytes(1024ull * 1024), "1.0 MiB");
  EXPECT_EQ(FormatBytes(3ull * 1024 * 1024 * 1024), "3.0 GiB");
}

TEST(FormatDoubleTest, FixedDecimals) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
  EXPECT_EQ(FormatDouble(-1.5, 1), "-1.5");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(SplitTest, SplitsAndKeepsEmptyFields) {
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(SplitTest, NoSeparatorYieldsWhole) {
  const auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StripWhitespaceTest, StripsBothEnds) {
  EXPECT_EQ(StripWhitespace("  x  "), "x");
  EXPECT_EQ(StripWhitespace("\t\na b\r "), "a b");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(SplitWhitespaceTest, DropsRunsOfWhitespace) {
  const std::string line = "\t\\insert  t\n 1,a b \r";
  const std::vector<std::string_view> words = SplitWhitespace(line);
  ASSERT_EQ(words.size(), 4u);
  EXPECT_EQ(words[0], "\\insert");
  EXPECT_EQ(words[1], "t");
  EXPECT_EQ(words[2], "1,a");
  EXPECT_EQ(words[3], "b");
  // Views into the input, so callers can locate the rest of the line.
  EXPECT_EQ(words[1].data(), line.data() + 10);
  EXPECT_TRUE(SplitWhitespace("").empty());
  EXPECT_TRUE(SplitWhitespace(" \t\n").empty());
}

TEST(EqualsIgnoreCaseTest, CaseInsensitive) {
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_TRUE(EqualsIgnoreCase("MiXeD", "mIxEd"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

TEST(ToLowerTest, LowercasesAscii) {
  EXPECT_EQ(ToLower("AbC123"), "abc123");
  EXPECT_EQ(ToLower(""), "");
}

TEST(ParseIntegerTest, AcceptsWholeInRangeIntegers) {
  EXPECT_EQ(ParseInteger<int64_t>("42"), 42);
  EXPECT_EQ(ParseInteger<int64_t>("-7"), -7);
  EXPECT_EQ(ParseInteger<int64_t>("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(ParseInteger<uint64_t>("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(ParseInteger<uint64_t>("0"), 0u);
}

TEST(ParseIntegerTest, RejectsSignsOverflowAndTrailingBytes) {
  EXPECT_FALSE(ParseInteger<uint64_t>("-1").has_value());
  EXPECT_FALSE(ParseInteger<uint64_t>("18446744073709551616").has_value());
  EXPECT_FALSE(ParseInteger<int64_t>("99999999999999999999").has_value());
  EXPECT_FALSE(ParseInteger<int64_t>("-99999999999999999999").has_value());
  EXPECT_FALSE(ParseInteger<int64_t>("12x").has_value());
  EXPECT_FALSE(ParseInteger<int64_t>("1 ").has_value());
  EXPECT_FALSE(ParseInteger<int64_t>("").has_value());
  EXPECT_FALSE(ParseInteger<int64_t>("-").has_value());
}

}  // namespace
}  // namespace fungusdb
