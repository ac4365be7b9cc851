// Unit tests for sage::util — byte-order, strings, hexdump.
#include <gtest/gtest.h>

#include <cctype>

#include "util/bytes.hpp"
#include "util/hexdump.hpp"
#include "util/strings.hpp"

namespace sage::util {
namespace {

TEST(Bytes, Be16RoundTrip) {
  std::vector<std::uint8_t> buf(2);
  put_be16(buf, 0xabcd);
  EXPECT_EQ(buf[0], 0xab);
  EXPECT_EQ(buf[1], 0xcd);
  EXPECT_EQ(get_be16(buf), 0xabcd);
}

TEST(Bytes, Be32RoundTrip) {
  std::vector<std::uint8_t> buf(4);
  put_be32(buf, 0xdeadbeef);
  EXPECT_EQ(buf[0], 0xde);
  EXPECT_EQ(buf[3], 0xef);
  EXPECT_EQ(get_be32(buf), 0xdeadbeefU);
}

TEST(Bytes, Be64RoundTrip) {
  std::vector<std::uint8_t> buf(8);
  put_be64(buf, 0x0102030405060708ULL);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0x08);
  EXPECT_EQ(get_be64(buf), 0x0102030405060708ULL);
}

TEST(Bytes, AppendZeros) {
  std::vector<std::uint8_t> buf{1, 2};
  const std::size_t off = append_zeros(buf, 3);
  EXPECT_EQ(off, 2u);
  EXPECT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf[4], 0);
}

TEST(Strings, SplitDropsEmpty) {
  const auto parts = split("a,,b,c", ",");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepEmptyKeepsEmpty) {
  const auto parts = split_keep_empty("a||b", "|");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("ICMP Echo"), "icmp echo"); }

TEST(Strings, ToLowerMatchesCLocaleTolowerOnEveryByte) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const std::string lowered = to_lower(std::string_view(&c, 1));
    ASSERT_EQ(lowered.size(), 1u);
    EXPECT_EQ(static_cast<unsigned char>(lowered[0]), std::tolower(b)) << b;
  }
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("checksum", "check"));
  EXPECT_FALSE(starts_with("check", "checksum"));
  EXPECT_TRUE(ends_with("echo reply", "reply"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("a.b.c", ".", "::"), "a::b::c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
}

TEST(Strings, IndentOf) {
  EXPECT_EQ(indent_of("    x"), 4u);
  EXPECT_EQ(indent_of("\tx"), 8u);
  EXPECT_EQ(indent_of("x"), 0u);
}

TEST(Strings, IsAllDigits) {
  EXPECT_TRUE(is_all_digits("0123"));
  EXPECT_FALSE(is_all_digits(""));
  EXPECT_FALSE(is_all_digits("12a"));
}

TEST(Strings, ToSnakeCase) {
  EXPECT_EQ(to_snake_case("Type of Service"), "type_of_service");
  EXPECT_EQ(to_snake_case("Echo Reply"), "echo_reply");
  EXPECT_EQ(to_snake_case("checksum"), "checksum");
  EXPECT_EQ(to_snake_case("Gateway Internet Address "), "gateway_internet_address");
}

TEST(Hexdump, FormatsRows) {
  std::vector<std::uint8_t> data(20, 0x41);
  const std::string dump = hexdump(data);
  EXPECT_NE(dump.find("0000"), std::string::npos);
  EXPECT_NE(dump.find("0010"), std::string::npos);
  EXPECT_NE(dump.find("AAAA"), std::string::npos);  // ascii gutter
}

TEST(Hexdump, HexBytesTruncates) {
  std::vector<std::uint8_t> data(10, 0xff);
  const std::string s = hex_bytes(data, 4);
  EXPECT_EQ(s, "ff ff ff ff ...");
}

}  // namespace
}  // namespace sage::util
