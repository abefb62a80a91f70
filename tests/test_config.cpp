#include "common/config.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace cnt {
namespace {

TEST(Config, ParsesSectionsAndKeys) {
  const auto c = Config::parse_string(
      "top = 1\n[cache]\nsize = 32k\nways=4\n[cnt]\nwindow = 15\n");
  EXPECT_TRUE(c.has("top"));
  EXPECT_TRUE(c.has("cache.size"));
  EXPECT_TRUE(c.has("cnt.window"));
  EXPECT_FALSE(c.has("cache.window"));
  EXPECT_EQ(c.get_uint("cache.ways", 0), 4u);
}

TEST(Config, CommentsAndBlanksIgnored) {
  const auto c = Config::parse_string(
      "# full-line comment\n\n[s] ; trailing comment\nk = v # after value\n");
  EXPECT_EQ(c.get_string("s.k", ""), "v");
}

TEST(Config, WhitespaceTrimmed) {
  const auto c = Config::parse_string("[ s ]\n  key   =   spaced value  \n");
  EXPECT_EQ(c.get_string("s.key", ""), "spaced value");
}

TEST(Config, TypedGetters) {
  const auto c = Config::parse_string(
      "[t]\ni = -5\nu = 7\nd = 2.5\nb1 = yes\nb2 = OFF\ns = text\n");
  EXPECT_EQ(c.get_int("t.i", 0), -5);
  EXPECT_EQ(c.get_uint("t.u", 0), 7u);
  EXPECT_DOUBLE_EQ(c.get_double("t.d", 0), 2.5);
  EXPECT_TRUE(c.get_bool("t.b1", false));
  EXPECT_FALSE(c.get_bool("t.b2", true));
  EXPECT_EQ(c.get_string("t.s", ""), "text");
}

TEST(Config, FallbacksForMissingKeys) {
  const Config c;
  EXPECT_EQ(c.get_int("nope", 42), 42);
  EXPECT_DOUBLE_EQ(c.get_double("nope", 1.5), 1.5);
  EXPECT_TRUE(c.get_bool("nope", true));
  EXPECT_EQ(c.get_size("nope", 99), 99u);
  EXPECT_EQ(c.get("nope"), std::nullopt);
}

TEST(Config, SizeSuffixes) {
  const auto c = Config::parse_string(
      "[m]\na = 64\nb = 32k\nc = 2m\nd = 1g\nK = 4K\n");
  EXPECT_EQ(c.get_size("m.a", 0), 64u);
  EXPECT_EQ(c.get_size("m.b", 0), 32u * 1024);
  EXPECT_EQ(c.get_size("m.c", 0), 2u * 1024 * 1024);
  EXPECT_EQ(c.get_size("m.d", 0), 1024ULL * 1024 * 1024);
  EXPECT_EQ(c.get_size("m.K", 0), 4u * 1024);
}

TEST(Config, MalformedValuesThrow) {
  const auto c = Config::parse_string(
      "[t]\ni = 3x\nd = abc\nb = maybe\nu = -1\nsz = 3q\n");
  EXPECT_THROW((void)c.get_int("t.i", 0), std::invalid_argument);
  EXPECT_THROW((void)c.get_double("t.d", 0), std::invalid_argument);
  EXPECT_THROW((void)c.get_bool("t.b", false), std::invalid_argument);
  EXPECT_THROW((void)c.get_uint("t.u", 0), std::invalid_argument);
  EXPECT_THROW((void)c.get_size("t.sz", 0), std::invalid_argument);
}

// get_uint reads the whole u64 range: 2^64 - 1 parses, 2^64 is a range
// error naming the key, a negative or empty value is refused, and a
// fallback at or above 2^63 comes back as is when the key is absent. The
// signs std::stoll took before still read: '+5' is 5 and '-0' is 0.
TEST(Config, UnsignedCoversTheWholeU64Range) {
  const auto c = Config::parse_string(
      "[fault]\nseed = 18446744073709551615\nover = 18446744073709551616\n"
      "neg = -1\nempty =\nplus = +5\nnegzero = -0\nsigns = +-5\n");
  EXPECT_EQ(c.get_uint("fault.seed", 0), 18446744073709551615ULL);
  EXPECT_EQ(c.get_uint("fault.plus", 0), 5u);
  EXPECT_EQ(c.get_uint("fault.negzero", 7), 0u);
  EXPECT_THROW((void)c.get_uint("fault.signs", 0), ValueError);
  try {
    (void)c.get_uint("fault.over", 0);
    FAIL() << "must throw";
  } catch (const ValueError& e) {
    EXPECT_EQ(e.info().code, Errc::kRange);
    EXPECT_EQ(e.info().message,
              "key 'fault.over' has out-of-range value "
              "'18446744073709551616'");
    EXPECT_EQ(e.info().hint, "use at most 18446744073709551615");
  }
  try {
    (void)c.get_uint("fault.neg", 0);
    FAIL() << "must throw";
  } catch (const ValueError& e) {
    EXPECT_EQ(e.info().code, Errc::kValue);
    EXPECT_EQ(e.info().message,
              "key 'fault.neg' has invalid unsigned value '-1'");
    EXPECT_EQ(e.info().hint, "the value must be >= 0");
  }
  try {
    (void)c.get_uint("fault.empty", 0);
    FAIL() << "must throw";
  } catch (const ValueError& e) {
    EXPECT_EQ(e.info().code, Errc::kValue);
    EXPECT_EQ(e.info().message,
              "key 'fault.empty' has invalid integer value ''");
  }
  const u64 big = (u64{1} << 63) + 5;
  EXPECT_EQ(c.get_uint("fault.absent", big), big);
  EXPECT_EQ(c.get_uint("fault.absent", ~u64{0}), ~u64{0});
}

TEST(Config, SyntaxErrorsThrowWithLine) {
  EXPECT_THROW((void)Config::parse_string("[unterminated\n"),
               std::runtime_error);
  EXPECT_THROW((void)Config::parse_string("no equals sign\n"),
               std::runtime_error);
  EXPECT_THROW((void)Config::parse_string("= novalue-key\n"),
               std::runtime_error);
}

TEST(Config, DuplicateKeyRejected) {
  // Silent last-wins hid config typos; a duplicate full key is an error.
  try {
    const auto c = Config::parse_string("[s]\nk = 1\nk = 2\n");
    FAIL() << "duplicate key must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kDuplicateKey);
    EXPECT_NE(std::string(e.what()).find("s.k"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
  // The same bare key in different sections is two distinct keys.
  const auto c = Config::parse_string("[a]\nk = 1\n[b]\nk = 2\n");
  EXPECT_EQ(c.get_int("a.k", 0), 1);
  EXPECT_EQ(c.get_int("b.k", 0), 2);
}

TEST(Config, KeysSorted) {
  const auto c = Config::parse_string("[b]\nz=1\n[a]\ny=2\n");
  const auto keys = c.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a.y");
  EXPECT_EQ(keys[1], "b.z");
}

TEST(Config, LoadMissingFileThrows) {
  EXPECT_THROW((void)Config::load("/no/such/config.ini"), std::runtime_error);
}

}  // namespace
}  // namespace cnt
