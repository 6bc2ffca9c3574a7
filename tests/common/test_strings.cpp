#include "common/strings.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace sc = intellog::common;

TEST(Strings, SplitBasic) {
  EXPECT_EQ(sc::split("a b c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(sc::split("a,,b", ","), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(sc::split("", " ").empty());
  EXPECT_TRUE(sc::split("   ").empty());
}

TEST(Strings, SplitWsHandlesTabsAndNewlines) {
  EXPECT_EQ(sc::split_ws("a\tb\nc  d"), (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(Strings, JoinRoundTrip) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(sc::join(parts, " "), "x y z");
  EXPECT_EQ(sc::split(sc::join(parts, ","), ","), parts);
  EXPECT_EQ(sc::join({}, " "), "");
}

TEST(Strings, ToLower) {
  EXPECT_EQ(sc::to_lower("MapTask"), "maptask");
  EXPECT_EQ(sc::to_lower("ABC123xyz"), "abc123xyz");
}

TEST(Strings, Trim) {
  EXPECT_EQ(sc::trim("  hi  "), "hi");
  EXPECT_EQ(sc::trim("\t\nx"), "x");
  EXPECT_EQ(sc::trim("   "), "");
  EXPECT_EQ(sc::trim(""), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(sc::starts_with("hdfs://x", "hdfs://"));
  EXPECT_FALSE(sc::starts_with("hd", "hdfs"));
  EXPECT_TRUE(sc::ends_with("spill.out", ".out"));
  EXPECT_FALSE(sc::ends_with("x", "xx"));
}

TEST(Strings, DigitAndLetterPredicates) {
  EXPECT_TRUE(sc::is_all_digits("012345"));
  EXPECT_FALSE(sc::is_all_digits("12a"));
  EXPECT_FALSE(sc::is_all_digits(""));
  EXPECT_TRUE(sc::has_letter("a1"));
  EXPECT_FALSE(sc::has_letter("123_:"));
  EXPECT_TRUE(sc::has_digit("attempt_01"));
  EXPECT_FALSE(sc::has_digit("attempt"));
}

TEST(Strings, IsNumber) {
  EXPECT_TRUE(sc::is_number("42"));
  EXPECT_TRUE(sc::is_number("3.5"));
  EXPECT_TRUE(sc::is_number("-7"));
  EXPECT_TRUE(sc::is_number("1,286,159"));
  EXPECT_FALSE(sc::is_number("1.2.3"));
  EXPECT_FALSE(sc::is_number("12a"));
  EXPECT_FALSE(sc::is_number(""));
  EXPECT_FALSE(sc::is_number("-"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(sc::replace_all("a*b*c", "*", "-"), "a-b-c");
  EXPECT_EQ(sc::replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(sc::replace_all("x", "", "y"), "x");
}

TEST(Strings, LcsLengthBasic) {
  EXPECT_EQ(sc::lcs_length({"a", "b", "c"}, {"a", "c"}), 2u);
  EXPECT_EQ(sc::lcs_length({"a", "b"}, {"c", "d"}), 0u);
  EXPECT_EQ(sc::lcs_length({}, {"a"}), 0u);
  EXPECT_EQ(sc::lcs_length({"x", "y", "z"}, {"x", "y", "z"}), 3u);
}

TEST(Strings, LcsLengthOverIdsMatchesStringVariant) {
  // The interned-id variant must agree with the string DP on equivalent
  // sequences (ids standing in for distinct tokens).
  EXPECT_EQ(sc::lcs_length_ids({1, 2, 3}, {1, 3}), 2u);
  EXPECT_EQ(sc::lcs_length_ids({1, 2}, {3, 4}), 0u);
  EXPECT_EQ(sc::lcs_length_ids({}, {1}), 0u);
  EXPECT_EQ(sc::lcs_length_ids({7, 8, 9}, {7, 8, 9}), 3u);
  // kAbsent (-1) message tokens never match non-negative constant ids.
  EXPECT_EQ(sc::lcs_length_ids({-1, -1, 5}, {0, 5}), 1u);
}

TEST(Strings, SplitWsViewsMatchesSplitWs) {
  const std::string s = "  read 2264\tbytes\r\nfrom map-output  ";
  std::vector<std::string_view> views;
  sc::split_ws_views(s, views);
  const auto strings = sc::split_ws(s);
  ASSERT_EQ(views.size(), strings.size());
  for (std::size_t i = 0; i < views.size(); ++i) EXPECT_EQ(views[i], strings[i]);
  sc::split_ws_views("", views);
  EXPECT_TRUE(views.empty());
  sc::split_ws_views("   \t ", views);
  EXPECT_TRUE(views.empty());
}

TEST(Strings, LcsBacktraceMatchesLength) {
  const std::vector<std::string> a = {"read", "2264", "bytes", "from", "map-output"};
  const std::vector<std::string> b = {"read", "99", "bytes", "from", "map-output"};
  const auto seq = sc::lcs(a, b);
  EXPECT_EQ(seq.size(), sc::lcs_length(a, b));
  EXPECT_EQ(seq, (std::vector<std::string>{"read", "bytes", "from", "map-output"}));
}

TEST(Strings, LongestCommonSubstringWords) {
  const auto r = sc::longest_common_substring_words({"block", "manager", "endpoint"},
                                                    {"the", "block", "manager"});
  EXPECT_EQ(r, (std::vector<std::string>{"block", "manager"}));
  EXPECT_TRUE(sc::longest_common_substring_words({"a"}, {"b"}).empty());
}

TEST(Strings, LongestCommonSubstringPrefersContiguity) {
  // LCS would find {a, c}; the contiguous version must not.
  const auto r = sc::longest_common_substring_words({"a", "b", "c"}, {"a", "x", "c"});
  EXPECT_EQ(r.size(), 1u);
}

TEST(Strings, CommonSuffixWords) {
  EXPECT_EQ(sc::common_suffix_words({"block", "manager"}, {"security", "manager"}), 1u);
  EXPECT_EQ(sc::common_suffix_words({"a", "b"}, {"a", "b"}), 2u);
  EXPECT_EQ(sc::common_suffix_words({"x"}, {"y"}), 0u);
}

TEST(Strings, EditDistance) {
  EXPECT_EQ(sc::edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(sc::edit_distance("", "abc"), 3u);
  EXPECT_EQ(sc::edit_distance("same", "same"), 0u);
}

// --- property tests -----------------------------------------------------

namespace {

/// Brute-force LCS via recursion with memo for small inputs.
std::size_t lcs_naive(const std::vector<std::string>& a, const std::vector<std::string>& b,
                      std::size_t i, std::size_t j) {
  if (i == a.size() || j == b.size()) return 0;
  if (a[i] == b[j]) return 1 + lcs_naive(a, b, i + 1, j + 1);
  return std::max(lcs_naive(a, b, i + 1, j), lcs_naive(a, b, i, j + 1));
}

std::vector<std::string> random_tokens(intellog::common::Rng& rng, std::size_t max_len) {
  static const char* kWords[] = {"a", "b", "c", "d", "e"};
  std::vector<std::string> out;
  const std::size_t n = rng.uniform(max_len + 1);
  for (std::size_t i = 0; i < n; ++i) out.push_back(kWords[rng.uniform(5)]);
  return out;
}

}  // namespace

class LcsProperty : public ::testing::TestWithParam<int> {};

TEST_P(LcsProperty, MatchesBruteForceAndInvariants) {
  sc::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 3);
  const auto a = random_tokens(rng, 8);
  const auto b = random_tokens(rng, 8);
  const std::size_t fast = sc::lcs_length(a, b);
  EXPECT_EQ(fast, lcs_naive(a, b, 0, 0));
  // Symmetry.
  EXPECT_EQ(fast, sc::lcs_length(b, a));
  // Bounded by the shorter sequence.
  EXPECT_LE(fast, std::min(a.size(), b.size()));
  // Backtrace length agrees and is a subsequence of both.
  const auto seq = sc::lcs(a, b);
  EXPECT_EQ(seq.size(), fast);
  for (const auto* side : {&a, &b}) {
    std::size_t pos = 0;
    for (const auto& w : seq) {
      while (pos < side->size() && (*side)[pos] != w) ++pos;
      ASSERT_LT(pos, side->size()) << "lcs result is not a subsequence";
      ++pos;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LcsProperty, ::testing::Range(0, 40));

class EditDistanceProperty : public ::testing::TestWithParam<int> {};

TEST_P(EditDistanceProperty, TriangleAndIdentity) {
  sc::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 1);
  const auto make = [&] {
    std::string s;
    const std::size_t n = rng.uniform(10);
    for (std::size_t i = 0; i < n; ++i) s += static_cast<char>('a' + rng.uniform(3));
    return s;
  };
  const std::string x = make(), y = make(), z = make();
  EXPECT_EQ(sc::edit_distance(x, x), 0u);
  EXPECT_EQ(sc::edit_distance(x, y), sc::edit_distance(y, x));
  EXPECT_LE(sc::edit_distance(x, z), sc::edit_distance(x, y) + sc::edit_distance(y, z));
}

INSTANTIATE_TEST_SUITE_P(Sweep, EditDistanceProperty, ::testing::Range(0, 25));

TEST(ParseNumber, AcceptsWholeDecimalValues) {
  EXPECT_EQ(sc::parse_number<int>("42"), 42);
  EXPECT_EQ(sc::parse_number<int>("-7"), -7);
  EXPECT_EQ(sc::parse_number<std::uint64_t>("18446744073709551615"),
            std::uint64_t{18446744073709551615ull});
  EXPECT_EQ(sc::parse_number<double>("0.02"), 0.02);
}

TEST(ParseNumber, RejectsWhatStoiWouldThrowOnOrTruncate) {
  EXPECT_EQ(sc::parse_number<std::uint64_t>("b"), std::nullopt);
  EXPECT_EQ(sc::parse_number<int>(""), std::nullopt);
  EXPECT_EQ(sc::parse_number<int>("12abc"), std::nullopt);   // stoi: 12
  EXPECT_EQ(sc::parse_number<int>(" 5"), std::nullopt);
  EXPECT_EQ(sc::parse_number<int>("99999999999"), std::nullopt);  // out of range
  EXPECT_EQ(sc::parse_number<std::size_t>("-1"), std::nullopt);  // stoul wraps
  EXPECT_EQ(sc::parse_number<double>("1e999"), std::nullopt);
  EXPECT_EQ(sc::parse_number<double>("nanx"), std::nullopt);
}
