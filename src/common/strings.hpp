// String utilities shared across IntelLog modules.
//
// Includes the two sequence algorithms the paper's pipeline is built on:
//  - longest common subsequence over token sequences (Spell, §2.1), and
//  - longest common *contiguous* phrase over word sequences
//    (entity grouping, Algorithm 1).
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace intellog::common {

/// Splits `s` on any character in `delims`, dropping empty pieces.
std::vector<std::string> split(std::string_view s, std::string_view delims = " \t");

/// Splits `s` on whitespace, keeping the original token text.
std::vector<std::string> split_ws(std::string_view s);

/// Zero-allocation whitespace split: clears `out` and fills it with views
/// into `s` (valid only while `s`'s storage lives). Reusing one `out`
/// across calls keeps the detection hot path allocation-free.
void split_ws_views(std::string_view s, std::vector<std::string_view>& out);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep = " ");

/// ASCII lower-case copy.
std::string to_lower(std::string_view s);

/// Removes leading/trailing whitespace.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// True if every character is an ASCII digit (and s is non-empty).
bool is_all_digits(std::string_view s);

/// True if `s` contains at least one ASCII letter.
bool has_letter(std::string_view s);

/// True if `s` contains at least one ASCII digit.
bool has_digit(std::string_view s);

/// True if `s` parses as a decimal number, e.g. "12", "3.5", "-7".
bool is_number(std::string_view s);

/// Parses all of `s` as a decimal T (an integer type or double). Returns
/// nullopt for empty input, trailing characters, a value out of T's range,
/// or a minus sign on an unsigned type, so callers can reject a bad flag
/// value instead of throwing from std::stoi and friends.
template <typename T>
std::optional<T> parse_number(std::string_view s) {
  static_assert(std::is_integral_v<T> || std::is_same_v<T, double>);
  T value{};
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (s.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// Replaces all occurrences of `from` in `s` with `to`.
std::string replace_all(std::string s, std::string_view from, std::string_view to);

/// Length of the longest common subsequence of two token sequences.
/// O(|a| * |b|) dynamic program; used by Spell's log-key matching.
std::size_t lcs_length(const std::vector<std::string>& a, const std::vector<std::string>& b);

/// LCS length over interned token ids — the detection-path variant: int
/// compares instead of string compares, thread-local DP rows instead of
/// per-call allocations. Safe to call concurrently. (Named distinctly from
/// lcs_length: a braced list of string literals is a valid iterator-pair
/// init for std::vector<int>, so an overload would be ambiguous.)
std::size_t lcs_length_ids(const std::vector<int>& a, const std::vector<int>& b);

/// One longest common subsequence (the DP backtrace) of two token sequences.
std::vector<std::string> lcs(const std::vector<std::string>& a, const std::vector<std::string>& b);

/// Longest common *contiguous* run of words between two word sequences.
/// Ties are broken toward the earliest position in `a`.
std::vector<std::string> longest_common_substring_words(const std::vector<std::string>& a,
                                                        const std::vector<std::string>& b);

/// Number of trailing words shared by `a` and `b`.
std::size_t common_suffix_words(const std::vector<std::string>& a,
                                const std::vector<std::string>& b);

/// Levenshtein edit distance between two strings (character level).
std::size_t edit_distance(std::string_view a, std::string_view b);

}  // namespace intellog::common
