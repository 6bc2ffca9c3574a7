#include "logparse/field_layout.hpp"

#include <algorithm>
#include <cstring>

namespace intellog::logparse {

void FieldLayout::assign(std::span<const std::string> key_tokens,
                         std::span<const std::string_view> tokens, AlignScratch& s) {
  // Star groups: runs of consecutive '*' in the key, each star one field.
  s.consts.clear();
  s.star_groups.clear();
  std::size_t star_count = 0;
  for (std::size_t i = 0; i < key_tokens.size(); ++i) {
    if (key_tokens[i] == "*") {
      if (i > 0 && key_tokens[i - 1] == "*") {
        s.star_groups.back().second++;
      } else {
        s.star_groups.push_back({star_count, 1});
      }
      ++star_count;
    } else {
      s.consts.push_back(key_tokens[i]);
    }
  }

  // LCS of constants and message, flat DP table. The recurrence and the
  // backtrace prefer --i on ties, as common::lcs does.
  const std::size_t n = s.consts.size(), m = tokens.size();
  s.dp.assign((n + 1) * (m + 1), 0);
  const auto dp = [&](std::size_t i, std::size_t j) -> std::size_t& {
    return s.dp[i * (m + 1) + j];
  };
  for (std::size_t i = 1; i <= n; ++i)
    for (std::size_t j = 1; j <= m; ++j)
      dp(i, j) = (s.consts[i - 1] == tokens[j - 1]) ? dp(i - 1, j - 1) + 1
                                                     : std::max(dp(i - 1, j), dp(i, j - 1));
  s.lcs_seq.clear();
  {
    std::size_t i = n, j = m;
    while (i > 0 && j > 0) {
      if (s.consts[i - 1] == tokens[j - 1]) {
        s.lcs_seq.push_back(tokens[j - 1]);
        --i;
        --j;
      } else if (dp(i - 1, j) >= dp(i, j - 1)) {
        --i;
      } else {
        --j;
      }
    }
    std::reverse(s.lcs_seq.begin(), s.lcs_seq.end());
  }
  s.matched.assign(m, 0);
  std::size_t mi = 0;
  for (const std::string_view w : s.lcs_seq) {
    while (mi < m && tokens[mi] != w) ++mi;
    if (mi < m) s.matched[mi++] = 1;
  }

  token_field.assign(m, kConstant);
  fields.assign(star_count, Field{});
  if (star_count == 0) return;
  std::size_t group = 0, offset_in_group = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (s.matched[i]) {
      if (i > 0 && !s.matched[i - 1] && group < s.star_groups.size()) {
        ++group;  // a closed run advances to the next star group
        offset_in_group = 0;
      }
      continue;
    }
    const auto& g = s.star_groups[std::min(group, s.star_groups.size() - 1)];
    const std::size_t f = g.first + std::min(offset_in_group, g.second - 1);
    if (offset_in_group + 1 < g.second) ++offset_in_group;
    token_field[i] = static_cast<int>(f);
    Field& field = fields[f];
    if (field.count++ == 0) field.first = static_cast<std::uint32_t>(i);
    field.last = static_cast<std::uint32_t>(i);
  }
}

std::string_view FieldLayout::text(std::size_t f, std::span<const std::string_view> tokens,
                                   common::Arena& arena) const {
  const Field& field = fields[f];
  if (field.count == 0) return {};
  const std::string_view first = tokens[field.first];
  if (field.count == 1) return first;
  // Adjacent tokens, each followed by exactly one ' ': the message already
  // holds the joined bytes.
  bool single_spaced = field.last - field.first + 1 == field.count;
  for (std::uint32_t t = field.first; single_spaced && t < field.last; ++t) {
    const char* end = tokens[t].data() + tokens[t].size();
    single_spaced = *end == ' ' && end + 1 == tokens[t + 1].data();
  }
  if (single_spaced) {
    const std::string_view last = tokens[field.last];
    return {first.data(), static_cast<std::size_t>(last.data() + last.size() - first.data())};
  }
  std::size_t len = field.count - 1;
  for (std::uint32_t t = field.first; t <= field.last; ++t) {
    if (token_field[t] == static_cast<int>(f)) len += tokens[t].size();
  }
  char* const base = static_cast<char*>(arena.allocate(len, 1));
  char* p = base;
  for (std::uint32_t t = field.first; t <= field.last; ++t) {
    if (token_field[t] != static_cast<int>(f)) continue;
    if (p != base) *p++ = ' ';
    std::memcpy(p, tokens[t].data(), tokens[t].size());
    p += tokens[t].size();
  }
  return {base, len};
}

}  // namespace intellog::logparse
