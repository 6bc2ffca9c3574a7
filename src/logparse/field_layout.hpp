// Field layouts: which of a log key's '*' fields each message token fills.
//
// Instantiating a message against its log key (§3.3) aligns the key's
// constant tokens with the message's whitespace tokens by LCS and hands
// the unmatched runs, in order, to the key's star groups. A FieldLayout is
// the result of that alignment as indices, so the field texts of any
// message with the same layout are views of its own tokens.
//
// The key fact that lets Spell share one layout across records: a key's
// constants never contain a digit and are never "*", while Spell's shape
// of a message masks exactly its digit-bearing tokens to "*". So whether a
// constant equals a message token is decided by the shape alone, and the
// alignment — hence the layout — is a function of (key, shape). Spell
// compiles one layout per shape-cache entry on first use (spell.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.hpp"

namespace intellog::logparse {

/// Working vectors for FieldLayout::assign, reused call to call.
struct AlignScratch {
  std::vector<std::string_view> consts;   ///< the key's constant tokens
  std::vector<std::string_view> lcs_seq;  ///< LCS backtrace output
  std::vector<std::size_t> dp;            ///< flat (n+1)x(m+1) LCS table
  std::vector<unsigned char> matched;     ///< per message token: LCS-matched?
  std::vector<std::pair<std::size_t, std::size_t>> star_groups;  ///< {first_field, stars}
};

struct FieldLayout {
  /// token_field value of a token matched to one of the key's constants.
  static constexpr int kConstant = -1;

  /// The tokens one '*' field takes: `count` of them between `first` and
  /// `last` inclusive (count 0: the field is empty).
  struct Field {
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    std::uint32_t count = 0;
  };

  std::vector<int> token_field;  ///< per message token: field index or kConstant
  std::vector<Field> fields;     ///< per '*' of the key, in key order

  /// Aligns `tokens` with `key_tokens`. The key's constants are LCS-matched
  /// against the tokens (ties broken as common::lcs does, the matched
  /// positions then re-found left to right); unmatched runs map onto the
  /// key's star groups in order, runs past the last group join its last
  /// field, and within a group of k stars the first k-1 fields take one
  /// token each and the last field takes the rest of the run.
  void assign(std::span<const std::string> key_tokens,
              std::span<const std::string_view> tokens, AlignScratch& scratch);

  /// Field `f`'s text: its tokens joined by single spaces. When they sit
  /// next to each other in the message separated by exactly one space,
  /// this is a view of the message bytes `tokens` point into; otherwise the
  /// join is built in `arena`. `tokens` must be the whitespace tokens of a
  /// message this layout was assigned for (or shares its shape with).
  std::string_view text(std::size_t f, std::span<const std::string_view> tokens,
                        common::Arena& arena) const;
};

}  // namespace intellog::logparse
