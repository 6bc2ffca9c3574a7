// Spell — streaming structured log-key extraction (Du & Li, ICDM'17), the
// first stage of the paper's pipeline (§2.1, §5).
//
// Each log printing statement is recovered as a *log key*: the constant
// words kept verbatim, variable fields collapsed to '*'. Spell matches an
// incoming message to an existing key via longest-common-subsequence: the
// message matches when |LCS| * t >= max(|message constants|, |key
// constants|) with the paper's threshold t = 1.7 (§5). On a match the key
// is refined to the LCS, with '*' marking positions where the sequences
// diverge; on a miss the message founds a new key.
//
// Optimizations standing in for the original's prefix tree:
//  - a shape cache (digit-bearing tokens masked to '*') short-circuits the
//    LCS search for the common case of repeated templates,
//  - an inverted token index prunes LCS candidates to keys sharing at least
//    one constant token with the message,
//  - every token is interned to a dense int id (common::TokenInterner), so
//    candidate pruning and LCS run over int ids with zero per-record string
//    allocation; each key's constant-id sequence is cached and invalidated
//    only on refinement, and
//  - match() memoizes its verdict (including misses) per shape in a
//    bounded cache, so repeated detection traffic — even for shapes never
//    seen in training — resolves in one hash lookup, and
//  - each shape-cache entry carries the FieldLayout of its (key, shape)
//    pair (field_layout.hpp), compiled on the entry's first match() and
//    returned with the verdict, so identifier extraction reads fields off
//    the record's tokens instead of aligning the key again. Layouts are
//    flushed by the rule that flushes the memo: a refine or a new key.
//
// Thread-safety: consume() and restore_keys() mutate and must be
// serialized with every other call. match() is const and safe to call
// from many threads concurrently: the memo cache takes a lock, a layout is
// published once per entry by compare-and-swap, and everything else is
// read-only + thread_local scratch.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/interner.hpp"
#include "logparse/field_layout.hpp"
#include "obs/profile/profiled_mutex.hpp"

namespace intellog::logparse {

/// One discovered log key.
struct LogKey {
  int id = -1;
  std::vector<std::string> tokens;  ///< constant words and "*" placeholders
  std::size_t match_count = 0;      ///< messages matched so far

  /// The key as a display string, e.g. "* MapTask metrics system".
  std::string to_string() const;
  /// Constant (non-'*') tokens only.
  std::vector<std::string> constants() const;
};

class Spell {
 public:
  /// t is the paper's empirical matching threshold (1.7, §5).
  explicit Spell(double t = 1.7);

  // Moves leave the source with a fresh (empty-cache) mutex so it stays
  // safely destructible and usable.
  Spell(Spell&& other) noexcept;
  Spell& operator=(Spell&& other) noexcept;
  Spell(const Spell&) = delete;
  Spell& operator=(const Spell&) = delete;

  /// Consumes a message in training mode: matches or creates a key.
  /// Returns the key id.
  int consume(std::string_view message);

  /// A match() verdict and the field layout that goes with it.
  struct Match {
    int key = -1;  ///< matched key id, -1: none
    /// Layout of the message's shape under `key`; owned by the Spell and
    /// valid until its next consume() or restore_keys(). Null when the
    /// shape missed the shape cache (memo or LCS verdicts) or when the
    /// key's constants break the key fact (a restored constant with a
    /// digit): extract by aligning the key instead.
    const FieldLayout* layout = nullptr;
  };

  /// Detection-mode matching: returns the best matching key id or -1.
  /// Never creates or refines keys. Thread-safe.
  int match(std::string_view message) const;

  /// match() that also hands back the message's whitespace tokens (in
  /// `tokens`, which views `message`) and the shape's field layout, so
  /// extraction needs neither another split nor an alignment.
  Match match(std::string_view message, std::vector<std::string_view>& tokens) const;

  /// Replaces the key set (model deserialization). The shape cache starts
  /// seeded with each key's own shape; match() memoizes everything else.
  void restore_keys(std::vector<LogKey> keys);

  const std::vector<LogKey>& keys() const { return keys_; }
  const LogKey& key(int id) const { return keys_[static_cast<std::size_t>(id)]; }
  std::size_t size() const { return keys_.size(); }
  double threshold() const { return t_; }

  /// Cached constant-token ids of a key (same order as constants()).
  const std::vector<int>& key_constant_ids(int id) const {
    return key_const_ids_[static_cast<std::size_t>(id)];
  }

  /// Entries currently held by the bounded match()-verdict memo.
  std::size_t match_cache_size() const;
  /// Shape-cache entries whose field layout has been compiled.
  std::size_t layout_count() const;
  /// Memo capacity; at capacity the cache is reset before inserting
  /// (simple epoch eviction — repeated traffic refills it immediately).
  static constexpr std::size_t kMatchCacheCapacity = 1 << 16;

 private:
  /// A shape-cache entry: the key the shape matches and, once a match()
  /// has needed it, the shape's field layout (owned by the entry).
  /// Memory ordering: a layout is fully built before the release half of
  /// the compare-and-swap that publishes it, and readers load it with
  /// acquire, so a reader that sees the pointer sees the whole layout.
  /// Only consume()/restore_keys(), which run with no concurrent match(),
  /// reset or free it.
  struct ShapeEntry {
    explicit ShapeEntry(int k) : key(k) {}
    ~ShapeEntry() { delete layout.load(std::memory_order_relaxed); }
    ShapeEntry(const ShapeEntry&) = delete;
    ShapeEntry& operator=(const ShapeEntry&) = delete;

    int key;
    mutable std::atomic<const FieldLayout*> layout{nullptr};
  };

  static void shape_of(const std::vector<std::string_view>& tokens, std::string& out);
  /// The entry's layout, compiled from `tokens` (any message of the
  /// entry's shape) if no match() has published one yet.
  const FieldLayout* layout_of(const ShapeEntry& entry,
                               const std::vector<std::string_view>& tokens) const;
  /// Frees every compiled layout (after a refine or a new key).
  void flush_layouts();
  int best_match(const std::vector<int>& token_ids, std::size_t num_tokens, bool& exact) const;
  void refine_key(LogKey& key, const std::vector<std::string>& tokens);
  /// (Re)builds a key's cached constant ids and inverted-index entries.
  void cache_key_constants(const LogKey& key);
  /// Key ids sharing >= 1 constant token with `token_ids`, deduplicated
  /// into thread-local scratch (the returned reference is valid until the
  /// calling thread's next candidates() call).
  const std::vector<int>& candidates(const std::vector<int>& token_ids) const;

  double t_;
  std::vector<LogKey> keys_;
  common::TokenInterner interner_;
  /// Per-key cached constants() as interned ids; rebuilt on refine_key.
  std::vector<std::vector<int>> key_const_ids_;
  /// Constant token id -> key ids containing it (superset after refines).
  std::vector<std::vector<int>> token_index_;
  /// Per key: no constant contains a digit (the key fact layouts rely on;
  /// only a restored key can break it).
  std::vector<unsigned char> key_layoutable_;
  std::unordered_map<std::string, ShapeEntry, common::StringHash, std::equal_to<>> shape_cache_;
  /// Set once any layout is published, so flushing is free until then.
  mutable std::atomic<bool> layouts_built_{false};

  /// Bounded shape -> match() verdict memo (satellite: repeated detect
  /// traffic with unseen shapes). Mutated under match_mu_ from const match().
  /// Profiled: the memo lock is the one lock on the per-record detect path,
  /// so the Performance Observatory reports its contention by name.
  mutable std::unordered_map<std::string, int, common::StringHash, std::equal_to<>>
      match_cache_;
  mutable std::unique_ptr<obs::ProfiledMutex> match_mu_ =
      std::make_unique<obs::ProfiledMutex>("spell.match_memo");
};

}  // namespace intellog::logparse
