// Subroutine construction (§4.1, Algorithm 2 + UpdateSubroutine, Fig. 5).
//
// Within an entity group, Intel-Key sequences that share identifiers form
// subroutine *instances* ("fetcher#1 shuffles attempt_01" = one instance).
// Algorithm 2 partitions a session's group messages into instances by
// identifier-value subset matching (messages without identifiers go to the
// NONE instance). UpdateSubroutine then groups instances by their
// identifier-*type* signature and mines, per signature:
//  - the BEFORE order relations between Intel Keys (an order observed
//    violated once becomes PARALLEL and never returns — Fig. 5),
//  - the critical Intel Keys: keys present in *every* instance so far.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/intel_key.hpp"

namespace intellog::core {

struct DetectScratch;

/// One message of an entity group, reduced to what Algorithm 2 needs.
/// It owns nothing: `ids` and the strings it views belong to the caller,
/// and must outlive every partition of the message. Detection keeps them
/// in the session (record content), the model (identifier types) and its
/// DetectScratch arena; training and explain keep them in an
/// IdentifierStore.
struct GroupMessage {
  int key_id = -1;
  std::span<const IdentifierView> ids;  ///< identifiers in the message
  std::size_t record_index = 0;         ///< index into the session's records
  std::uint64_t timestamp_ms = 0;
};

/// Keeps IntelMessage identifiers alive, at stable addresses, for the
/// GroupMessages that view them.
class IdentifierStore {
 public:
  /// Takes ownership of `ids` and returns views of them, valid for the
  /// store's lifetime.
  std::span<const IdentifierView> add(std::vector<IdentifierValue> ids);

 private:
  struct Entry {
    std::vector<IdentifierValue> values;
    std::vector<IdentifierView> views;
  };
  std::deque<Entry> entries_;  ///< a deque never relocates its elements
};

/// A subroutine instance: messages bound together by shared identifiers.
struct SubroutineInstance {
  /// "TYPE:value" strings (S_v), sorted and unique; empty = NONE. Filled
  /// only when partition_instances() is asked to materialize strings
  /// (training, explain); detection reads `value_ids` instead.
  std::vector<std::string> id_values;
  /// Identifier types, materialized like `id_values`.
  std::set<std::string> signature;
  std::vector<GroupMessage> messages;
  /// S_v interned: ids local to the partitioned bucket, sorted. Equal ids
  /// mean equal "TYPE:value" strings.
  std::vector<std::uint32_t> value_ids;
  /// The signature as sorted-unique views of its messages' identifier
  /// types (std::set<std::string> order), valid as long as those are.
  std::vector<std::string_view> types;

  std::set<int> key_set() const;
};

/// Algorithm 2, lines 5-15: partitions one session's group messages into
/// `scratch.instances` and returns how many leading pool elements form
/// the partition (instances in creation order, NONE last). Each message
/// moves into its instance. Messages are compared through bucket-local
/// interned "TYPE:value" ids, and posting lists find the earliest instance
/// that is a subset or superset of a message, so the cost is linear in
/// the identifier occurrences the bucket's instances share. With
/// `materialize_strings` each instance's `id_values` and `signature` are
/// filled too; the partition is the same either way.
std::size_t partition_instances(std::vector<GroupMessage>&& messages, DetectScratch& scratch,
                                bool materialize_strings = false);

/// A learned subroutine for one identifier-type signature.
struct Subroutine {
  std::set<std::string> signature;
  std::set<int> keys;                          ///< Intel Keys seen
  std::set<std::pair<int, int>> before;        ///< BEFORE order relations
  std::set<std::pair<int, int>> parallel;      ///< demoted orders
  std::set<int> critical;                      ///< keys in every instance
  std::size_t instance_count = 0;

  /// Keys in subroutine (Table 5's "length of subroutines").
  std::size_t length() const { return keys.size(); }
};

/// The per-entity-group subroutine model (UpdateSubroutine state).
class SubroutineModel {
 public:
  /// Training: consume one session's instances (`signature` must be
  /// materialized).
  void update(std::span<const SubroutineInstance> instances);
  void update(const std::vector<SubroutineInstance>& instances) {
    update(std::span<const SubroutineInstance>(instances));
  }

  /// Detection: issues found in one instance against the learned model.
  struct InstanceCheck {
    bool known_signature = true;
    /// The trained subroutine the instance matched (null when the
    /// signature is unknown). Points into subroutines(); stable for the
    /// model's lifetime — lets callers reuse the lookup check() already
    /// paid for (e.g. coverage stamping) instead of repeating it.
    const Subroutine* matched = nullptr;
    std::vector<int> missing_critical;  ///< critical keys absent
    std::vector<int> unknown_keys;      ///< keys never seen in this signature
    /// Learned BEFORE orders observed inverted (only reported for
    /// subroutines trained on enough instances to trust the order).
    std::vector<std::pair<int, int>> order_violations;
    bool ok() const {
      return known_signature && missing_critical.empty() && order_violations.empty();
    }
  };
  /// `min_instances_for_order`: BEFORE relations from subroutines with
  /// fewer training instances are not trusted for violation reports.
  InstanceCheck check(const SubroutineInstance& instance,
                      std::size_t min_instances_for_order = 20) const;

  /// check() against an already-resolved subroutine (`sub`: the trained
  /// subroutine of the instance's signature, null when unknown). The
  /// per-check working vectors live in `scratch`. The detection hot path
  /// resolves `sub` through its compiled plan instead of a set lookup.
  static InstanceCheck check_against(const Subroutine* sub, const SubroutineInstance& instance,
                                     DetectScratch& scratch,
                                     std::size_t min_instances_for_order = 20);

  const std::map<std::set<std::string>, Subroutine>& subroutines() const { return subs_; }
  bool empty() const { return subs_.empty(); }

  /// Replaces the learned subroutines (model deserialization).
  void restore(std::map<std::set<std::string>, Subroutine> subs) { subs_ = std::move(subs); }

 private:
  std::map<std::set<std::string>, Subroutine> subs_;
};

}  // namespace intellog::core
