// Model coverage ledger (Quality Observatory).
//
// A trained model is a set of components — Spell log keys, mined
// subroutines, HW-graph relations — and production traffic exercises only
// some of them. The ledger counts, per component, how many times detection
// actually touched it: a log key hit by Spell matching, a subroutine whose
// signature matched an instance, a relation whose both endpoint groups
// appeared in one session. Components with zero hits after a
// representative workload are dead weight (trained on behaviour the
// workload no longer shows — the first symptom of model drift); components
// hit far less than their peers are stale.
//
// Stamping happens inside AnomalyDetector::detect behind a toggle
// (IntelLog::set_coverage_enabled, mirroring the evidence flag): counters
// are relaxed atomics, so concurrent detect_batch shards stamp safely and
// the totals are identical at any --jobs width (increments commute).
// Verdicts are never affected.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "core/hw_graph.hpp"
#include "logparse/spell.hpp"

namespace intellog::obs {
class MetricsRegistry;
}

namespace intellog::core {

class CoverageLedger {
 public:
  /// Builds the component universe from a trained model's parts. The
  /// universe is fixed at construction; stamping unknown components is a
  /// silent no-op (e.g. a signature the model never learned).
  CoverageLedger(const logparse::Spell& spell, const HwGraph& graph);

  CoverageLedger(const CoverageLedger&) = delete;
  CoverageLedger& operator=(const CoverageLedger&) = delete;

  // --- stamping (hot path, thread-safe) ----------------------------------
  void stamp_log_key(int key_id);
  void stamp_subroutine(const std::string& group, const std::set<std::string>& signature);
  /// Stamps by the trained subroutine's address (as exposed in
  /// InstanceCheck::matched) — one pointer-hash lookup, reusing the
  /// signature search the detector's model check already performed.
  void stamp_subroutine(const Subroutine* sub);
  void stamp_edge(const std::string& a, const std::string& b);
  /// Stamps every relation whose both endpoint groups appear in
  /// `groups_seen` (distinct names). Walks the precomputed adjacency of
  /// the seen groups — integer slots only, no string building — so the
  /// per-session cost scales with the session's groups, not the model's
  /// edge count.
  void stamp_edges(std::span<const std::string_view> groups_seen);

  /// Zeroes every counter (the universe is unchanged).
  void reset();

  // --- reporting ----------------------------------------------------------
  std::size_t total_components() const;
  std::size_t hit_components() const;
  /// hit / total; 1.0 for an empty universe (nothing to cover).
  double coverage_ratio() const;

  /// {"kind": "intellog_coverage", "classes": {log_keys|subroutines|edges:
  ///  {total, hit, dead: [...], stale: [...], components: [{name, hits}]}},
  ///  ...}. Deterministic: components are listed in model order. "dead" is
  ///  zero hits; "stale" is nonzero but under 5% of the class's busiest
  ///  component.
  common::Json to_json() const;

  /// Exports intellog_model_coverage_ratio (permille — gauges are integer)
  /// plus per-class hit/total gauges labelled {class="..."}.
  void record_metrics(obs::MetricsRegistry& reg) const;

 private:
  /// One component class: display names in model order, hit counters
  /// parallel to them, and a stamp-key -> slot index.
  struct ComponentClass {
    std::vector<std::string> names;
    std::vector<std::atomic<std::uint64_t>> hits;
    std::unordered_map<std::string, std::size_t> index;

    explicit ComponentClass(std::vector<std::string> component_names);
    common::Json to_json() const;
    std::size_t hit_count() const;
  };

  void stamp(ComponentClass& cls, const std::string& key);

  ComponentClass log_keys_;
  ComponentClass subroutines_;
  ComponentClass edges_;
  /// key id -> slot (-1: unknown); Spell ids are dense, so a flat array
  /// makes the per-record stamp one bounds check + one relaxed increment.
  std::vector<std::int32_t> log_key_slots_;
  /// Transparent hash: stamp_edges() looks names up by view.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };
  std::unordered_map<std::string, std::size_t, NameHash, std::equal_to<>> group_ids_;
  /// per group id: signature -> subroutine slot (same key shape as the
  /// SubroutineModel's own map, so no string building on the hot path).
  std::vector<std::map<std::set<std::string>, std::size_t>> subroutine_slots_;
  /// trained-subroutine address -> slot; map node addresses are stable for
  /// the graph's lifetime, which bounds the ledger's.
  std::unordered_map<const Subroutine*, std::size_t> subroutine_ptr_slots_;
  /// per group id: (neighbour group id, edge slot) for edges where this
  /// group is the first endpoint.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> edge_adjacency_;
};

/// Stable stamp key for a subroutine: "<group>[sig1,sig2,...]".
std::string subroutine_component_key(const std::string& group,
                                     const std::set<std::string>& signature);
/// Stable stamp key for a relation edge: "<a>|<b>" (as stored in the
/// graph's relation map, no canonicalization).
std::string edge_component_key(const std::string& a, const std::string& b);

}  // namespace intellog::core
