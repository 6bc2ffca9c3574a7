// Anomaly detection (§4.2).
//
// For each incoming session IntelLog instantiates a HW-graph instance and
// checks it against the trained HW-graph. Two anomaly classes are reported:
//  1. unexpected log messages — no Intel Key matches; the §3 extraction
//     runs on the raw message so the report carries structured fields
//     (this is what powers the case-study GroupBy diagnosis), and
//  2. erroneous HW-graph instances — an expected entity group never
//     appeared, a subroutine instance misses critical Intel Keys, or an
//     instance has an identifier-type signature never seen in training.
#pragma once

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/entity_grouping.hpp"
#include "core/extraction.hpp"
#include "core/hw_graph.hpp"
#include "core/intel_key.hpp"
#include "logparse/kv_filter.hpp"
#include "logparse/session.hpp"
#include "logparse/spell.hpp"

namespace intellog::core {

class CoverageLedger;
struct DetectScratch;

/// One raw log line backing a finding, with ingest provenance: the file,
/// 1-based line number and byte offset threaded through LogRecord by the
/// (resilient) ingest path. line_no/byte_offset are 0 when the session
/// never touched disk (in-memory simulator streams); `file` falls back to
/// the container id so the line is still addressable.
struct EvidenceLine {
  std::size_t record_index = 0;  ///< index into the session's records
  std::uint64_t timestamp_ms = 0;
  int key_id = -1;               ///< Intel Key the line matched (-1: none)
  std::string content;
  std::string file;
  std::size_t line_no = 0;
  std::uint64_t byte_offset = 0;

  common::Json to_json() const;
};

/// Structured explanation attached to each finding: what the trained model
/// expected, what the session actually did, where they diverge, and the
/// raw log lines (with provenance) that prove it. Rendered by `intellog
/// explain` as an expected-vs-observed diff.
struct Evidence {
  std::vector<int> expected_keys;   ///< trained subroutine key sequence
  std::vector<int> observed_keys;   ///< keys seen in the instance, in order
  std::vector<int> matched_keys;    ///< expected keys that did appear
  std::vector<int> missing_keys;    ///< expected keys that never appeared
  std::string deviation;            ///< human-readable deviation point
  std::vector<EvidenceLine> lines;  ///< raw-line provenance (capped)

  bool empty() const {
    return expected_keys.empty() && observed_keys.empty() && deviation.empty() && lines.empty();
  }
  common::Json to_json() const;
};

struct UnexpectedMessage {
  std::size_t record_index = 0;
  std::string content;
  IntelKey extracted;    ///< on-the-fly §3 extraction result
  IntelMessage message;  ///< structured fields for queries
  Evidence evidence;     ///< raw-line provenance for the finding
};

struct GroupIssue {
  enum class Kind { MissingGroup, IncompleteSubroutine, UnknownSignature, OrderViolation };
  Kind kind = Kind::MissingGroup;
  std::string group;
  std::set<std::string> signature;   ///< subroutine signature (if relevant)
  std::vector<int> missing_keys;     ///< critical keys never seen
  std::vector<std::pair<int, int>> violated_orders;  ///< BEFORE pairs inverted
  Evidence evidence;                 ///< expected-vs-observed + raw lines
};

std::string_view to_string(GroupIssue::Kind kind);

struct AnomalyReport {
  std::string container_id;
  std::size_t session_length = 0;
  std::vector<UnexpectedMessage> unexpected;
  std::vector<GroupIssue> issues;
  /// Set when the session was force-closed before its natural end (memory
  /// cap eviction or watchdog timeout): the structural checks ran over a
  /// possibly-incomplete record buffer, so missing-group/subroutine issues
  /// are best-effort. Why it was degraded ("lru" / "watchdog").
  std::string degraded_reason;

  bool anomalous() const { return !unexpected.empty() || !issues.empty(); }
  bool degraded() const { return !degraded_reason.empty(); }
  common::Json to_json() const;
};

/// Detects anomalies in sessions against one trained model. The
/// constructor compiles a detect plan over the model: entity groups are
/// numbered in name order, each Intel Key maps to its sorted target group
/// indices, and each group index to its trained node and signature table.
/// The plan points into the model's containers, so the detector must be
/// rebuilt whenever the model moves or is reloaded (IntelLog does).
class AnomalyDetector {
 public:
  AnomalyDetector(const logparse::Spell& spell, const logparse::KvFilter& kv,
                  const InfoExtractor& extractor, const std::map<int, IntelKey>& intel_keys,
                  const EntityGroups& groups, const HwGraph& graph,
                  double expected_group_fraction);

  /// Delegates to the scratch overload via a thread-local DetectScratch.
  /// A session whose `spell_keys` has one entry per record is not matched
  /// again: those keys are taken as this model's Spell matches, with the
  /// field layouts in `spell_layouts` when it is just as complete. Any
  /// other session is matched record by record.
  AnomalyReport detect(const logparse::Session& session) const;

  /// Scratch-threaded detect for batch shards: the caller owns the scratch
  /// and reuses it across sessions (its arena is rewound here on entry, so
  /// a shard's pages are acquired once and recycled). Verdicts are
  /// byte-identical to the thread-local overload. Not safe to share one
  /// scratch between concurrent calls.
  AnomalyReport detect(const logparse::Session& session, DetectScratch& scratch) const;

  /// Evidence construction can be switched off (overhead measurement /
  /// minimal reports); the verdicts themselves are unchanged either way.
  /// Thread-safe with concurrent detect() calls.
  void set_evidence_enabled(bool enabled) {
    evidence_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool evidence_enabled() const { return evidence_enabled_.load(std::memory_order_relaxed); }

  /// Attaches a coverage ledger (Quality Observatory): detect() then
  /// stamps every model component the session exercises — log keys it
  /// matches, subroutines whose signature is checked, relations whose
  /// endpoint groups both appear. nullptr detaches. Verdicts are unchanged
  /// either way; thread-safe with concurrent detect() calls, but attach
  /// before launching them (release/acquire pairing, not a full fence).
  void set_coverage(CoverageLedger* ledger) {
    coverage_.store(ledger, std::memory_order_release);
  }
  CoverageLedger* coverage() const { return coverage_.load(std::memory_order_acquire); }

 private:
  /// A trained signature, sorted like std::set<std::string>, and its
  /// subroutine.
  struct SignatureEntry {
    std::vector<std::string_view> types;
    const Subroutine* subroutine = nullptr;
  };
  struct GroupPlan {
    std::string_view name;
    const GroupNode* node = nullptr;         ///< null: not in the HW-graph
    std::vector<SignatureEntry> signatures;  ///< sorted by types
  };
  struct KeyPlan {
    const IntelKey* intel_key = nullptr;  ///< null: the key is not routed
    std::vector<std::uint32_t> groups;    ///< target group indices, ascending
    std::vector<InfoExtractor::IdentifierSlot> id_slots;  ///< views *intel_key
  };

  /// The trained subroutine of `group` whose signature is `types`, or null.
  static const Subroutine* find_subroutine(const GroupPlan& group,
                                           const std::vector<std::string_view>& types);

  const logparse::Spell& spell_;
  const InfoExtractor& extractor_;
  std::vector<std::string> expected_groups_;
  std::vector<GroupPlan> group_plan_;           ///< by group index (name order)
  std::vector<KeyPlan> key_plan_;               ///< by key id
  std::vector<std::uint32_t> expected_index_;   ///< parallel to expected_groups_
  std::atomic<bool> evidence_enabled_{true};
  std::atomic<CoverageLedger*> coverage_{nullptr};
};

}  // namespace intellog::core
