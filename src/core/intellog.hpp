// IntelLog facade (Fig. 2): the full pipeline behind one class.
//
//   log files -> [Spell: log keys] -> [NLP extraction: Intel Keys]
//             -> [entity grouping + subroutines + lifespans: HW-graph]
//             -> [anomaly detection on incoming sessions]
//
// Typical use:
//   IntelLog il;
//   il.train(training_sessions);          // tuned, fault-free runs
//   auto report = il.detect(new_session); // report.anomalous() etc.
//   auto json = il.hw_graph_json();       // queryable workflow export
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/anomaly.hpp"
#include "core/coverage.hpp"
#include "core/entity_grouping.hpp"
#include "core/extraction.hpp"
#include "core/hw_graph.hpp"
#include "core/intel_key.hpp"
#include "core/message_store.hpp"
#include "logparse/kv_filter.hpp"
#include "logparse/session.hpp"
#include "logparse/spell.hpp"

namespace intellog::obs {
class MetricsRegistry;
}

namespace intellog::core {

class IntelLog {
 public:
  struct Config {
    double spell_threshold = 1.7;          ///< §5 empirical Spell threshold
    /// A group is "expected" (its absence is an erroneous HW-graph
    /// instance) only when EVERY training session contained it — sessions
    /// are heterogeneous (AM vs mapper vs reducer containers), so any
    /// lower bar misfires on whole session classes.
    double expected_group_fraction = 1.0;
    std::size_t num_threads = 0;           ///< 0 = hardware concurrency
  };

  IntelLog() : IntelLog(Config{}) {}
  explicit IntelLog(Config config);

  // The detector references this object's members, so moves rebuild it.
  IntelLog(IntelLog&& other) noexcept;
  IntelLog& operator=(IntelLog&& other) noexcept;
  IntelLog(const IntelLog&) = delete;
  IntelLog& operator=(const IntelLog&) = delete;

  /// Trains the model from fault-free sessions (log keys, Intel Keys,
  /// entity groups, subroutines, HW-graph). May be called once.
  void train(const std::vector<logparse::Session>& sessions);

  /// Detects anomalies in one session against the trained model.
  AnomalyReport detect(const logparse::Session& session) const;

  /// detect() with a caller-owned DetectScratch (arena + reusable working
  /// vectors). Reuse one scratch per thread across many sessions to keep
  /// the hot path allocation-free; verdicts are identical either way.
  AnomalyReport detect(const logparse::Session& session, DetectScratch& scratch) const;

  /// Batch detection: fans `sessions` across `jobs` worker threads, each
  /// claiming the next unclaimed session until none is left (so one long
  /// session does not hold up a fixed share of the batch). Reports are
  /// returned in input order and are identical to calling detect()
  /// serially on each session (the whole detect path is const +
  /// thread-safe). `jobs` == 0 uses
  /// config().num_threads (which itself defaults to hardware
  /// concurrency); `jobs` == 1 runs inline with no pool. Records
  /// `intellog_detect_batch_*` metrics when a registry is installed.
  std::vector<AnomalyReport> detect_batch(std::span<const logparse::Session> sessions,
                                          std::size_t jobs = 0) const;

  /// Toggles Evidence construction on anomaly findings (on by default).
  /// Verdicts are unchanged either way; thread-safe with concurrent
  /// detect() calls, hence usable on a const (shared) model. No-op before
  /// train().
  void set_evidence_enabled(bool enabled) const {
    if (detector_) detector_->set_evidence_enabled(enabled);
  }
  bool evidence_enabled() const { return detector_ && detector_->evidence_enabled(); }

  /// Toggles the model coverage ledger (Quality Observatory). When on,
  /// detect()/detect_batch() stamp per-component hit counters (log keys,
  /// subroutines, HW-graph edges); totals are deterministic at any batch
  /// width. Like the evidence flag, usable on a const (shared) model —
  /// but attach before launching concurrent detects. The ledger is built
  /// lazily from the trained model and keeps its counts across toggles;
  /// no-op before train().
  void set_coverage_enabled(bool enabled) const;
  bool coverage_enabled() const { return detector_ && detector_->coverage() != nullptr; }
  /// The ledger (nullptr until first enabled). Counts survive disabling.
  const CoverageLedger* coverage() const { return coverage_.get(); }

  /// Converts a session's records into Intel Messages (for MessageStore
  /// queries and exports).
  std::vector<IntelMessage> to_intel_messages(const logparse::Session& session) const;

  // --- model introspection -------------------------------------------------
  bool trained() const { return trained_; }
  const logparse::Spell& spell() const { return spell_; }
  const std::map<int, IntelKey>& intel_keys() const { return intel_keys_; }
  const EntityGroups& entity_groups() const { return groups_; }
  const HwGraph& hw_graph() const { return graph_; }
  const InfoExtractor& extractor() const { return extractor_; }
  InfoExtractor& extractor() { return extractor_; }
  const logparse::KvFilter& kv_filter() const { return kv_filter_; }
  common::Json hw_graph_json() const { return graph_.to_json(); }
  const Config& config() const { return config_; }

  /// First sample message recorded for a log key during training.
  const std::string& sample_message(int key_id) const;

  /// Records the model-size gauges (`intellog_model_*`) into `reg`.
  /// train() does this automatically on the installed global registry;
  /// call it explicitly after load_model() to re-export a loaded model.
  void record_model_metrics(obs::MetricsRegistry& reg) const;

 private:
  friend common::Json save_model(const IntelLog&);
  friend IntelLog load_model(const common::Json&);

  std::set<std::string> groups_of_key(int key_id) const;

  Config config_;
  InfoExtractor extractor_;
  logparse::Spell spell_;
  logparse::KvFilter kv_filter_;
  std::map<int, IntelKey> intel_keys_;
  std::map<int, std::string> samples_;
  EntityGroups groups_;
  HwGraph graph_;
  std::unique_ptr<AnomalyDetector> detector_;
  /// Owned by the model, attached to the detector while enabled; mutable
  /// for the same reason set_evidence_enabled is const — observability
  /// toggles on a shared, logically-const model.
  mutable std::unique_ptr<CoverageLedger> coverage_;
  bool trained_ = false;
};

}  // namespace intellog::core
