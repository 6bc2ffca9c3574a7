// Per-session log-event construction with simulated time and concurrency.
//
// Components inside one container (task runner threads, fetcher threads,
// event dispatchers) log concurrently, which is exactly why data-analytics
// log sessions have interchangeable orders (§2.2). SessionBuilder models
// each thread as a forked builder with its own clock; finish() merges all
// streams by timestamp, reproducing the interleaving a real log file shows.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "logparse/session.hpp"
#include "simsys/template_corpus.hpp"

namespace intellog::simsys {

class SessionBuilder {
 public:
  SessionBuilder(const TemplateCorpus& corpus, std::string container_id, std::string node,
                 std::uint64_t start_ms, common::Rng rng);

  /// Emits one instance of a named template. `values` must match the
  /// template's placeholder count. Advances the clock by a small random
  /// step afterwards.
  void emit(std::string_view tmpl_name, std::vector<std::string> values = {},
            bool injected = false);

  /// Advances the simulated clock by a uniform random step in [min,max] ms.
  void advance(std::uint64_t min_ms, std::uint64_t max_ms);

  std::uint64_t now() const { return now_ms_; }
  void set_now(std::uint64_t t) { now_ms_ = t; }
  const std::string& node() const { return node_; }
  const std::string& container_id() const { return container_id_; }
  common::Rng& rng() { return rng_; }

  /// Starts a concurrent thread stream at the current clock (+offset).
  SessionBuilder fork(std::uint64_t offset_ms = 0);

  /// Merges a finished thread stream into this builder.
  void absorb(SessionBuilder&& thread);

  /// Drops every record after `cutoff_ms` (SIGKILL / node loss semantics:
  /// the process stops logging instantly, no cleanup lines).
  void truncate_after(std::uint64_t cutoff_ms);

  /// Sorts all streams by timestamp and returns the session. When `truth`
  /// is non-null it receives each record's ground truth, parallel to the
  /// session's records (`(*truth)[r]` annotates `records[r]`).
  logparse::Session finish(std::vector<logparse::GroundTruth>* truth = nullptr);

  std::size_t record_count() const { return records_.size(); }

 private:
  /// A record and its ground truth travel together through absorb,
  /// truncate_after and finish's stable sort; finish splits them.
  struct Emitted {
    logparse::LogRecord record;
    logparse::GroundTruth truth;
  };

  const TemplateCorpus& corpus_;
  std::string container_id_;
  std::string node_;
  std::uint64_t now_ms_;
  common::Rng rng_;
  std::vector<Emitted> records_;
};

}  // namespace intellog::simsys
