#include "core/intellog.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.hpp"
#include "core/detect_scratch.hpp"
#include "obs/metrics.hpp"
#include "obs/stages.hpp"

namespace intellog::core {

namespace {

/// Per-stage training latency histogram, or nullptr when metrics are off.
obs::Histogram* stage_hist(const char* stage) {
  obs::MetricsRegistry* reg = obs::registry();
  return reg ? &reg->histogram("intellog_train_stage_ms", {{"stage", stage}}) : nullptr;
}

/// Help text for every IntelLog metric family, so Prometheus exposition
/// carries # HELP alongside # TYPE. Safe to call repeatedly.
void describe_families(obs::MetricsRegistry& reg) {
  reg.describe("intellog_train_stage_ms", "Per-stage training latency in milliseconds");
  reg.describe("intellog_train_sessions_total", "Sessions consumed during training");
  reg.describe("intellog_train_records_total", "Log records consumed during training");
  reg.describe("intellog_model_log_keys", "Spell log keys in the trained model");
  reg.describe("intellog_model_intel_keys", "NLP Intel Keys in the trained model");
  reg.describe("intellog_model_entity_groups", "Entity groups in the trained model");
  reg.describe("intellog_model_graph_nodes", "HW-graph group nodes in the trained model");
  reg.describe("intellog_model_graph_edges", "HW-graph relations in the trained model");
  reg.describe("intellog_model_critical_groups",
               "Entity groups flagged critical in the trained model");
  reg.describe("intellog_model_subroutines", "Mined subroutines across all group nodes");
  reg.describe("intellog_detect_session_ms", "Per-session detection latency in milliseconds");
  reg.describe("intellog_detect_sessions_total", "Sessions run through detection");
  reg.describe("intellog_detect_records_total", "Log records run through detection");
  reg.describe("intellog_detect_unexpected_total", "Unexpected-message findings emitted");
  reg.describe("intellog_detect_issues_total", "Group-issue findings emitted");
  reg.describe("intellog_detect_anomalous_total", "Sessions judged anomalous");
  reg.describe("intellog_detect_batch_ms", "Batch detection wall time in milliseconds");
  reg.describe("intellog_detect_batch_shard_ms", "Per-shard batch detection latency");
  reg.describe("intellog_detect_batch_shard_sessions_total", "Sessions handled per shard");
  reg.describe("intellog_detect_batch_total", "Batch detection invocations");
  reg.describe("intellog_detect_batch_sessions_total", "Sessions across all batch runs");
  reg.describe("intellog_detect_batch_records_total", "Records across all batch runs");
  reg.describe("intellog_detect_batch_shards", "Shard count of the latest batch run");
}

}  // namespace

IntelLog::IntelLog(Config config)
    : config_(config),
      spell_(config.spell_threshold),
      kv_filter_(&extractor_.tagger().lexicon()) {}

IntelLog::IntelLog(IntelLog&& other) noexcept
    : config_(other.config_),
      extractor_(std::move(other.extractor_)),
      spell_(std::move(other.spell_)),
      kv_filter_(std::move(other.kv_filter_)),
      intel_keys_(std::move(other.intel_keys_)),
      samples_(std::move(other.samples_)),
      groups_(std::move(other.groups_)),
      graph_(std::move(other.graph_)),
      trained_(other.trained_) {
  const bool coverage_attached = other.coverage_enabled();
  coverage_ = std::move(other.coverage_);
  other.detector_.reset();
  other.trained_ = false;
  if (trained_) {
    detector_ = std::make_unique<AnomalyDetector>(spell_, kv_filter_, extractor_, intel_keys_,
                                                  groups_, graph_,
                                                  config_.expected_group_fraction);
    if (coverage_attached) detector_->set_coverage(coverage_.get());
  }
}

IntelLog& IntelLog::operator=(IntelLog&& other) noexcept {
  if (this == &other) return *this;
  const bool coverage_attached = other.coverage_enabled();
  detector_.reset();
  config_ = other.config_;
  extractor_ = std::move(other.extractor_);
  spell_ = std::move(other.spell_);
  kv_filter_ = std::move(other.kv_filter_);
  intel_keys_ = std::move(other.intel_keys_);
  samples_ = std::move(other.samples_);
  groups_ = std::move(other.groups_);
  graph_ = std::move(other.graph_);
  coverage_ = std::move(other.coverage_);
  trained_ = other.trained_;
  other.detector_.reset();
  other.trained_ = false;
  if (trained_) {
    detector_ = std::make_unique<AnomalyDetector>(spell_, kv_filter_, extractor_, intel_keys_,
                                                  groups_, graph_,
                                                  config_.expected_group_fraction);
    if (coverage_attached) detector_->set_coverage(coverage_.get());
  }
  return *this;
}

void IntelLog::set_coverage_enabled(bool enabled) const {
  if (!detector_) return;
  if (enabled) {
    if (!coverage_) coverage_ = std::make_unique<CoverageLedger>(spell_, graph_);
    detector_->set_coverage(coverage_.get());
  } else {
    detector_->set_coverage(nullptr);
  }
}

const std::string& IntelLog::sample_message(int key_id) const {
  static const std::string kEmpty;
  const auto it = samples_.find(key_id);
  return it == samples_.end() ? kEmpty : it->second;
}

std::set<std::string> IntelLog::groups_of_key(int key_id) const {
  std::set<std::string> out;
  const auto it = intel_keys_.find(key_id);
  if (it == intel_keys_.end()) return out;
  for (const auto& entity : it->second.entities) {
    const auto& gs = groups_.groups_of(entity);
    out.insert(gs.begin(), gs.end());
  }
  return out;
}

void IntelLog::train(const std::vector<logparse::Session>& sessions) {
  if (trained_) throw std::logic_error("IntelLog::train called twice");
  OBS_STAGE("train.pipeline");

  // --- Stage 1 (Fig. 2): Spell log-key extraction --------------------------
  std::vector<std::vector<int>> session_keys(sessions.size());
  {
    OBS_STAGE("train.spell");
    obs::ScopedTimerMs timer(stage_hist("spell"));
    for (std::size_t si = 0; si < sessions.size(); ++si) {
      session_keys[si].reserve(sessions[si].records.size());
      for (const auto& rec : sessions[si].records) {
        const int id = spell_.consume(rec.content);
        if (id >= 0) samples_.try_emplace(id, rec.content);
        session_keys[si].push_back(id);
      }
    }
  }

  // --- Stage 2: Intel Keys (NL keys only; key-value keys are learned and
  // skipped, §5). Extraction is independent per key -> parallel.
  common::ThreadPool pool(config_.num_threads);
  {
    OBS_STAGE("train.extract");
    obs::ScopedTimerMs timer(stage_hist("extract"));
    // Snapshot a const view of the sample map before the parallel region:
    // std::map::operator[] can insert, and concurrent inserts from pool
    // workers would race. Every key id returned by consume() has a sample
    // (stage 1 try_emplaces one per id), so .at() lookups cannot throw.
    const std::map<int, std::string>& samples = samples_;
    std::vector<int> nl_keys;
    for (const auto& key : spell_.keys()) {
      const std::string& sample = samples.at(key.id);
      // §5: only pure key-value status lines are omitted; clause-less prose
      // still gets an Intel Key.
      if (kv_filter_.is_kv_only(sample)) {
        kv_filter_.learn_kv_key(key.id);
      } else {
        nl_keys.push_back(key.id);
      }
    }
    std::vector<IntelKey> extracted(nl_keys.size());
    pool.parallel_for(nl_keys.size(), [&](std::size_t i) {
      const int id = nl_keys[i];
      extracted[i] = extractor_.extract(spell_.key(id), samples.at(id));
    });
    for (auto& ik : extracted) intel_keys_.emplace(ik.key_id, std::move(ik));
  }

  // --- Stage 3: entity grouping (Algorithm 1) ------------------------------
  {
    OBS_STAGE("train.group_entities");
    obs::ScopedTimerMs timer(stage_hist("group"));
    std::vector<std::string> all_entities;
    for (const auto& [id, ik] : intel_keys_) {
      (void)id;
      all_entities.insert(all_entities.end(), ik.entities.begin(), ik.entities.end());
    }
    groups_ = group_entities(all_entities);
  }
  std::map<int, std::set<std::string>> key_groups;
  for (const auto& [id, ik] : intel_keys_) {
    (void)ik;
    key_groups[id] = groups_of_key(id);
  }

  // --- Stage 3b: per-session group sequences, lifespans, subroutines ------
  struct SessionView {
    SessionLifespans spans;
    IdentifierStore ids;  ///< what group_messages' identifiers view
    std::map<std::string, std::vector<GroupMessage>> group_messages;
  };
  std::vector<SessionView> views(sessions.size());
  {
    OBS_STAGE("train.subroutines");
    obs::ScopedTimerMs timer(stage_hist("subroutines"));
    pool.parallel_for(sessions.size(), [&](std::size_t si) {
      OBS_STAGE("train.session_view");
      SessionView& view = views[si];
      const auto& session = sessions[si];
      for (std::size_t ri = 0; ri < session.records.size(); ++ri) {
        const int id = session_keys[si][ri];
        if (id < 0 || kv_filter_.is_learned_kv_key(id)) continue;
        const auto kg = key_groups.find(id);
        if (kg == key_groups.end() || kg->second.empty()) continue;
        IntelMessage msg =
            extractor_.instantiate(intel_keys_.at(id), spell_.key(id), session.records[ri]);
        GroupMessage gm;
        gm.key_id = id;
        gm.ids = view.ids.add(std::move(msg.identifiers));
        gm.record_index = ri;
        gm.timestamp_ms = session.records[ri].timestamp_ms;
        for (const auto& g : kg->second) {
          view.group_messages[g].push_back(gm);
          auto [it, fresh] = view.spans.emplace(g, Lifespan{gm.timestamp_ms, gm.timestamp_ms, 1});
          if (!fresh) {
            it->second.first_ms = std::min(it->second.first_ms, gm.timestamp_ms);
            it->second.last_ms = std::max(it->second.last_ms, gm.timestamp_ms);
            it->second.message_count++;
          }
        }
      }
    });
  }

  {
    OBS_STAGE("train.hwgraph");
    obs::ScopedTimerMs timer(stage_hist("hwgraph"));
    HwGraphBuilder builder;
    DetectScratch scratch;
    for (SessionView& view : views) {
      builder.add_session(view.spans);
      for (auto& [gname, messages] : view.group_messages) {
        GroupNode& node = graph_.group(gname);
        std::map<int, int> key_counts;
        for (const auto& m : messages) {
          node.keys.insert(m.key_id);
          if (++key_counts[m.key_id] >= 2) node.repeated_key_in_session = true;
        }
        const std::size_t n = partition_instances(std::move(messages), scratch, true);
        node.subroutines.update({scratch.instances.data(), n});
      }
    }
    builder.finalize(graph_);
  }
  // Every session's views die here, but glibc keeps the pages it freed in
  // the pool workers' malloc arenas resident: a process that trains and
  // keeps running (serve set-up, tests, benchmarks) would go on carrying
  // the whole training working set. Hand the free pages back.
  std::vector<SessionView>().swap(views);
#if defined(__GLIBC__)
  malloc_trim(0);
#endif

  detector_ = std::make_unique<AnomalyDetector>(spell_, kv_filter_, extractor_, intel_keys_,
                                                groups_, graph_,
                                                config_.expected_group_fraction);
  trained_ = true;

  if (obs::MetricsRegistry* reg = obs::registry()) {
    std::size_t records = 0;
    for (const auto& s : sessions) records += s.records.size();
    reg->counter("intellog_train_sessions_total").add(sessions.size());
    reg->counter("intellog_train_records_total").add(records);
    record_model_metrics(*reg);
  }
}

void IntelLog::record_model_metrics(obs::MetricsRegistry& reg) const {
  describe_families(reg);
  std::size_t subroutines = 0;
  for (const auto& [name, node] : graph_.groups()) {
    (void)name;
    subroutines += node.subroutines.subroutines().size();
  }
  reg.gauge("intellog_model_log_keys").set(static_cast<std::int64_t>(spell_.size()));
  reg.gauge("intellog_model_intel_keys").set(static_cast<std::int64_t>(intel_keys_.size()));
  reg.gauge("intellog_model_entity_groups").set(static_cast<std::int64_t>(groups_.groups.size()));
  reg.gauge("intellog_model_graph_nodes").set(static_cast<std::int64_t>(graph_.groups().size()));
  reg.gauge("intellog_model_graph_edges")
      .set(static_cast<std::int64_t>(graph_.relations().size()));
  reg.gauge("intellog_model_critical_groups")
      .set(static_cast<std::int64_t>(graph_.critical_group_count()));
  reg.gauge("intellog_model_subroutines").set(static_cast<std::int64_t>(subroutines));
}

AnomalyReport IntelLog::detect(const logparse::Session& session) const {
  thread_local DetectScratch scratch;
  return detect(session, scratch);
}

AnomalyReport IntelLog::detect(const logparse::Session& session, DetectScratch& scratch) const {
  if (!trained_) throw std::logic_error("IntelLog::detect before train");
  obs::MetricsRegistry* reg = obs::registry();
  obs::ScopedTimerMs timer(reg ? &reg->histogram("intellog_detect_session_ms") : nullptr);
  AnomalyReport report = detector_->detect(session, scratch);
  if (reg) {
    reg->counter("intellog_detect_sessions_total").add(1);
    reg->counter("intellog_detect_records_total").add(session.records.size());
    reg->counter("intellog_detect_unexpected_total").add(report.unexpected.size());
    reg->counter("intellog_detect_issues_total").add(report.issues.size());
    if (report.anomalous()) reg->counter("intellog_detect_anomalous_total").add(1);
  }
  return report;
}

std::vector<AnomalyReport> IntelLog::detect_batch(std::span<const logparse::Session> sessions,
                                                  std::size_t jobs) const {
  if (!trained_) throw std::logic_error("IntelLog::detect_batch before train");
  OBS_STAGE("detect.batch");
  std::vector<AnomalyReport> reports(sessions.size());
  if (sessions.empty()) return reports;

  if (jobs == 0) jobs = config_.num_threads;
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t shards = std::min(jobs, sessions.size());

  obs::MetricsRegistry* reg = obs::registry();
  obs::ScopedTimerMs timer(reg ? &reg->histogram("intellog_detect_batch_ms") : nullptr);

  // One pool task per shard; shards claim sessions one at a time from a
  // shared index, so a long session delays one shard while the others
  // drain the rest. Reports land at their input index, so the output
  // order (and content — detect() is pure) is identical no matter how
  // many workers run or how they interleave. The index only hands out
  // distinct sessions (relaxed RMWs suffice); each report slot is written
  // by the one shard that claimed it and published by parallel_for's joins.
  std::atomic<std::size_t> next{0};
  const auto run_shard = [&](std::size_t shard) {
    OBS_STAGE("detect.batch_shard");
    // One scratch per shard: the arena's pages are acquired on the first
    // session and rewound (not freed) between sessions, so a shard of N
    // sessions does page setup once, not N times.
    DetectScratch scratch;
    obs::ScopedTimerMs shard_timer(
        reg ? &reg->histogram("intellog_detect_batch_shard_ms",
                              {{"shard", std::to_string(shard)}})
            : nullptr);
    std::size_t claimed = 0;
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < sessions.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      reports[i] = detect(sessions[i], scratch);
      ++claimed;
    }
    if (reg) {
      // Registered even when the shard claimed nothing, so every shard's
      // series exists and the shards sum to the batch size.
      reg->counter("intellog_detect_batch_shard_sessions_total",
                   {{"shard", std::to_string(shard)}})
          .add(claimed);
    }
  };
  if (shards == 1) {
    run_shard(0);
  } else {
    common::ThreadPool pool(shards);
    pool.parallel_for(shards, run_shard);
  }

  if (reg) {
    std::size_t records = 0;
    for (const auto& s : sessions) records += s.records.size();
    reg->counter("intellog_detect_batch_total").add(1);
    reg->counter("intellog_detect_batch_sessions_total").add(sessions.size());
    reg->counter("intellog_detect_batch_records_total").add(records);
    reg->gauge("intellog_detect_batch_shards").set(static_cast<std::int64_t>(shards));
    if (coverage_enabled()) coverage_->record_metrics(*reg);
  }
  return reports;
}

std::vector<IntelMessage> IntelLog::to_intel_messages(const logparse::Session& session) const {
  std::vector<IntelMessage> out;
  for (const auto& rec : session.records) {
    const int id = spell_.match(rec.content);
    if (id < 0 || kv_filter_.is_learned_kv_key(id)) continue;
    const auto it = intel_keys_.find(id);
    if (it == intel_keys_.end()) continue;
    out.push_back(extractor_.instantiate(it->second, spell_.key(id), rec));
  }
  return out;
}

}  // namespace intellog::core
