#include "core/online.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/checksum.hpp"
#include "obs/flight/flight.hpp"
#include "obs/profile/profile.hpp"
#include "obs/stages.hpp"

namespace intellog::core {

OnlineDetector::OnlineDetector(const IntelLog& model, std::size_t jobs, Limits limits)
    : model_(model), jobs_(jobs), limits_(limits) {
  if (!model.trained()) throw std::logic_error("OnlineDetector: model is untrained");
  if (obs::MetricsRegistry* reg = obs::registry()) {
    reg->describe("intellog_online_records_total", "Log records consumed by the streaming detector");
    reg->describe("intellog_online_unexpected_total", "Records that matched no trained log key");
    reg->describe("intellog_online_sessions_closed_total",
                  "Sessions closed, by reason (explicit/idle/evicted/watchdog)");
    reg->describe("intellog_online_degraded_reports_total",
                  "Reports from force-closed (possibly incomplete) sessions");
    reg->describe("intellog_online_open_sessions", "Currently open streaming sessions");
    reg->describe("intellog_online_buffered_records", "Records buffered across open sessions");
    reg->describe("intellog_online_consume_us",
                  "Per-record consume latency in microseconds (exemplars carry container ids)");
    tel_.records = &reg->counter("intellog_online_records_total");
    tel_.unexpected = &reg->counter("intellog_online_unexpected_total");
    tel_.closed_explicit =
        &reg->counter("intellog_online_sessions_closed_total", {{"reason", "explicit"}});
    tel_.closed_idle =
        &reg->counter("intellog_online_sessions_closed_total", {{"reason", "idle"}});
    tel_.closed_evicted =
        &reg->counter("intellog_online_sessions_closed_total", {{"reason", "evicted"}});
    tel_.closed_watchdog =
        &reg->counter("intellog_online_sessions_closed_total", {{"reason", "watchdog"}});
    tel_.degraded = &reg->counter("intellog_online_degraded_reports_total");
    tel_.open_sessions = &reg->gauge("intellog_online_open_sessions");
    tel_.buffered_records = &reg->gauge("intellog_online_buffered_records");
    tel_.consume_us = &reg->histogram("intellog_online_consume_us", {},
                                      obs::Histogram::default_us_buckets());
  }
}

void OnlineDetector::update_gauges() {
  if (tel_.open_sessions) tel_.open_sessions->set(static_cast<std::int64_t>(open_.size()));
  if (tel_.buffered_records) {
    tel_.buffered_records->set(static_cast<std::int64_t>(total_records_));
  }
}

void OnlineDetector::touch(const std::string& container_id, SessionState& state) {
  // Re-key the session's existing node: no erase, no container id copy.
  auto node = state.lru_seq != 0 ? lru_.extract(state.lru_seq) : decltype(lru_)::node_type{};
  state.lru_seq = ++seq_;
  if (node) {
    node.key() = state.lru_seq;
    lru_.insert(std::move(node));
  } else {
    lru_.emplace(state.lru_seq, container_id);
  }
}

logparse::Session OnlineDetector::detach(SessionMap::iterator it) {
  SessionState& state = it->second;
  total_records_ -= state.session.records.size();
  if (state.lru_seq != 0) lru_.erase(state.lru_seq);
  if (state.ingress_unix_ms != 0) closed_ingress_[it->first] = state.ingress_unix_ms;
  logparse::Session session = std::move(state.session);
  open_.erase(it);
  return session;
}

void OnlineDetector::enforce_caps() {
  const auto over = [&] {
    return (limits_.max_sessions != 0 && open_.size() > limits_.max_sessions) ||
           (limits_.max_buffered_records != 0 &&
            total_records_ > limits_.max_buffered_records);
  };
  while (over() && !lru_.empty()) {
    // Least-recently-active session flushes through the structural checks
    // in degraded mode rather than letting the buffer grow without bound.
    const auto it = open_.find(lru_.begin()->second);
    logparse::Session victim = detach(it);
    FLIGHT_EVENT(kOnlineEvict,
                 std::hash<std::string>{}(victim.container_id), open_.size());
    AnomalyReport report = model_.detect(victim);
    report.degraded_reason = "lru";
    evicted_.push_back(std::move(report));
    if (tel_.closed_evicted) tel_.closed_evicted->add(1);
    if (tel_.degraded) tel_.degraded->add(1);
  }
  update_gauges();
}

std::optional<OnlineDetector::Event> OnlineDetector::consume(const logparse::LogRecord& record,
                                                             std::uint64_t ingress_unix_ms) {
  PROF_FRAME("online.consume");
  if (record.container_id.empty()) return std::nullopt;
  const std::uint64_t t0 = tel_.consume_us ? obs::monotonic_ns() : 0;
  if (tel_.records) tel_.records->add(1);

  auto it = open_.find(record.container_id.view());
  if (it == open_.end()) {
    it = open_.emplace(record.container_id.str(), SessionState{}).first;
    it->second.session.container_id = it->first;
    it->second.first_seen_ms = record.timestamp_ms;
  }
  SessionState& state = it->second;
  // Earliest arrival wins: a session spanning several spool files is as
  // old as its oldest file.
  if (ingress_unix_ms != 0 &&
      (state.ingress_unix_ms == 0 || ingress_unix_ms < state.ingress_unix_ms)) {
    state.ingress_unix_ms = ingress_unix_ms;
  }
  state.session.records.push_back(record);
  // The buffered copy outlives whatever backing the caller's record
  // borrowed from (mmap ingest), so it must own its bytes.
  state.session.records.back().materialize();
  ++total_records_;
  state.last_seen_ms = std::max(state.last_seen_ms, record.timestamp_ms);
  touch(state.session.container_id, state);

  std::optional<Event> out;
  const logparse::Spell::Match match = model_.spell().match(record.content, match_tokens_);
  const int key_id = match.key;
  // Cache the match, and its field layout, for detect. A restored session
  // starts without keys and stays stale, so detect re-matches it.
  std::vector<int>& keys = state.session.spell_keys;
  if (keys.size() + 1 == state.session.records.size()) keys.push_back(key_id);
  std::vector<const logparse::FieldLayout*>& layouts = state.session.spell_layouts;
  if (layouts.size() + 1 == state.session.records.size()) layouts.push_back(match.layout);
  if (key_id < 0) {
    // Unexpected message: surface immediately with on-the-fly extraction.
    Event event;
    event.container_id = record.container_id;
    event.record_index = state.session.records.size() - 1;
    event.unexpected.record_index = event.record_index;
    event.unexpected.content = record.content;
    InfoExtractor::Unexpected x = model_.extractor().extract_unexpected(record.content);
    event.unexpected.message = model_.extractor().instantiate(x.intel_key, x.key, record);
    event.unexpected.extracted = std::move(x.intel_key);
    if (tel_.unexpected) tel_.unexpected->add(1);
    out = std::move(event);
  }

  // Caps last: `state` may dangle afterwards (the current session itself
  // can be flushed when it alone exceeds the record cap).
  enforce_caps();
  if (tel_.consume_us) {
    // Exemplar-labeled: a slow bucket in the status snapshot points back at
    // the session that landed there.
    tel_.consume_us->observe(static_cast<double>(obs::monotonic_ns() - t0) / 1e3,
                             record.container_id);
  }
  return out;
}

std::optional<AnomalyReport> OnlineDetector::close_session(const std::string& container_id) {
  const auto it = open_.find(container_id);
  if (it == open_.end()) return std::nullopt;
  OBS_STAGE("online.drain");
  logparse::Session session = detach(it);
  AnomalyReport report = model_.detect(session);
  if (tel_.closed_explicit) tel_.closed_explicit->add(1);
  update_gauges();
  return report;
}

std::vector<AnomalyReport> OnlineDetector::watchdog(std::uint64_t now_ms) {
  if (limits_.max_session_age_ms == 0) return {};
  OBS_STAGE("online.drain");
  std::vector<logparse::Session> stuck;
  for (auto it = open_.begin(); it != open_.end();) {
    if (it->second.first_seen_ms + limits_.max_session_age_ms <= now_ms) {
      auto victim = it++;
      stuck.push_back(detach(victim));
    } else {
      ++it;
    }
  }
  std::vector<AnomalyReport> out = model_.detect_batch(stuck, jobs_);
  for (auto& report : out) report.degraded_reason = "watchdog";
  if (tel_.closed_watchdog) tel_.closed_watchdog->add(out.size());
  if (tel_.degraded) tel_.degraded->add(out.size());
  update_gauges();
  return out;
}

std::vector<AnomalyReport> OnlineDetector::close_idle(std::uint64_t now_ms,
                                                      std::uint64_t idle_ms) {
  OBS_STAGE("online.drain");
  // Drain expired sessions first, then run the structural checks as one
  // sharded batch: reports stay in container-id (map) order.
  std::vector<logparse::Session> expired;
  for (auto it = open_.begin(); it != open_.end();) {
    if (it->second.last_seen_ms + idle_ms <= now_ms) {
      auto victim = it++;
      expired.push_back(detach(victim));
    } else {
      ++it;
    }
  }
  std::vector<AnomalyReport> out = model_.detect_batch(expired, jobs_);
  if (tel_.closed_idle) tel_.closed_idle->add(out.size());
  // Sessions that dodge the idle close by trickling records still fall to
  // the stream-time watchdog.
  for (auto& report : watchdog(now_ms)) out.push_back(std::move(report));
  update_gauges();
  return out;
}

std::vector<AnomalyReport> OnlineDetector::close_all() {
  OBS_STAGE("online.drain");
  std::vector<logparse::Session> sessions;
  sessions.reserve(open_.size());
  for (auto& [id, state] : open_) {
    // close_all bypasses detach() (bulk clear below), so the ingress stamps
    // must be banked here for take_closed_ingress().
    if (state.ingress_unix_ms != 0) closed_ingress_[id] = state.ingress_unix_ms;
    sessions.push_back(std::move(state.session));
  }
  std::vector<AnomalyReport> out = model_.detect_batch(sessions, jobs_);
  if (tel_.closed_explicit) tel_.closed_explicit->add(sessions.size());
  open_.clear();
  lru_.clear();
  total_records_ = 0;
  update_gauges();
  return out;
}

std::vector<AnomalyReport> OnlineDetector::take_evicted() {
  std::vector<AnomalyReport> out;
  out.swap(evicted_);
  return out;
}

std::map<std::string, std::uint64_t> OnlineDetector::take_closed_ingress() {
  std::map<std::string, std::uint64_t> out;
  out.swap(closed_ingress_);
  return out;
}

std::vector<std::string> OnlineDetector::open_sessions() const {
  std::vector<std::string> out;
  for (const auto& [id, state] : open_) {
    (void)state;
    out.push_back(id);
  }
  return out;
}

std::vector<OnlineDetector::OpenSessionInfo> OnlineDetector::open_session_info() const {
  std::vector<OpenSessionInfo> out;
  out.reserve(open_.size());
  for (const auto& [id, state] : open_) {
    out.push_back({id, state.session.records.size(), state.first_seen_ms, state.last_seen_ms});
  }
  return out;
}

std::size_t OnlineDetector::buffered_records(const std::string& container_id) const {
  const auto it = open_.find(container_id);
  return it == open_.end() ? 0 : it->second.session.records.size();
}

// --- checkpoint / restore ----------------------------------------------------

common::Json OnlineDetector::checkpoint() const {
  FLIGHT_EVENT(kOnlineCheckpoint, open_.size(), seq_);
  common::Json doc = common::Json::object();
  doc["kind"] = "intellog_online_checkpoint";
  doc["format_version"] = kCheckpointVersion;
  doc["seq"] = seq_;
  common::Json sessions = common::Json::array();
  for (const auto& [id, state] : open_) {
    (void)id;
    common::Json s = common::Json::object();
    s["container"] = state.session.container_id;
    s["system"] = state.session.system;
    // Provenance rides along (same format version: the keys are optional
    // and absent in pre-observatory checkpoints) so evidence in reports
    // produced after a resume is byte-identical to an uninterrupted run.
    if (!state.session.source_file.empty()) s["file"] = state.session.source_file;
    s["first_seen_ms"] = state.first_seen_ms;
    s["last_seen_ms"] = state.last_seen_ms;
    s["lru_seq"] = state.lru_seq;
    // Optional like "file": absent in pre-telemetry-plane checkpoints, so
    // the format version does not change.
    if (state.ingress_unix_ms != 0) s["ingress_unix_ms"] = state.ingress_unix_ms;
    common::Json records = common::Json::array();
    for (const auto& rec : state.session.records) {
      common::Json r = common::Json::object();
      r["t"] = rec.timestamp_ms;
      r["l"] = rec.level.str();
      r["s"] = rec.source.str();
      r["c"] = rec.content.str();
      if (rec.line_no != 0) r["n"] = static_cast<std::size_t>(rec.line_no);
      if (rec.byte_offset != 0) r["b"] = static_cast<std::int64_t>(rec.byte_offset);
      records.push_back(std::move(r));
    }
    s["records"] = std::move(records);
    sessions.push_back(std::move(s));
  }
  doc["sessions"] = std::move(sessions);
  common::stamp_checksum(doc);
  return doc;
}

void OnlineDetector::checkpoint_file(const std::string& path) const {
  OBS_STAGE("online.checkpoint");
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) throw std::runtime_error("checkpoint_file: cannot open " + tmp);
    out << checkpoint().dump(2) << "\n";
    out.flush();
    if (!out) throw std::runtime_error("checkpoint_file: write failed: " + tmp);
  }
  // Atomic publish: readers see either the previous checkpoint or the new
  // one, never a torn file.
  std::filesystem::rename(tmp, path);
}

OnlineDetector OnlineDetector::restore(const IntelLog& model, const common::Json& doc,
                                       std::size_t jobs, Limits limits) {
  if (!doc.is_object() || !doc.contains("kind") || !doc["kind"].is_string() ||
      doc["kind"].as_string() != "intellog_online_checkpoint") {
    throw std::runtime_error("OnlineDetector::restore: not a checkpoint document");
  }
  if (!doc.contains("format_version") || !doc["format_version"].is_int()) {
    throw std::runtime_error(
        "OnlineDetector::restore: unsupported checkpoint format version (want " +
        std::to_string(kCheckpointVersion) + ")");
  }
  if (doc["format_version"].as_int() != kCheckpointVersion) {
    // A future version means a newer build wrote fields this one cannot
    // interpret; guessing would half-restore. One clear error, no state.
    throw std::runtime_error(
        "OnlineDetector::restore: checkpoint format version " +
        std::to_string(doc["format_version"].as_int()) +
        " is not supported by this build (supported: " +
        std::to_string(kCheckpointVersion) + "); refusing to restore");
  }
  if (!common::verify_checksum(doc)) {
    throw std::runtime_error(
        "OnlineDetector::restore: checksum mismatch (corrupted checkpoint)");
  }

  // Forward-compatibility guard: a checkpoint carrying keys this build does
  // not know about was written by a newer (or foreign) writer. Restoring
  // around them would silently discard state, so reject before touching
  // anything. Runs after the checksum check so corruption reports as
  // corruption, not as an unknown key.
  const auto reject_unknown_keys = [](const common::JsonObject& obj,
                                      std::initializer_list<std::string_view> known,
                                      const char* where) {
    for (const auto& [key, value] : obj) {
      (void)value;
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        throw std::runtime_error("OnlineDetector::restore: unknown key \"" + key +
                                 "\" in " + where +
                                 " — written by a newer build? refusing to restore");
      }
    }
  };
  reject_unknown_keys(doc.as_object(),
                      {"kind", "format_version", "seq", "sessions", "checksum"},
                      "checkpoint");
  if (doc.contains("sessions") && doc["sessions"].is_array()) {
    for (const auto& s : doc["sessions"].as_array()) {
      if (!s.is_object()) continue;  // shape errors surface below as malformed
      reject_unknown_keys(s.as_object(),
                          {"container", "system", "file", "first_seen_ms",
                           "last_seen_ms", "lru_seq", "ingress_unix_ms", "records"},
                          "session entry");
      if (!s.contains("records") || !s["records"].is_array()) continue;
      for (const auto& r : s["records"].as_array()) {
        if (!r.is_object()) continue;
        reject_unknown_keys(r.as_object(), {"t", "l", "s", "c", "n", "b"},
                            "record entry");
      }
    }
  }

  OnlineDetector det(model, jobs, limits);
  try {
    det.seq_ = static_cast<std::uint64_t>(doc["seq"].as_int());
    for (const auto& s : doc["sessions"].as_array()) {
      SessionState state;
      state.session.container_id = s["container"].as_string();
      state.session.system = s["system"].as_string();
      if (s.contains("file")) state.session.source_file = s["file"].as_string();
      state.first_seen_ms = static_cast<std::uint64_t>(s["first_seen_ms"].as_int());
      state.last_seen_ms = static_cast<std::uint64_t>(s["last_seen_ms"].as_int());
      state.lru_seq = static_cast<std::uint64_t>(s["lru_seq"].as_int());
      if (s.contains("ingress_unix_ms")) {
        state.ingress_unix_ms = static_cast<std::uint64_t>(s["ingress_unix_ms"].as_int());
      }
      for (const auto& r : s["records"].as_array()) {
        logparse::LogRecord rec;
        rec.timestamp_ms = static_cast<std::uint64_t>(r["t"].as_int());
        rec.level = r["l"].as_string();
        rec.source = r["s"].as_string();
        rec.content = r["c"].as_string();
        if (r.contains("n")) rec.line_no = static_cast<std::uint32_t>(r["n"].as_int());
        if (r.contains("b")) rec.byte_offset = static_cast<std::uint64_t>(r["b"].as_int());
        rec.container_id = state.session.container_id;
        state.session.records.push_back(std::move(rec));
      }
      det.total_records_ += state.session.records.size();
      if (state.lru_seq != 0) det.lru_.emplace(state.lru_seq, state.session.container_id);
      det.seq_ = std::max(det.seq_, state.lru_seq);
      det.open_.emplace(state.session.container_id, std::move(state));
    }
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("OnlineDetector::restore: malformed checkpoint: ") +
                             e.what());
  }
  det.update_gauges();
  return det;
}

OnlineDetector OnlineDetector::restore_file(const IntelLog& model, const std::string& path,
                                            std::size_t jobs, Limits limits) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("OnlineDetector::restore_file: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  common::Json doc;
  try {
    doc = common::Json::parse(buf.str());
  } catch (const std::exception& e) {
    throw std::runtime_error("OnlineDetector::restore_file: " + path +
                             " is not valid JSON (torn checkpoint?): " + e.what());
  }
  return restore(model, doc, jobs, limits);
}

}  // namespace intellog::core
