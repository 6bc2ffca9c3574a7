#include "serve/tenant.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "common/checksum.hpp"
#include "logparse/log_io.hpp"
#include "obs/flight/flight.hpp"

namespace intellog::serve {

namespace fs = std::filesystem;

namespace {

double now_us() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count()) /
         1e3;
}

// Spool arrival time: producers rename finished files in, so st_mtim is the
// moment the session became visible to the daemon — the start of the
// end-to-end latency clock.
std::uint64_t mtime_unix_ms(const struct ::stat& st) {
  return static_cast<std::uint64_t>(st.st_mtim.tv_sec) * 1000u +
         static_cast<std::uint64_t>(st.st_mtim.tv_nsec) / 1000000u;
}

// Dotfiles are the daemon's own artifacts (checkpoint, ledgers), and
// anything not *.log is a producer temp file not yet renamed in.
bool is_spool_name(std::string_view name) {
  constexpr std::string_view kExt = ".log";
  return name.size() > kExt.size() && name[0] != '.' &&
         name.substr(name.size() - kExt.size()) == kExt;
}

}  // namespace

std::string_view to_string(BreakerState s) {
  switch (s) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half-open";
  }
  return "?";
}

common::Json TenantAccounting::to_json() const {
  common::Json j = common::Json::object();
  j["records_admitted"] = static_cast<std::int64_t>(records_admitted);
  j["lines_seen"] = static_cast<std::int64_t>(lines_seen);
  j["lines_quarantined"] = static_cast<std::int64_t>(lines_quarantined);
  j["sessions_closed"] = static_cast<std::int64_t>(sessions_closed);
  j["sessions_anomalous"] = static_cast<std::int64_t>(sessions_anomalous);
  j["files_done"] = static_cast<std::int64_t>(files_done);
  j["files_shed"] = static_cast<std::int64_t>(files_shed);
  j["bytes_shed"] = static_cast<std::int64_t>(bytes_shed);
  j["breaker_trips"] = static_cast<std::int64_t>(breaker_trips);
  j["consume_us_sum"] = consume_us_sum;
  return j;
}

TenantAccounting TenantAccounting::from_json(const common::Json& j) {
  TenantAccounting a;
  const auto u64 = [&](const char* key) {
    return static_cast<std::uint64_t>(j[key].as_int());
  };
  a.records_admitted = u64("records_admitted");
  a.lines_seen = u64("lines_seen");
  a.lines_quarantined = u64("lines_quarantined");
  a.sessions_closed = u64("sessions_closed");
  a.sessions_anomalous = u64("sessions_anomalous");
  a.files_done = u64("files_done");
  a.files_shed = u64("files_shed");
  a.bytes_shed = u64("bytes_shed");
  a.breaker_trips = u64("breaker_trips");
  a.consume_us_sum = j["consume_us_sum"].as_double();
  return a;
}

common::Json ShedRecord::to_json() const {
  common::Json j = common::Json::object();
  j["file"] = file;
  j["bytes"] = static_cast<std::int64_t>(bytes);
  j["reason"] = reason;
  return j;
}

TenantShard::TenantShard(std::string tenant, std::string spool_dir,
                         const core::IntelLog& model, Options options, std::uint64_t epoch)
    : tenant_(std::move(tenant)),
      spool_dir_(std::move(spool_dir)),
      model_(model),
      options_(std::move(options)),
      epoch_(epoch),
      online_(std::make_unique<core::OnlineDetector>(model, options_.detect_jobs,
                                                     options_.limits)),
      // Interned once here (construction is registration time), so every
      // tick/shed/breaker event can name the tenant without allocating.
      flight_str_(obs::flight::flight_intern(tenant_)) {}

void TenantShard::list_spool() {
  const std::uint64_t gen = ++listings_;
  if (DIR* dir = ::opendir(spool_dir_.c_str())) {
    const int dfd = ::dirfd(dir);
    while (const ::dirent* de = ::readdir(dir)) {
      const std::string_view name(de->d_name);
      if (!is_spool_name(name)) continue;
      if (de->d_type != DT_REG && de->d_type != DT_LNK && de->d_type != DT_UNKNOWN) continue;
      const auto ino = static_cast<std::uint64_t>(de->d_ino);
      auto it = spool_.find(name);
      if (it != spool_.end() && it->second.ino == ino) {
        it->second.listed = gen;
        continue;
      }
      // Indexed names are never in the done-set, so only a new name needs
      // the lookup.
      if (it == spool_.end() && done_.find(name) != done_.end()) continue;
      struct ::stat st {};
      if (::fstatat(dfd, de->d_name, &st, 0) != 0 || !S_ISREG(st.st_mode)) continue;
      if (it == spool_.end()) it = spool_.emplace(std::string(name), SpoolEntry{}).first;
      it->second = SpoolEntry{ino, static_cast<std::uint64_t>(st.st_size), gen};
    }
    ::closedir(dir);
  }
  for (auto it = spool_.begin(); it != spool_.end();) {
    it = it->second.listed == gen ? std::next(it) : spool_.erase(it);
  }
}

std::string TenantShard::spool_path(const std::string& name) const {
  return (fs::path(spool_dir_) / name).string();
}

bool TenantShard::consume_file(const std::string& name, const OpenedFile& file,
                               std::size_t& record_budget, TickResult& out) {
  const bool first_read = cursors_.find(name) == cursors_.end();
  logparse::SessionIngest ingest =
      logparse::read_session_file_resilient(file.path, /*system=*/{}, options_.ingest);
  if (first_read) {
    // Parse-quality stats count once per file even when admission slices
    // its records across several ticks.
    accounting_.lines_seen += ingest.stats.lines_total;
    accounting_.lines_quarantined += ingest.stats.quarantined;
    out.lines_seen += ingest.stats.lines_total;
    out.lines_quarantined += ingest.stats.quarantined;
    for (auto& q : ingest.quarantined) out.quarantined.push_back(std::move(q));
  }

  const auto finish_session = [&](std::optional<core::AnomalyReport> report) {
    ++accounting_.files_done;
    if (report) {
      ++accounting_.sessions_closed;
      ++out.sessions_closed;
      if (report->anomalous()) {
        ++accounting_.sessions_anomalous;
        out.reports.push_back(std::move(*report));
      }
    }
    done_.insert(name);
    cursors_.erase(name);
    return true;
  };

  auto& records = ingest.session.records;
  if (records.empty()) {
    if (first_read && file.bytes == 0) {
      // A zero-byte spool file is a container that died before logging a
      // single line — detection signal (session abort), not junk. Same
      // contract as the one-shot CLI's empty-session path. This path never
      // touches the detector, so stamp the ingress map directly.
      if (file.mtime_unix_ms != 0 && !ingest.session.container_id.empty()) {
        out.session_ingress_ms[ingest.session.container_id] = file.mtime_unix_ms;
      }
      return finish_session(model_.detect(ingest.session));
    }
    return finish_session(std::nullopt);  // garbage-only file: quarantined above
  }

  std::uint64_t& cursor = cursors_[name];
  if (cursor >= records.size()) {
    // Shrunk or rewritten in place (spool contract violation): close what
    // we buffered rather than replaying records we already consumed.
    return finish_session(online_->close_session(ingest.session.container_id));
  }
  const std::size_t take =
      std::min<std::size_t>(record_budget, records.size() - static_cast<std::size_t>(cursor));
  const double t0 = now_us();
  for (std::size_t i = 0; i < take; ++i) {
    online_->consume(records[static_cast<std::size_t>(cursor) + i], file.mtime_unix_ms);
  }
  accounting_.consume_us_sum += now_us() - t0;
  cursor += take;
  record_budget -= take;
  accounting_.records_admitted += take;
  out.records_admitted += take;

  // Cap-triggered evictions are closed sessions too (degraded): count them
  // so the accounting balances against open+closed.
  for (auto& evicted : online_->take_evicted()) {
    ++accounting_.sessions_closed;
    ++out.sessions_closed;
    if (evicted.anomalous()) {
      ++accounting_.sessions_anomalous;
      out.reports.push_back(std::move(evicted));
    }
  }

  if (cursor >= records.size()) {
    return finish_session(online_->close_session(ingest.session.container_id));
  }
  return false;
}

TickResult TenantShard::tick() {
  TickResult out;
  out.epoch = epoch_;
  FLIGHT_EVENT_STR(kTenantTick, ticks_++, epoch_, flight_str_);

  list_spool();
  const auto count_pending = [&] {
    out.pending_files = spool_.size();
    for (const auto& [name, entry] : spool_) out.pending_bytes += entry.bytes;
  };

  if (breaker_state_ == BreakerState::Open) {
    if (breaker_open_left_ > 0) --breaker_open_left_;
    if (breaker_open_left_ == 0) {
      breaker_state_ = BreakerState::HalfOpen;
      FLIGHT_EVENT_STR(kBreakerTransition, static_cast<std::uint64_t>(BreakerState::HalfOpen),
                       static_cast<std::uint64_t>(BreakerState::Open), flight_str_);
    }
    count_pending();
    return out;  // admission paused; the spool keeps the backlog lossless
  }

  // --- shed pass: bounded work no matter what the producer spools -----------
  bool parse_bomb = false;
  const auto shed_file = [&](SpoolIndex::iterator it, const char* reason) {
    const std::uint64_t bytes = it->second.bytes;
    out.shed.push_back(ShedRecord{spool_path(it->first), bytes, reason});
    ++out.files_shed;
    ++accounting_.files_shed;
    accounting_.bytes_shed += bytes;
    done_.insert(it->first);
    cursors_.erase(it->first);
    FLIGHT_EVENT_STR(kTenantShed, out.files_shed, bytes, flight_str_);
    return spool_.erase(it);
  };
  std::uint64_t backlog_bytes = 0;
  for (auto it = spool_.begin(); it != spool_.end();) {
    if (it->second.bytes > options_.quotas.max_file_bytes) {
      it = shed_file(it, "parse-bomb");
      parse_bomb = true;
      continue;
    }
    backlog_bytes += it->second.bytes;
    ++it;
  }
  // Backlog overflow sheds oldest-first (freshest data keeps flowing), but
  // never a file already mid-consumption.
  while (!spool_.empty() && (spool_.size() > options_.quotas.max_backlog_files ||
                             backlog_bytes > options_.quotas.max_backlog_bytes)) {
    const auto oldest = spool_.begin();
    if (cursors_.find(oldest->first) != cursors_.end()) break;  // in flight: keep
    backlog_bytes -= oldest->second.bytes;
    shed_file(oldest, spool_.size() > options_.quotas.max_backlog_files ? "backlog-files"
                                                                         : "backlog-bytes");
  }

  // --- admission: quota-bounded consume, half-open probes one file ----------
  std::size_t record_budget = options_.quotas.max_records_per_tick;
  std::size_t files_opened = 0;
  for (auto it = spool_.begin(); it != spool_.end();) {
    if (record_budget == 0 || files_opened >= options_.quotas.max_files_per_tick) break;
    // Measured again at open, so the parse-bomb guard and the zero-byte
    // rule judge the file as it is read, not as it was listed. A failed
    // stat means the file is gone: neither opened nor done.
    OpenedFile file{spool_path(it->first)};
    struct ::stat st {};
    if (::stat(file.path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) {
      it = spool_.erase(it);
      continue;
    }
    it->second.bytes = static_cast<std::uint64_t>(st.st_size);
    if (it->second.bytes > options_.quotas.max_file_bytes) {
      it = shed_file(it, "parse-bomb");
      parse_bomb = true;
      continue;
    }
    file.bytes = it->second.bytes;
    file.mtime_unix_ms = mtime_unix_ms(st);
    const bool finished = consume_file(it->first, file, record_budget, out);
    it = finished ? spool_.erase(it) : std::next(it);
    ++files_opened;
    if (breaker_state_ == BreakerState::HalfOpen) break;  // one probe file
  }

  // --- breaker bookkeeping ---------------------------------------------------
  const bool storm = out.lines_seen >= options_.breaker.min_lines &&
                     static_cast<double>(out.lines_quarantined) >
                         options_.breaker.quarantine_frac *
                             static_cast<double>(out.lines_seen);
  const bool tripped = storm || parse_bomb;
  if (tripped) {
    FLIGHT_EVENT_STR(kBreakerTransition, static_cast<std::uint64_t>(BreakerState::Open),
                     static_cast<std::uint64_t>(breaker_state_), flight_str_);
    breaker_state_ = BreakerState::Open;
    breaker_open_left_ = options_.breaker.open_ticks;
    ++accounting_.breaker_trips;
    out.breaker_tripped = true;
  } else if (breaker_state_ == BreakerState::HalfOpen) {
    FLIGHT_EVENT_STR(kBreakerTransition, static_cast<std::uint64_t>(BreakerState::Closed),
                     static_cast<std::uint64_t>(BreakerState::HalfOpen), flight_str_);
    breaker_state_ = BreakerState::Closed;  // clean probe (or empty spool)
  }

  count_pending();

  // Every session the detector closed this tick (explicit, eviction) hands
  // its arrival stamp back here; the daemon observes end-to-end latency
  // when it writes the report ledger.
  for (const auto& [id, ms] : online_->take_closed_ingress()) {
    out.session_ingress_ms.emplace(id, ms);
  }
  return out;
}

std::vector<core::AnomalyReport> TenantShard::close_all() {
  std::vector<core::AnomalyReport> reports = online_->close_all();
  for (const auto& r : reports) {
    ++accounting_.sessions_closed;
    if (r.anomalous()) ++accounting_.sessions_anomalous;
  }
  return reports;
}

std::map<std::string, std::uint64_t> TenantShard::take_closed_ingress() {
  return online_->take_closed_ingress();
}

common::Json TenantShard::checkpoint() const {
  common::Json doc = common::Json::object();
  doc["kind"] = "intellog_serve_tenant_checkpoint";
  doc["version"] = kCheckpointVersion;
  doc["tenant"] = tenant_;
  common::Json cursors = common::Json::object();
  for (const auto& [name, at] : cursors_) cursors[name] = static_cast<std::int64_t>(at);
  doc["cursors"] = std::move(cursors);
  common::Json done = common::Json::array();
  for (const auto& name : done_) done.push_back(name);
  doc["done"] = std::move(done);
  doc["accounting"] = accounting_.to_json();
  common::Json breaker = common::Json::object();
  breaker["state"] = std::string(to_string(breaker_state_));
  breaker["open_left"] = static_cast<std::int64_t>(breaker_open_left_);
  doc["breaker"] = std::move(breaker);
  doc["detector"] = online_->checkpoint();
  common::stamp_checksum(doc);
  return doc;
}

void TenantShard::restore(const common::Json& doc) {
  const auto fail = [&](const std::string& why) -> void {
    throw std::runtime_error("TenantShard::restore [" + tenant_ + "]: " + why);
  };
  if (!doc.is_object() || !doc.contains("kind") || !doc["kind"].is_string() ||
      doc["kind"].as_string() != "intellog_serve_tenant_checkpoint") {
    fail("not a tenant checkpoint document");
  }
  if (!doc.contains("version") || !doc["version"].is_int() ||
      doc["version"].as_int() != kCheckpointVersion) {
    fail("unsupported checkpoint version (supported: " +
         std::to_string(kCheckpointVersion) + ")");
  }
  if (!common::verify_checksum(doc)) fail("checksum mismatch (corrupted checkpoint)");

  // Parse everything into locals first so a malformed document cannot
  // leave the shard half-restored.
  std::map<std::string, std::uint64_t> cursors;
  std::set<std::string, std::less<>> done;
  TenantAccounting accounting;
  BreakerState breaker_state = BreakerState::Closed;
  std::uint64_t breaker_open_left = 0;
  std::unique_ptr<core::OnlineDetector> online;
  try {
    for (const auto& [name, at] : doc["cursors"].as_object()) {
      cursors[name] = static_cast<std::uint64_t>(at.as_int());
    }
    for (const auto& name : doc["done"].as_array()) done.insert(name.as_string());
    accounting = TenantAccounting::from_json(doc["accounting"]);
    const std::string state = doc["breaker"]["state"].as_string();
    breaker_state = state == "open"        ? BreakerState::Open
                    : state == "half-open" ? BreakerState::HalfOpen
                                           : BreakerState::Closed;
    breaker_open_left = static_cast<std::uint64_t>(doc["breaker"]["open_left"].as_int());
    online = std::make_unique<core::OnlineDetector>(core::OnlineDetector::restore(
        model_, doc["detector"], options_.detect_jobs, options_.limits));
  } catch (const std::exception& e) {
    fail(std::string("malformed checkpoint: ") + e.what());
  }
  cursors_ = std::move(cursors);
  done_ = std::move(done);
  accounting_ = accounting;
  breaker_state_ = breaker_state;
  breaker_open_left_ = breaker_open_left;
  online_ = std::move(online);
  spool_.clear();  // rebuilt by the next listing against the restored done-set
}

}  // namespace intellog::serve
