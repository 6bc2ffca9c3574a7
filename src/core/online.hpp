// Streaming anomaly detection.
//
// §4.2: "IntelLog instantiates a HW-graph instance when a system starts a
// new session ... While consuming incoming logs, IntelLog aims to build
// the graph instance to meet the structure of the corresponding HW-graph."
// OnlineDetector is that consumption loop: feed records as they arrive
// (any interleaving of containers); unexpected messages surface
// immediately, structural checks (missing groups, incomplete subroutines,
// order violations) run when a session closes — explicitly, or after an
// idle timeout.
//
// Chaos-hardened operation:
//  - Bounded memory: Limits caps live sessions and total buffered records.
//    Overflow evicts the least-recently-active session through the
//    structural checks in *degraded mode* (report flagged, telemetry
//    counted) instead of growing without bound.
//  - Watchdog: sessions stuck open past `max_session_age_ms` of stream
//    time are force-closed (degraded) so one chatty-then-silent container
//    cannot pin memory forever.
//  - Checkpoint/restore: checkpoint() snapshots all open-session state as a
//    versioned, CRC32-checksummed JSON document; checkpoint_file() writes
//    it with atomic rename-on-write; restore() resumes mid-stream so a
//    detector crash loses at most one checkpoint interval.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/intellog.hpp"
#include "obs/metrics.hpp"

namespace intellog::core {

/// Bounded-memory configuration for OnlineDetector; 0 everywhere =
/// unbounded (the default, identical to the pre-hardening behaviour).
/// Namespace-scope (rather than nested) so it can appear as a default
/// argument inside the class definition.
struct DetectorLimits {
  std::size_t max_sessions = 0;          ///< live-session cap (LRU eviction)
  std::size_t max_buffered_records = 0;  ///< total buffered-record cap
  /// Stream-time watchdog: a session open longer than this (first record
  /// to `now_ms`) is force-closed by close_idle()/watchdog().
  std::uint64_t max_session_age_ms = 0;
};

class OnlineDetector {
 public:
  using Limits = DetectorLimits;

  /// `model` must outlive the detector and be trained. Streaming telemetry
  /// handles are captured here: install the obs registry (and keep it
  /// alive past the detector) *before* constructing to collect
  /// per-record latency, open-session and unexpected-rate metrics.
  /// `jobs` controls session draining: close_idle()/close_all() run their
  /// structural checks through IntelLog::detect_batch with this many
  /// workers (1 = serial, 0 = the model's configured thread count).
  /// Reports are identical either way; only wall-clock changes.
  explicit OnlineDetector(const IntelLog& model, std::size_t jobs = 1, Limits limits = {});

  /// An immediately-reportable event from one consumed record.
  struct Event {
    std::string container_id;
    std::size_t record_index = 0;  ///< index within the session so far
    UnexpectedMessage unexpected;
  };

  /// Consumes one record (routed by record.container_id; empty ids are
  /// dropped). Returns the unexpected-message event if the record matches
  /// no Intel Key. May evict the least-recently-active session when a
  /// Limits cap is hit — drain those reports with take_evicted().
  /// `ingress_unix_ms` is the wall-clock arrival time of the record's
  /// source (spool-file mtime in serve): the session keeps the earliest
  /// nonzero stamp and hands it back through take_closed_ingress() when
  /// the session closes, which is how end-to-end latency (arrival ->
  /// report write) is measured without the detector ever reading a clock.
  std::optional<Event> consume(const logparse::LogRecord& record,
                               std::uint64_t ingress_unix_ms = 0);

  /// Ends a session and runs the full structural check. Returns nullopt if
  /// the container is unknown.
  std::optional<AnomalyReport> close_session(const std::string& container_id);

  /// Closes every session whose last record is older than `idle_ms`
  /// relative to `now_ms`, returning their reports. Also runs the
  /// watchdog when Limits.max_session_age_ms is set (those reports are
  /// flagged degraded and included).
  std::vector<AnomalyReport> close_idle(std::uint64_t now_ms, std::uint64_t idle_ms);

  /// Force-closes sessions open longer than Limits.max_session_age_ms of
  /// stream time (no-op when the watchdog is disabled). Their structural
  /// checks run in degraded mode.
  std::vector<AnomalyReport> watchdog(std::uint64_t now_ms);

  /// Closes everything still open.
  std::vector<AnomalyReport> close_all();

  /// Drains reports produced by cap-triggered evictions since the last
  /// call (in eviction order, each flagged degraded).
  std::vector<AnomalyReport> take_evicted();

  /// Drains the ingress stamps (container id -> earliest ingress_unix_ms)
  /// of every session closed since the last call, by any path (explicit,
  /// idle, watchdog, eviction, close_all). Sessions consumed without a
  /// stamp do not appear.
  std::map<std::string, std::uint64_t> take_closed_ingress();

  std::vector<std::string> open_sessions() const;
  /// Number of open sessions, without copying their ids.
  std::size_t open_session_count() const { return open_.size(); }

  /// Live-session introspection for status snapshots (`intellog top`).
  struct OpenSessionInfo {
    std::string container_id;
    std::size_t buffered_records = 0;
    std::uint64_t first_seen_ms = 0;  ///< stream time of the first record
    std::uint64_t last_seen_ms = 0;   ///< stream time of the latest record
  };
  /// All open sessions, container-id ordered.
  std::vector<OpenSessionInfo> open_session_info() const;

  std::size_t buffered_records(const std::string& container_id) const;
  std::size_t total_buffered_records() const { return total_records_; }
  std::size_t pending_evicted() const { return evicted_.size(); }
  const Limits& limits() const { return limits_; }

  // --- checkpoint / restore ------------------------------------------------
  /// Current checkpoint format version; restore() rejects any other.
  static constexpr int kCheckpointVersion = 1;

  /// Snapshots all open-session state (records, recency, watchdog clocks)
  /// as a versioned JSON document stamped with a CRC32 checksum.
  /// Pending evicted reports are NOT captured — drain take_evicted()
  /// before checkpointing.
  common::Json checkpoint() const;

  /// Writes checkpoint() to `path` durably: the document goes to
  /// `path.tmp` first and is atomically renamed over `path`, so a crash
  /// mid-write never leaves a torn checkpoint behind.
  void checkpoint_file(const std::string& path) const;

  /// Rebuilds a detector from a checkpoint() document. Throws a single
  /// clear std::runtime_error on version mismatch, checksum mismatch, or
  /// a malformed document. The resumed detector's subsequent reports are
  /// byte-identical to an uninterrupted run over the same stream.
  static OnlineDetector restore(const IntelLog& model, const common::Json& doc,
                                std::size_t jobs = 1, Limits limits = {});

  /// restore() from a file written by checkpoint_file().
  static OnlineDetector restore_file(const IntelLog& model, const std::string& path,
                                     std::size_t jobs = 1, Limits limits = {});

 private:
  struct SessionState {
    logparse::Session session;
    std::uint64_t first_seen_ms = 0;  ///< watchdog clock (stream time)
    std::uint64_t last_seen_ms = 0;
    std::uint64_t lru_seq = 0;        ///< arrival recency (monotone counter)
    std::uint64_t ingress_unix_ms = 0;  ///< earliest arrival stamp (0: none)
  };

  /// Registry handles (nullptr each when metrics were disabled at
  /// construction). Counters: `intellog_online_records_total`,
  /// `intellog_online_unexpected_total`,
  /// `intellog_online_sessions_closed_total{reason=
  ///     "explicit"|"idle"|"evicted"|"watchdog"}`,
  /// `intellog_online_degraded_reports_total`; gauges
  /// `intellog_online_open_sessions`, `intellog_online_buffered_records`;
  /// histogram `intellog_online_consume_us`.
  struct Telemetry {
    obs::Counter* records = nullptr;
    obs::Counter* unexpected = nullptr;
    obs::Counter* closed_explicit = nullptr;
    obs::Counter* closed_idle = nullptr;
    obs::Counter* closed_evicted = nullptr;
    obs::Counter* closed_watchdog = nullptr;
    obs::Counter* degraded = nullptr;
    obs::Gauge* open_sessions = nullptr;
    obs::Gauge* buffered_records = nullptr;
    obs::Histogram* consume_us = nullptr;
  };

  void update_gauges();
  void touch(const std::string& container_id, SessionState& state);
  /// Removes a session's bookkeeping (lru entry, record count) and returns
  /// its Session. The open_ entry itself is erased by the caller's iterator.
  logparse::Session detach(std::map<std::string, SessionState>::iterator it);
  /// Evicts LRU sessions until the caps hold, pushing degraded reports
  /// into evicted_.
  void enforce_caps();

  const IntelLog& model_;
  std::size_t jobs_;
  Limits limits_;
  std::map<std::string, SessionState> open_;
  std::map<std::uint64_t, std::string> lru_;  ///< lru_seq -> container id
  std::uint64_t seq_ = 0;
  std::size_t total_records_ = 0;
  std::vector<AnomalyReport> evicted_;
  std::map<std::string, std::uint64_t> closed_ingress_;  ///< see take_closed_ingress
  Telemetry tel_;
};

}  // namespace intellog::core
