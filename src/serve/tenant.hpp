// One tenant's slice of the `intellog serve` daemon.
//
// A tenant is a spool directory: producers atomically rename finished
// `<container>.log` files into it (one file = one session), and the shard
// consumes them through that tenant's own model + OnlineDetector. Every
// robustness mechanism is per-tenant so one misbehaving stream degrades
// only itself:
//
//  - Admission quotas: at most `max_records_per_tick` records and
//    `max_files_per_tick` files per tick — lossless backpressure, the
//    backlog simply stays in the spool.
//  - Shedding: when the pending backlog exceeds the file/byte caps, or a
//    single file trips the parse-bomb guard, whole files are shed to the
//    tenant's quarantine ledger with provenance instead of being parsed —
//    bounded work no matter what the producer does.
//  - Circuit breaker: a quarantine storm (garbage flood) or a shed event
//    opens the breaker; admission pauses for `open_ticks`, then a half-open
//    probe decides between closing it and re-opening. Files are never lost
//    while the breaker is open.
//  - Checkpoint/restore: cursor map + done-set + accounting + breaker state
//    + the detector checkpoint in one CRC32-stamped document, written with
//    atomic rename. The done-set holds only names the last complete spool
//    listing still saw, so a name that left the spool and comes back is a
//    new file. A killed daemon resumes with no double-counted
//    sessions; a corrupt checkpoint is renamed aside and counted, never
//    trusted.
//
// tick() performs no filesystem writes: everything to persist (reports,
// shed ledger entries) comes back in the TickResult and is written by the
// daemon thread. That is what makes in-process shard restarts safe — a
// wedged task abandoned by the supervisor can keep running on its orphaned
// shard instance without racing the replacement's output files.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "core/online.hpp"
#include "logparse/session.hpp"

namespace intellog::serve {

/// True for a name a producer spools: `*.log`, not a dotfile. Dotfiles are
/// the daemon's own artifacts (checkpoint, ledgers), and anything not
/// `*.log` is a producer temp file not yet renamed in.
bool is_spool_name(std::string_view name);

/// Per-tenant admission and backlog quotas. Defaults are sized for the
/// soak/test scale; the daemon scales them via CLI flags.
struct TenantQuotas {
  std::size_t max_records_per_tick = 5000;  ///< admission cap (lossless)
  std::size_t max_files_per_tick = 64;      ///< files opened per tick
  std::size_t max_backlog_files = 1024;     ///< pending files beyond this shed oldest-first
  std::size_t max_backlog_bytes = 256u << 20;  ///< pending bytes cap, same policy
  std::size_t max_file_bytes = 32u << 20;   ///< parse-bomb guard: larger files shed whole
};

/// Circuit-breaker tuning. The breaker trips on this tick's parse quality,
/// not lifetime averages, so a tenant that recovers closes again quickly.
struct BreakerConfig {
  double quarantine_frac = 0.5;   ///< trip when > frac of a tick's lines quarantine
  std::size_t min_lines = 64;     ///< ... with at least this many lines seen
  std::uint64_t open_ticks = 4;   ///< admission pause before the half-open probe
};

enum class BreakerState { Closed, Open, HalfOpen };
std::string_view to_string(BreakerState s);

/// Lifetime accounting for one tenant. Persisted inside the checkpoint, so
/// kill-and-resume reproduces the exact totals of an uninterrupted run.
struct TenantAccounting {
  std::uint64_t records_admitted = 0;
  std::uint64_t lines_seen = 0;
  std::uint64_t lines_quarantined = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t sessions_anomalous = 0;
  std::uint64_t files_done = 0;
  std::uint64_t files_shed = 0;
  std::uint64_t bytes_shed = 0;
  std::uint64_t breaker_trips = 0;
  /// Detect-path latency accounting (sum over per-record consume() wall
  /// time). mean = consume_us_sum / max(1, records_admitted).
  double consume_us_sum = 0.0;

  common::Json to_json() const;
  static TenantAccounting from_json(const common::Json& j);
};

/// One shed decision, with enough provenance to find the original bytes.
struct ShedRecord {
  std::string file;
  std::uint64_t bytes = 0;
  std::string reason;  ///< "parse-bomb" | "backlog-files" | "backlog-bytes"

  common::Json to_json() const;
};

/// What one tick produced; applied (written/counted) by the daemon thread.
struct TickResult {
  std::uint64_t epoch = 0;  ///< shard incarnation; stale results are discarded
  std::size_t records_admitted = 0;
  std::size_t lines_seen = 0;
  std::size_t lines_quarantined = 0;
  std::size_t sessions_closed = 0;
  std::size_t files_shed = 0;
  bool breaker_tripped = false;
  std::vector<core::AnomalyReport> reports;  ///< sessions closed this tick
  std::vector<ShedRecord> shed;              ///< to append to the shed ledger
  std::vector<logparse::QuarantinedLine> quarantined;  ///< quarantine ledger entries
  std::size_t pending_files = 0;             ///< backlog remaining after the tick
  std::uint64_t pending_bytes = 0;
  bool listed = false;                       ///< the tick read the spool directory
  /// Arrival stamps (container id -> spool-file mtime, unix ms) of every
  /// session closed this tick — the daemon turns these into end-to-end
  /// latency observations at ledger-write time.
  std::map<std::string, std::uint64_t> session_ingress_ms;
};

class TenantShard {
 public:
  struct Options {
    TenantQuotas quotas;
    BreakerConfig breaker;
    core::DetectorLimits limits;
    logparse::IngestOptions ingest;
    std::size_t detect_jobs = 1;
  };

  /// `model` must outlive the shard. `spool_dir` is the tenant directory
  /// under the daemon's root. Detection state starts empty; call restore()
  /// to resume from a checkpoint document.
  TenantShard(std::string tenant, std::string spool_dir, const core::IntelLog& model,
              Options options, std::uint64_t epoch);

  /// Runs one supervision tick: shed, admit, detect, breaker bookkeeping.
  /// Mutates only in-memory state; all filesystem writes ride the result.
  ///
  /// The tick lists the spool directory when `spool_changed` is set (the
  /// caller saw a spool name arrive or leave, or cannot tell), when the
  /// shard has not listed since construction or restore(), or when its
  /// pending index holds fewer than one tick's `max_files_per_tick` names.
  /// The last rule bounds what a missed change costs: a file is admitted at
  /// most one tick's admission after the backlog ahead of it.
  TickResult tick(bool spool_changed = true);

  // --- checkpoint / restore --------------------------------------------------
  static constexpr int kCheckpointVersion = 1;

  /// Snapshot of cursors, done-set, accounting, breaker, detector — CRC32
  /// stamped. Safe to call between ticks (the daemon thread owns it then).
  common::Json checkpoint() const;

  /// Restores the mutable state from a checkpoint() document. Throws one
  /// clear std::runtime_error (wrong kind/version/checksum/shape); the
  /// shard is left in its freshly-constructed state on failure.
  void restore(const common::Json& doc);

  const std::string& tenant() const { return tenant_; }
  const std::string& spool_dir() const { return spool_dir_; }
  std::uint64_t epoch() const { return epoch_; }
  BreakerState breaker_state() const { return breaker_state_; }
  const TenantAccounting& accounting() const { return accounting_; }
  const core::OnlineDetector& detector() const { return *online_; }
  std::size_t open_sessions() const { return online_->open_session_count(); }

  /// Drains every still-open session (graceful shutdown path); returned
  /// reports are already counted into the accounting.
  std::vector<core::AnomalyReport> close_all();

  /// Arrival stamps of sessions closed outside a tick (close_all drain);
  /// forwards OnlineDetector::take_closed_ingress.
  std::map<std::string, std::uint64_t> take_closed_ingress();

 private:
  /// One listed spool file the shard has not finished. The listing measures
  /// a name once per inode: the same name under a new d_ino (a file renamed
  /// over it) is measured again, anything else keeps its entry.
  struct SpoolEntry {
    std::uint64_t ino = 0;
    std::uint64_t bytes = 0;   ///< size at listing, refreshed at open
    std::uint64_t listed = 0;  ///< last listing generation that saw the name
  };
  using SpoolIndex = std::map<std::string, SpoolEntry, std::less<>>;

  /// A spool file as measured by the stat at open.
  struct OpenedFile {
    std::string path;
    std::uint64_t bytes = 0;
    std::uint64_t mtime_unix_ms = 0;  ///< spool arrival time
  };

  /// One readdir over the spool: new names join the index, names that left
  /// the directory drop out of the index and, when the listing completed,
  /// of the done-set.
  void list_spool();
  /// Sets an indexed entry's measured size; drops an entry from the index.
  /// Both keep the index totals, so no tick walks the index to size it.
  void measure(SpoolIndex::iterator it, std::uint64_t bytes);
  SpoolIndex::iterator unindex(SpoolIndex::iterator it);
  std::string spool_path(const std::string& name) const;
  /// Returns true when the file is finished (joined the done-set).
  bool consume_file(const std::string& name, const OpenedFile& file,
                    std::size_t& record_budget, TickResult& out);

  std::string tenant_;
  std::string spool_dir_;
  const core::IntelLog& model_;
  Options options_;
  std::uint64_t epoch_;

  std::unique_ptr<core::OnlineDetector> online_;
  std::map<std::string, std::uint64_t> cursors_;  ///< file name -> records consumed
  /// Fully consumed or shed names -> the last listing generation that saw
  /// them (or, for a name finished since, the generation it was indexed by).
  std::map<std::string, std::uint64_t, std::less<>> done_;
  /// Pending files in name order (the service order kill-and-resume
  /// replays). Not checkpointed: a restored shard rebuilds it from its
  /// first listing.
  SpoolIndex spool_;
  std::uint64_t spool_bytes_ = 0;    ///< sum of the index's measured sizes
  std::size_t spool_oversized_ = 0;  ///< indexed entries over max_file_bytes
  std::uint64_t listings_ = 0;  ///< listing generation counter
  bool relist_ = true;          ///< no listing since construction or restore()
  TenantAccounting accounting_;

  BreakerState breaker_state_ = BreakerState::Closed;
  std::uint64_t breaker_open_left_ = 0;  ///< ticks until half-open

  std::uint32_t flight_str_ = 0;  ///< interned tenant name (0: recorder off)
  std::uint64_t ticks_ = 0;       ///< ticks run by this shard instance
};

}  // namespace intellog::serve
