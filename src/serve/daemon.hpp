// The `intellog serve` supervision loop.
//
// One daemon owns a root directory of tenant spools (`<root>/<tenant>/`),
// one TenantShard per tenant, and one ThreadPool that shard ticks are
// multiplexed over. Each supervision tick fans every shard's tick() out to
// the pool, waits with a per-shard heartbeat deadline, and applies the
// results on the daemon thread (ledger appends, metrics, checkpoints,
// status) — shards never touch the filesystem for writes themselves.
// Before it submits a tick, the daemon thread drains the SpoolWatch and
// tells each shard whether its spool changed, so a shard with a backlog
// lists its directory only when a spool name arrived or left.
//
// Wedged-shard recovery: a tick that misses its heartbeat deadline is
// abandoned — the shard instance and its still-running future move to an
// orphan graveyard (kept alive until the task actually returns, so nothing
// is freed under a running thread), and a replacement shard with a bumped
// epoch is restored from the tenant's last checkpoint. Stale results from
// orphaned epochs are discarded by epoch guard.
//
// Shutdown paths:
//  - SIGTERM/SIGINT (or max_ticks): graceful drain — close every open
//    session, flush a final checkpoint + status, drain the pool.
//  - kill_after_ticks (soak harness): simulated crash — return mid-flight
//    with no drain and no final checkpoint, so recovery is exercised from
//    whatever the periodic checkpoint cadence left behind.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/intellog.hpp"
#include "serve/spool_watch.hpp"
#include "serve/tenant.hpp"

namespace intellog::serve {

struct ServeOptions {
  std::string root;        ///< directory of tenant subdirectories
  std::string model_path;  ///< default model; `<tenant>/model.json` overrides

  std::size_t jobs = 2;          ///< pool threads shard ticks multiplex over
  std::uint64_t poll_ms = 50;    ///< sleep between ticks when nothing was admitted
  std::uint64_t checkpoint_every_ticks = 8;
  std::uint64_t heartbeat_timeout_ms = 2000;  ///< wedged-shard deadline
  std::uint64_t metrics_interval_s = 0;       ///< 0: flush metrics every tick

  std::uint64_t max_ticks = 0;        ///< 0: run until stop signal; else drain after N
  std::uint64_t kill_after_ticks = 0; ///< soak: simulated crash after N ticks (no drain)
  bool drain_on_empty = false;        ///< exit cleanly once every tenant is idle
  bool handle_signals = true;         ///< install SIGTERM/SIGINT stop handlers

  std::string status_path;       ///< empty: no status snapshots
  std::string metrics_path;      ///< empty: no metrics snapshots
  std::string alert_rules_path;  ///< empty: AlertEngine::serve_rules()

  /// Flight-recorder blackbox file: enables the always-on event journal,
  /// rotates a prior dump to "<path>.1", and pre-opens the fd the crash
  /// handler dumps to on SIGSEGV/SIGBUS/SIGABRT/SIGFPE (and the graceful
  /// drain / watchdog paths snapshot to). Empty: recorder stays as-is.
  std::string blackbox;

  /// "HOST:PORT": mount the live admin plane (/metrics, /status.json,
  /// /healthz, /readyz, /tenants, /alerts, /profilez) on an embedded HTTP
  /// server. Port 0 binds an ephemeral port (resolved address goes to
  /// stderr and http_port()). Empty: no HTTP server.
  std::string listen;
  /// /readyz staleness probe: a tenant whose last checkpoint (or, before
  /// any, daemon start) is older than this reports not-ready. 0 disables.
  std::uint64_t checkpoint_deadline_ms = 60'000;

  TenantShard::Options shard;  ///< quotas/breaker/limits applied to every tenant

  /// Test-only fault injection, called on the pool thread at the start of
  /// every shard tick (sleep here to wedge a shard).
  std::function<void(const std::string& tenant, std::uint64_t tick)> fault_hook;
};

/// What one daemon run did, for callers (CLI exit summary, soak asserts).
struct ServeSummary {
  std::uint64_t ticks = 0;
  int stop_signal = 0;  ///< signal that triggered the drain, 0 when none
  bool killed = false;  ///< kill_after_ticks fired: state is crash-consistent
  std::map<std::string, TenantAccounting> tenants;
  std::map<std::string, std::uint64_t> restarts;         ///< wedged-shard restarts
  std::map<std::string, std::string> breaker_states;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoints_corrupt = 0;  ///< found corrupt at startup, renamed aside
  std::uint16_t http_port = 0;  ///< bound admin-plane port, 0 when --listen was off
};

class ServeDaemon {
 public:
  /// Discovers tenants, loads models, restores per-tenant checkpoints
  /// (corrupt ones are renamed to `.checkpoint.json.corrupt` and counted,
  /// never trusted). Throws std::runtime_error on unusable root/model.
  explicit ServeDaemon(ServeOptions options);
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Runs the supervision loop until a stop condition; blocking.
  ServeSummary run();

  /// Tenant names in service order (sorted).
  std::vector<std::string> tenants() const;

  /// The admin plane's bound port; 0 when Options::listen was empty. The
  /// server accepts from construction on (readiness says "starting" until
  /// the first supervision tick publishes real state).
  std::uint16_t http_port() const;

  /// Per-tenant checkpoint file path (under the tenant's spool directory).
  static std::string checkpoint_path(const std::string& tenant_dir);

 private:
  struct TenantState;
  struct Orphan;

  const core::IntelLog& model_for(const std::string& tenant_dir);
  void restore_or_reset(TenantState& ts);
  void write_checkpoint(TenantState& ts);
  void apply_result(TenantState& ts, TickResult result);
  void flush_status(std::uint64_t now_ms);
  void flush_metrics();

  ServeOptions options_;
  std::map<std::string, std::unique_ptr<core::IntelLog>> models_;  ///< by path
  std::vector<std::unique_ptr<TenantState>> tenants_;
  /// Slot i watches tenants_[i]'s directory. Opened by run(), closed by
  /// the destructor: closing an inotify instance can take tens of
  /// milliseconds, which neither a daemon that never runs nor the end of
  /// run() should wait for.
  std::unique_ptr<SpoolWatch> watch_;
  std::vector<std::unique_ptr<Orphan>> orphans_;
  ServeSummary summary_;
  std::uint64_t last_metrics_ns_ = 0;
  std::uint64_t last_checkpoint_ns_ = 0;
  std::uint64_t start_ns_ = 0;  ///< checkpoint-staleness reference before any write

  struct AlertsImpl;  ///< tseries + engine, hidden to keep includes local
  std::unique_ptr<AlertsImpl> alerts_;
  struct HttpImpl;  ///< embedded server + status board, hidden likewise
  std::unique_ptr<HttpImpl> http_;
};

}  // namespace intellog::serve
