#include "serve/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.hpp"
#include "core/model_io.hpp"
#include "obs/export/status.hpp"
#include "obs/flight/flight.hpp"
#include "obs/http/admin.hpp"
#include "obs/http/http.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries/alerts.hpp"
#include "obs/timeseries/timeseries.hpp"
#include "serve/signals.hpp"

namespace intellog::serve {

namespace fs = std::filesystem;

namespace {

obs::Labels tenant_labels(const std::string& tenant) { return {{"tenant", tenant}}; }

/// Appends one JSON line per item to the tenant ledger `name`, through a
/// single open of the file.
template <class Items, class ToJson>
void append_jsonl(const std::string& tenant_dir, const char* name, const Items& items,
                  ToJson to_json) {
  if (items.empty()) return;
  std::ofstream out(fs::path(tenant_dir) / name, std::ios::app);
  if (!out) return;
  for (const auto& item : items) out << to_json(item).dump() << "\n";
}

common::Json report_to_json(const core::AnomalyReport& r) { return r.to_json(); }

common::Json quarantine_to_json(const logparse::QuarantinedLine& q) {
  common::Json j = common::Json::object();
  j["file"] = q.file;
  j["line_no"] = q.line_no;
  j["byte_offset"] = static_cast<std::int64_t>(q.byte_offset);
  j["raw_bytes"] = q.raw_bytes;
  j["reason"] = q.reason;
  j["text"] = q.text;
  return j;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Wall-clock now, unix ms — the same clock spool-file mtimes live on, so
/// `now - ingress` is a real end-to-end latency even across a daemon restart.
std::uint64_t unix_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

struct ServeDaemon::TenantState {
  std::string name;
  std::string dir;
  const core::IntelLog* model = nullptr;
  std::uint64_t epoch = 1;
  std::unique_ptr<TenantShard> shard;
  std::uint64_t restarts = 0;
  std::size_t pending_files = 0;
  std::uint64_t pending_bytes = 0;
  std::uint64_t last_checkpoint_ns = 0;  ///< 0: none written yet
};

/// A shard abandoned by the watchdog, kept alive until its tick() task
/// actually returns — nothing is freed under a running pool thread.
struct ServeDaemon::Orphan {
  std::future<TickResult> fut;
  std::unique_ptr<TenantShard> shard;
};

struct ServeDaemon::AlertsImpl {
  obs::ts::TimeSeriesStore store;
  obs::ts::AlertEngine engine;
  explicit AlertsImpl(std::vector<obs::ts::AlertRule> rules) : engine(std::move(rules)) {}
};

struct ServeDaemon::HttpImpl {
  obs::http::StatusBoard board;  ///< must outlive the server (handlers read it)
  obs::http::HttpServer server;
  explicit HttpImpl(obs::http::HttpServer::Options opts) : server(std::move(opts)) {}
};

std::string ServeDaemon::checkpoint_path(const std::string& tenant_dir) {
  return (fs::path(tenant_dir) / ".checkpoint.json").string();
}

const core::IntelLog& ServeDaemon::model_for(const std::string& tenant_dir) {
  std::string path = (fs::path(tenant_dir) / "model.json").string();
  if (!fs::exists(path)) path = options_.model_path;
  if (path.empty()) {
    throw std::runtime_error("serve: no model for tenant " + tenant_dir +
                             " (pass --model or drop a model.json into the tenant dir)");
  }
  auto it = models_.find(path);
  if (it == models_.end()) {
    it = models_.emplace(path, std::make_unique<core::IntelLog>(core::load_model_file(path)))
             .first;
  }
  return *it->second;
}

void ServeDaemon::restore_or_reset(TenantState& ts) {
  const std::string path = checkpoint_path(ts.dir);
  if (!fs::exists(path)) return;
  try {
    ts.shard->restore(common::Json::parse(read_file(path)));
  } catch (const std::exception&) {
    // Corrupt checkpoints are renamed aside (never deleted — they are the
    // forensic evidence) and the tenant starts fresh from its spool.
    std::error_code ec;
    fs::rename(path, path + ".corrupt", ec);
    ++summary_.checkpoints_corrupt;
    if (obs::MetricsRegistry* reg = obs::registry()) {
      reg->counter("intellog_serve_checkpoint_corrupt_total", tenant_labels(ts.name)).add(1);
    }
    // restore() throws before mutating, so the shard is still fresh here.
  }
}

ServeDaemon::ServeDaemon(ServeOptions options) : options_(std::move(options)) {
  if (!fs::is_directory(options_.root)) {
    throw std::runtime_error("serve: root is not a directory: " + options_.root);
  }
  // Before tenant discovery: shard constructors intern their tenant names
  // into the recorder's string table, which requires it to be live first.
  if (!options_.blackbox.empty()) {
    obs::flight::flight_enable();
    if (!obs::flight::flight_set_dump_path(options_.blackbox)) {
      throw std::runtime_error("serve: cannot open blackbox file: " + options_.blackbox);
    }
  }
  alerts_ = std::make_unique<AlertsImpl>(
      options_.alert_rules_path.empty()
          ? obs::ts::AlertEngine::serve_rules()
          : obs::ts::AlertEngine::rules_from_json(
                common::Json::parse(read_file(options_.alert_rules_path))));

  for (fs::directory_iterator it(options_.root), end; it != end; ++it) {
    if (!it->is_directory()) continue;
    const std::string name = it->path().filename().string();
    if (name.empty() || name[0] == '.') continue;
    auto ts = std::make_unique<TenantState>();
    ts->name = name;
    ts->dir = it->path().string();
    ts->model = &model_for(ts->dir);
    ts->shard = std::make_unique<TenantShard>(name, ts->dir, *ts->model, options_.shard,
                                              ts->epoch);
    tenants_.push_back(std::move(ts));
  }
  if (tenants_.empty()) {
    throw std::runtime_error("serve: no tenant directories under " + options_.root);
  }
  std::sort(tenants_.begin(), tenants_.end(),
            [](const auto& a, const auto& b) { return a->name < b->name; });
  for (auto& ts : tenants_) restore_or_reset(*ts);

  if (obs::MetricsRegistry* reg = obs::registry()) {
    reg->describe("intellog_serve_records_total", "records admitted per tenant");
    reg->describe("intellog_serve_lines_total", "spool lines parsed per tenant");
    reg->describe("intellog_serve_quarantined_total", "spool lines quarantined per tenant");
    reg->describe("intellog_serve_sessions_closed_total", "sessions closed per tenant");
    reg->describe("intellog_serve_anomalous_total", "anomalous sessions per tenant");
    reg->describe("intellog_serve_files_shed_total",
                  "whole spool files shed to the quarantine ledger (backpressure)");
    reg->describe("intellog_serve_bytes_shed_total", "bytes shed with those files");
    reg->describe("intellog_serve_breaker_trips_total", "tenant circuit-breaker trips");
    reg->describe("intellog_serve_spool_listings_total",
                  "spool directory listings per tenant (a tenant with a backlog lists "
                  "only when a spool name arrived or left)");
    reg->describe("intellog_serve_shard_restarts_total",
                  "wedged shards replaced by the heartbeat watchdog");
    reg->describe("intellog_serve_checkpoints_total", "tenant checkpoints written");
    reg->describe("intellog_serve_checkpoint_corrupt_total",
                  "corrupt tenant checkpoints found at restore and renamed aside");
    reg->describe("intellog_serve_ticks_total", "supervision ticks");
    reg->describe("intellog_serve_pending_files", "spool backlog per tenant (files)");
    reg->describe("intellog_serve_pending_bytes", "spool backlog per tenant (bytes)");
    reg->describe("intellog_serve_queue_saturation_ratio",
                  "worst tenant backlog as a fraction of the shed threshold "
                  "(>= 1 means shedding)");
    reg->describe("intellog_serve_breakers_open", "tenants whose breaker is not closed");
    reg->describe("intellog_serve_e2e_latency_ms",
                  "end-to-end session latency per tenant: spool-file arrival "
                  "(mtime) to report-ledger write");
    for (const auto& ts : tenants_) {
      reg->counter("intellog_serve_spool_listings_total", tenant_labels(ts->name));
    }
  }

  start_ns_ = obs::monotonic_ns();
  if (!options_.listen.empty()) {
    const auto [host, port] = obs::http::split_host_port(options_.listen);
    obs::http::HttpServer::Options hopts;
    hopts.host = host;
    hopts.port = port;
    http_ = std::make_unique<HttpImpl>(hopts);
    obs::http::Readiness starting;
    starting.ready = false;
    starting.reasons.push_back("starting: no supervision tick yet");
    http_->board.publish(common::Json::object(), std::move(starting));
    obs::http::mount_admin_plane(http_->server, http_->board);
    http_->server.start();
    summary_.http_port = http_->server.port();
    // Machine-greppable line for harnesses that listen on an ephemeral port.
    std::fprintf(stderr, "intellog serve: admin plane listening on http://%s:%u\n",
                 host.c_str(), static_cast<unsigned>(http_->server.port()));
  }
}

ServeDaemon::~ServeDaemon() = default;

std::vector<std::string> ServeDaemon::tenants() const {
  std::vector<std::string> out;
  for (const auto& ts : tenants_) out.push_back(ts->name);
  return out;
}

std::uint16_t ServeDaemon::http_port() const {
  return http_ ? http_->server.port() : 0;
}

void ServeDaemon::write_checkpoint(TenantState& ts) {
  obs::write_json_atomic(ts.shard->checkpoint(), checkpoint_path(ts.dir));
  ts.last_checkpoint_ns = obs::monotonic_ns();
  ++summary_.checkpoints_written;
  if (obs::MetricsRegistry* reg = obs::registry()) {
    reg->counter("intellog_serve_checkpoints_total", tenant_labels(ts.name)).add(1);
  }
}

void ServeDaemon::apply_result(TenantState& ts, TickResult r) {
  if (r.epoch != ts.epoch) return;  // stale result from an orphaned incarnation

  append_jsonl(ts.dir, ".reports.jsonl", r.reports, report_to_json);
  append_jsonl(ts.dir, ".shed.jsonl", r.shed, [](const ShedRecord& s) { return s.to_json(); });
  append_jsonl(ts.dir, ".quarantine.jsonl", r.quarantined, quarantine_to_json);

  ts.pending_files = r.pending_files;
  ts.pending_bytes = r.pending_bytes;

  if (obs::MetricsRegistry* reg = obs::registry()) {
    const obs::Labels labels = tenant_labels(ts.name);
    reg->counter("intellog_serve_records_total", labels).add(r.records_admitted);
    reg->counter("intellog_serve_lines_total", labels).add(r.lines_seen);
    reg->counter("intellog_serve_quarantined_total", labels).add(r.lines_quarantined);
    reg->counter("intellog_serve_sessions_closed_total", labels).add(r.sessions_closed);
    reg->counter("intellog_serve_anomalous_total", labels).add(r.reports.size());
    reg->counter("intellog_serve_files_shed_total", labels).add(r.files_shed);
    std::uint64_t shed_bytes = 0;
    for (const auto& s : r.shed) shed_bytes += s.bytes;
    reg->counter("intellog_serve_bytes_shed_total", labels).add(shed_bytes);
    if (r.breaker_tripped) reg->counter("intellog_serve_breaker_trips_total", labels).add(1);
    if (r.listed) reg->counter("intellog_serve_spool_listings_total", labels).add(1);
    reg->gauge("intellog_serve_pending_files", labels)
        .set(static_cast<double>(r.pending_files));
    reg->gauge("intellog_serve_pending_bytes", labels)
        .set(static_cast<double>(r.pending_bytes));

    // End-to-end latency: the report ledger for these sessions was just
    // written above, so "now - spool arrival" is the full pipeline time.
    // The exemplar names the session, so a slow bucket is actionable.
    if (!r.session_ingress_ms.empty()) {
      obs::Histogram& hist = reg->histogram("intellog_serve_e2e_latency_ms", labels);
      const std::uint64_t now = unix_now_ms();
      for (const auto& [id, ingress] : r.session_ingress_ms) {
        const double ms = now > ingress ? static_cast<double>(now - ingress) : 0.0;
        hist.observe(ms, id);
      }
    }
  }
}

void ServeDaemon::flush_metrics() {
  if (options_.metrics_path.empty()) return;
  const obs::MetricsRegistry* reg = obs::registry();
  if (!reg) return;
  obs::write_json_atomic(reg->to_json(), options_.metrics_path);
}

void ServeDaemon::flush_status(std::uint64_t now_ms) {
  if (options_.status_path.empty() && !http_) return;
  obs::StatusContext ctx;
  ctx.registry = obs::registry();
  ctx.alerts = &alerts_->engine;
  common::Json doc = obs::build_status(ctx);

  // Aggregate occupancy across shards, so the standard `top`/validator view
  // of a serve status still reads like a detect status. The same pass
  // derives /readyz: every failing condition becomes a reason string.
  obs::http::Readiness rd;
  double saturation = 0.0;
  std::size_t open = 0, buffered = 0, pending_evicted = 0;
  common::Json tenants = common::Json::array();
  for (const auto& ts : tenants_) {
    const core::OnlineDetector& det = ts->shard->detector();
    open += det.open_session_count();
    buffered += det.total_buffered_records();
    pending_evicted += det.pending_evicted();

    const BreakerState breaker = ts->shard->breaker_state();
    if (breaker != BreakerState::Closed) {
      rd.ready = false;
      rd.reasons.push_back("breaker " + std::string(to_string(breaker)) + ": " + ts->name);
    }
    if (options_.shard.quotas.max_backlog_files > 0) {
      saturation = std::max(
          saturation, static_cast<double>(ts->pending_files) /
                          static_cast<double>(options_.shard.quotas.max_backlog_files));
    }
    if (options_.checkpoint_deadline_ms != 0) {
      const std::uint64_t ref =
          ts->last_checkpoint_ns != 0 ? ts->last_checkpoint_ns : start_ns_;
      if (obs::monotonic_ns() - ref > options_.checkpoint_deadline_ms * 1'000'000ull) {
        rd.ready = false;
        rd.reasons.push_back("checkpoint stale: " + ts->name);
      }
    }

    common::Json t = common::Json::object();
    t["tenant"] = ts->name;
    t["epoch"] = static_cast<std::int64_t>(ts->epoch);
    t["breaker"] = std::string(to_string(breaker));
    t["open_sessions"] = det.open_session_count();
    t["buffered_records"] = det.total_buffered_records();
    t["pending_files"] = ts->pending_files;
    t["pending_bytes"] = static_cast<std::int64_t>(ts->pending_bytes);
    t["restarts"] = static_cast<std::int64_t>(ts->restarts);
    t["checkpoint_age_s"] =
        ts->last_checkpoint_ns == 0
            ? common::Json(nullptr)
            : common::Json(static_cast<double>(obs::monotonic_ns() - ts->last_checkpoint_ns) /
                           1e9);
    t["accounting"] = ts->shard->accounting().to_json();
    if (ctx.registry) {
      if (const obs::Histogram* h = ctx.registry->find_histogram(
              "intellog_serve_e2e_latency_ms", tenant_labels(ts->name))) {
        t["e2e_latency_ms"] = obs::histogram_to_json(*h);
      }
    }
    tenants.push_back(std::move(t));
  }
  if (saturation >= 1.0) {
    rd.ready = false;
    rd.reasons.push_back("backlog saturated (shedding)");
  }
  common::Json occ = common::Json::object();
  occ["open_sessions"] = open;
  occ["max_sessions"] = options_.shard.limits.max_sessions;
  occ["buffered_records"] = buffered;
  occ["max_buffered_records"] = options_.shard.limits.max_buffered_records;
  occ["max_session_age_ms"] =
      static_cast<std::int64_t>(options_.shard.limits.max_session_age_ms);
  occ["pending_evicted"] = pending_evicted;
  doc["occupancy"] = std::move(occ);
  doc["tenants"] = std::move(tenants);
  (void)now_ms;
  if (http_) http_->board.publish(doc, std::move(rd));
  if (!options_.status_path.empty()) obs::write_json_atomic(doc, options_.status_path);
}

ServeSummary ServeDaemon::run() {
  if (options_.handle_signals) {
    install_stop_signals();
    // Fatal-signal forensics ride the same opt-in: freeze + dump the
    // flight rings to the pre-opened blackbox fd, then die with the
    // original signal.
    install_crash_signals();
  }
  common::ThreadPool pool(std::max<std::size_t>(1, options_.jobs));
  obs::MetricsRegistry* reg = obs::registry();
  bool drain = false;
  // Every watch is in place before the first tick, and every shard lists
  // on its first tick, so no arrival falls between the two.
  watch_ = std::make_unique<SpoolWatch>();
  for (const auto& ts : tenants_) watch_->add(ts->dir);

  while (true) {
    // Reap orphans whose wedged tasks finally returned; their results are
    // from a dead epoch and are discarded unseen.
    orphans_.erase(std::remove_if(orphans_.begin(), orphans_.end(),
                                  [](const std::unique_ptr<Orphan>& o) {
                                    return o->fut.wait_for(std::chrono::seconds(0)) ==
                                           std::future_status::ready;
                                  }),
                   orphans_.end());

    const std::uint64_t tick_no = ++summary_.ticks;
    if (reg) reg->counter("intellog_serve_ticks_total").add(1);

    struct InFlight {
      TenantState* ts;
      std::future<TickResult> fut;
    };
    std::vector<InFlight> inflight;
    inflight.reserve(tenants_.size());
    // Drained here, on the daemon thread, before any shard runs: a change
    // that lands after this drain stays queued for the next tick.
    const std::vector<bool> changed = watch_->take_changes();
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      TenantShard* shard = tenants_[i]->shard.get();
      auto hook = options_.fault_hook;
      std::string name = tenants_[i]->name;
      const bool spool_changed = changed[i];
      inflight.push_back(
          {tenants_[i].get(), pool.submit([shard, hook, name, tick_no, spool_changed] {
             if (hook) hook(name, tick_no);
             return shard->tick(spool_changed);
           })});
    }

    std::size_t admitted = 0;
    bool all_idle = true;
    for (auto& f : inflight) {
      if (f.fut.wait_for(std::chrono::milliseconds(options_.heartbeat_timeout_ms)) ==
          std::future_status::ready) {
        TickResult r = f.fut.get();
        admitted += r.records_admitted;
        if (r.records_admitted != 0 || r.pending_files != 0 ||
            f.ts->shard->open_sessions() != 0 ||
            f.ts->shard->breaker_state() != BreakerState::Closed) {
          all_idle = false;
        }
        apply_result(*f.ts, std::move(r));
      } else {
        // Missed heartbeat: abandon this incarnation (it keeps running on
        // its own shard instance in the graveyard) and restore a
        // replacement from the last checkpoint. Work since that checkpoint
        // is replayed from the spool cursor — same math as kill-and-resume.
        all_idle = false;
        // Snapshot the blackbox once the replacement is in place: a wedge
        // is exactly the situation the rings were recording for, and it
        // must not require a crash to become readable.
        obs::flight::ScopedFlightDump wedge_dump(obs::flight::DumpReason::kWatchdog);
        auto orphan = std::make_unique<Orphan>();
        orphan->fut = std::move(f.fut);
        orphan->shard = std::move(f.ts->shard);
        orphans_.push_back(std::move(orphan));
        ++f.ts->epoch;
        ++f.ts->restarts;
        f.ts->shard = std::make_unique<TenantShard>(f.ts->name, f.ts->dir, *f.ts->model,
                                                    options_.shard, f.ts->epoch);
        restore_or_reset(*f.ts);
        FLIGHT_EVENT_STR(kWatchdogRestart, f.ts->epoch, tick_no,
                         obs::flight::flight_intern(f.ts->name));
        if (reg) {
          reg->counter("intellog_serve_shard_restarts_total", tenant_labels(f.ts->name))
              .add(1);
        }
      }
    }

    if (reg) {
      double saturation = 0.0;
      double open_breakers = 0.0;
      for (const auto& ts : tenants_) {
        if (options_.shard.quotas.max_backlog_files > 0) {
          saturation = std::max(
              saturation, static_cast<double>(ts->pending_files) /
                              static_cast<double>(options_.shard.quotas.max_backlog_files));
        }
        if (ts->shard->breaker_state() != BreakerState::Closed) open_breakers += 1.0;
      }
      reg->double_gauge("intellog_serve_queue_saturation_ratio").set(saturation);
      reg->gauge("intellog_serve_breakers_open")
          .set(static_cast<std::int64_t>(open_breakers));
    }

    if (options_.checkpoint_every_ticks != 0 &&
        tick_no % options_.checkpoint_every_ticks == 0) {
      for (auto& ts : tenants_) write_checkpoint(*ts);
    }

    const std::uint64_t now_ms = obs::monotonic_ns() / 1'000'000;
    if (reg) {
      alerts_->store.observe_registry(*reg, now_ms);
      alerts_->engine.evaluate(alerts_->store, now_ms);
    }
    flush_status(now_ms);
    const std::uint64_t interval_ns = options_.metrics_interval_s * 1'000'000'000ull;
    if (interval_ns == 0 || obs::monotonic_ns() - last_metrics_ns_ >= interval_ns) {
      flush_metrics();
      last_metrics_ns_ = obs::monotonic_ns();
    }

    if (options_.kill_after_ticks != 0 && tick_no >= options_.kill_after_ticks) {
      // Simulated crash for the soak harness: no drain, no final
      // checkpoint — recovery starts from whatever the periodic cadence
      // last persisted.
      summary_.killed = true;
      break;
    }
    const int sig = stop_signal();
    if (sig != 0 || (options_.max_ticks != 0 && tick_no >= options_.max_ticks) ||
        (options_.drain_on_empty && all_idle)) {
      summary_.stop_signal = sig;
      FLIGHT_EVENT(kDrainBegin, static_cast<std::uint64_t>(sig), tick_no);
      drain = true;
      break;
    }
    if (admitted == 0 && options_.poll_ms != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.poll_ms));
    }
  }

  if (drain) {
    // Graceful drain: close every open session (reports go to the same
    // ledger), persist final checkpoints, publish a last status/metrics
    // snapshot, and drain the pool deterministically. The blackbox gets a
    // farewell snapshot when this scope closes.
    obs::flight::ScopedFlightDump drain_dump(obs::flight::DumpReason::kGracefulDrain);
    std::uint64_t drained_sessions = 0;
    for (auto& ts : tenants_) {
      std::vector<core::AnomalyReport> reports = ts->shard->close_all();
      drained_sessions += reports.size();
      std::erase_if(reports, [](const core::AnomalyReport& rep) { return !rep.anomalous(); });
      append_jsonl(ts->dir, ".reports.jsonl", reports, report_to_json);
      if (reg) {
        // Sessions force-closed by the drain still get their end-to-end
        // observation — their reports were just written above.
        const auto stamps = ts->shard->take_closed_ingress();
        if (!stamps.empty()) {
          obs::Histogram& hist =
              reg->histogram("intellog_serve_e2e_latency_ms", tenant_labels(ts->name));
          const std::uint64_t now = unix_now_ms();
          for (const auto& [id, ingress] : stamps) {
            hist.observe(now > ingress ? static_cast<double>(now - ingress) : 0.0, id);
          }
        }
      }
      write_checkpoint(*ts);
    }
    flush_status(obs::monotonic_ns() / 1'000'000);
    flush_metrics();
    pool.shutdown(common::ThreadPool::DrainMode::Drain);
    FLIGHT_EVENT(kDrainEnd, summary_.ticks, drained_sessions);
  }
  // On the kill path the pool destructor joins the workers; orphaned tasks
  // finish against shards that stay alive in the graveyard until then.

  // Stop answering before run() returns on every path (drain and simulated
  // crash): the admin plane's lifetime is the supervision loop's.
  if (http_) http_->server.stop();

  for (const auto& ts : tenants_) {
    summary_.tenants[ts->name] = ts->shard->accounting();
    summary_.restarts[ts->name] = ts->restarts;
    summary_.breaker_states[ts->name] = std::string(to_string(ts->shard->breaker_state()));
  }
  return summary_;
}

}  // namespace intellog::serve
