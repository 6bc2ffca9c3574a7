// intellog — command-line front end for the pipeline.
//
//   intellog train  <logdir> -o model.json            build a model from
//                                                     fault-free log files
//   intellog detect <logdir> -m model.json [--json]   analyze new sessions
//   intellog graph  -m model.json [--dot|--json]      inspect the HW-graph
//   intellog keys   -m model.json                     list Intel Keys
//   intellog stats  <logdir> -m model.json [--json]   pipeline metrics
//   intellog quarantine <logdir> [--json]             lines the hardened
//                                                     ingester refused
//
// Workflow Observatory commands:
//   intellog export-trace <logdir> -m model [-o trace.json] [--otlp f]
//       reconstructed HW-graph instances as span trees (Chrome trace /
//       OTLP-style JSON) — load the trace in https://ui.perfetto.dev
//   intellog explain <report.json|logdir> -m model [--json]
//       expected-vs-observed diffs with raw-line provenance for every
//       finding; accepts a saved `detect --json` report or a log dir
//   intellog top <status.json>
//       renders a --status-file snapshot (live streaming introspection)
//
// Performance Observatory:
//   intellog profile [-o <prefix>] <cmd> [args...]
//       runs any subcommand under the in-process sampling profiler;
//       `--profile <out>` on the subcommand itself is equivalent. Writes
//       collapsed stacks (<out>, CPU samples; <out>.alloc, allocation
//       bytes) for flamegraph.pl / speedscope, plus <out>.pprof.json.
//
// `detect --checkpoint <file>` switches to streaming mode: records feed an
// OnlineDetector one by one, the detector state plus a stream cursor is
// written to <file> every --checkpoint-every records (atomic rename), and
// a restarted run resumes from the checkpoint instead of re-reporting
// sessions it already finished. The checkpoint is removed on completion.
// `--status-file <f>` and `--metrics-interval <sec>` also stream: the
// detector publishes a status snapshot / metrics file periodically with
// the same atomic-rename discipline as checkpoints.
//
// `train`, `detect` and `stats` accept `--metrics <file>` (snapshot of the
// pipeline metrics registry; `.prom`/`.txt` -> Prometheus text, otherwise
// JSON) and `--trace <file>` (the pipeline stages and flight-recorder
// events of the run's last 4096 records per thread, as Chrome trace-event
// JSON — load it in https://ui.perfetto.dev or about://tracing).
//
// Log directories hold one `<container_id>.log` file per session (any mix
// of the supported formats; auto-detected per file). `tools/loggen`
// produces compatible datasets from the simulators.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/explain.hpp"
#include "core/message_store.hpp"
#include "obs/profile/profile.hpp"
#include "core/model_diff.hpp"
#include "core/model_io.hpp"
#include "core/online.hpp"
#include "core/query.hpp"
#include "core/scoring.hpp"
#include "logparse/log_io.hpp"
#include "obs/export/status.hpp"
#include "obs/export/trace_export.hpp"
#include "obs/http/admin.hpp"
#include "obs/http/http.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries/alerts.hpp"
#include "obs/timeseries/timeseries.hpp"
#include "serve/daemon.hpp"
#include "serve/signals.hpp"

using namespace intellog;

namespace {

int usage() {
  std::cerr << "usage:\n"
               "  intellog train  <logdir> -o <model.json> [--metrics <f>] [--trace <f>]\n"
               "  intellog detect <logdir> -m <model.json> [--json] [--jobs N] [--metrics <f>]"
               " [--trace <f>]\n"
               "                  [--checkpoint <f> [--checkpoint-every N]]\n"
               "  intellog stats  <logdir> -m <model.json> [--json] [--jobs N] [--metrics <f>]"
               " [--trace <f>]\n"
               "  intellog graph  -m <model.json> [--dot|--json|--critical]\n"
               "  intellog keys   -m <model.json>\n"
               "  intellog query  <logdir> -m <model.json> -q '<expr>' [--json]\n"
               "      expr: e.g. 'id.FETCHER=1 AND locality~host1', 'key=12 OR value>1000'\n"
               "  intellog quarantine <logdir> [--json] [--metrics <f>]\n"
               "      list lines the hardened ingester quarantined (exit 3 when any)\n"
               "  intellog export-trace <logdir> -m <model.json> [-o <trace.json>] [--otlp <f>]\n"
               "      export HW-graph instances as span trees (Chrome trace / OTLP JSON)\n"
               "  intellog explain <report.json|logdir> -m <model.json> [--json]\n"
               "      expected-vs-observed explanation with raw-line provenance per finding\n"
               "  intellog top <status.json> | top --connect <HOST:PORT> [--timeout-ms N]\n"
               "      render a --status-file snapshot, or fetch /status.json from a\n"
               "      --listen admin plane and render the same view (exit 2 when the\n"
               "      host does not answer within the deadline, default 2000ms)\n"
               "  intellog healthcheck <HOST:PORT> [--timeout-ms N]\n"
               "      probe /readyz on a --listen admin plane; exit 0 ready, 1 degraded\n"
               "      (503 + reasons), 2 unreachable within the deadline (default 2000ms)\n"
               "  intellog flight decode <blackbox.bin> [--json|--trace]\n"
               "      decode a flight-recorder dump (--blackbox) into a merged\n"
               "      time-ordered event log (default annotated text; --json machine\n"
               "      form; --trace Chrome trace-event JSON for Perfetto)\n"
               "  intellog serve <root> -m <model.json> [--jobs N] [--status-file <f>]\n"
               "      [--metrics <f>] [--alert-rules <f>] [--listen <HOST:PORT>]\n"
               "      [--poll-ms N] [--max-ticks N]\n"
               "      [--drain-on-empty] [--checkpoint-ticks N] [--heartbeat-ms N]\n"
               "      [--records-per-tick N] [--backlog-files N] [--max-file-bytes N]\n"
               "      [--breaker-open-ticks N] [--blackbox <f>]\n"
               "      multi-tenant daemon: each subdirectory of <root> is a tenant spool\n"
               "      (drop <container>.log files in; <tenant>/model.json overrides -m).\n"
               "      Per-tenant quotas, circuit breakers, CRC32 checkpoints; SIGTERM\n"
               "      drains gracefully. Reports append to <tenant>/.reports.jsonl\n"
               "  intellog profile [-o <prefix>] <cmd> [args...]\n"
               "      run any subcommand under the sampling profiler; writes <prefix>\n"
               "      (collapsed stacks for flamegraph.pl/speedscope), <prefix>.alloc\n"
               "      (same, weighted by alloc bytes) and <prefix>.pprof.json\n"
               "      (default prefix: intellog.prof)\n"
               "  intellog coverage <logdir> -m <model.json> [--json] [--jobs N]\n"
               "      which model components this workload exercises (dead/stale report)\n"
               "  intellog diff-model <modelA.json> <modelB.json> [--json]\n"
               "      structural model diff with a scalar drift score (0 = identical)\n"
               "  intellog score <report.json>... --labels <labels.json>... [--json]\n"
               "      precision/recall/F1 of detect --json report(s) vs loggen ground\n"
               "      truth; pass one --labels per report (pairs match in order)\n"
               "  --jobs:    worker threads for reading <logdir> and for batch detection\n"
               "      (0 = hardware concurrency); output is identical at any N\n"
               "  --metrics: write a metrics snapshot (.prom/.txt -> Prometheus text, else JSON)\n"
               "  --trace:   write pipeline stage spans as Chrome trace-event JSON (Perfetto)\n"
               "  --checkpoint: stream records through the online detector, checkpointing\n"
               "      state to <f> every N records (default 1000); resumes if <f> exists\n"
               "  --status-file <f>: (detect) publish a live status snapshot (atomic rename)\n"
               "  --metrics-interval <sec>: (detect) flush --metrics/--status-file every\n"
               "      <sec> seconds while streaming\n"
               "  --alert-rules <f>: (detect, streaming) JSON alert rules evaluated over\n"
               "      windowed telemetry at each flush; default: built-in self-monitoring\n"
               "      rules (quarantine burst, evictions, unexpected-key rate, degraded)\n"
               "  --coverage <f>: (detect) stamp the model coverage ledger during the run\n"
               "      and write the coverage report JSON to <f>\n"
               "  --listen <HOST:PORT>: (serve, streaming detect) embedded HTTP admin\n"
               "      plane — /metrics (Prometheus), /status.json, /tenants, /alerts,\n"
               "      /healthz, /readyz, /profilez?seconds=N; port 0 binds ephemeral\n"
               "      (resolved address is logged to stderr)\n"
               "  --profile <out>: profile this command (same outputs as `intellog\n"
               "      profile`); INTELLOG_PROF_PERIOD_US overrides the sample period\n"
               "  --blackbox <f>: (serve, streaming detect) always-on flight recorder;\n"
               "      fatal signals, graceful drains and watchdog restarts dump the\n"
               "      per-thread event rings to <f> (prior dump rotates to <f>.1) —\n"
               "      read with `intellog flight decode <f>` or GET /flightz live\n";
  return 2;
}

struct Args {
  std::string command, logdir, model_path, output_path, query_text;
  std::string logdir2;                  ///< second positional (diff-model)
  std::vector<std::string> positionals; ///< third and later (score reports)
  std::vector<std::string> labels_paths; ///< score: loggen ground-truth sidecars
  std::string coverage_path;            ///< detect: write coverage report here
  std::string metrics_path, trace_path;
  std::string checkpoint_path;          ///< detect: streaming checkpoint file
  std::string status_path;              ///< detect: live status snapshot file
  std::string alert_rules_path;         ///< detect: custom alert rules (JSON)
  std::string otlp_path;                ///< export-trace: OTLP JSON output
  std::string profile_path;             ///< profiler output prefix (empty: off)
  std::string listen;                   ///< serve/detect: HTTP admin plane HOST:PORT
  std::string connect;                  ///< top: fetch /status.json from HOST:PORT
  std::string blackbox;                 ///< serve/detect: flight-recorder dump file
  std::uint64_t timeout_ms = 2000;      ///< top --connect / healthcheck deadline
  double metrics_interval_s = 0;        ///< detect: periodic flush period (0: off)
  std::size_t checkpoint_every = 1000;  ///< records between checkpoints
  std::size_t jobs = 1;  ///< read + batch-detect workers; 0 = hardware concurrency
  // serve knobs (defaults mirror serve::ServeOptions / TenantQuotas)
  std::uint64_t poll_ms = 50;            ///< serve: idle sleep between ticks
  std::uint64_t max_ticks = 0;           ///< serve: drain after N ticks (0: run on)
  std::uint64_t kill_after_ticks = 0;    ///< serve: simulated crash (soak/testing)
  std::uint64_t checkpoint_ticks = 8;    ///< serve: ticks between checkpoints
  std::uint64_t heartbeat_ms = 2000;     ///< serve: wedged-shard deadline
  std::size_t records_per_tick = 5000;   ///< serve: per-tenant admission quota
  std::size_t backlog_files = 1024;      ///< serve: pending files before shedding
  std::uint64_t max_file_bytes = 32u << 20;  ///< serve: parse-bomb guard
  std::uint64_t breaker_open_ticks = 4;  ///< serve: breaker pause length
  bool drain_on_empty = false;           ///< serve: exit once all tenants idle
  bool json = false, dot = false, critical_only = false;
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Installs a metrics registry and/or turns the flight recorder on for the
/// duration of a command and writes the requested output files on
/// destruction. The registry is installed whenever metrics output is wanted
/// OR the command itself consumes the snapshot (`stats`). `--trace` writes
/// the rings' stage spans and events as Chrome trace-event JSON.
class ObsScope {
 public:
  ObsScope(const Args& args, bool force_metrics)
      : metrics_path_(args.metrics_path), trace_path_(args.trace_path) {
    if (!metrics_path_.empty() || force_metrics) obs::set_registry(&registry_);
    if (!trace_path_.empty()) obs::flight::flight_enable();
  }

  ~ObsScope() {
    obs::set_registry(nullptr);
    if (!metrics_path_.empty()) {
      std::ofstream f(metrics_path_);
      if (ends_with(metrics_path_, ".prom") || ends_with(metrics_path_, ".txt")) {
        f << registry_.to_prometheus();
      } else {
        f << registry_.to_json().dump(2) << "\n";
      }
      if (f.flush(); f) {
        std::cerr << "metrics (" << registry_.size() << " series) -> " << metrics_path_ << "\n";
      } else {
        std::cerr << "error: cannot write metrics to " << metrics_path_ << "\n";
      }
    }
    if (!trace_path_.empty()) {
      const std::optional<obs::flight::FlightDump> dump = obs::flight::flight_snapshot();
      obs::flight::flight_disable();
      const common::Json trace =
          obs::flight_chrome_trace(dump.value_or(obs::flight::FlightDump{}));
      std::ofstream f(trace_path_);
      f << trace.dump() << "\n";
      if (f.flush(); f) {
        std::cerr << "trace (" << trace["traceEvents"].size() << " events) -> " << trace_path_
                  << "\n";
      } else {
        std::cerr << "error: cannot write trace to " << trace_path_ << "\n";
      }
    }
  }

  obs::MetricsRegistry& registry() { return registry_; }

 private:
  obs::MetricsRegistry registry_;
  std::string metrics_path_, trace_path_;
};

/// Performance Observatory session for one CLI command (`--profile <out>` or
/// the `intellog profile` wrapper). Installs the in-process sampling profiler
/// for the command's duration; finish() stops it and writes three artifacts:
///   <out>             collapsed stacks, weight = CPU samples (flamegraph.pl,
///                     speedscope)
///   <out>.alloc       collapsed stacks, weight = attributed alloc bytes
///   <out>.pprof.json  pprof-style JSON (totals, per-path rows, lock table)
/// plus a hot-frame table on stderr. Must be destroyed only after profiled
/// threads have quiesced — command functions join their pools before
/// returning, and finish() runs after the command.
class ProfileSession {
 public:
  explicit ProfileSession(std::string out_prefix)
      : out_(std::move(out_prefix)), profiler_(obs::ProfilerOptions::from_env()) {}

  ~ProfileSession() {
    try {
      finish();
    } catch (const std::exception& e) {
      std::cerr << "error: profile output failed: " << e.what() << "\n";
    }
  }

  void finish() {
    if (done_) return;
    done_ = true;
    profiler_.stop();
    write_text(out_, profiler_.collapsed());
    write_text(out_ + ".alloc", profiler_.collapsed_alloc());
    obs::write_json_atomic(profiler_.to_json(), out_ + ".pprof.json");
    std::cerr << "profile: " << profiler_.total_samples() << " samples over "
              << profiler_.duration_ms() << " ms, " << profiler_.total_alloc_bytes()
              << " bytes / " << profiler_.total_allocs() << " allocs attributed -> " << out_
              << "{,.alloc,.pprof.json}\n"
              << profiler_.hot_table(10);
  }

 private:
  static void write_text(const std::string& path, const std::string& text) {
    std::ofstream f(path);
    f << text;
    if (f.flush(); !f) throw std::runtime_error("cannot write " + path);
  }

  std::string out_;
  obs::Profiler profiler_;
  bool done_ = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "-m") {
      const char* v = next();
      if (!v) return false;
      args.model_path = v;
    } else if (a == "-o") {
      const char* v = next();
      if (!v) return false;
      args.output_path = v;
    } else if (a == "-q") {
      const char* v = next();
      if (!v) return false;
      args.query_text = v;
    } else if (a == "--metrics") {
      const char* v = next();
      if (!v) return false;
      args.metrics_path = v;
    } else if (a == "--trace") {
      const char* v = next();
      if (!v) return false;
      args.trace_path = v;
    } else if (a == "--jobs") {
      const char* v = next();
      if (!v) return false;
      try {
        args.jobs = static_cast<std::size_t>(std::stoul(v));
      } catch (const std::exception&) {
        return false;
      }
    } else if (a == "--checkpoint") {
      const char* v = next();
      if (!v) return false;
      args.checkpoint_path = v;
    } else if (a == "--status-file") {
      const char* v = next();
      if (!v) return false;
      args.status_path = v;
    } else if (a == "--alert-rules") {
      const char* v = next();
      if (!v) return false;
      args.alert_rules_path = v;
    } else if (a == "--labels") {
      const char* v = next();
      if (!v) return false;
      args.labels_paths.emplace_back(v);
    } else if (a == "--coverage") {
      const char* v = next();
      if (!v) return false;
      args.coverage_path = v;
    } else if (a == "--otlp") {
      const char* v = next();
      if (!v) return false;
      args.otlp_path = v;
    } else if (a == "--profile") {
      const char* v = next();
      if (!v) return false;
      args.profile_path = v;
    } else if (a == "--listen") {
      const char* v = next();
      if (!v) return false;
      args.listen = v;
    } else if (a == "--connect") {
      const char* v = next();
      if (!v) return false;
      args.connect = v;
    } else if (a == "--blackbox") {
      const char* v = next();
      if (!v) return false;
      args.blackbox = v;
    } else if (a == "--metrics-interval") {
      const char* v = next();
      if (!v) return false;
      try {
        args.metrics_interval_s = std::stod(v);
      } catch (const std::exception&) {
        return false;
      }
      if (args.metrics_interval_s <= 0) return false;
    } else if (a == "--checkpoint-every") {
      const char* v = next();
      if (!v) return false;
      try {
        args.checkpoint_every = static_cast<std::size_t>(std::stoul(v));
      } catch (const std::exception&) {
        return false;
      }
      if (args.checkpoint_every == 0) return false;
    } else if (a == "--poll-ms" || a == "--max-ticks" || a == "--kill-after-ticks" ||
               a == "--checkpoint-ticks" || a == "--heartbeat-ms" ||
               a == "--records-per-tick" || a == "--backlog-files" ||
               a == "--max-file-bytes" || a == "--breaker-open-ticks" ||
               a == "--timeout-ms") {
      const char* v = next();
      if (!v) return false;
      std::uint64_t n = 0;
      try {
        n = std::stoull(v);
      } catch (const std::exception&) {
        return false;
      }
      if (a == "--poll-ms") args.poll_ms = n;
      else if (a == "--max-ticks") args.max_ticks = n;
      else if (a == "--kill-after-ticks") args.kill_after_ticks = n;
      else if (a == "--checkpoint-ticks") args.checkpoint_ticks = n;
      else if (a == "--heartbeat-ms") args.heartbeat_ms = n;
      else if (a == "--records-per-tick") args.records_per_tick = static_cast<std::size_t>(n);
      else if (a == "--backlog-files") args.backlog_files = static_cast<std::size_t>(n);
      else if (a == "--max-file-bytes") args.max_file_bytes = n;
      else if (a == "--timeout-ms") args.timeout_ms = n;
      else args.breaker_open_ticks = n;
    } else if (a == "--drain-on-empty") {
      args.drain_on_empty = true;
    } else if (a == "--json") {
      args.json = true;
    } else if (a == "--dot") {
      args.dot = true;
    } else if (a == "--critical") {
      args.critical_only = true;
    } else if (!a.empty() && a[0] != '-' && args.logdir.empty()) {
      args.logdir = a;
    } else if (!a.empty() && a[0] != '-' && args.logdir2.empty()) {
      args.logdir2 = a;  // second positional (diff-model B)
    } else if (!a.empty() && a[0] != '-') {
      args.positionals.push_back(a);  // third+ (score: more reports)
    } else {
      return false;
    }
  }
  return true;
}

int cmd_train(const Args& args) {
  if (args.logdir.empty() || args.output_path.empty()) return usage();
  ObsScope obs_scope(args, /*force_metrics=*/false);
  std::cerr << "reading " << args.logdir << "...\n";
  const auto sessions = logparse::read_log_directory(args.logdir);
  if (sessions.empty()) {
    std::cerr << "no parseable .log files found\n";
    return 1;
  }
  std::size_t lines = 0;
  for (const auto& s : sessions) lines += s.records.size();
  std::cerr << "training on " << sessions.size() << " sessions (" << lines << " lines)...\n";
  core::IntelLog il;
  il.train(sessions);
  core::save_model_file(il, args.output_path);
  std::cerr << "model: " << il.spell().size() << " log keys, " << il.intel_keys().size()
            << " Intel Keys, " << il.entity_groups().groups.size() << " entity groups ("
            << il.hw_graph().critical_group_count() << " critical) -> " << args.output_path
            << "\n";
  return 0;
}

void print_report_text(const core::AnomalyReport& report) {
  std::cout << "ANOMALY " << report.container_id << " (" << report.session_length << " lines)";
  if (report.degraded()) std::cout << " [degraded: " << report.degraded_reason << "]";
  std::cout << "\n";
  for (const auto& u : report.unexpected) {
    std::cout << "  unexpected: " << u.content << "\n";
    for (const auto& iv : u.message.identifiers) {
      std::cout << "      id " << iv.type << "=" << iv.value << "\n";
    }
    for (const auto& loc : u.message.localities) {
      std::cout << "      locality " << loc << "\n";
    }
  }
  for (const auto& i : report.issues) {
    std::cout << "  " << to_string(i.kind) << " in group '" << i.group << "'";
    if (!i.missing_keys.empty()) {
      std::cout << " missing keys:";
      for (const int k : i.missing_keys) std::cout << " " << k;
    }
    std::cout << "\n";
  }
}

// Streaming detect with durable progress (--checkpoint): hardened ingestion
// feeds an OnlineDetector record by record; every --checkpoint-every records
// the detector state plus a stream cursor is persisted (atomic rename via
// checkpoint_file semantics), so a killed run resumes from the last
// checkpoint instead of starting over or double-reporting.
int cmd_detect_stream(const Args& args) {
  // Status snapshots read the metrics registry, so streaming with
  // introspection enabled forces one even without --metrics.
  ObsScope obs_scope(args,
                     /*force_metrics=*/!args.status_path.empty() ||
                         args.metrics_interval_s > 0 || !args.listen.empty());
  // --blackbox: always-on flight recorder with a crash-time post-mortem
  // dump. Enabled before any ingest/detect work so the journal covers the
  // whole run; the scoped dump snapshots the rings on clean exit too.
  std::unique_ptr<obs::flight::ScopedFlightDump> blackbox_dump;
  if (!args.blackbox.empty()) {
    obs::flight::flight_enable();
    if (!obs::flight::flight_set_dump_path(args.blackbox)) {
      throw std::runtime_error("cannot open blackbox file: " + args.blackbox);
    }
    serve::install_crash_signals();
    blackbox_dump = std::make_unique<obs::flight::ScopedFlightDump>(
        obs::flight::DumpReason::kGracefulDrain);
  }
  const bool use_checkpoint = !args.checkpoint_path.empty();
  const core::IntelLog il = core::load_model_file(args.model_path);
  if (obs::MetricsRegistry* reg = obs::registry()) il.record_model_metrics(*reg);
  if (!args.coverage_path.empty()) il.set_coverage_enabled(true);
  const auto ingest =
      logparse::read_log_directory_resilient(args.logdir, /*system=*/{}, {}, args.jobs);
  if (ingest.stats.quarantined > 0) {
    std::cerr << "warning: " << ingest.stats.quarantined
              << " lines quarantined (see `intellog quarantine " << args.logdir << "`)\n";
  }

  std::uint64_t cursor = 0;
  std::unique_ptr<core::OnlineDetector> online;
  if (use_checkpoint && std::filesystem::exists(args.checkpoint_path)) {
    std::ifstream in(args.checkpoint_path);
    std::ostringstream buf;
    buf << in.rdbuf();
    common::Json wrapper;
    try {
      wrapper = common::Json::parse(buf.str());
    } catch (const std::exception& e) {
      throw std::runtime_error("checkpoint " + args.checkpoint_path +
                               " is not valid JSON (torn write?): " + e.what());
    }
    if (!wrapper.is_object() || !wrapper.contains("cursor") || !wrapper.contains("detector")) {
      throw std::runtime_error("checkpoint " + args.checkpoint_path +
                               ": not an intellog stream checkpoint");
    }
    cursor = static_cast<std::uint64_t>(wrapper["cursor"].as_int());
    online = std::make_unique<core::OnlineDetector>(
        core::OnlineDetector::restore(il, wrapper["detector"], args.jobs));
    std::cerr << "resumed from " << args.checkpoint_path << " at record " << cursor << "\n";
  } else {
    online = std::make_unique<core::OnlineDetector>(il, args.jobs);
  }

  // --listen: the same live admin plane `serve` mounts, over this run's
  // detector. Handlers only read registry snapshots and the board, so the
  // consume loop never blocks on a scraper.
  std::unique_ptr<obs::http::StatusBoard> board;
  std::unique_ptr<obs::http::HttpServer> http;
  if (!args.listen.empty()) {
    const auto [host, port] = obs::http::split_host_port(args.listen);
    obs::http::HttpServer::Options hopts;
    hopts.host = host;
    hopts.port = port;
    board = std::make_unique<obs::http::StatusBoard>();
    http = std::make_unique<obs::http::HttpServer>(hopts);
    obs::http::mount_admin_plane(*http, *board);
    http->start();
    std::cerr << "intellog detect: admin plane listening on http://" << host << ":"
              << http->port() << "\n";
  }

  std::uint64_t last_checkpoint_ns = 0;
  const auto write_checkpoint = [&](std::uint64_t at) {
    common::Json wrapper = common::Json::object();
    wrapper["kind"] = "intellog_cli_checkpoint";
    wrapper["cursor"] = static_cast<std::int64_t>(at);
    wrapper["detector"] = online->checkpoint();
    const std::string tmp = args.checkpoint_path + ".tmp";
    std::ofstream out(tmp);
    if (!out) throw std::runtime_error("cannot write checkpoint " + tmp);
    out << wrapper.dump() << "\n";
    out.flush();
    if (!out) throw std::runtime_error("short write on checkpoint " + tmp);
    out.close();
    std::filesystem::rename(tmp, args.checkpoint_path);
    last_checkpoint_ns = obs::monotonic_ns();
  };

  // Windowed telemetry + self-monitoring alerts: every flush samples the
  // registry into a bounded ring-buffer store and evaluates the alert
  // rules over it; firing alerts land in the status snapshot (and `top`).
  obs::ts::TimeSeriesStore tseries;
  obs::ts::AlertEngine alert_engine(
      args.alert_rules_path.empty()
          ? obs::ts::AlertEngine::default_rules()
          : obs::ts::AlertEngine::rules_from_json(common::Json::parse([&] {
              std::ifstream in(args.alert_rules_path);
              if (!in) {
                throw std::runtime_error("cannot read alert rules: " + args.alert_rules_path);
              }
              std::ostringstream buf;
              buf << in.rdbuf();
              return buf.str();
            }())));
  const auto observe_telemetry = [&] {
    const obs::MetricsRegistry* reg = obs::registry();
    if (!reg) return;
    const std::uint64_t now_ms = obs::monotonic_ns() / 1'000'000;
    tseries.observe_registry(*reg, now_ms);
    alert_engine.evaluate(tseries, now_ms);
  };

  // Live introspection (--status-file) and periodic metrics flushes
  // (--metrics-interval): both publish with the checkpoint's atomic-rename
  // discipline so a concurrent reader never sees a torn file.
  const auto flush_status = [&](std::uint64_t at) {
    if (args.status_path.empty() && !board) return;
    obs::StatusContext ctx;
    ctx.detector = online.get();
    ctx.registry = obs::registry();
    ctx.alerts = &alert_engine;
    ctx.profiler = obs::profiler();  // hot-frame table in `top`, if profiling
    ctx.checkpoint_path = args.checkpoint_path;
    ctx.checkpoint_age_s =
        last_checkpoint_ns == 0
            ? -1.0
            : static_cast<double>(obs::monotonic_ns() - last_checkpoint_ns) / 1e9;
    ctx.cursor = static_cast<std::int64_t>(at);
    const common::Json doc = obs::build_status(ctx);
    // A one-shot detect that is still consuming is ready by definition; the
    // interesting readiness states (breakers, backlog) belong to `serve`.
    if (board) board->publish(doc, obs::http::Readiness{});
    if (!args.status_path.empty()) obs::write_json_atomic(doc, args.status_path);
  };
  flush_status(cursor);  // the plane answers real state from the first scrape
  const auto flush_metrics = [&] {
    if (args.metrics_path.empty()) return;
    const obs::MetricsRegistry* reg = obs::registry();
    if (!reg) return;
    if (ends_with(args.metrics_path, ".prom") || ends_with(args.metrics_path, ".txt")) {
      const std::string tmp = args.metrics_path + ".tmp";
      std::ofstream out(tmp);
      out << reg->to_prometheus();
      out.flush();
      if (out) std::filesystem::rename(tmp, args.metrics_path);
    } else {
      obs::write_json_atomic(reg->to_json(), args.metrics_path);
    }
  };

  std::size_t anomalous = 0;
  common::Json reports = common::Json::array();
  const auto handle = [&](const core::AnomalyReport& report) {
    if (!report.anomalous()) return;
    ++anomalous;
    if (args.json) {
      reports.push_back(report.to_json());
    } else {
      print_report_text(report);
    }
  };

  const std::uint64_t interval_ns =
      static_cast<std::uint64_t>(args.metrics_interval_s * 1e9);
  std::uint64_t last_flush_ns = obs::monotonic_ns();

  // SIGTERM/SIGINT while streaming with a checkpoint means "flush a final
  // checkpoint at the current cursor, then exit" — the next run resumes
  // exactly where this one stopped. Without a checkpoint file the default
  // signal disposition (immediate exit) is the right behavior, so the
  // handler is only installed in checkpointing mode.
  if (use_checkpoint) serve::install_stop_signals();
  int stopped_by = 0;

  std::uint64_t idx = 0;
  for (const auto& s : ingest.sessions) {
    for (const auto& rec : s.records) {
      if (idx++ < cursor) continue;  // consumed by a previous (killed) run
      online->consume(rec);
      if (use_checkpoint && (stopped_by = serve::stop_signal()) != 0) break;
      if (use_checkpoint && idx % args.checkpoint_every == 0) write_checkpoint(idx);
      // Clock reads are amortized: the interval check runs every 256
      // records, which at any realistic rate is far below the interval.
      if (interval_ns != 0 && (idx & 0xFF) == 0) {
        const std::uint64_t now = obs::monotonic_ns();
        if (now - last_flush_ns >= interval_ns) {
          observe_telemetry();
          flush_metrics();
          flush_status(idx);
          last_flush_ns = now;
        }
      }
    }
    if (stopped_by != 0) break;
    // Session boundary: close if still open. A session finished AND closed
    // before the checkpoint was taken is absent from the restored state, so
    // close_session returns nullopt and it is not re-reported.
    if (const auto report = online->close_session(s.container_id)) handle(*report);
  }
  if (stopped_by != 0) {
    // Graceful stop: persist exactly what was consumed (the checkpoint file
    // stays for the resuming run) and publish final telemetry.
    write_checkpoint(idx);
    observe_telemetry();
    flush_metrics();
    flush_status(idx);
    std::cerr << "stopped by signal " << stopped_by << " after " << idx
              << " records; checkpoint -> " << args.checkpoint_path << "\n";
    return 128 + stopped_by;
  }
  for (const auto& report : online->close_all()) handle(report);
  // Empty sessions (zero-byte log files) carry no records, so the online
  // detector never sees them — but a container that died before logging a
  // single line is exactly the session-abort signature. Run their
  // structural check directly; a killed run never got this far, so a
  // resumed one cannot double-report them.
  for (const auto& s : ingest.sessions) {
    if (s.records.empty()) handle(il.detect(s));
  }
  observe_telemetry();
  flush_status(idx);  // final snapshot: zero open sessions, final counters

  if (args.json) {
    std::cout << reports.dump(2) << "\n";
  } else {
    std::cout << anomalous << " / " << ingest.sessions.size() << " sessions anomalous\n";
  }
  if (use_checkpoint) {
    std::error_code ec;
    std::filesystem::remove(args.checkpoint_path, ec);  // complete: nothing to resume
  }
  if (!args.coverage_path.empty() && il.coverage()) {
    obs::write_json_atomic(il.coverage()->to_json(), args.coverage_path);
    std::cerr << "coverage report -> " << args.coverage_path << "\n";
  }
  return anomalous > 0 ? 3 : 0;
}

int cmd_detect(const Args& args) {
  if (args.logdir.empty() || args.model_path.empty()) return usage();
  // Any of the streaming features routes through the online detector.
  if (!args.checkpoint_path.empty() || !args.status_path.empty() ||
      args.metrics_interval_s > 0 || !args.listen.empty()) {
    return cmd_detect_stream(args);
  }
  ObsScope obs_scope(args, /*force_metrics=*/false);
  const core::IntelLog il = core::load_model_file(args.model_path);
  if (obs::MetricsRegistry* reg = obs::registry()) il.record_model_metrics(*reg);
  if (!args.coverage_path.empty()) il.set_coverage_enabled(true);
  // Parallel read and sharded batch detection (--jobs N; default 1 =
  // serial). Sessions and reports come back in path order, so the printed
  // output is identical at any width.
  const auto sessions = logparse::read_log_directory(args.logdir, /*system=*/{}, args.jobs);
  const std::vector<core::AnomalyReport> batch = il.detect_batch(sessions, args.jobs);
  std::size_t anomalous = 0;
  common::Json reports = common::Json::array();
  for (std::size_t si = 0; si < sessions.size(); ++si) {
    const core::AnomalyReport& report = batch[si];
    if (!report.anomalous()) continue;
    ++anomalous;
    if (args.json) {
      reports.push_back(report.to_json());
      continue;
    }
    print_report_text(report);
  }
  if (args.json) {
    std::cout << reports.dump(2) << "\n";
  } else {
    std::cout << anomalous << " / " << sessions.size() << " sessions anomalous\n";
  }
  if (!args.coverage_path.empty() && il.coverage()) {
    obs::write_json_atomic(il.coverage()->to_json(), args.coverage_path);
    std::cerr << "coverage report -> " << args.coverage_path << "\n";
  }
  return anomalous > 0 ? 3 : 0;  // nonzero exit when anomalies found
}

// Quality Observatory: structural diff of two persisted models. Compares
// everything model_io round-trips — log-key templates, Intel Keys, group
// membership, subroutines, HW-graph relations — and reports per-class
// churn plus the union-weighted drift score (0 = structurally identical).
int cmd_diff_model(const Args& args) {
  if (args.logdir.empty() || args.logdir2.empty()) return usage();
  const core::IntelLog a = core::load_model_file(args.logdir);
  const core::IntelLog b = core::load_model_file(args.logdir2);
  const core::ModelDiff diff = core::diff_models(a, b);
  if (args.json) {
    std::cout << diff.to_json().dump(2) << "\n";
  } else {
    std::cout << diff.render_text();
  }
  return 0;
}

// Quality Observatory: Table-6 accounting over a saved `detect --json`
// report and a `loggen --labels` ground-truth sidecar. Pass more
// report/--labels pairs (in order) to score several systems at once; the
// overall row aggregates them the way bench_table6_anomaly sums systems.
int cmd_score(const Args& args) {
  std::vector<std::string> report_paths;
  if (!args.logdir.empty()) report_paths.push_back(args.logdir);
  if (!args.logdir2.empty()) report_paths.push_back(args.logdir2);
  report_paths.insert(report_paths.end(), args.positionals.begin(), args.positionals.end());
  if (report_paths.empty() || args.labels_paths.empty()) return usage();
  if (report_paths.size() != args.labels_paths.size()) {
    std::cerr << "error: " << report_paths.size() << " report(s) but "
              << args.labels_paths.size() << " --labels file(s); pass one per report\n";
    return 2;
  }
  const auto read_json = [](const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return common::Json::parse(buf.str());
  };

  ObsScope obs_scope(args, /*force_metrics=*/false);
  core::ScoreCard card;
  for (std::size_t i = 0; i < report_paths.size(); ++i) {
    const core::Labels labels = core::Labels::from_json(read_json(args.labels_paths[i]));
    card.systems.push_back(score_report(labels, read_json(report_paths[i])));
  }
  if (obs::MetricsRegistry* reg = obs::registry()) card.record_metrics(*reg);
  if (args.json) {
    std::cout << card.to_json().dump(2) << "\n";
  } else {
    std::cout << card.render_text();
  }
  return 0;
}

// Quality Observatory: which model components does this workload actually
// exercise? Runs detection with the coverage ledger attached and reports,
// per component class (log keys, subroutines, HW-graph edges), the dead
// components (never hit — the first symptom of model drift) and the stale
// ones (hit, but far below their peers), plus the overall coverage ratio.
int cmd_coverage(const Args& args) {
  if (args.logdir.empty() || args.model_path.empty()) return usage();
  ObsScope obs_scope(args, /*force_metrics=*/false);
  const core::IntelLog il = core::load_model_file(args.model_path);
  if (obs::MetricsRegistry* reg = obs::registry()) il.record_model_metrics(*reg);
  il.set_coverage_enabled(true);
  const auto sessions = logparse::read_log_directory(args.logdir, /*system=*/{}, args.jobs);
  il.detect_batch(sessions, args.jobs);
  const core::CoverageLedger* cov = il.coverage();
  if (obs::MetricsRegistry* reg = obs::registry()) cov->record_metrics(*reg);

  const common::Json report = cov->to_json();
  if (args.json) {
    std::cout << report.dump(2) << "\n";
    return 0;
  }
  std::cout << "model coverage: " << cov->hit_components() << " / " << cov->total_components()
            << " components exercised over " << sessions.size() << " session(s) (ratio "
            << cov->coverage_ratio() << ")\n";
  for (const char* cls : {"log_keys", "subroutines", "edges"}) {
    const common::Json& c = report["classes"][cls];
    std::cout << "  " << cls << ": " << c["hit"].as_int() << " / " << c["total"].as_int()
              << " hit";
    const auto& dead = c["dead"].as_array();
    const auto& stale = c["stale"].as_array();
    if (!dead.empty()) std::cout << ", " << dead.size() << " dead";
    if (!stale.empty()) std::cout << ", " << stale.size() << " stale";
    std::cout << "\n";
    const auto list = [](const char* tag, const std::vector<common::Json>& names) {
      constexpr std::size_t kMax = 20;  // keep the terminal report skimmable
      for (std::size_t i = 0; i < names.size() && i < kMax; ++i) {
        std::cout << "    " << tag << " " << names[i].as_string() << "\n";
      }
      if (names.size() > kMax) {
        std::cout << "    ... " << names.size() - kMax << " more (use --json)\n";
      }
    };
    list("dead:", dead);
    list("stale:", stale);
  }
  return 0;
}

// Shows every line the hardened ingester refused (with provenance: file,
// line number, byte offset, reason) plus the ingest summary — the operator's
// "what did chaos do to my logs" view.
int cmd_quarantine(const Args& args) {
  if (args.logdir.empty()) return usage();
  ObsScope obs_scope(args, /*force_metrics=*/false);
  const auto report = logparse::read_log_directory_resilient(args.logdir);
  const logparse::IngestStats& st = report.stats;

  // Quarantined text is raw input (that is often why it was quarantined);
  // keep terminals and the JSON encoder safe from control bytes.
  const auto printable = [](const std::string& s) {
    std::string out = s;
    for (char& c : out) {
      const unsigned char u = static_cast<unsigned char>(c);
      if (u < 0x20 || u >= 0x7f) c = '.';
    }
    return out;
  };

  if (args.json) {
    common::Json j = common::Json::object();
    common::Json arr = common::Json::array();
    for (const auto& q : report.quarantined) {
      common::Json qj = common::Json::object();
      qj["file"] = q.file;
      qj["line"] = q.line_no;
      qj["byte_offset"] = q.byte_offset;
      qj["bytes"] = q.raw_bytes;
      qj["reason"] = q.reason;
      qj["text"] = printable(q.text);
      arr.push_back(std::move(qj));
    }
    j["quarantined"] = std::move(arr);
    common::Json sj = common::Json::object();
    sj["lines_total"] = st.lines_total;
    sj["records"] = st.records;
    sj["continuations"] = st.continuations;
    sj["quarantined"] = st.quarantined;
    sj["duplicates_dropped"] = st.duplicates_dropped;
    sj["reordered"] = st.reordered;
    sj["skipped_files"] = st.skipped_files;
    common::Json by = common::Json::object();
    for (const auto& [reason, n] : st.quarantined_by_reason) by[reason] = n;
    sj["quarantined_by_reason"] = std::move(by);
    j["stats"] = std::move(sj);
    std::cout << j.dump(2) << "\n";
  } else {
    for (const auto& q : report.quarantined) {
      std::cout << q.file << ":" << q.line_no << " (byte " << q.byte_offset << ", "
                << q.raw_bytes << " bytes) [" << q.reason << "] " << printable(q.text) << "\n";
    }
    std::cout << st.lines_total << " lines -> " << st.records << " records ("
              << st.continuations << " continuations); " << st.quarantined << " quarantined";
    if (!st.quarantined_by_reason.empty()) {
      std::cout << " (";
      bool first = true;
      for (const auto& [reason, n] : st.quarantined_by_reason) {
        if (!first) std::cout << ", ";
        first = false;
        std::cout << reason << "=" << n;
      }
      std::cout << ")";
    }
    std::cout << ", " << st.duplicates_dropped << " duplicates dropped, " << st.reordered
              << " reordered, " << st.skipped_files << " files skipped\n";
  }
  return st.quarantined > 0 ? 3 : 0;  // nonzero exit when anything was refused
}

int cmd_graph(const Args& args) {
  if (args.model_path.empty()) return usage();
  const core::IntelLog il = core::load_model_file(args.model_path);
  if (args.dot) {
    std::cout << il.hw_graph().to_dot();
    return 0;
  }
  if (args.json) {
    std::cout << il.hw_graph_json().dump(2) << "\n";
    return 0;
  }
  // §6.3: the critical view keeps only groups with multiple Intel Keys or
  // repeated keys; "users can also choose to obtain a comprehensive
  // HW-graph" — the default.
  const std::function<bool(const std::string&)> subtree_has_critical =
      [&](const std::string& g) {
        if (il.hw_graph().groups().at(g).is_critical()) return true;
        for (const auto& c : il.hw_graph().children_of(g)) {
          if (subtree_has_critical(c)) return true;
        }
        return false;
      };
  const std::function<void(const std::string&, int)> print = [&](const std::string& g,
                                                                 int depth) {
    const auto& node = il.hw_graph().groups().at(g);
    if (args.critical_only && !subtree_has_critical(g)) return;
    std::cout << std::string(static_cast<std::size_t>(depth) * 2, ' ') << "- " << g
              << (node.is_critical() ? " [critical]" : "") << "\n";
    for (const auto& c : il.hw_graph().children_of(g)) print(c, depth + 1);
  };
  for (const auto& root : il.hw_graph().roots()) print(root, 0);
  return 0;
}

int cmd_keys(const Args& args) {
  if (args.model_path.empty()) return usage();
  const core::IntelLog il = core::load_model_file(args.model_path);
  for (const auto& [id, ik] : il.intel_keys()) {
    std::cout << "[" << id << "] " << ik.key_text << "\n";
    if (!ik.entities.empty()) {
      std::cout << "    entities:";
      for (const auto& e : ik.entities) std::cout << " '" << e << "'";
      std::cout << "\n";
    }
    for (const auto& op : ik.operations) {
      std::cout << "    op {" << (op.subj.empty() ? "_" : op.subj) << ", " << op.predicate
                << ", " << (op.obj.empty() ? "_" : op.obj) << "}\n";
    }
  }
  return 0;
}

// Runs the streaming pipeline over a log directory with the full
// observability stack enabled and reports the metric snapshot — the
// operator's "where does time go / what is the detector seeing" view.
int cmd_stats(const Args& args) {
  if (args.logdir.empty() || args.model_path.empty()) return usage();
  ObsScope obs_scope(args, /*force_metrics=*/true);
  obs::MetricsRegistry& reg = obs_scope.registry();

  const core::IntelLog il = core::load_model_file(args.model_path);
  il.record_model_metrics(reg);
  const auto sessions = logparse::read_log_directory(args.logdir, /*system=*/{}, args.jobs);

  // Route every record through the streaming detector so the per-record
  // consume-latency histogram and session gauges are populated too.
  const obs::ScopedTimerMs wall(&reg.histogram("intellog_stats_wall_ms"));
  core::OnlineDetector online(il, args.jobs);
  for (const auto& s : sessions) {
    for (const auto& rec : s.records) online.consume(rec);
  }
  std::size_t anomalous = 0;
  for (const auto& report : online.close_all()) anomalous += report.anomalous();
  const double wall_ms = wall.elapsed_ms();

  if (args.json) {
    std::cout << reg.to_json().dump(2) << "\n";
    return 0;
  }

  const auto counter = [&](const char* name, const obs::Labels& labels = {}) -> std::uint64_t {
    const obs::Counter* c = reg.find_counter(name, labels);
    return c ? c->value() : 0;
  };
  const auto gauge = [&](const char* name) -> std::int64_t {
    const obs::Gauge* g = reg.find_gauge(name);
    return g ? g->value() : 0;
  };
  const std::uint64_t records = counter("intellog_online_records_total");
  std::cout << "model:   " << gauge("intellog_model_log_keys") << " log keys, "
            << gauge("intellog_model_intel_keys") << " Intel Keys, "
            << gauge("intellog_model_entity_groups") << " entity groups, HW-graph "
            << gauge("intellog_model_graph_nodes") << " nodes / "
            << gauge("intellog_model_graph_edges") << " edges ("
            << gauge("intellog_model_critical_groups") << " critical, "
            << gauge("intellog_model_subroutines") << " subroutines)\n";
  std::cout << "stream:  " << records << " records in " << sessions.size() << " sessions; "
            << anomalous << " anomalous\n";
  std::cout << "         " << counter("intellog_online_unexpected_total")
            << " unexpected messages, " << counter("intellog_detect_issues_total")
            << " structural issues\n";
  if (const obs::Histogram* h = reg.find_histogram("intellog_online_consume_us");
      h && h->count() > 0) {
    std::cout << "latency: consume avg " << h->sum() / static_cast<double>(h->count())
              << " us/record over " << h->count() << " records\n";
  }
  if (wall_ms > 0 && records > 0) {
    std::cout << "rate:    " << static_cast<std::uint64_t>(
                                    static_cast<double>(records) / (wall_ms / 1000.0))
              << " records/s (" << wall_ms << " ms wall)\n";
  }
  return 0;
}

// Workflow Observatory: HW-graph instances as span trees. The Chrome trace
// goes to -o (stdout when omitted); --otlp adds the OTLP-style document.
int cmd_export_trace(const Args& args) {
  if (args.logdir.empty() || args.model_path.empty()) return usage();
  const core::IntelLog il = core::load_model_file(args.model_path);
  const auto sessions = logparse::read_log_directory(args.logdir);
  if (sessions.empty()) {
    std::cerr << "no parseable .log files found in " << args.logdir << "\n";
    return 1;
  }

  const common::Json chrome = obs::hwgraph_chrome_trace(il, sessions);
  if (args.output_path.empty()) {
    std::cout << chrome.dump(2) << "\n";
  } else {
    obs::write_json_atomic(chrome, args.output_path);
    std::cerr << "chrome trace (" << chrome["traceEvents"].size() << " events, "
              << sessions.size() << " sessions) -> " << args.output_path << "\n";
  }
  if (!args.otlp_path.empty()) {
    const common::Json otlp = obs::hwgraph_otlp_json(il, sessions);
    obs::write_json_atomic(otlp, args.otlp_path);
    std::cerr << "otlp trace -> " << args.otlp_path << "\n";
  }
  return 0;
}

// Workflow Observatory: renders every finding as an expected-vs-observed
// diff backed by raw log lines with provenance. The positional argument is
// either a saved `detect --json` report (round-trips without the logs) or
// a log directory (detect runs first).
int cmd_explain(const Args& args) {
  if (args.logdir.empty()) return usage();

  std::vector<core::AnomalyReport> reports;
  if (std::filesystem::is_regular_file(args.logdir)) {
    std::ifstream in(args.logdir);
    std::ostringstream buf;
    buf << in.rdbuf();
    const common::Json doc = common::Json::parse(buf.str());
    if (doc.is_array()) {
      for (const auto& j : doc.as_array()) reports.push_back(core::report_from_json(j));
    } else {
      reports.push_back(core::report_from_json(doc));
    }
  } else {
    if (args.model_path.empty()) return usage();
    const core::IntelLog il = core::load_model_file(args.model_path);
    const auto sessions = logparse::read_log_directory(args.logdir);
    for (auto& report : il.detect_batch(sessions, args.jobs)) {
      if (report.anomalous()) reports.push_back(std::move(report));
    }
  }

  std::size_t anomalous = 0;
  if (args.json) {
    common::Json arr = common::Json::array();
    for (const auto& report : reports) {
      if (!report.anomalous()) continue;
      ++anomalous;
      arr.push_back(report.to_json());
    }
    std::cout << arr.dump(2) << "\n";
  } else {
    bool first = true;
    for (const auto& report : reports) {
      const std::string text = core::render_explanation(report);
      if (text.empty()) continue;
      ++anomalous;
      if (!first) std::cout << "\n";
      first = false;
      std::cout << text;
    }
    if (anomalous == 0) std::cout << "no anomalies to explain\n";
  }
  return anomalous > 0 ? 3 : 0;
}

// Workflow Observatory: one-shot renderer for a --status-file snapshot, or
// (--connect) for the /status.json a --listen admin plane publishes live.
int cmd_top(const Args& args) {
  if (!args.connect.empty()) {
    const auto [host, port] = obs::http::split_host_port(args.connect);
    const auto fetched = obs::http::http_get(host, port, "/status.json", args.timeout_ms);
    if (!fetched) {
      std::cerr << "error: cannot reach http://" << args.connect << "/status.json within "
                << args.timeout_ms << "ms\n";
      return 2;
    }
    if (fetched->status != 200) {
      std::cerr << "error: /status.json returned " << fetched->status << "\n";
      return 1;
    }
    std::cout << obs::render_top(common::Json::parse(fetched->body));
    return 0;
  }
  if (args.logdir.empty()) return usage();  // positional: the status file
  std::ifstream in(args.logdir);
  if (!in) {
    std::cerr << "error: cannot read " << args.logdir << "\n";
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::cout << obs::render_top(common::Json::parse(buf.str()));
  return 0;
}

// Orchestrator-facing probe: GET /readyz and fold the answer into an exit
// code (0 ready, 1 degraded, 2 unreachable/unrecognizable) — the shape
// container health checks and process supervisors want.
int cmd_healthcheck(const Args& args) {
  if (args.logdir.empty()) return usage();  // positional: HOST:PORT
  const auto [host, port] = obs::http::split_host_port(args.logdir);
  const auto fetched = obs::http::http_get(host, port, "/readyz", args.timeout_ms);
  if (!fetched) {
    std::cerr << "unreachable: http://" << args.logdir << "/readyz (timeout "
              << args.timeout_ms << "ms)\n";
    return 2;
  }
  if (fetched->status == 200) {
    std::cout << "ready\n";
    return 0;
  }
  if (fetched->status == 503) {
    std::cout << "degraded\n";
    try {
      const common::Json doc = common::Json::parse(fetched->body);
      for (const auto& r : doc["reasons"].as_array()) {
        std::cout << "  " << r.as_string() << "\n";
      }
    } catch (const std::exception&) {
      // body was not the expected JSON; the 503 alone already says degraded
    }
    return 1;
  }
  std::cerr << "unexpected /readyz status " << fetched->status << "\n";
  return 2;
}

int cmd_query(const Args& args) {
  if (args.logdir.empty() || args.model_path.empty() || args.query_text.empty()) return usage();
  const core::IntelLog il = core::load_model_file(args.model_path);
  const core::Query query = core::Query::parse(args.query_text);

  core::MessageStore store;
  for (const auto& session : logparse::read_log_directory(args.logdir)) {
    store.add_all(il.to_intel_messages(session));
    // Unexpected messages are structured on the fly (§4.2) so the
    // case-study GroupBy/query workflow covers them too.
    for (auto& u : il.detect(session).unexpected) store.add(std::move(u.message));
  }
  const auto hits = store.query([&](const core::IntelMessage& m) { return query.matches(m); });
  if (args.json) {
    common::Json arr = common::Json::array();
    for (const auto* m : hits) arr.push_back(m->to_json());
    std::cout << arr.dump(2) << "\n";
  } else {
    for (const auto* m : hits) {
      std::cout << m->container_id << " t=" << m->timestamp_ms << " key=" << m->key_id;
      for (const auto& iv : m->identifiers) std::cout << " " << iv.type << "=" << iv.value;
      for (const auto& loc : m->localities) std::cout << " @" << loc;
      std::cout << "\n";
    }
    std::cout << hits.size() << " / " << store.size() << " messages matched\n";
  }
  return 0;
}

// `intellog serve <root>`: the multi-tenant daemon. Every subdirectory of
// <root> is a tenant spool; the daemon runs until SIGTERM/SIGINT (graceful
// drain), --max-ticks, or --drain-on-empty fires. Per-tenant anomaly
// reports, shed ledgers and quarantine ledgers append inside each tenant
// directory; checkpoints make a kill at any point resumable.
int cmd_serve(const Args& args) {
  if (args.logdir.empty()) return usage();
  ObsScope obs_scope(args, /*force_metrics=*/true);

  serve::ServeOptions opt;
  opt.root = args.logdir;
  opt.model_path = args.model_path;
  opt.jobs = args.jobs != 0 ? args.jobs
                            : std::max<std::size_t>(2, std::thread::hardware_concurrency());
  opt.poll_ms = args.poll_ms;
  opt.checkpoint_every_ticks = args.checkpoint_ticks;
  opt.heartbeat_timeout_ms = args.heartbeat_ms;
  opt.metrics_interval_s = static_cast<std::uint64_t>(args.metrics_interval_s);
  opt.max_ticks = args.max_ticks;
  opt.kill_after_ticks = args.kill_after_ticks;
  opt.drain_on_empty = args.drain_on_empty;
  opt.status_path = args.status_path;
  opt.metrics_path = args.metrics_path;
  opt.alert_rules_path = args.alert_rules_path;
  opt.listen = args.listen;
  opt.blackbox = args.blackbox;
  opt.shard.quotas.max_records_per_tick = args.records_per_tick;
  opt.shard.quotas.max_backlog_files = args.backlog_files;
  opt.shard.quotas.max_file_bytes = args.max_file_bytes;
  opt.shard.breaker.open_ticks = args.breaker_open_ticks;

  serve::ServeDaemon daemon(opt);
  std::cerr << "serving " << daemon.tenants().size() << " tenant(s) under " << args.logdir
            << " with " << opt.jobs << " worker(s)\n";
  const serve::ServeSummary summary = daemon.run();

  std::cerr << "serve: " << summary.ticks << " tick(s), " << summary.checkpoints_written
            << " checkpoint(s)";
  if (summary.checkpoints_corrupt != 0) {
    std::cerr << ", " << summary.checkpoints_corrupt << " corrupt checkpoint(s) set aside";
  }
  std::cerr << "\n";
  for (const auto& [tenant, acc] : summary.tenants) {
    std::cerr << "  " << tenant << ": " << acc.records_admitted << " records, "
              << acc.sessions_closed << " sessions (" << acc.sessions_anomalous
              << " anomalous), " << acc.lines_quarantined << " quarantined, "
              << acc.files_shed << " shed, breaker "
              << summary.breaker_states.at(tenant);
    const auto rit = summary.restarts.find(tenant);
    if (rit != summary.restarts.end() && rit->second != 0) {
      std::cerr << ", " << rit->second << " restart(s)";
    }
    std::cerr << "\n";
  }
  return summary.stop_signal != 0 ? 128 + summary.stop_signal : 0;
}

// `intellog flight decode <blackbox.bin> [--json|--trace]` — post-mortem
// reader for the flight recorder's crash/drain dumps. Parsed outside the
// shared Args machinery because its --trace is a flag (output goes to
// stdout), not the path-valued --trace every other command takes.
int cmd_flight(int argc, char** argv) {
  if (argc < 3 || std::string(argv[2]) != "decode") return usage();
  std::string path;
  bool json = false, trace = false;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") json = true;
    else if (a == "--trace") trace = true;
    else if (!a.empty() && a[0] != '-' && path.empty()) path = a;
    else return usage();
  }
  if (path.empty() || (json && trace)) return usage();

  const obs::flight::FlightDump dump = obs::flight::decode_flight_file(path);
  if (json) {
    std::cout << obs::flight::flight_dump_json(dump).dump(2) << "\n";
  } else if (trace) {
    std::cout << obs::flight_chrome_trace(dump).dump() << "\n";
  } else {
    std::cout << obs::flight::render_flight_text(dump);
  }
  return 0;
}

int run_command(const Args& args) {
  // The profiler brackets the whole command; ProfileSession is declared
  // first so it is destroyed last, after every command-local thread pool
  // has been joined (the shadow-stack quiescence invariant).
  std::unique_ptr<ProfileSession> prof;
  if (!args.profile_path.empty()) prof = std::make_unique<ProfileSession>(args.profile_path);

  int rc = 2;
  if (args.command == "train") rc = cmd_train(args);
  else if (args.command == "detect") rc = cmd_detect(args);
  else if (args.command == "stats") rc = cmd_stats(args);
  else if (args.command == "graph") rc = cmd_graph(args);
  else if (args.command == "keys") rc = cmd_keys(args);
  else if (args.command == "query") rc = cmd_query(args);
  else if (args.command == "quarantine") rc = cmd_quarantine(args);
  else if (args.command == "coverage") rc = cmd_coverage(args);
  else if (args.command == "diff-model") rc = cmd_diff_model(args);
  else if (args.command == "score") rc = cmd_score(args);
  else if (args.command == "export-trace") rc = cmd_export_trace(args);
  else if (args.command == "explain") rc = cmd_explain(args);
  else if (args.command == "top") rc = cmd_top(args);
  else if (args.command == "healthcheck") rc = cmd_healthcheck(args);
  else if (args.command == "serve") rc = cmd_serve(args);
  else return usage();

  if (prof) prof->finish();
  return rc;
}

// `intellog profile [-o <prefix>] <cmd> [args...]` — runs any subcommand
// under the sampling profiler, equivalent to adding `--profile <prefix>`.
int cmd_profile_wrapper(int argc, char** argv) {
  std::string prefix = "intellog.prof";
  int start = 2;
  if (start + 1 < argc && std::string(argv[start]) == "-o") {
    prefix = argv[start + 1];
    start += 2;
  }
  if (start >= argc) return usage();
  std::vector<char*> shifted;
  shifted.push_back(argv[0]);
  for (int i = start; i < argc; ++i) shifted.push_back(argv[i]);
  Args args;
  if (!parse_args(static_cast<int>(shifted.size()), shifted.data(), args)) return usage();
  if (args.command == "profile") return usage();  // one session at a time
  args.profile_path = prefix;
  return run_command(args);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "profile") return cmd_profile_wrapper(argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "flight") return cmd_flight(argc, argv);
    Args args;
    if (!parse_args(argc, argv, args)) return usage();
    return run_command(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
