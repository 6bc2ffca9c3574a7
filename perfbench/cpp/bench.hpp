// Shared declarations of the IntelLog end-to-end benchmark.
//
// The benchmark drives the public APIs of logparse, core, serve and obs over
// inputs that simsys generates and writes to files before any timing. See
// perfbench/README.md for the workloads, the metrics and how each layer
// metric relates to the end-to-end ones.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/intellog.hpp"
#include "core/scoring.hpp"
#include "serve/daemon.hpp"

namespace perfbench {

namespace il = intellog;

// --- run parameters -----------------------------------------------------------

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string work_dir;  ///< scratch space inside the checkout
  std::string out_dir;   ///< trace artifacts (Chrome trace, self-time table)

  // Sizes of a full run; --smoke shrinks them (main.cpp).
  int train_jobs = 30;
  int jobs_per_system = 30;       ///< Table-6 jobs kept per system (30 = all)
  std::size_t trickle_min_alerts = 1000;
  int setup_reps = 5;
  int min_reps = 5;               ///< timed N-worker repetitions, at least
  std::size_t workers = 4;        ///< the N-worker daemon size, capped at nproc
};

/// The seed whose Table-6 scores are checked (score_tenants).
constexpr std::uint64_t kDefaultSeed = 3030;
/// The trickle's offered load, about half the 1-worker drain rate.
constexpr double kTrickleRecordsPerS = 65000;

// --- metrics ------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = Metric{value, unit};
  }
  const std::map<std::string, Metric>& all() const { return values_; }
  il::common::Json to_json() const;

 private:
  std::map<std::string, Metric> values_;
};

/// Sessions checked and sessions that failed a check, plus the reasons.
struct Verdicts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< first few failure descriptions

  void fail(const std::string& why, std::uint64_t n = 1);
};

// --- small helpers ------------------------------------------------------------

std::uint64_t now_ns();
double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
/// Resets the process's peak-RSS mark so peak_rss_mb() covers only what follows.
void reset_peak_rss();
double peak_rss_mb();
void remove_dotfiles(const std::string& tenant_dir);

// --- generated inputs ---------------------------------------------------------

/// One session file as it will sit in a spool.
struct SessionFile {
  std::string tenant;
  std::string name;       ///< file name, "<container>.log"
  std::string container;  ///< file stem = the session's container id
  std::string path;       ///< where the file lives before the run
  std::size_t records = 0;
};

struct Tenant {
  std::string name;  ///< spool directory name; system_of() gives its corpus and model
};

/// Everything generated for one run: trained-model inputs, the Table-6
/// corpora, labels and the four tenants' session files.
struct Corpus {
  std::vector<Tenant> tenants;                   ///< service order (sorted by name)
  std::map<std::string, std::string> train_dir;  ///< system -> training logs
  std::map<std::string, il::core::Labels> labels;  ///< system -> ground truth
  std::vector<SessionFile> files;                ///< all tenants, pass 0
  std::string root;  ///< spool root with one directory per tenant
  std::size_t records = 0;
  /// Lines the corruptor mutated or injected per corrupted file (name -> count).
  std::map<std::string, std::size_t> corrupted_lines;
  /// Per corrupted file, provenance of each output line (-1: mutated/injected).
  std::map<std::string, std::vector<std::int64_t>> origin;
};

const std::vector<std::string>& systems();
std::string system_of(const std::string& tenant);

/// Generates the inputs for `cfg.workload` under cfg.work_dir. Spool
/// workloads get files in `root/<tenant>/`; spool_trickle stages them
/// under `stage/` instead (mapreduce corrupted) and leaves the spools empty.
Corpus generate(const Config& cfg);

// --- set-up -------------------------------------------------------------------

class Tracer;

struct Models {
  std::map<std::string, std::unique_ptr<il::core::IntelLog>> by_system;
  std::map<std::string, std::string> path;  ///< system -> saved model file
  std::vector<double> setup_s;              ///< one entry per repetition
  const il::core::IntelLog& of(const std::string& tenant) const {
    return *by_system.at(system_of(tenant));
  }
};

/// Trains, saves and loads the three models `reps` times and constructs the
/// daemon over `root` after each; setup_s holds each repetition's wall time.
Models setup(const Config& cfg, const Corpus& corpus, int reps, Tracer* tracer);

/// Places saved models so that the daemon over `root` finds them: mapreduce
/// and tez get `model.json`, spark and spark2 share the daemon default.
void install_models(const Models& models, const std::string& root);

/// `intellog serve` defaults over `root` with `jobs` pool threads.
il::serve::ServeOptions serve_options(const Models& models, const std::string& root,
                                      std::size_t jobs);

// --- correctness reference ----------------------------------------------------

/// Serial IntelLog::detect over each file. Keyed by container id.
struct Reference {
  struct Entry {
    bool anomalous = false;
    std::string dump;  ///< report JSON as the serve ledger writes it
    std::size_t records = 0;
    std::size_t lines = 0;
    std::size_t quarantined = 0;
  };
  std::map<std::string, std::map<std::string, Entry>> by_tenant;  ///< tenant -> container

  const Entry* find(const std::string& tenant, const std::string& container) const;
  std::size_t alerts() const;
};

/// How the reference reads each file, matching the path it checks.
enum class Reader {
  /// read_session_file_resilient, as serve does. The online path carries no
  /// source file, so the reference session drops it too.
  kResilient,
  /// read_session_file, as batch detect (read_log_directory) does. The
  /// resilient reader drops duplicate lines that this one keeps.
  kPlain,
};

Reference build_reference(const std::vector<SessionFile>& files, const Models& models,
                          Reader reader);

/// Table-6 scoring of a report set against the labels; checks the expected
/// values at the default seed. Returns tenant -> score.
std::map<std::string, il::core::SystemScore> score_tenants(
    const Config& cfg, const Corpus& corpus,
    const std::map<std::string, il::common::Json>& reports_by_tenant, Verdicts& verdicts);

// --- workloads ----------------------------------------------------------------

void run_spool_drain(const Config& cfg, Corpus& corpus, Models& models, Metrics& m,
                     Verdicts& v);
void run_spool_trickle(const Config& cfg, Corpus& corpus, Models& models, Metrics& m,
                       Verdicts& v);
void run_batch_detect(const Config& cfg, Corpus& corpus, Models& models, Metrics& m,
                      Verdicts& v);

/// The traced run: per-layer metrics for any workload.
void run_layers(const Config& cfg, Corpus& corpus, Metrics& m, Verdicts& v);

// --- daemon runs shared by the timed and traced paths --------------------------

struct DrainResult {
  double wall_s = 0;
  std::uint64_t records = 0;
  /// Daemon start -> 50% / 99% of the spool's records admitted with their
  /// tick's ledgers written: the per-record latency percentiles of a
  /// backlog (needs the registry; the drain end without it).
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  std::size_t alerts = 0;                ///< report lines seen
  std::size_t backlog_files_max = 0;     ///< from status snapshots, when enabled
  std::uint64_t files_shed = 0;
  std::uint64_t breaker_trips = 0;
};

struct DrainOptions {
  std::size_t jobs = 1;
  bool registry = true;  ///< install a metrics registry, as `intellog serve` does
  bool status = false;   ///< write status snapshots and track the backlog
};

/// Drains every tenant spool under `corpus.root` once with a fresh daemon
/// and checks each session against `ref`.
DrainResult drain_once(const Corpus& corpus, const Models& models, const Reference& ref,
                       const DrainOptions& opt, Verdicts& v);

struct TrickleResult {
  /// Records over the daemon pool's busy time: its sustained service rate.
  double service_records_per_s = 0;
  std::vector<double> alert_latency_ms;  ///< due -> report line visible
  std::vector<double> gen_lag_ms;
  std::size_t alerts_expected = 0;
  std::uint64_t records = 0;
  std::uint64_t lines = 0;
  std::uint64_t quarantined = 0;
  std::size_t backlog_files_max = 0;
  std::uint64_t files_shed = 0;
  std::uint64_t breaker_trips = 0;
};

struct TrickleOptions {
  std::size_t jobs = 4;
  double schedule_s = 10;
  std::size_t min_alerts = 0;
  bool status = false;
  std::string tag;  ///< distinguishes the spool roots of several phases
};

/// One open-loop phase: files are renamed into fresh spools on a seeded
/// Poisson schedule while a daemon serves them.
TrickleResult trickle_once(const Config& cfg, const Corpus& corpus, const Models& models,
                           const Reference& ref, const TrickleOptions& opt, Verdicts& v);

}  // namespace perfbench
