// Input generation, model set-up and the serial correctness reference.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/model_io.hpp"
#include "logparse/formatter.hpp"
#include "logparse/log_io.hpp"
#include "serve/daemon.hpp"
#include "simsys/corruptor.hpp"
#include "simsys/eval_workload.hpp"
#include "simsys/workload.hpp"
#include "trace.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using il::common::Json;

// --- helpers ------------------------------------------------------------------

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  idx = std::clamp<std::size_t>(idx, 1, v.size());
  return v[idx - 1];
}

void reset_peak_rss() {
  // Writing 5 to clear_refs resets the kernel's peak-RSS mark (VmHWM).
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

namespace {

/// syncfs() on the file system holding `dir`: generated files are written
/// back now rather than by the kernel's flusher threads during a timed
/// phase, where they competed with the benchmark for CPU.
void flush_to_disk(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

}  // namespace

void remove_dotfiles(const std::string& tenant_dir) {
  for (const auto& e : fs::directory_iterator(tenant_dir)) {
    const std::string name = e.path().filename().string();
    if (!name.empty() && name[0] == '.') fs::remove_all(e.path());
  }
}

Json Metrics::to_json() const {
  Json out = Json::object();
  for (const auto& [name, metric] : values_) {
    Json j = Json::object();
    j["value"] = metric.value;
    j["unit"] = metric.unit;
    out[name] = std::move(j);
  }
  return out;
}

void Verdicts::fail(const std::string& why, std::uint64_t n) {
  failed += n;
  if (problems.size() < 20) problems.push_back(why);
}

const std::vector<std::string>& systems() {
  static const std::vector<std::string> kSystems = {"spark", "mapreduce", "tez"};
  return kSystems;
}

std::string system_of(const std::string& tenant) {
  return tenant == "spark2" ? "spark" : tenant;
}

// --- generation ---------------------------------------------------------------

namespace {

// The models are trained once, on the fault-free jobs of the seed
// bench_table6_anomaly trains on; the workload seed varies what they see.
// A seed-dependent training set would move set-up time and per-record
// detect cost by more than the noise of a run.
constexpr std::uint64_t kTrainSeed = 2024;

std::unique_ptr<il::logparse::Formatter> formatter_for(const std::string& system) {
  return system == "spark" ? il::logparse::make_spark_formatter()
                           : il::logparse::make_hadoop_formatter();
}

}  // namespace

Corpus generate(const Config& cfg) {
  Corpus c;
  c.tenants = {{"mapreduce"}, {"spark"}, {"spark2"}, {"tez"}};
  const fs::path work(cfg.work_dir);
  const bool staged = cfg.workload == "spool_trickle";
  c.root = (work / "root").string();
  const il::simsys::ClusterSpec cluster;

  for (const std::string& system : systems()) {
    const auto fmt = formatter_for(system);

    // Fault-free training jobs, written as log files.
    const fs::path train = work / "train" / system;
    il::simsys::WorkloadGenerator gen(system, kTrainSeed);
    for (int j = 0; j < cfg.train_jobs; ++j) {
      const il::simsys::JobResult job = il::simsys::run_job(gen.training_job(), cluster);
      il::logparse::write_log_directory(*fmt, job.sessions,
                                        (train / ("job_" + std::to_string(j))).string());
    }
    c.train_dir[system] = train.string();

    // The Table-6 detection corpus, flat: one file per session.
    auto workload = il::simsys::detection_workload(system, cfg.seed);
    if (static_cast<int>(workload.size()) > cfg.jobs_per_system) {
      workload.resize(static_cast<std::size_t>(cfg.jobs_per_system));
    }
    const fs::path dir = staged ? work / "origin" / system : fs::path(c.root) / system;
    const bool corrupt = staged && system == "mapreduce";
    const fs::path write_dir = corrupt ? work / "clean" / system : dir;
    il::core::Labels labels;
    labels.system = system;
    labels.seed = cfg.seed;
    std::set<std::string> seen;
    fs::create_directories(write_dir);
    for (std::size_t j = 0; j < workload.size(); ++j) {
      const auto& dj = workload[j];
      il::core::LabeledJob label;
      label.name = dj.result.spec.name;
      label.dir = write_dir.string();
      label.fault = il::simsys::to_string(dj.result.fault.kind);
      label.injected = dj.injected;
      label.borderline = dj.borderline;
      label.affected = dj.result.affected_containers;
      label.perf_affected = dj.result.perf_affected_containers;
      for (const auto& s : dj.result.sessions) {
        // Two jobs of one seed can draw the same application id; the later
        // job's session gets a file (and so a container id) of its own.
        std::string container = s.container_id;
        for (int k = 1; !seen.insert(container).second; ++k) {
          container = s.container_id + "-j" + std::to_string(j) + "." + std::to_string(k);
        }
        if (label.affected.count(s.container_id) != 0) label.affected.insert(container);
        if (label.perf_affected.count(s.container_id) != 0) label.perf_affected.insert(container);
        label.containers.insert(container);
        il::logparse::write_session_file(*fmt, s, (write_dir / (container + ".log")).string());
        SessionFile f;
        f.tenant = system;
        f.container = container;
        f.name = container + ".log";
        f.path = (dir / f.name).string();
        f.records = s.records.size();
        c.files.push_back(std::move(f));
      }
      labels.jobs.push_back(std::move(label));
    }
    c.labels[system] = std::move(labels);
    if (corrupt) {
      // The corruptor stands in for a bad but live node's log shipper.
      il::simsys::LogStreamCorruptor corruptor(il::simsys::CorruptionSpec::all(0.02),
                                               cfg.seed ^ 0xc0ffee5eedULL);
      for (auto& [stem, result] : corruptor.corrupt_directory(write_dir.string(), dir.string())) {
        c.corrupted_lines[stem + ".log"] = static_cast<std::size_t>(
            std::count(result.origin.begin(), result.origin.end(), std::int64_t{-1}));
        c.origin[stem + ".log"] = std::move(result.origin);
      }
      fs::remove_all(write_dir);
    }
  }

  // spark2 replays the spark corpus under its own tenant (hard links).
  const fs::path spark2 = staged ? work / "origin" / "spark2" : fs::path(c.root) / "spark2";
  fs::create_directories(spark2);
  const std::size_t n = c.files.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (c.files[i].tenant != "spark") continue;
    SessionFile f = c.files[i];
    f.tenant = "spark2";
    f.path = (spark2 / f.name).string();
    fs::create_hard_link(c.files[i].path, f.path);
    c.files.push_back(std::move(f));
  }
  for (const auto& t : c.tenants) fs::create_directories(fs::path(c.root) / t.name);
  std::sort(c.files.begin(), c.files.end(), [](const SessionFile& a, const SessionFile& b) {
    return a.tenant != b.tenant ? a.tenant < b.tenant : a.name < b.name;
  });
  for (const auto& f : c.files) c.records += f.records;
  flush_to_disk(cfg.work_dir);
  return c;
}

// --- set-up -------------------------------------------------------------------

void install_models(const Models& models, const std::string& root) {
  for (const char* system : {"mapreduce", "tez"}) {
    fs::copy_file(models.path.at(system), fs::path(root) / system / "model.json",
                  fs::copy_options::overwrite_existing);
  }
}

il::serve::ServeOptions serve_options(const Models& models, const std::string& root,
                                      std::size_t jobs) {
  // CLI defaults (`intellog serve`), except signal handling: the benchmark
  // stops the daemon in-process with serve::request_stop.
  il::serve::ServeOptions o;
  o.root = root;
  o.model_path = models.path.at("spark");
  o.jobs = jobs;
  o.poll_ms = 50;
  o.checkpoint_every_ticks = 8;
  o.heartbeat_timeout_ms = 2000;
  o.handle_signals = false;
  return o;
}

Models setup(const Config& cfg, const Corpus& corpus, int reps, Tracer* tracer) {
  Models m;
  const fs::path model_dir = fs::path(cfg.work_dir) / "models";
  fs::create_directories(model_dir);
  for (const std::string& system : systems()) {
    m.path[system] = (model_dir / (system + ".json")).string();
  }
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t t0 = now_ns();
    for (const std::string& system : systems()) {
      std::vector<il::logparse::Session> sessions;
      {
        Span s(tracer, "logparse.read_log_directory", "train/" + system);
        sessions = il::logparse::read_log_directory(corpus.train_dir.at(system));
      }
      il::core::IntelLog model;
      {
        Span s(tracer, "core.train", system);
        model.train(sessions);
      }
      Span s(tracer, "core.save_model_file", system);
      il::core::save_model_file(model, m.path[system]);
    }
    install_models(m, corpus.root);
    {
      Span s(tracer, "serve.daemon_construct");
      il::serve::ServeDaemon daemon(serve_options(m, corpus.root, cfg.workers));
    }
    m.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  for (const std::string& system : systems()) {
    Span s(tracer, "core.load_model_file", system);
    m.by_system[system] =
        std::make_unique<il::core::IntelLog>(il::core::load_model_file(m.path[system]));
  }
  flush_to_disk(cfg.work_dir);
  return m;
}

// --- reference ----------------------------------------------------------------

const Reference::Entry* Reference::find(const std::string& tenant,
                                        const std::string& container) const {
  const auto t = by_tenant.find(tenant);
  if (t == by_tenant.end()) return nullptr;
  const auto e = t->second.find(container);
  return e == t->second.end() ? nullptr : &e->second;
}

std::size_t Reference::alerts() const {
  std::size_t n = 0;
  for (const auto& [tenant, entries] : by_tenant) {
    for (const auto& [container, e] : entries) n += e.anomalous;
  }
  return n;
}

Reference build_reference(const std::vector<SessionFile>& files, const Models& models,
                          Reader reader) {
  std::vector<Reference::Entry> entries(files.size());
  const auto work = [&](std::size_t first, std::size_t stride) {
    for (std::size_t i = first; i < files.size(); i += stride) {
      il::logparse::SessionIngest ingest;
      if (reader == Reader::kResilient) {
        ingest = il::logparse::read_session_file_resilient(files[i].path);
        ingest.session.source_file.clear();
      } else {
        ingest.session = il::logparse::read_session_file(files[i].path);
        ingest.stats.lines_total = ingest.session.records.size();
      }
      const il::core::AnomalyReport report = models.of(files[i].tenant).detect(ingest.session);
      Reference::Entry& e = entries[i];
      e.anomalous = report.anomalous();
      e.dump = report.to_json().dump();
      e.records = ingest.session.records.size();
      e.lines = ingest.stats.lines_total;
      e.quarantined = ingest.stats.quarantined;
    }
  };
  // Each session is one serial detect; sessions are spread over threads only
  // to keep the check short.
  const std::size_t threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(work, t, threads);
  for (auto& th : pool) th.join();
  Reference ref;
  for (std::size_t i = 0; i < files.size(); ++i) {
    ref.by_tenant[files[i].tenant][files[i].container] = std::move(entries[i]);
  }
  return ref;
}

std::map<std::string, il::core::SystemScore> score_tenants(
    const Config& cfg, const Corpus& corpus, const std::map<std::string, Json>& reports,
    Verdicts& v) {
  // Table-6 scores at kDefaultSeed: tenant -> D, FP, FN, (P,B).
  static const std::map<std::string, std::vector<std::size_t>> kExpected = {
      {"mapreduce", {15, 2, 0, 2}},
      {"spark", {15, 1, 0, 2}},
      {"spark2", {15, 1, 0, 2}},
      {"tez", {13, 3, 2, 2}},
  };
  std::map<std::string, il::core::SystemScore> out;
  const bool check = !cfg.smoke && cfg.seed == kDefaultSeed;
  for (const auto& [tenant, report] : reports) {
    const il::core::SystemScore s =
        il::core::score_report(corpus.labels.at(system_of(tenant)), report);
    out[tenant] = s;
    if (!check) continue;
    const auto it = kExpected.find(tenant);
    const std::vector<std::size_t> got = {s.detected, s.fp, s.fn, s.pb};
    if (it == kExpected.end() || it->second != got) {
      v.fail("Table-6 score of " + tenant + " is " + std::to_string(got[0]) + "/" +
             std::to_string(got[1]) + "/" + std::to_string(got[2]) + "/(" +
             std::to_string(got[3]) + "), not the recorded value");
    }
  }
  return out;
}

}  // namespace perfbench
