// intellog_perfbench: one run of one workload of the end-to-end benchmark.
//
//   intellog_perfbench --workload spool_drain|spool_trickle|batch_detect
//                      --seed N --seconds S --trace 0|1
//                      --work DIR --out DIR [--smoke]
//
// Prints one "name value unit" line per metric, then a JSON object with
// keys correct, attempted, failed and metrics as the last line. Exits 1 when
// a check fails, 2 on bad arguments. perfbench/run.py builds and runs it.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <thread>

#include "bench.hpp"
#include "logparse/log_io.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using il::common::Json;

namespace {

/// Every session's report from the reference, as score_report expects them.
std::map<std::string, Json> reference_reports(const Reference& ref) {
  std::map<std::string, Json> out;
  for (const auto& [tenant, entries] : ref.by_tenant) {
    Json arr = Json::array();
    for (const auto& [container, e] : entries) {
      if (e.anomalous) arr.push_back(Json::parse(e.dump));
    }
    out[tenant] = std::move(arr);
  }
  return out;
}

void print_scores(const std::map<std::string, il::core::SystemScore>& scores) {
  for (const auto& [tenant, s] : scores) {
    std::cout << "# table6 " << tenant << " D/FP/FN/(P,B) = " << s.detected << "/" << s.fp << "/"
              << s.fn << "/(" << s.pb << ")\n";
  }
}

/// Runs `body` until `seconds` have passed and it ran at least `min_reps` times.
template <typename F>
void repeat(double seconds, int min_reps, F&& body) {
  const std::uint64_t t0 = now_ns();
  for (int i = 1;; ++i) {
    body();
    if (i >= min_reps && static_cast<double>(now_ns() - t0) / 1e9 >= seconds) break;
  }
}

}  // namespace

void run_spool_drain(const Config& cfg, Corpus& corpus, Models& models, Metrics& m,
                     Verdicts& v) {
  const Reference ref = build_reference(corpus.files, models, Reader::kResilient);
  print_scores(score_tenants(cfg, corpus, reference_reports(ref), v));
  std::vector<double> rate, p50, p99;
  std::size_t alerts = 0;
  reset_peak_rss();
  DrainOptions o;
  o.jobs = cfg.workers;
  repeat(cfg.seconds, cfg.min_reps, [&] {
    const DrainResult d = drain_once(corpus, models, ref, o, v);
    rate.push_back(static_cast<double>(d.records) / d.wall_s);
    p50.push_back(d.latency_p50_ms);
    p99.push_back(d.latency_p99_ms);
    alerts += d.alerts;
  });
  // The one-worker baseline, once: printed, not gated (see README).
  o.jobs = 1;
  const DrainResult one = drain_once(corpus, models, ref, o, v);
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  m.set("records_per_s", median(rate), "1/s");
  m.set("latency_p50_ms", median(p50), "ms");
  m.set("latency_p99_ms", median(p99), "ms");
  m.set("drain_1w_records_per_s", static_cast<double>(one.records) / one.wall_s, "1/s");
  m.set("alerts", static_cast<double>(alerts), "count");
}

void run_spool_trickle(const Config& cfg, Corpus& corpus, Models& models, Metrics& m,
                       Verdicts& v) {
  const Reference ref = build_reference(corpus.files, models, Reader::kResilient);
  reset_peak_rss();
  TrickleOptions o;
  o.jobs = cfg.workers;
  o.schedule_s = cfg.seconds;
  o.min_alerts = cfg.trickle_min_alerts;
  o.tag = "timed";
  const TrickleResult nw = trickle_once(cfg, corpus, models, ref, o, v);
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  m.set("records_per_s", nw.service_records_per_s, "1/s");
  m.set("latency_p50_ms", percentile(nw.alert_latency_ms, 50), "ms");
  m.set("latency_p99_ms", percentile(nw.alert_latency_ms, 99), "ms");
  m.set("alerts", static_cast<double>(nw.alert_latency_ms.size()), "count");
  m.set("simsys.gen_lag_p99_ms", percentile(nw.gen_lag_ms, 99), "ms");
  m.set("logparse.quarantine_frac",
        static_cast<double>(nw.quarantined) / static_cast<double>(std::max<std::uint64_t>(1, nw.lines)),
        "ratio");
  if (nw.alert_latency_ms.size() < cfg.trickle_min_alerts) {
    v.fail("trickle delivered fewer alerts than required");
  }
}

void run_batch_detect(const Config& cfg, Corpus& corpus, Models& models, Metrics& m,
                      Verdicts& v) {
  std::vector<SessionFile> files;
  for (const auto& f : corpus.files) {
    if (f.tenant != "spark2") files.push_back(f);
  }
  const Reference ref = build_reference(files, models, Reader::kPlain);
  print_scores(score_tenants(cfg, corpus, reference_reports(ref), v));
  struct Iteration {
    double records_per_s = 0;
    double p50_ms = 0;
    double p99_ms = 0;
  };
  const auto iteration = [&](std::size_t jobs) {
    std::vector<std::vector<il::logparse::Session>> sessions;
    std::vector<std::vector<il::core::AnomalyReport>> reports;
    std::vector<double> call_ms;
    std::size_t records = 0;
    // What `intellog detect --jobs N` does, one call per Table-6 corpus. A
    // batch user sees a corpus's reports when its call returns.
    for (const std::string& system : systems()) {
      const std::uint64_t t0 = now_ns();
      sessions.push_back(il::logparse::read_log_directory((fs::path(corpus.root) / system).string()));
      reports.push_back(models.of(system).detect_batch(sessions.back(), jobs));
      call_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    double wall_ms = 0;
    for (const double ms : call_ms) wall_ms += ms;
    for (std::size_t s = 0; s < systems().size(); ++s) {
      for (std::size_t i = 0; i < sessions[s].size(); ++i) {
        records += sessions[s][i].records.size();
        const Reference::Entry* e = ref.find(systems()[s], sessions[s][i].container_id);
        ++v.attempted;
        if (e == nullptr || e->dump != reports[s][i].to_json().dump()) {
          v.fail("batch report differs from serial detect: " + systems()[s] + "/" +
                 sessions[s][i].container_id);
        }
      }
    }
    // Over three calls, p50 is the middle one and p99 the slowest.
    return Iteration{static_cast<double>(records) / (wall_ms / 1e3), percentile(call_ms, 50),
                     percentile(call_ms, 99)};
  };
  std::vector<double> rate, p50, p99;
  reset_peak_rss();
  repeat(cfg.seconds, cfg.min_reps, [&] {
    const Iteration it = iteration(cfg.workers);
    rate.push_back(it.records_per_s);
    p50.push_back(it.p50_ms);
    p99.push_back(it.p99_ms);
  });
  // The one-worker baseline, once: printed, not gated (see README).
  const Iteration one = iteration(1);
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  m.set("records_per_s", median(rate), "1/s");
  m.set("latency_p50_ms", median(p50), "ms");
  m.set("latency_p99_ms", median(p99), "ms");
  m.set("batch_1w_records_per_s", one.records_per_s, "1/s");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--smoke") {
      cfg.smoke = true;
      continue;
    }
    if (!val) {
      std::cerr << "missing value for " << a << "\n";
      return 2;
    }
    ++i;
    try {
      if (a == "--workload") cfg.workload = val;
      else if (a == "--seed") cfg.seed = std::stoull(val);
      else if (a == "--seconds") cfg.seconds = std::stod(val);
      else if (a == "--trace") cfg.trace = std::string(val) == "1";
      else if (a == "--work") cfg.work_dir = val;
      else if (a == "--out") cfg.out_dir = val;
      else {
        std::cerr << "unknown flag " << a << "\n";
        return 2;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << a << ": " << val << "\n";
      return 2;
    }
  }
  if (cfg.workload != "spool_drain" && cfg.workload != "spool_trickle" &&
      cfg.workload != "batch_detect") {
    std::cerr << "--workload must be spool_drain, spool_trickle or batch_detect\n";
    return 2;
  }
  if (cfg.work_dir.empty() || cfg.out_dir.empty() || cfg.seconds <= 0) {
    std::cerr << "--work, --out and a positive --seconds are required\n";
    return 2;
  }
  if (cfg.smoke) {  // a small corpus, each phase once
    cfg.train_jobs = 8;
    cfg.jobs_per_system = 6;
    cfg.trickle_min_alerts = 20;
    cfg.setup_reps = 1;
    cfg.min_reps = 1;
  }

  Metrics m;
  Verdicts v;
  try {
    cfg.workers = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);

    fs::remove_all(cfg.work_dir);
    fs::create_directories(cfg.work_dir);
    Corpus corpus = generate(cfg);
    if (cfg.trace) {
      run_layers(cfg, corpus, m, v);
    } else {
      Models models = setup(cfg, corpus, cfg.setup_reps, nullptr);
      m.set("setup_s", median(models.setup_s), "s");
      if (cfg.workload == "spool_drain") run_spool_drain(cfg, corpus, models, m, v);
      else if (cfg.workload == "spool_trickle") run_spool_trickle(cfg, corpus, models, m, v);
      else run_batch_detect(cfg, corpus, models, m, v);
    }
    fs::remove_all(cfg.work_dir);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    std::error_code ec;
    fs::remove_all(cfg.work_dir, ec);
    return 1;
  }

  const double failed_frac =
      static_cast<double>(v.failed) / static_cast<double>(std::max<std::uint64_t>(1, v.attempted));
  m.set("failed_frac", failed_frac, "ratio");
  for (const auto& [name, metric] : m.all()) {
    char line[256];
    std::snprintf(line, sizeof line, "%-36s %-14s %.6g %s", name.c_str(), cfg.workload.c_str(),
                  metric.value, metric.unit.c_str());
    std::cout << line << "\n";
  }
  for (const auto& p : v.problems) std::cerr << "check failed: " << p << "\n";
  Json out = Json::object();
  out["correct"] = v.failed == 0 && v.attempted > 0;
  out["attempted"] = static_cast<std::int64_t>(v.attempted);
  out["failed"] = static_cast<std::int64_t>(v.failed);
  out["metrics"] = m.to_json();
  std::cout << out.dump() << std::endl;
  return v.failed == 0 && v.attempted > 0 ? 0 : 1;
}
