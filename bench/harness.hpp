// Shared experiment harness for the paper-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper's
// evaluation (§6). The harness provides the §6.1 setup: the 27-node
// cluster, the workload generator, training corpora from tuned runs, and
// the Table-6 detection workload (5 configuration sets x 6 jobs, half with
// injected problems).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/intellog.hpp"
#include "obs/metrics.hpp"
#include "simsys/eval_workload.hpp"
#include "simsys/workload.hpp"

namespace intellog::bench {

inline const std::vector<std::string>& systems() {
  static const std::vector<std::string> kSystems = {"spark", "mapreduce", "tez"};
  return kSystems;
}

/// Fault-free training sessions from `jobs` tuned jobs (§6.1). When
/// `truth` is non-null it receives the simulator's per-line ground truth,
/// parallel to the returned sessions (`(*truth)[i][r]` annotates
/// `sessions[i].records[r]`).
inline std::vector<logparse::Session> training_corpus(
    const std::string& system, int jobs, std::uint64_t seed,
    std::vector<std::vector<logparse::GroundTruth>>* truth = nullptr) {
  simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen(system, seed);
  std::vector<logparse::Session> out;
  for (int i = 0; i < jobs; ++i) {
    simsys::JobResult job = simsys::run_job(gen.training_job(), cluster);
    for (auto& s : job.sessions) out.push_back(std::move(s));
    if (truth != nullptr) {
      for (auto& t : job.truth) truth->push_back(std::move(t));
    }
  }
  return out;
}

/// Trains an IntelLog model on `jobs` tuned jobs.
inline core::IntelLog train_model(const std::string& system, int jobs, std::uint64_t seed) {
  core::IntelLog il;
  il.train(training_corpus(system, jobs, seed));
  return il;
}

/// One detection-phase job with its ground truth (lives in simsys so that
/// loggen --table6 and the scoring tests see the identical workload).
using DetectionJob = simsys::DetectionJob;

/// The Table-6 workload: per system, 5 configuration sets; per set, 3 jobs
/// with injected problems (abort / network / node) and 3 without. Two of
/// the fault-free jobs overall run with borderline memory, reproducing the
/// "(P/B)" unexpected-problem detections.
inline std::vector<DetectionJob> detection_workload(const std::string& system,
                                                    std::uint64_t seed) {
  return simsys::detection_workload(system, seed);
}

/// True if any session of the job raises an IntelLog anomaly report.
inline bool job_flagged(const core::IntelLog& il, const simsys::JobResult& job) {
  for (const auto& s : job.sessions) {
    if (il.detect(s).anomalous()) return true;
  }
  return false;
}

inline void print_header(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

// --- timing + BENCH_*.json emission ----------------------------------------
//
// steady_clock timing with a warm-up pass and repeated measured runs;
// min/median are the reported statistics (a single wall-clock run is too
// noisy to chart a perf trajectory from).

struct Timing {
  std::vector<double> runs_ms;  ///< measured runs, in recorded order

  double min_ms() const {
    return runs_ms.empty() ? 0.0 : *std::min_element(runs_ms.begin(), runs_ms.end());
  }
  double median_ms() const {
    if (runs_ms.empty()) return 0.0;
    std::vector<double> sorted = runs_ms;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    return n % 2 ? sorted[n / 2] : (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0;
  }
};

/// Runs `fn` `warmup` times unmeasured, then `repeats` measured times.
template <typename F>
Timing run_timed(F&& fn, int repeats = 5, int warmup = 1) {
  Timing timing;
  for (int i = 0; i < warmup; ++i) fn();
  timing.runs_ms.reserve(static_cast<std::size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    timing.runs_ms.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  return timing;
}

/// Writes `BENCH_<name>.json` (into $INTELLOG_BENCH_DIR, default cwd) with
/// wall-time min/median, per-run samples, throughput, and — when a metrics
/// registry is installed — the full metric snapshot. Returns the path.
inline std::string emit_bench_json(const std::string& name, const Timing& timing,
                                   double items_per_run,
                                   common::Json extra = common::Json::object()) {
  common::Json out = common::Json::object();
  out["bench"] = name;
  out["wall_ms_min"] = timing.min_ms();
  out["wall_ms_median"] = timing.median_ms();
  common::Json runs = common::Json::array();
  for (const double ms : timing.runs_ms) runs.push_back(ms);
  out["runs_ms"] = std::move(runs);
  out["items_per_run"] = items_per_run;
  out["throughput_per_s"] =
      timing.min_ms() > 0 ? items_per_run / (timing.min_ms() / 1000.0) : 0.0;
  if (extra.is_object() && extra.size() > 0) out["extra"] = std::move(extra);
  if (obs::MetricsRegistry* reg = obs::registry()) out["metrics"] = reg->to_json();

  const char* dir = std::getenv("INTELLOG_BENCH_DIR");
  const std::string path = (dir ? std::string(dir) + "/" : std::string()) +
                           "BENCH_" + name + ".json";
  std::ofstream f(path);
  f << out.dump(2) << "\n";
  std::cout << "[bench] " << name << ": min " << timing.min_ms() << " ms, median "
            << timing.median_ms() << " ms, "
            << static_cast<std::uint64_t>(out["throughput_per_s"].as_double())
            << " items/s -> " << path << "\n";
  return path;
}

}  // namespace intellog::bench
