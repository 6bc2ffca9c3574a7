// loggen — generate an on-disk log dataset from the simulated systems.
//
//   loggen <outdir> [--system spark|mapreduce|tez|tensorflow]
//          [--jobs N] [--seed S]
//          [--fault none|abort|network|node] [--fault-node K]
//          [--low-memory] [--labels <file>] [--table6]
//
// Writes <outdir>/job_<n>/<container_id>.log in the system's native log
// format, plus <outdir>/manifest.json recording the job specs and fault
// ground truth (for scoring; the IntelLog CLI never reads it).
//
// `--labels <file>` additionally writes an intellog_labels sidecar — the
// per-job ground truth (injected problem, container sets) in the schema
// `intellog score` consumes.
//
// `--table6` replaces the uniform job loop with the paper's §6.4
// evaluation workload (5 configuration sets x 6 jobs, 15 injected + 15
// clean, two borderline-memory): the exact workload bench_table6_anomaly
// runs in-memory for the same seed, so scoring a detect run over the
// generated dataset reproduces the bench's numerators. Ignores --jobs,
// --fault and --low-memory.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "common/json.hpp"
#include "core/scoring.hpp"
#include "logparse/log_io.hpp"
#include "simsys/eval_workload.hpp"
#include "simsys/workload.hpp"
#include "numeric_flag.hpp"

using namespace intellog;

namespace {

int usage() {
  std::cerr << "usage: loggen <outdir> [--system S] [--jobs N] [--seed S]\n"
               "              [--fault none|abort|network|node] [--fault-node K]\n"
               "              [--low-memory] [--labels <file>] [--table6]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string outdir = argv[1];
  std::string system = "spark";
  int jobs = 5;
  std::uint64_t seed = 1;
  std::string fault_name = "none";
  std::string labels_path;
  int fault_node = -1;
  bool low_memory = false;
  bool table6 = false;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::exit(usage());
      }
      return argv[++i];
    };
    if (arg == "--system") system = next();
    else if (arg == "--jobs") jobs = tools::numeric_flag<int>("loggen", arg, next());
    else if (arg == "--seed") seed = tools::numeric_flag<std::uint64_t>("loggen", arg, next());
    else if (arg == "--fault") fault_name = next();
    else if (arg == "--fault-node") fault_node = tools::numeric_flag<int>("loggen", arg, next());
    else if (arg == "--low-memory") low_memory = true;
    else if (arg == "--labels") labels_path = next();
    else if (arg == "--table6") table6 = true;
    else return usage();
  }

  simsys::ProblemKind kind = simsys::ProblemKind::None;
  if (fault_name == "abort") kind = simsys::ProblemKind::SessionAbort;
  else if (fault_name == "network") kind = simsys::ProblemKind::NetworkFailure;
  else if (fault_name == "node") kind = simsys::ProblemKind::NodeFailure;
  else if (fault_name != "none") return usage();

  const simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen(system, seed);
  const auto fmt = system == "spark" || system == "tensorflow"
                       ? logparse::make_spark_formatter()
                       : logparse::make_hadoop_formatter();

  common::Json manifest = common::Json::object();
  manifest["system"] = system;
  manifest["seed"] = seed;
  common::Json jobs_json = common::Json::array();
  core::Labels labels;
  labels.system = system;
  labels.seed = seed;

  // One generated job, already run: write its logs, record manifest +
  // label ground truth. Shared between the uniform loop and --table6.
  std::size_t total_lines = 0, total_sessions = 0;
  int job_index = 0;
  const auto emit_job = [&](const simsys::JobResult& result, bool injected,
                            bool borderline) {
    const std::string job_dir =
        (std::filesystem::path(outdir) / ("job_" + std::to_string(job_index++))).string();
    logparse::write_log_directory(*fmt, result.sessions, job_dir);

    common::Json job = common::Json::object();
    job["name"] = result.spec.name;
    job["input_gb"] = result.spec.input_gb;
    job["container_memory_mb"] = result.spec.container_memory_mb;
    job["fault"] = std::string(simsys::to_string(result.fault.kind));
    job["dir"] = job_dir;
    common::Json affected = common::Json::array();
    for (const auto& c : result.affected_containers) affected.push_back(c);
    job["affected_containers"] = std::move(affected);
    common::Json perf = common::Json::array();
    for (const auto& c : result.perf_affected_containers) perf.push_back(c);
    job["perf_affected_containers"] = std::move(perf);
    jobs_json.push_back(std::move(job));

    core::LabeledJob label;
    label.name = result.spec.name;
    label.dir = job_dir;
    label.fault = simsys::to_string(result.fault.kind);
    label.injected = injected;
    label.borderline = borderline;
    for (const auto& s : result.sessions) label.containers.insert(s.container_id);
    label.affected = result.affected_containers;
    label.perf_affected = result.perf_affected_containers;
    labels.jobs.push_back(std::move(label));

    total_sessions += result.sessions.size();
    for (const auto& s : result.sessions) total_lines += s.records.size();
  };

  const auto t0 = std::chrono::steady_clock::now();
  if (table6) {
    const auto workload = simsys::detection_workload(system, seed);
    for (const auto& dj : workload) emit_job(dj.result, dj.injected, dj.borderline);
    jobs = static_cast<int>(workload.size());
  } else {
    for (int j = 0; j < jobs; ++j) {
      simsys::JobSpec spec = gen.training_job();
      if (low_memory) {
        spec.container_memory_mb = static_cast<int>(spec.required_memory_mb() * 0.7);
      }
      simsys::FaultPlan plan;
      if (kind != simsys::ProblemKind::None) {
        plan = gen.make_fault(kind, cluster);
        if (fault_node >= 0) plan.target_node = fault_node;
      }
      const simsys::JobResult result = simsys::run_job(spec, cluster, plan);
      emit_job(result, /*injected=*/kind != simsys::ProblemKind::None,
               /*borderline=*/low_memory);
    }
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  manifest["jobs"] = std::move(jobs_json);
  manifest["generation_wall_ms"] = wall_ms;
  manifest["generation_lines_per_s"] =
      wall_ms > 0 ? static_cast<double>(total_lines) / (wall_ms / 1000.0) : 0.0;
  std::ofstream mf(std::filesystem::path(outdir) / "manifest.json");
  mf << manifest.dump(2) << "\n";

  if (!labels_path.empty()) {
    std::ofstream lf(labels_path);
    lf << labels.to_json().dump(2) << "\n";
    if (lf.flush(); lf) {
      std::cerr << "labels (" << labels.jobs.size() << " jobs) -> " << labels_path << "\n";
    } else {
      std::cerr << "error: cannot write labels to " << labels_path << "\n";
      return 1;
    }
  }

  std::cout << "wrote " << jobs << " " << system << " jobs (" << total_sessions
            << " sessions, " << total_lines << " log lines) under " << outdir << "\n";
  std::cout << "generated in " << wall_ms << " ms ("
            << static_cast<std::uint64_t>(manifest["generation_lines_per_s"].as_double())
            << " lines/s)\n";
  return 0;
}
