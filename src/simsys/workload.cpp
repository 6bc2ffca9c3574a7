#include "simsys/workload.hpp"

#include <stdexcept>

#include "obs/stages.hpp"
#include "simsys/mapreduce_system.hpp"
#include "simsys/spark_system.hpp"
#include "simsys/tensorflow_system.hpp"
#include "simsys/tez_system.hpp"

namespace intellog::simsys {

std::string to_string(ProblemKind kind) {
  switch (kind) {
    case ProblemKind::None: return "none";
    case ProblemKind::SessionAbort: return "session-abort";
    case ProblemKind::NetworkFailure: return "network-failure";
    case ProblemKind::NodeFailure: return "node-failure";
  }
  return "none";
}

JobResult run_job(const JobSpec& spec, const ClusterSpec& cluster, const FaultPlan& fault) {
  OBS_STAGE("simsys.run_job");
  if (spec.system == "spark") return SparkJobSim{}.run(spec, cluster, fault);
  if (spec.system == "mapreduce") return MapReduceJobSim{}.run(spec, cluster, fault);
  if (spec.system == "tez") return TezJobSim{}.run(spec, cluster, fault);
  if (spec.system == "tensorflow") return TensorFlowJobSim{}.run(spec, cluster, fault);
  throw std::invalid_argument("run_job: unknown system '" + spec.system + "'");
}

const std::vector<std::string>& job_names(const std::string& system) {
  static const std::vector<std::string> hibench = {"WordCount", "Sort",     "TeraSort",
                                                   "KMeans",    "PageRank", "Bayes"};
  static const std::vector<std::string> tpch = {
      "TPCH-Q1", "TPCH-Q3", "TPCH-Q5", "TPCH-Q6",  "TPCH-Q8",  "TPCH-Q10",
      "TPCH-Q12", "TPCH-Q14", "TPCH-Q17", "TPCH-Q19", "TPCH-Q21", "TPCH-Q22"};
  static const std::vector<std::string> mlperf = {"ResNet50", "InceptionV3", "LSTM-LM",
                                                  "Transformer"};
  if (system == "tez") return tpch;
  if (system == "tensorflow") return mlperf;
  return hibench;
}

WorkloadGenerator::WorkloadGenerator(std::string system, std::uint64_t seed)
    : system_(std::move(system)), rng_(seed) {}

JobSpec WorkloadGenerator::training_job() {
  const auto& names = job_names(system_);
  JobSpec spec;
  spec.system = system_;
  spec.name = names[rng_.uniform(names.size())];
  static const int kSizes[] = {1, 2, 5, 10, 20, 30};
  spec.input_gb = kSizes[rng_.uniform(6)];
  spec.container_cores = 4 + static_cast<int>(rng_.uniform(3)) * 2;
  // Tuned: 1.2x - 2x of what the input needs; never spills, never slow.
  spec.container_memory_mb =
      static_cast<int>(spec.required_memory_mb() * rng_.uniform_real(1.2, 2.0));
  spec.seed = rng_.next_u64() | 1;
  ++counter_;
  return spec;
}

JobSpec WorkloadGenerator::detection_job(int config_set) {
  // Five configuration sets: different input sizes and resource
  // allocations, all sufficient to finish, but set 4's over-allocation
  // exercises rarely-logged slow paths (the paper's FP mechanism, §6.4).
  static const int kInput[5] = {1, 5, 10, 20, 30};
  static const double kMemoryMult[5] = {1.3, 1.6, 2.5, 4.0, 8.0};
  const int s = config_set % 5;
  const auto& names = job_names(system_);
  JobSpec spec;
  spec.system = system_;
  spec.name = names[rng_.uniform(names.size())];
  spec.input_gb = kInput[s];
  spec.container_cores = 8;
  spec.container_memory_mb = static_cast<int>(spec.required_memory_mb() * kMemoryMult[s]);
  spec.seed = rng_.next_u64() | 1;
  ++counter_;
  return spec;
}

FaultPlan WorkloadGenerator::make_fault(ProblemKind kind, const ClusterSpec& cluster) {
  FaultPlan plan;
  plan.kind = kind;
  plan.target_node = static_cast<int>(rng_.uniform(cluster.num_workers));
  plan.at_fraction = rng_.uniform_real(0.15, 0.85);
  return plan;
}

}  // namespace intellog::simsys
