// Result of simulating one job: its sessions plus line and fault ground truth.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "logparse/session.hpp"
#include "simsys/cluster.hpp"

namespace intellog::simsys {

struct JobResult {
  JobSpec spec;
  FaultPlan fault;
  std::vector<logparse::Session> sessions;
  /// Ground truth of every simulated line, parallel to `sessions`:
  /// `truth[i][r]` annotates `sessions[i].records[r]`. Only accuracy
  /// benches and simulator tests read it; detection never does.
  std::vector<std::vector<logparse::GroundTruth>> truth;
  /// Containers whose logs were actually disturbed by the fault plan
  /// (ground truth for session-level detection metrics). Includes sessions
  /// disturbed by side effects — e.g. spill messages from a memory
  /// misconfiguration — not only by the injected problem itself.
  std::set<std::string> affected_containers;
  /// Containers disturbed by a performance issue or bug rather than by the
  /// injected problem (spill messages, Spark-19371 task starvation) — the
  /// paper's "(P/B)" column in Table 6.
  std::set<std::string> perf_affected_containers;

  bool has_fault() const { return fault.kind != ProblemKind::None; }
  bool has_perf_issue() const { return !perf_affected_containers.empty(); }
};

}  // namespace intellog::simsys
