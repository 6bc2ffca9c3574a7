#include <gtest/gtest.h>

#include <map>
#include <set>

#include "simsys/mapreduce_system.hpp"
#include "simsys/spark_system.hpp"
#include "simsys/tensorflow_system.hpp"
#include "simsys/tez_system.hpp"
#include "simsys/workload.hpp"
#include "simsys/yarn_system.hpp"

using namespace intellog::simsys;

namespace {

JobSpec spec_for(const std::string& system, int input_gb, std::uint64_t seed,
                 double memory_mult = 1.5) {
  JobSpec s;
  s.system = system;
  s.name = system == "tez" ? "TPCH-Q8" : "WordCount";
  s.input_gb = input_gb;
  s.container_cores = 8;
  s.container_memory_mb = static_cast<int>(s.required_memory_mb() * memory_mult);
  s.seed = seed;
  return s;
}

std::size_t total_records(const JobResult& r) {
  std::size_t n = 0;
  for (const auto& s : r.sessions) n += s.records.size();
  return n;
}

bool contains_content(const JobResult& r, const std::string& needle) {
  for (const auto& s : r.sessions) {
    for (const auto& rec : s.records) {
      if (rec.content.find(needle) != std::string::npos) return true;
    }
  }
  return false;
}

}  // namespace

class SimulatorPerSystem : public ::testing::TestWithParam<const char*> {};

TEST_P(SimulatorPerSystem, DeterministicForSeed) {
  const ClusterSpec cluster;
  const JobSpec spec = spec_for(GetParam(), 5, 77);
  const JobResult a = run_job(spec, cluster);
  const JobResult b = run_job(spec, cluster);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    ASSERT_EQ(a.sessions[i].records.size(), b.sessions[i].records.size());
    for (std::size_t j = 0; j < a.sessions[i].records.size(); ++j) {
      EXPECT_EQ(a.sessions[i].records[j].content, b.sessions[i].records[j].content);
      EXPECT_EQ(a.sessions[i].records[j].timestamp_ms, b.sessions[i].records[j].timestamp_ms);
    }
  }
}

TEST_P(SimulatorPerSystem, SessionLengthsScaleWithInput) {
  const ClusterSpec cluster;
  const JobResult small = run_job(spec_for(GetParam(), 1, 5), cluster);
  const JobResult big = run_job(spec_for(GetParam(), 30, 5), cluster);
  EXPECT_GT(total_records(big), total_records(small));
  EXPECT_GE(big.sessions.size(), small.sessions.size());
}

TEST_P(SimulatorPerSystem, TimestampsAreOrderedWithinSession) {
  const ClusterSpec cluster;
  const JobResult r = run_job(spec_for(GetParam(), 10, 13), cluster);
  for (const auto& s : r.sessions) {
    for (std::size_t i = 1; i < s.records.size(); ++i) {
      EXPECT_LE(s.records[i - 1].timestamp_ms, s.records[i].timestamp_ms);
    }
  }
}

TEST_P(SimulatorPerSystem, CleanRunHasNoFaultArtifacts) {
  const ClusterSpec cluster;
  const JobResult r = run_job(spec_for(GetParam(), 10, 21), cluster);
  EXPECT_FALSE(r.has_fault());
  EXPECT_TRUE(r.affected_containers.empty());
  EXPECT_TRUE(r.perf_affected_containers.empty());
  EXPECT_FALSE(contains_content(r, "ailed to connect"));
  ASSERT_EQ(r.truth.size(), r.sessions.size());
  for (std::size_t i = 0; i < r.sessions.size(); ++i) {
    ASSERT_EQ(r.truth[i].size(), r.sessions[i].records.size());
    for (const auto& truth : r.truth[i]) EXPECT_FALSE(truth.injected_anomaly);
  }
}

TEST_P(SimulatorPerSystem, GroundTruthCarriesTemplateIds) {
  const ClusterSpec cluster;
  const JobResult r = run_job(spec_for(GetParam(), 5, 33), cluster);
  std::set<int> template_ids;
  ASSERT_EQ(r.truth.size(), r.sessions.size());
  for (std::size_t i = 0; i < r.sessions.size(); ++i) {
    ASSERT_EQ(r.truth[i].size(), r.sessions[i].records.size());
    for (const auto& truth : r.truth[i]) template_ids.insert(truth.template_id);
  }
  EXPECT_GT(template_ids.size(), 8u);
}

TEST_P(SimulatorPerSystem, GroundTruthTravelsWithItsRecord) {
  // Forked thread streams are absorbed, aborted sessions truncated and
  // every session stable-sorted by time; each record's side-table entry
  // must still describe that record: re-rendering its template with the
  // annotated field values gives back the record's content.
  const std::map<std::string, const TemplateCorpus*> corpora = {
      {"spark", &spark_corpus()},
      {"mapreduce", &mapreduce_corpus()},
      {"tez", &tez_corpus()},
      {"tensorflow", &tensorflow_corpus()}};
  const ClusterSpec cluster;
  WorkloadGenerator gen(GetParam(), 5);
  const FaultPlan fault = gen.make_fault(ProblemKind::SessionAbort, cluster);
  const JobResult r = run_job(spec_for(GetParam(), 10, 3), cluster, fault);
  ASSERT_EQ(r.truth.size(), r.sessions.size());
  std::size_t checked = 0;
  for (std::size_t i = 0; i < r.sessions.size(); ++i) {
    const auto& records = r.sessions[i].records;
    ASSERT_EQ(r.truth[i].size(), records.size());
    for (std::size_t k = 0; k < records.size(); ++k) {
      const intellog::logparse::GroundTruth& t = r.truth[i][k];
      const TemplateCorpus& corpus = *corpora.at(t.system);
      std::vector<std::string> values;
      for (const auto& f : t.fields) values.push_back(f.text);
      const LogTemplate& tmpl = corpus.by_id(t.template_id);
      ASSERT_EQ(tmpl.render(values), records[k].content.view()) << "session " << i << " record " << k;
      EXPECT_EQ(tmpl.source, records[k].source.view());
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST_P(SimulatorPerSystem, SessionAbortTruncatesAVictim) {
  const ClusterSpec cluster;
  WorkloadGenerator gen(GetParam(), 5);
  bool any_affected = false;
  for (std::uint64_t seed = 1; seed <= 5 && !any_affected; ++seed) {
    FaultPlan fault = gen.make_fault(ProblemKind::SessionAbort, cluster);
    const JobResult faulty = run_job(spec_for(GetParam(), 10, seed), cluster, fault);
    const JobResult clean = run_job(spec_for(GetParam(), 10, seed), cluster);
    if (!faulty.affected_containers.empty()) {
      any_affected = true;
      EXPECT_LT(total_records(faulty), total_records(clean));
    }
  }
  EXPECT_TRUE(any_affected);
}

TEST_P(SimulatorPerSystem, NetworkFailureInjectsConnectErrors) {
  const ClusterSpec cluster;
  WorkloadGenerator gen(GetParam(), 6);
  bool symptoms = false;
  for (std::uint64_t seed = 1; seed <= 8 && !symptoms; ++seed) {
    FaultPlan fault;
    fault.kind = ProblemKind::NetworkFailure;
    // Low node indices host the most talked-to components in every system.
    fault.target_node = static_cast<int>((seed - 1) % 4);
    fault.at_fraction = 0.3;
    const JobResult r = run_job(spec_for(GetParam(), 20, seed * 17), cluster, fault);
    symptoms = contains_content(r, "ailed to connect");  // "Failed"/"failed"
    if (symptoms) EXPECT_FALSE(r.affected_containers.empty());
  }
  EXPECT_TRUE(symptoms);
}

TEST_P(SimulatorPerSystem, InsufficientMemoryTriggersSpills) {
  const ClusterSpec cluster;
  JobSpec spec = spec_for(GetParam(), 20, 9, /*memory_mult=*/0.5);
  EXPECT_FALSE(spec.memory_sufficient());
  const JobResult r = run_job(spec, cluster);
  EXPECT_TRUE(contains_content(r, "pill"));  // Spill / Spilling / spill file
  EXPECT_FALSE(r.perf_affected_containers.empty());
  // Tuned memory never spills.
  const JobResult tuned = run_job(spec_for(GetParam(), 20, 9), cluster);
  EXPECT_TRUE(tuned.perf_affected_containers.empty());
}

INSTANTIATE_TEST_SUITE_P(Systems, SimulatorPerSystem,
                         ::testing::Values("spark", "mapreduce", "tez", "tensorflow"));

TEST(SparkSim, Bug19371StarvesContainers) {
  const ClusterSpec cluster;
  JobSpec spec = spec_for("spark", 20, 11);
  FaultPlan fault;
  fault.spark19371_bug = true;
  const JobResult r = run_job(spec, cluster, fault);
  EXPECT_FALSE(r.perf_affected_containers.empty());
  // Starved sessions have no task messages.
  for (const auto& s : r.sessions) {
    if (!r.perf_affected_containers.count(s.container_id)) continue;
    for (const auto& rec : s.records) {
      EXPECT_EQ(rec.content.find("Got assigned task"), std::string::npos);
    }
  }
}

TEST(MapReduceSim, SessionCountMatchesTaskStructure) {
  const ClusterSpec cluster;
  const JobResult r = run_job(spec_for("mapreduce", 10, 3), cluster);
  // 1 AM + 80 mappers + 5 reducers.
  EXPECT_EQ(r.sessions.size(), 86u);
}

TEST(MapReduceSim, Fig1SubroutinePresent) {
  const ClusterSpec cluster;
  const JobResult r = run_job(spec_for("mapreduce", 5, 3), cluster);
  bool about = false, read = false, freed = false;
  for (const auto& s : r.sessions) {
    for (const auto& rec : s.records) {
      about |= rec.content.find("about to shuffle output of map") != std::string::npos;
      read |= rec.content.find("bytes from map-output for") != std::string::npos;
      freed |= rec.content.find("freed by fetcher") != std::string::npos;
    }
  }
  EXPECT_TRUE(about && read && freed);
}

TEST(WorkloadGenerator, TrainingJobsAreTuned) {
  WorkloadGenerator gen("spark", 42);
  for (int i = 0; i < 20; ++i) {
    const JobSpec s = gen.training_job();
    EXPECT_TRUE(s.memory_sufficient());
    EXPECT_LE(s.container_memory_mb, s.required_memory_mb() * 2);
    EXPECT_EQ(s.system, "spark");
  }
}

TEST(WorkloadGenerator, DetectionConfigSetsVary) {
  WorkloadGenerator gen("tez", 42);
  std::set<int> inputs;
  for (int c = 0; c < 5; ++c) {
    const JobSpec s = gen.detection_job(c);
    EXPECT_TRUE(s.memory_sufficient());
    inputs.insert(s.input_gb);
  }
  EXPECT_EQ(inputs.size(), 5u);
}

TEST(WorkloadGenerator, FaultPlansAreBounded) {
  const ClusterSpec cluster;
  WorkloadGenerator gen("mapreduce", 1);
  for (int i = 0; i < 10; ++i) {
    const FaultPlan f = gen.make_fault(ProblemKind::NodeFailure, cluster);
    EXPECT_GE(f.target_node, 0);
    EXPECT_LT(f.target_node, cluster.num_workers);
    EXPECT_GE(f.at_fraction, 0.15);
    EXPECT_LE(f.at_fraction, 0.85);
  }
}

TEST(RunJob, UnknownSystemThrows) {
  EXPECT_THROW(run_job(spec_for("flink", 1, 1), ClusterSpec{}), std::invalid_argument);
}

TEST(YarnAndNova, GenerateLogs) {
  intellog::common::Rng rng(5);
  const auto yarn = generate_yarn_logs(ClusterSpec{}, 10, rng);
  EXPECT_GT(yarn.size(), 100u);
  const auto nova = generate_nova_logs(50, rng);
  EXPECT_GT(nova.size(), 300u);
  bool has_tracker = false;
  for (const auto& r : nova) has_tracker |= r.source == "compute.resource_tracker";
  EXPECT_TRUE(has_tracker);
}

TEST(YarnSessions, PerApplicationRequestUnits) {
  intellog::common::Rng rng(7);
  const auto sessions = generate_yarn_sessions(ClusterSpec{}, 20, rng);
  ASSERT_EQ(sessions.size(), 20u);
  for (const auto& s : sessions) {
    // Infrastructure-level requests: short, bounded sessions (§2.2).
    EXPECT_GE(s.records.size(), 5u);
    EXPECT_LE(s.records.size(), 100u);
    EXPECT_NE(s.container_id.find("application_"), std::string::npos);
    for (const auto& rec : s.records) EXPECT_EQ(rec.container_id, s.container_id);
  }
}
