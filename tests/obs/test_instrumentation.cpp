// Integration: the real pipeline populates the observability layer.
#include <gtest/gtest.h>

#include <map>

#include "core/intellog.hpp"
#include "obs/export/trace_export.hpp"
#include "obs/flight/flight.hpp"
#include "obs/metrics.hpp"
#include "simsys/workload.hpp"

using namespace intellog;

namespace {

std::vector<logparse::Session> corpus(int jobs, std::uint64_t seed) {
  simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen("spark", seed);
  std::vector<logparse::Session> out;
  for (int i = 0; i < jobs; ++i) {
    simsys::JobResult job = simsys::run_job(gen.training_job(), cluster);
    for (auto& s : job.sessions) out.push_back(std::move(s));
  }
  return out;
}

struct ObsGuard {
  obs::MetricsRegistry reg;
  ObsGuard() {
    obs::set_registry(&reg);
    obs::flight::flight_enable();
  }
  ~ObsGuard() {
    obs::set_registry(nullptr);
    obs::flight::flight_disable();
  }
};

TEST(Instrumentation, TrainPopulatesStageMetricsAndSpans) {
  const auto sessions = corpus(3, 11);
  ObsGuard guard;
  std::size_t records = 0;
  for (const auto& s : sessions) records += s.records.size();

  core::IntelLog il;
  il.train(sessions);

  // Stage latency histogram: one observation per training stage.
  for (const char* stage : {"spell", "extract", "group", "subroutines", "hwgraph"}) {
    const obs::Histogram* h =
        guard.reg.find_histogram("intellog_train_stage_ms", {{"stage", stage}});
    ASSERT_NE(h, nullptr) << stage;
    EXPECT_EQ(h->count(), 1u) << stage;
  }

  // Volume counters match the corpus.
  EXPECT_EQ(guard.reg.find_counter("intellog_train_sessions_total")->value(), sessions.size());
  EXPECT_EQ(guard.reg.find_counter("intellog_train_records_total")->value(), records);

  // Model-size gauges agree with the trained model.
  const auto gauge = [&](const char* name) {
    const obs::Gauge* g = guard.reg.find_gauge(name);
    return g ? g->value() : -1;
  };
  EXPECT_EQ(gauge("intellog_model_log_keys"), static_cast<std::int64_t>(il.spell().size()));
  EXPECT_EQ(gauge("intellog_model_intel_keys"),
            static_cast<std::int64_t>(il.intel_keys().size()));
  EXPECT_EQ(gauge("intellog_model_entity_groups"),
            static_cast<std::int64_t>(il.entity_groups().groups.size()));
  EXPECT_EQ(gauge("intellog_model_graph_nodes"),
            static_cast<std::int64_t>(il.hw_graph().groups().size()));
  EXPECT_GT(gauge("intellog_model_graph_edges"), 0);
  EXPECT_EQ(gauge("intellog_model_critical_groups"),
            static_cast<std::int64_t>(il.hw_graph().critical_group_count()));

  // The flight rings saw one B/E pair per training stage and one
  // session_view pair per session; per-record Spell scopes are not stages.
  const auto snapshot = obs::flight::flight_snapshot();
  ASSERT_TRUE(snapshot.has_value());
  std::map<std::string, int> begins, ends;
  const common::Json trace = obs::flight_chrome_trace(*snapshot);
  for (const auto& e : trace["traceEvents"].as_array()) {
    const std::string ph = e["ph"].as_string();
    if (ph == "B") begins[e["name"].as_string()]++;
    if (ph == "E") ends[e["name"].as_string()]++;
  }
  for (const char* stage : {"train.pipeline", "train.spell", "train.extract",
                            "train.group_entities", "train.subroutines", "train.hwgraph"}) {
    EXPECT_EQ(begins[stage], 1) << stage;
    EXPECT_EQ(ends[stage], 1) << stage;
  }
  EXPECT_EQ(begins["train.session_view"], static_cast<int>(sessions.size()));
  EXPECT_EQ(ends["train.session_view"], static_cast<int>(sessions.size()));
  for (const auto& [name, count] : begins) {
    EXPECT_NE(name.rfind("spell.", 0), 0u) << name << " x" << count;
  }

  // Detection path: counters advance per session.
  const auto report = il.detect(sessions.front());
  EXPECT_EQ(guard.reg.find_counter("intellog_detect_sessions_total")->value(), 1u);
  EXPECT_EQ(guard.reg.find_counter("intellog_detect_records_total")->value(),
            sessions.front().records.size());
  EXPECT_EQ(guard.reg.find_histogram("intellog_detect_session_ms")->count(), 1u);
  (void)report;
}

TEST(Instrumentation, PipelineIsSilentWithoutRegistry) {
  ASSERT_EQ(obs::registry(), nullptr);
  ASSERT_FALSE(obs::flight::flight_enabled());
  const auto sessions = corpus(2, 13);
  core::IntelLog il;
  il.train(sessions);  // must not touch any registry or ring
  const auto report = il.detect(sessions.front());
  EXPECT_EQ(report.session_length, sessions.front().records.size());
}

}  // namespace
