#include "core/online.hpp"

#include <gtest/gtest.h>

#include <algorithm>

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

/// Interleaves a job's sessions into one arrival-ordered record stream.
std::vector<logparse::LogRecord> interleave(const simsys::JobResult& job) {
  std::vector<logparse::LogRecord> stream;
  for (const auto& s : job.sessions) {
    stream.insert(stream.end(), s.records.begin(), s.records.end());
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const logparse::LogRecord& a, const logparse::LogRecord& b) {
                     return a.timestamp_ms < b.timestamp_ms;
                   });
  return stream;
}

}  // namespace

class OnlineDetectorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model = new core::IntelLog();
    model->train(corpus(25, 31));
  }
  static void TearDownTestSuite() {
    delete model;
    model = nullptr;
  }
  static core::IntelLog* model;
};

core::IntelLog* OnlineDetectorTest::model = nullptr;

TEST_F(OnlineDetectorTest, RequiresTrainedModel) {
  core::IntelLog fresh;
  EXPECT_THROW(core::OnlineDetector bad(fresh), std::logic_error);
}

TEST_F(OnlineDetectorTest, CleanStreamProducesNoEvents) {
  simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen("spark", 71);
  const auto job = simsys::run_job(gen.detection_job(1), cluster);
  core::OnlineDetector online(*model);
  std::size_t events = 0;
  for (const auto& rec : interleave(job)) events += online.consume(rec).has_value();
  // A handful of events can appear when a rarely-logged template was not
  // covered by training (the §6.4 false-positive mechanism); a clean stream
  // must not fire broadly.
  EXPECT_LE(events, 5u);
  EXPECT_EQ(online.open_sessions().size(), job.sessions.size());
  EXPECT_EQ(online.open_session_count(), job.sessions.size());
  // Most closed sessions are clean.
  std::size_t anomalous = 0;
  for (const auto& r : online.close_all()) anomalous += r.anomalous();
  EXPECT_LE(anomalous, job.sessions.size() / 4);
  EXPECT_TRUE(online.open_sessions().empty());
}

TEST_F(OnlineDetectorTest, UnexpectedMessageSurfacesImmediately) {
  simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen("spark", 72);
  simsys::FaultPlan fault = gen.make_fault(simsys::ProblemKind::NetworkFailure, cluster);
  fault.at_fraction = 0.3;
  simsys::JobResult job;
  for (int attempt = 0; attempt < 6 && job.affected_containers.empty(); ++attempt) {
    fault = gen.make_fault(simsys::ProblemKind::NetworkFailure, cluster);
    fault.at_fraction = 0.3;
    job = simsys::run_job(gen.detection_job(2), cluster, fault);
  }
  ASSERT_FALSE(job.affected_containers.empty());
  core::OnlineDetector online(*model);
  bool saw_error_event = false;
  for (const auto& rec : interleave(job)) {
    const auto event = online.consume(rec);
    if (!event) continue;
    if (event->unexpected.content.find("Failed to connect") != std::string::npos) {
      saw_error_event = true;
      EXPECT_FALSE(event->unexpected.message.localities.empty());
      EXPECT_TRUE(job.affected_containers.count(event->container_id));
    }
  }
  EXPECT_TRUE(saw_error_event);
}

TEST_F(OnlineDetectorTest, CloseSessionMatchesBatchDetect) {
  simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen("spark", 73);
  const auto job = simsys::run_job(gen.detection_job(0), cluster);
  core::OnlineDetector online(*model);
  for (const auto& rec : interleave(job)) online.consume(rec);
  for (const auto& s : job.sessions) {
    const auto batch = model->detect(s);
    const auto streamed = online.close_session(s.container_id);
    ASSERT_TRUE(streamed.has_value());
    EXPECT_EQ(batch.anomalous(), streamed->anomalous()) << s.container_id;
    EXPECT_EQ(batch.unexpected.size(), streamed->unexpected.size());
    EXPECT_EQ(batch.issues.size(), streamed->issues.size());
  }
}

TEST_F(OnlineDetectorTest, CloseUnknownSessionReturnsNullopt) {
  core::OnlineDetector online(*model);
  EXPECT_FALSE(online.close_session("never-seen").has_value());
}

TEST_F(OnlineDetectorTest, IdleTimeoutClosesStaleSessions) {
  core::OnlineDetector online(*model);
  logparse::LogRecord rec;
  rec.container_id = "c_old";
  rec.timestamp_ms = 1000;
  rec.content = "Shutdown hook called";
  online.consume(rec);
  rec.container_id = "c_new";
  rec.timestamp_ms = 100000;
  online.consume(rec);
  const auto closed = online.close_idle(/*now=*/150000, /*idle=*/60000);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].container_id, "c_old");
  EXPECT_EQ(online.open_sessions(), (std::vector<std::string>{"c_new"}));
}

TEST_F(OnlineDetectorTest, CloseIdleExactBoundaryTimestamps) {
  core::OnlineDetector online(*model);
  logparse::LogRecord rec;
  rec.container_id = "c_boundary";
  rec.timestamp_ms = 1000;
  rec.content = "Shutdown hook called";
  online.consume(rec);
  // now < last_seen + idle: stays open.
  EXPECT_TRUE(online.close_idle(/*now=*/1999, /*idle=*/1000).empty());
  EXPECT_EQ(online.open_sessions().size(), 1u);
  // now == last_seen + idle: exactly at the deadline -> closed.
  EXPECT_EQ(online.close_idle(/*now=*/2000, /*idle=*/1000).size(), 1u);
  EXPECT_TRUE(online.open_sessions().empty());
}

TEST_F(OnlineDetectorTest, CloseIdleUsesLatestRecordPerContainer) {
  core::OnlineDetector online(*model);
  logparse::LogRecord rec;
  rec.content = "Shutdown hook called";
  // Interleaved containers; c_b keeps logging after c_a stops.
  rec.container_id = "c_a";
  rec.timestamp_ms = 1000;
  online.consume(rec);
  rec.container_id = "c_b";
  rec.timestamp_ms = 1500;
  online.consume(rec);
  rec.container_id = "c_a";
  rec.timestamp_ms = 2000;
  online.consume(rec);
  rec.container_id = "c_b";
  rec.timestamp_ms = 9000;
  online.consume(rec);
  // Out-of-order arrival must not rewind c_a's idle clock.
  rec.container_id = "c_a";
  rec.timestamp_ms = 500;
  online.consume(rec);

  const auto closed = online.close_idle(/*now=*/8000, /*idle=*/6000);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].container_id, "c_a");
  EXPECT_EQ(closed[0].session_length, 3u);
  EXPECT_EQ(online.open_sessions(), (std::vector<std::string>{"c_b"}));
}

TEST_F(OnlineDetectorTest, RecordsAfterIdleCloseStartAFreshSession) {
  core::OnlineDetector online(*model);
  logparse::LogRecord rec;
  rec.container_id = "c_restart";
  rec.timestamp_ms = 1000;
  rec.content = "Shutdown hook called";
  online.consume(rec);
  ASSERT_EQ(online.close_idle(/*now=*/10000, /*idle=*/1000).size(), 1u);
  EXPECT_EQ(online.buffered_records("c_restart"), 0u);
  // The same container id reappearing opens a new, empty-history session.
  rec.timestamp_ms = 20000;
  online.consume(rec);
  EXPECT_EQ(online.buffered_records("c_restart"), 1u);
  const auto report = online.close_session("c_restart");
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->session_length, 1u);
}

TEST_F(OnlineDetectorTest, StreamingTelemetryCountsRecordsSessionsAndCloses) {
  obs::MetricsRegistry reg;
  obs::set_registry(&reg);
  {
    // Handles are captured at construction, while the registry is installed.
    core::OnlineDetector online(*model);
    logparse::LogRecord rec;
    rec.content = "Shutdown hook called";
    rec.container_id = "c1";
    rec.timestamp_ms = 1000;
    online.consume(rec);
    online.consume(rec);
    rec.container_id = "c2";
    rec.timestamp_ms = 50000;
    online.consume(rec);
    rec.container_id = "";  // dropped: no container id, not counted
    online.consume(rec);
    rec.container_id = "c2";
    rec.content = "utterly unparseable gibberish xz-9q";
    online.consume(rec);

    EXPECT_EQ(reg.find_counter("intellog_online_records_total")->value(), 4u);
    EXPECT_EQ(reg.find_counter("intellog_online_unexpected_total")->value(), 1u);
    EXPECT_EQ(reg.find_gauge("intellog_online_open_sessions")->value(), 2);
    EXPECT_EQ(reg.find_histogram("intellog_online_consume_us")->count(), 4u);

    online.close_idle(/*now=*/100000, /*idle=*/60000);  // closes c1 only
    EXPECT_EQ(
        reg.find_counter("intellog_online_sessions_closed_total", {{"reason", "idle"}})->value(),
        1u);
    EXPECT_EQ(reg.find_gauge("intellog_online_open_sessions")->value(), 1);
    online.close_all();
    EXPECT_EQ(reg.find_counter("intellog_online_sessions_closed_total",
                               {{"reason", "explicit"}})
                  ->value(),
              1u);
    EXPECT_EQ(reg.find_gauge("intellog_online_open_sessions")->value(), 0);
  }
  obs::set_registry(nullptr);
}

TEST_F(OnlineDetectorTest, BufferedRecordCounts) {
  core::OnlineDetector online(*model);
  logparse::LogRecord rec;
  rec.container_id = "c";
  rec.content = "Shutdown hook called";
  online.consume(rec);
  online.consume(rec);
  EXPECT_EQ(online.buffered_records("c"), 2u);
  EXPECT_EQ(online.buffered_records("other"), 0u);
  // Records with no container id are dropped.
  rec.container_id = "";
  EXPECT_FALSE(online.consume(rec).has_value());
}
