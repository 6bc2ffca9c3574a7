#include "core/online.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>

#include "core/model_io.hpp"
#include "obs/metrics.hpp"
#include "simsys/eval_workload.hpp"
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

// --- match once: OnlineDetector caches each record's Spell key ---------------

namespace {

/// Feeds `sessions` round-robin, one record each in turn, so sessions
/// interleave while each keeps its own record order.
void consume_round_robin(core::OnlineDetector& online,
                         const std::vector<logparse::Session>& sessions) {
  for (std::size_t ri = 0;; ++ri) {
    bool any = false;
    for (const auto& s : sessions) {
      if (ri >= s.records.size()) continue;
      online.consume(s.records[ri]);
      any = true;
    }
    if (!any) return;
  }
}

/// The detection workload's non-empty sessions (a stream never sees an
/// empty one), stopping once more than `max_sessions` are collected.
std::vector<logparse::Session> table6_sessions(const std::string& system,
                                               std::size_t max_sessions = SIZE_MAX) {
  std::vector<logparse::Session> out;
  for (auto& job : simsys::detection_workload(system, 3030)) {
    for (auto& s : job.result.sessions) {
      if (!s.records.empty()) out.push_back(std::move(s));
    }
    if (out.size() > max_sessions) break;
  }
  return out;
}

/// Report dumps by container, compared key by key so a failure names the
/// differing sessions instead of printing both corpora.
void expect_same_reports(const std::map<std::string, std::string>& got,
                         const std::map<std::string, std::string>& want,
                         const std::string& what) {
  EXPECT_EQ(got.size(), want.size()) << what;
  std::size_t differing = 0;
  for (const auto& [id, dump] : want) {
    const auto it = got.find(id);
    if (it != got.end() && it->second == dump) continue;
    if (++differing <= 3) ADD_FAILURE() << what << ": report differs for " << id;
  }
  EXPECT_EQ(differing, 0u) << what;
}

std::map<std::string, std::string> dumps(const std::vector<core::AnomalyReport>& reports) {
  std::map<std::string, std::string> out;
  for (const auto& r : reports) out[r.container_id] = r.to_json().dump();
  return out;
}

std::map<std::string, std::string> serial_dumps(const core::IntelLog& model,
                                                const std::vector<logparse::Session>& sessions) {
  std::map<std::string, std::string> out;
  for (const auto& s : sessions) out[s.container_id] = model.detect(s).to_json().dump();
  return out;
}

core::IntelLog train_system(const std::string& system, int jobs) {
  simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen(system, 2024);
  std::vector<logparse::Session> train;
  for (int i = 0; i < jobs; ++i) {
    for (auto& s : simsys::run_job(gen.training_job(), cluster).sessions) {
      train.push_back(std::move(s));
    }
  }
  core::IntelLog model;
  model.train(train);
  return model;
}

}  // namespace

TEST(MatchOnce, OnlineReportsEqualDetectOnTable6Corpora) {
  for (const std::string system : {"spark", "mapreduce", "tez"}) {
    const core::IntelLog model = train_system(system, 12);
    const std::vector<logparse::Session> sessions = table6_sessions(system);
    const auto want = serial_dumps(model, sessions);
    std::size_t anomalous = 0;
    for (const auto& [id, dump] : want) {
      anomalous += dump.find("\"anomalous\":true") != std::string::npos;
    }
    EXPECT_GT(anomalous, 0u) << system;
    for (const std::size_t jobs : {1u, 4u}) {
      core::OnlineDetector online(model, jobs);
      consume_round_robin(online, sessions);
      expect_same_reports(dumps(online.close_all()), want,
                          system + " jobs=" + std::to_string(jobs));
    }
  }
}

TEST_F(OnlineDetectorTest, CheckpointMidSessionRestoresByteIdenticalReports) {
  simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen("spark", 74);
  simsys::FaultPlan fault = gen.make_fault(simsys::ProblemKind::NetworkFailure, cluster);
  fault.at_fraction = 0.4;
  const auto job = simsys::run_job(gen.detection_job(1), cluster, fault);
  std::vector<logparse::Session> first = job.sessions, rest = job.sessions;
  for (std::size_t i = 0; i < job.sessions.size(); ++i) {
    const std::size_t half = job.sessions[i].records.size() / 2;
    first[i].records.resize(half);
    rest[i].records.erase(rest[i].records.begin(), rest[i].records.begin() + half);
  }
  core::OnlineDetector straight(*model);
  consume_round_robin(straight, job.sessions);
  const auto want = dumps(straight.close_all());
  expect_same_reports(want, serial_dumps(*model, job.sessions), "straight");
  std::size_t anomalous = 0;
  for (const auto& [id, dump] : want) {
    anomalous += dump.find("\"anomalous\":true") != std::string::npos;
  }
  EXPECT_GT(anomalous, 0u);

  core::OnlineDetector before(*model);
  consume_round_robin(before, first);
  // The restored sessions carry no cached keys: detect re-matches them.
  core::OnlineDetector resumed = core::OnlineDetector::restore(*model, before.checkpoint());
  consume_round_robin(resumed, rest);
  expect_same_reports(dumps(resumed.close_all()), want, "resumed");
}

TEST_F(OnlineDetectorTest, SpellKeysAreTrustedOnlyAtFullLength) {
  simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen("spark", 75);
  const auto job = simsys::run_job(gen.detection_job(0), cluster);
  const logparse::Session& session = job.sessions.front();
  ASSERT_GT(session.records.size(), 2u);
  const std::string want = model->detect(session).to_json().dump();

  // Stale caches (short, long, empty) are ignored and the records re-matched.
  for (const std::size_t n :
       {std::size_t{0}, session.records.size() - 1, session.records.size() + 1}) {
    logparse::Session stale = session;
    stale.spell_keys.assign(n, -1);
    EXPECT_EQ(model->detect(stale).to_json().dump(), want) << "keys=" << n;
  }
  // A full-length cache is taken as the model's matches, unverified.
  logparse::Session cached = session;
  for (const auto& rec : session.records) {
    cached.spell_keys.push_back(model->spell().match(rec.content));
  }
  EXPECT_EQ(model->detect(cached).to_json().dump(), want);
  cached.spell_keys.assign(session.records.size(), -1);
  EXPECT_EQ(model->detect(cached).unexpected.size(), session.records.size());
}

TEST(MatchOnce, PlanIsRebuiltAfterMoveAndLoad) {
  core::IntelLog trained = train_system("mapreduce", 8);
  const std::vector<logparse::Session> sessions = table6_sessions("mapreduce", 300);
  const auto want = serial_dumps(trained, sessions);

  core::IntelLog moved(std::move(trained));
  expect_same_reports(serial_dumps(moved, sessions), want, "moved");
  core::IntelLog assigned;
  assigned = std::move(moved);
  expect_same_reports(serial_dumps(assigned, sessions), want, "move-assigned");

  const std::string path =
      (std::filesystem::temp_directory_path() / "intellog_match_once_model.json").string();
  core::save_model_file(assigned, path);
  const core::IntelLog loaded = core::load_model_file(path);
  std::filesystem::remove(path);
  expect_same_reports(serial_dumps(loaded, sessions), want, "loaded");
  core::OnlineDetector online(loaded, 2);
  consume_round_robin(online, sessions);
  expect_same_reports(dumps(online.close_all()), want, "loaded, streamed");
}
