// OBS_STAGE: one annotation that opens the profiler frame of the stage and
// journals a begin/end pair on the flight rings, rendered as B/E spans.
#include "obs/stages.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/export/trace_export.hpp"
#include "obs/flight/flight.hpp"

namespace {

using namespace intellog;
namespace flight = obs::flight;

static_assert(obs::StageId("train.pipeline").index == 0);
static_assert(obs::StageId("detect.scan").index < obs::kStageCount);

// The recorder is process-global; every test starts from a clean slate.
struct Stage : ::testing::Test {
  void SetUp() override { flight::flight_disable(); }
  void TearDown() override { flight::flight_disable(); }
};

/// B/E events of the live rings' Chrome export, in listed order.
std::vector<common::Json> stage_events() {
  const auto snap = flight::flight_snapshot();
  EXPECT_TRUE(snap.has_value());
  std::vector<common::Json> out;
  if (!snap) return out;
  const common::Json doc = obs::flight_chrome_trace(*snap);
  for (const auto& e : doc["traceEvents"].as_array()) {
    const std::string ph = e["ph"].as_string();
    if (ph == "B" || ph == "E") out.push_back(e);
  }
  return out;
}

TEST_F(Stage, NoOpWhenProfilerAndRecorderAreOff) {
  ASSERT_FALSE(flight::flight_enabled());
  ASSERT_EQ(obs::profiler(), nullptr);
  {
    OBS_STAGE("detect.session");  // must not crash, record or allocate state
  }
  EXPECT_FALSE(flight::flight_snapshot().has_value());
  flight::flight_enable();
  EXPECT_TRUE(stage_events().empty()) << "a stage closed while off left a record";
}

TEST_F(Stage, NestedStagesAreWellNestedOnOneTrack) {
  flight::flight_enable();
  {
    OBS_STAGE("detect.session");
    OBS_STAGE("detect.scan");
  }
  const auto events = stage_events();
  ASSERT_EQ(events.size(), 4u);
  const char* want[][2] = {{"B", "detect.session"},
                           {"B", "detect.scan"},
                           {"E", "detect.scan"},
                           {"E", "detect.session"}};
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i]["ph"].as_string(), want[i][0]) << i;
    EXPECT_EQ(events[i]["name"].as_string(), want[i][1]) << i;
    EXPECT_EQ(events[i]["tid"].as_int(), events[0]["tid"].as_int()) << i;
    EXPECT_EQ(events[i]["pid"].as_int(), 1);
    if (i > 0) {
      EXPECT_GE(events[i]["ts"].as_int(), events[i - 1]["ts"].as_int()) << i;
    }
  }
}

TEST_F(Stage, EarlyCloseIsIdempotent) {
  flight::flight_enable();
  obs::Profiler prof;
  {
    obs::ObsStage stage("detect.scan");
    stage.close();
    stage.close();  // second close (and the destructor) record nothing
  }
  prof.stop();
  const auto events = stage_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0]["ph"].as_string(), "B");
  EXPECT_EQ(events[1]["ph"].as_string(), "E");
  // The profiler frame is the table's pointer, entered once.
  const obs::FrameNode* node = prof.root()->first_child.load();
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->name, obs::kStageNames[obs::StageId("detect.scan").index]);
  EXPECT_EQ(node->enters.load(), 1u);
  EXPECT_EQ(node->next_sibling, nullptr);
}

TEST_F(Stage, ProfilerOnlyOpensTheFrameWithoutJournaling) {
  obs::Profiler prof;
  {
    OBS_STAGE("online.drain");
  }
  prof.stop();
  const obs::FrameNode* node = prof.root()->first_child.load();
  ASSERT_NE(node, nullptr);
  EXPECT_STREQ(node->name, "online.drain");
  EXPECT_EQ(node->enters.load(), 1u);
  EXPECT_FALSE(flight::flight_snapshot().has_value());
}

TEST_F(Stage, DistinctThreadsGetDistinctTracks) {
  flight::flight_enable();
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([] { OBS_STAGE("detect.batch_shard"); });
  }
  for (auto& t : threads) t.join();
  std::set<std::int64_t> tids;
  for (const auto& e : stage_events()) {
    if (e["ph"].as_string() == "B") tids.insert(e["tid"].as_int());
  }
  EXPECT_EQ(tids.size(), 3u);
}

TEST_F(Stage, EndWhoseBeginWasOverwrittenIsDropped) {
  flight::flight_enable();
  {
    OBS_STAGE("online.drain");
    // Lap the ring inside the stage: its begin record is overwritten.
    for (std::size_t i = 0; i < flight::kRingCapacity; ++i) FLIGHT_EVENT(kHttpRequest, 200, 0);
    OBS_STAGE("online.checkpoint");
  }
  const auto events = stage_events();
  ASSERT_EQ(events.size(), 2u) << "the orphaned online.drain end must not be exported";
  EXPECT_EQ(events[0]["name"].as_string(), "online.checkpoint");
  EXPECT_EQ(events[1]["name"].as_string(), "online.checkpoint");
  EXPECT_EQ(events[1]["ph"].as_string(), "E");
}

TEST_F(Stage, ConcurrentNestingStaysWellFormedPerThread) {
  constexpr int kThreads = 8;
  constexpr int kDepth = 5;
  constexpr int kRepeats = 4;
  flight::flight_enable();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      // kRepeats chains of kDepth nested stages, closing inner-first.
      for (int r = 0; r < kRepeats; ++r) {
        std::vector<std::unique_ptr<obs::ObsStage>> chain;
        for (int d = 0; d < kDepth; ++d) {
          chain.push_back(std::make_unique<obs::ObsStage>(obs::StageId("detect.session")));
        }
        while (!chain.empty()) chain.pop_back();
      }
    });
  }
  for (auto& t : threads) t.join();

  std::map<std::int64_t, std::vector<const common::Json*>> by_tid;
  const auto events = stage_events();
  for (const auto& e : events) by_tid[e["tid"].as_int()].push_back(&e);
  ASSERT_EQ(by_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, track] : by_tid) {
    ASSERT_EQ(track.size(), 2u * kDepth * kRepeats) << "tid " << tid;
    // Each E closes the innermost open B, no earlier than it, and the
    // depth never exceeds one chain.
    std::vector<std::int64_t> open_ts;
    for (const common::Json* e : track) {
      if ((*e)["ph"].as_string() == "B") {
        open_ts.push_back((*e)["ts"].as_int());
        ASSERT_LE(open_ts.size(), static_cast<std::size_t>(kDepth)) << "tid " << tid;
      } else {
        ASSERT_FALSE(open_ts.empty()) << "tid " << tid;
        EXPECT_GE((*e)["ts"].as_int(), open_ts.back());
        open_ts.pop_back();
      }
    }
    EXPECT_TRUE(open_ts.empty()) << "tid " << tid;
  }
}

TEST_F(Stage, ChromeJsonParsesAndHasDisplayUnit) {
  flight::flight_enable();
  {
    OBS_STAGE("simsys.run_job");
  }
  const auto snap = flight::flight_snapshot();
  ASSERT_TRUE(snap.has_value());
  const common::Json parsed = common::Json::parse(obs::flight_chrome_trace(*snap).dump());
  EXPECT_EQ(parsed["displayTimeUnit"].as_string(), "ms");
  int stage_spans = 0;
  for (const auto& e : parsed["traceEvents"].as_array()) {
    if (e["ph"].as_string() == "B" && e["name"].as_string() == "simsys.run_job") ++stage_spans;
  }
  EXPECT_EQ(stage_spans, 1);
}

}  // namespace
