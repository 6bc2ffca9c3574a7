// Flight recorder: enable/disable lifecycle, interning, dump/decode
// round-trips, rotation, per-thread ordering, and the decoder's rejection
// of damaged files.
#include "obs/flight/flight.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/export/trace_export.hpp"
#include "obs/stages.hpp"

namespace {

namespace fs = std::filesystem;
using namespace intellog::obs::flight;

std::string tmp_path(const char* name) {
  return (fs::temp_directory_path() /
          (std::string("intellog_flight_") + name + "." + std::to_string(::getpid())))
      .string();
}

// The recorder is process-global; every test starts from a clean slate.
struct FlightTest : ::testing::Test {
  void SetUp() override { flight_disable(); }
  void TearDown() override { flight_disable(); }
};

TEST_F(FlightTest, DisabledEmitIsANoOpAndInternReturnsNone) {
  ASSERT_FALSE(flight_enabled());
  FLIGHT_EVENT(kTenantTick, 1, 2);  // must not crash or allocate state
  EXPECT_EQ(flight_intern("tenant-a"), 0u);
  const auto snap = flight_snapshot_json();
  EXPECT_FALSE(snap["enabled"].as_bool());
}

TEST_F(FlightTest, EnableEmitSnapshotRoundTrip) {
  flight_enable();
  ASSERT_TRUE(flight_enabled());
  const std::uint32_t sid = flight_intern("acme");
  ASSERT_NE(sid, 0u);
  EXPECT_EQ(flight_intern("acme"), sid) << "interning must dedup";

  {
    OBS_STAGE("detect.batch_shard");
    FLIGHT_EVENT_STR(kTenantTick, 7, 1, sid);
  }

  const auto snap = flight_snapshot_json();
  ASSERT_TRUE(snap["enabled"].as_bool());
  const auto& events = snap["events"].as_array();
  // flight.enable is journaled too, so >= 4.
  ASSERT_GE(events.size(), 4u);
  bool saw_tick = false;
  for (const auto& e : events) {
    if (e["event"].as_string() == "tenant.tick") {
      saw_tick = true;
      EXPECT_EQ(e["str"].as_string(), "acme");
      EXPECT_EQ(e["tick"].as_int(), 7);
      EXPECT_EQ(e["epoch"].as_int(), 1);
    }
  }
  EXPECT_TRUE(saw_tick);
}

TEST_F(FlightTest, DumpDecodeRoundTripOrderedAndAnnotated) {
  const std::string path = tmp_path("roundtrip");
  fs::remove(path);
  fs::remove(path + ".1");
  flight_enable();
  const std::uint32_t sid = flight_intern("globex");
  for (std::uint64_t i = 0; i < 100; ++i) FLIGHT_EVENT_STR(kTenantTick, i, 1, sid);
  ASSERT_TRUE(flight_set_dump_path(path));
  ASSERT_GE(flight_dump_fd(), 0);
  ASSERT_TRUE(flight_dump_now(DumpReason::kManual));

  const FlightDump dump = decode_flight_file(path);
  EXPECT_EQ(dump.reason, DumpReason::kManual);
  EXPECT_EQ(dump.signo, 0u);
  EXPECT_EQ(dump.nthreads, 1u);
  // 100 ticks + flight.enable + flight.dump.
  ASSERT_GE(dump.events.size(), 102u);
  std::uint64_t prev_steady = 0;
  std::uint64_t ticks_seen = 0;
  for (const DecodedEvent& e : dump.events) {
    EXPECT_GE(e.steady_ns, prev_steady) << "merged log must be time-ordered";
    prev_steady = e.steady_ns;
    EXPECT_GT(e.wall_ns, 0u);
    if (e.id == FlightEventId::kTenantTick) {
      EXPECT_EQ(e.a, ticks_seen++);
      EXPECT_EQ(e.str, "globex");
    }
  }
  EXPECT_EQ(ticks_seen, 100u);
  fs::remove(path);
}

TEST_F(FlightTest, SetDumpPathRotatesThePriorDump) {
  const std::string path = tmp_path("rotate");
  fs::remove(path);
  fs::remove(path + ".1");
  flight_enable();
  ASSERT_TRUE(flight_set_dump_path(path));
  ASSERT_TRUE(flight_dump_now(DumpReason::kManual));
  ASSERT_TRUE(fs::exists(path));
  const auto first_size = fs::file_size(path);

  // Re-pointing at the same path must move the old dump aside first.
  ASSERT_TRUE(flight_set_dump_path(path));
  ASSERT_TRUE(fs::exists(path + ".1"));
  EXPECT_EQ(fs::file_size(path + ".1"), first_size);
  EXPECT_EQ(fs::file_size(path), 0u) << "fresh blackbox starts empty";
  fs::remove(path);
  fs::remove(path + ".1");
}

TEST_F(FlightTest, ScopedFlightDumpWritesOnDestruction) {
  const std::string path = tmp_path("scoped");
  fs::remove(path);
  fs::remove(path + ".1");
  flight_enable();
  ASSERT_TRUE(flight_set_dump_path(path));
  {
    ScopedFlightDump dump(DumpReason::kWatchdog);
    FLIGHT_EVENT(kWatchdogRestart, 2, 40);
  }
  const FlightDump dump = decode_flight_file(path);
  EXPECT_EQ(dump.reason, DumpReason::kWatchdog);
  bool saw = false;
  for (const DecodedEvent& e : dump.events) {
    saw = saw || e.id == FlightEventId::kWatchdogRestart;
  }
  EXPECT_TRUE(saw);
  fs::remove(path);
}

TEST_F(FlightTest, MultiThreadEventsKeepPerThreadOrder) {
  const std::string path = tmp_path("mt");
  fs::remove(path);
  fs::remove(path + ".1");
  flight_enable();
  ASSERT_TRUE(flight_set_dump_path(path));
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        FLIGHT_EVENT(kStageBegin, static_cast<std::uint64_t>(t), i);
      }
    });
  }
  for (auto& w : workers) w.join();
  ASSERT_TRUE(flight_dump_now(DumpReason::kManual));

  const FlightDump dump = decode_flight_file(path);
  EXPECT_GE(dump.nthreads, static_cast<std::uint32_t>(kThreads));
  // Per slot: seq strictly increases and the per-thread payload counter
  // (arg b) increases in listed order — the merge never reorders a thread
  // against itself.
  std::map<std::uint32_t, std::uint64_t> last_seq;
  std::map<std::uint32_t, std::uint64_t> last_b;
  std::uint64_t shard_events = 0;
  for (const DecodedEvent& e : dump.events) {
    if (e.id != FlightEventId::kStageBegin) continue;
    ++shard_events;
    if (last_seq.count(e.slot)) {
      EXPECT_GT(e.seq, last_seq[e.slot]);
      EXPECT_GT(e.b, last_b[e.slot]);
    }
    last_seq[e.slot] = e.seq;
    last_b[e.slot] = e.b;
  }
  EXPECT_EQ(shard_events, static_cast<std::uint64_t>(kThreads) * kPerThread);
  fs::remove(path);
}

TEST_F(FlightTest, DecodeRejectsTruncatedAndGarbageFiles) {
  const std::string path = tmp_path("bad");
  {
    std::ofstream f(path, std::ios::binary);
    f << "not a flight dump";
  }
  EXPECT_THROW(decode_flight_file(path), std::runtime_error);
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
  }
  EXPECT_THROW(decode_flight_file(path), std::runtime_error);
  EXPECT_THROW(decode_flight_file(path + ".does-not-exist"), std::runtime_error);
  fs::remove(path);
}

TEST_F(FlightTest, DumpJsonShapeMatchesTheValidatorContract) {
  const std::string path = tmp_path("json");
  fs::remove(path);
  fs::remove(path + ".1");
  flight_enable();
  ASSERT_TRUE(flight_set_dump_path(path));
  FLIGHT_EVENT(kHttpRequest, 200, 0);
  ASSERT_TRUE(flight_dump_now(DumpReason::kGracefulDrain));
  const auto doc = flight_dump_json(decode_flight_file(path));
  EXPECT_EQ(doc["kind"].as_string(), "intellog_flight");
  EXPECT_EQ(doc["reason"].as_string(), "graceful-drain");
  EXPECT_EQ(doc["signo"].as_int(), 0);
  for (const char* key :
       {"version", "threads", "dropped", "anchor_wall_ns", "anchor_steady_ns", "events"}) {
    EXPECT_TRUE(doc.contains(key)) << key;
  }
  const auto& events = doc["events"].as_array();
  ASSERT_FALSE(events.empty());
  bool saw_http = false;
  for (const auto& e : events) {
    if (e["event"].as_string() != "http.request") continue;
    saw_http = true;
    EXPECT_EQ(e["subsystem"].as_string(), "http");
    EXPECT_EQ(e["status"].as_int(), 200);
  }
  EXPECT_TRUE(saw_http);
  fs::remove(path);
}

TEST_F(FlightTest, ChromeTraceExportPairsShardSpans) {
  const std::string path = tmp_path("trace");
  fs::remove(path);
  fs::remove(path + ".1");
  flight_enable();
  ASSERT_TRUE(flight_set_dump_path(path));
  {
    OBS_STAGE("detect.batch_shard");
  }
  FLIGHT_EVENT(kHttpRequest, 200, 0);
  ASSERT_TRUE(flight_dump_now(DumpReason::kManual));
  const auto doc = intellog::obs::flight_chrome_trace(decode_flight_file(path));
  const auto& events = doc["traceEvents"].as_array();
  int begins = 0, ends = 0, instants = 0, metas = 0;
  for (const auto& e : events) {
    const std::string ph = e["ph"].as_string();
    if (ph == "B") ++begins;
    else if (ph == "E") ++ends;
    else if (ph == "i") ++instants;
    else if (ph == "M") ++metas;
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
  EXPECT_GE(instants, 2);  // flight.enable + http.request + flight.dump
  EXPECT_GE(metas, 1);     // thread_name for the emitting ring
  fs::remove(path);
}

}  // namespace
