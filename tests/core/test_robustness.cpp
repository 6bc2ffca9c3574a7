// Robustness: the pipeline must degrade gracefully on malformed, hostile,
// or degenerate input — no crashes, no undefined behavior, sensible output.
#include <gtest/gtest.h>

#include <string>

#include <atomic>

#include "common/thread_pool.hpp"
#include "core/intellog.hpp"
#include "core/online.hpp"
#include "simsys/workload.hpp"

using namespace intellog;

namespace {

logparse::LogRecord rec(std::string content, std::string container = "c1") {
  logparse::LogRecord r;
  r.content = std::move(content);
  r.container_id = std::move(container);
  return r;
}

core::IntelLog& shared_model() {
  static core::IntelLog* il = [] {
    auto* model = new core::IntelLog();
    simsys::ClusterSpec cluster;
    simsys::WorkloadGenerator gen("spark", 41);
    std::vector<logparse::Session> training;
    for (int i = 0; i < 6; ++i) {
      simsys::JobResult job = simsys::run_job(gen.training_job(), cluster);
      for (auto& s : job.sessions) training.push_back(std::move(s));
    }
    model->train(training);
    return model;
  }();
  return *il;
}

}  // namespace

TEST(Robustness, DetectOnEmptySession) {
  logparse::Session s;
  s.container_id = "empty";
  const auto report = shared_model().detect(s);
  // An empty session misses every expected group: flagged, not crashed.
  EXPECT_TRUE(report.anomalous());
  EXPECT_TRUE(report.unexpected.empty());
}

TEST(Robustness, HostileMessageContents) {
  logparse::Session s;
  s.container_id = "hostile";
  for (const char* content : {
           "",                                     // empty line
           " \t  ",                                // whitespace only
           "(((((((((",                            // unbalanced punctuation
           "* * * * *",                            // all wildcards
           "= = = = =",                            // all separators
           "\"quoted \\\"mess\\\" here\"",         // nested quotes
           "tabs\tand\tmore\ttabs",                // embedded tabs
           "ünïcödé messages pass thröugh",        // non-ASCII bytes
           "a",                                    // single char
           "1",                                    // single digit
           ".", "#", ":",                          // lone punctuation
       }) {
    s.records.push_back(rec(content));
  }
  EXPECT_NO_THROW({
    const auto report = shared_model().detect(s);
    (void)report;
  });
}

TEST(Robustness, VeryLongMessage) {
  std::string huge = "Registering";
  for (int i = 0; i < 4000; ++i) huge += " token" + std::to_string(i);
  logparse::Session s;
  s.container_id = "long";
  s.records.push_back(rec(huge));
  EXPECT_NO_THROW(shared_model().detect(s));
}

TEST(Robustness, ExtractorOnGarbage) {
  const core::InfoExtractor extractor;
  for (const char* msg : {"", "***", "12 34 56", "____", "a=b=c=d", "///\\\\\\"}) {
    EXPECT_NO_THROW({
      const auto ik = extractor.extract_unexpected(msg);
      (void)ik;
    }) << msg;
  }
}

TEST(Robustness, SpellOnDegenerateStreams) {
  logparse::Spell spell;
  // Thousands of unique single-token messages must not blow up matching.
  for (int i = 0; i < 2000; ++i) {
    spell.consume("token" + std::to_string(i) + "x");  // letters+digits mix
  }
  EXPECT_GE(spell.size(), 1u);
  EXPECT_NO_THROW(spell.match("another one"));
}

TEST(Robustness, DetectIsThreadSafeForConcurrentReaders) {
  // detect() is const; concurrent sessions must not race.
  const auto& model = shared_model();
  simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen("spark", 43);
  const auto job = simsys::run_job(gen.detection_job(1), cluster);
  common::ThreadPool pool(8);
  std::atomic<int> anomalies{0};
  pool.parallel_for(64, [&](std::size_t i) {
    const auto& s = job.sessions[i % job.sessions.size()];
    anomalies += model.detect(s).anomalous();
  });
  SUCCEED();
}

TEST(Robustness, OnlineDetectorHostileStream) {
  core::OnlineDetector online(shared_model());
  for (int i = 0; i < 100; ++i) {
    logparse::LogRecord r = rec("garbage " + std::string(static_cast<std::size_t>(i % 7), '*'),
                                "c" + std::to_string(i % 5));
    r.timestamp_ms = static_cast<std::uint64_t>(i);
    EXPECT_NO_THROW(online.consume(r));
  }
  EXPECT_EQ(online.open_sessions().size(), 5u);
  EXPECT_NO_THROW(online.close_all());
}

TEST(Robustness, SessionWithOnlyUnknownMessagesFlagsEverything) {
  logparse::Session s;
  s.container_id = "alien";
  for (int i = 0; i < 10; ++i) {
    s.records.push_back(rec("completely novel subsystem emitted event " + std::to_string(i)));
  }
  const auto report = shared_model().detect(s);
  EXPECT_TRUE(report.anomalous());
  EXPECT_GE(report.unexpected.size(), 1u);
}
