// Sharded batch detection: parallel reports must be byte-identical to the
// serial path regardless of worker count (the acceptance bar for wiring
// detect_batch into the CLI and the streaming detector). Runs under the
// ASan/UBSan CI configuration too, which exercises the TSan-visible
// concurrent match()/metrics paths.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/intellog.hpp"
#include "core/model_io.hpp"
#include "core/online.hpp"
#include "obs/metrics.hpp"
#include "simsys/workload.hpp"

using namespace intellog;

namespace {

std::vector<logparse::Session> training_corpus(const std::string& system, int jobs,
                                               std::uint64_t seed) {
  simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen(system, seed);
  std::vector<logparse::Session> out;
  for (int i = 0; i < jobs; ++i) {
    simsys::JobResult job = simsys::run_job(gen.training_job(), cluster);
    for (auto& s : job.sessions) out.push_back(std::move(s));
  }
  return out;
}

std::vector<logparse::Session> detection_sessions(const std::string& system,
                                                  std::uint64_t seed, int jobs) {
  simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen(system, seed);
  std::vector<logparse::Session> out;
  for (int j = 0; j < jobs; ++j) {
    simsys::JobResult job = simsys::run_job(gen.detection_job(j % 3), cluster);
    for (auto& s : job.sessions) out.push_back(std::move(s));
  }
  return out;
}

std::vector<std::string> serialize(const std::vector<core::AnomalyReport>& reports) {
  std::vector<std::string> out;
  out.reserve(reports.size());
  for (const auto& r : reports) out.push_back(r.to_json().dump());
  return out;
}

class DetectBatch : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    il = new core::IntelLog();
    il->train(training_corpus("spark", 8, 71));
    sessions = new std::vector<logparse::Session>(detection_sessions("spark", 172, 4));
  }
  static void TearDownTestSuite() {
    delete il;
    il = nullptr;
    delete sessions;
    sessions = nullptr;
  }
  static core::IntelLog* il;
  static std::vector<logparse::Session>* sessions;
};

core::IntelLog* DetectBatch::il = nullptr;
std::vector<logparse::Session>* DetectBatch::sessions = nullptr;

}  // namespace

TEST_F(DetectBatch, ParallelReportsAreByteIdenticalToSerial) {
  ASSERT_GE(sessions->size(), 4u);
  std::vector<core::AnomalyReport> serial;
  serial.reserve(sessions->size());
  for (const auto& s : *sessions) serial.push_back(il->detect(s));
  const std::vector<std::string> want = serialize(serial);

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto batch = il->detect_batch(*sessions, jobs);
    ASSERT_EQ(batch.size(), sessions->size()) << "jobs=" << jobs;
    EXPECT_EQ(serialize(batch), want) << "jobs=" << jobs;
  }
}

TEST_F(DetectBatch, RepeatedParallelRunsAreStable) {
  // The match-verdict memo fills during the first pass; a warm second pass
  // must produce the same bytes.
  const auto first = serialize(il->detect_batch(*sessions, 8));
  const auto second = serialize(il->detect_batch(*sessions, 8));
  EXPECT_EQ(first, second);
}

TEST_F(DetectBatch, EmptyAndUntrainedEdges) {
  EXPECT_TRUE(il->detect_batch({}, 4).empty());
  core::IntelLog fresh;
  EXPECT_THROW(fresh.detect_batch(*sessions, 2), std::logic_error);
}

TEST_F(DetectBatch, RecordsShardMetrics) {
  obs::MetricsRegistry reg;
  obs::set_registry(&reg);
  (void)il->detect_batch(*sessions, 2);
  obs::set_registry(nullptr);

  const obs::Counter* batches = reg.find_counter("intellog_detect_batch_total");
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(batches->value(), 1u);
  const obs::Counter* total = reg.find_counter("intellog_detect_batch_sessions_total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->value(), sessions->size());
  std::uint64_t sharded = 0;
  for (const char* shard : {"0", "1"}) {
    const obs::Counter* c =
        reg.find_counter("intellog_detect_batch_shard_sessions_total", {{"shard", shard}});
    ASSERT_NE(c, nullptr) << "shard " << shard;
    sharded += c->value();
  }
  EXPECT_EQ(sharded, sessions->size());
}

TEST_F(DetectBatch, SkewedBatchIsByteIdenticalAndEveryShardCounts) {
  // One session 50x longer than the others, first in the batch: the shard
  // that claims it keeps detecting while the rest drain the short ones.
  ASSERT_FALSE(sessions->empty());
  const logparse::Session& base = sessions->front();
  ASSERT_GT(base.records.size(), 1u);
  std::vector<logparse::Session> skewed;
  logparse::Session& long_one = skewed.emplace_back(base);
  long_one.spell_keys.clear();
  for (int k = 1; k < 50; ++k) {
    long_one.records.insert(long_one.records.end(), base.records.begin(), base.records.end());
  }
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& s : *sessions) {
      logparse::Session& short_one = skewed.emplace_back(s);
      short_one.spell_keys.clear();
      short_one.records.resize(std::min(s.records.size(), base.records.size()));
    }
  }
  std::vector<core::AnomalyReport> serial;
  serial.reserve(skewed.size());
  for (const auto& s : skewed) serial.push_back(il->detect(s));
  const std::vector<std::string> want = serialize(serial);

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    obs::MetricsRegistry reg;
    obs::set_registry(&reg);
    const auto batch = il->detect_batch(skewed, jobs);
    obs::set_registry(nullptr);
    EXPECT_EQ(serialize(batch), want) << "jobs=" << jobs;
    std::uint64_t claimed = 0;
    for (std::size_t shard = 0; shard < jobs; ++shard) {
      const obs::Counter* c = reg.find_counter("intellog_detect_batch_shard_sessions_total",
                                               {{"shard", std::to_string(shard)}});
      ASSERT_NE(c, nullptr) << "jobs=" << jobs << " shard " << shard;
      claimed += c->value();
    }
    EXPECT_EQ(claimed, skewed.size()) << "jobs=" << jobs;
  }
}

TEST_F(DetectBatch, CoverageLedgerOffKeepsReportsByteIdentical) {
  // The ledger toggle must be observability-only: with it off (the
  // default), reports match the seed behaviour byte for byte; with it on,
  // verdict bytes are STILL identical — only the side ledger changes.
  const auto baseline = serialize(il->detect_batch(*sessions, 2));
  ASSERT_FALSE(il->coverage_enabled());

  il->set_coverage_enabled(true);
  const auto with_ledger = serialize(il->detect_batch(*sessions, 2));
  il->set_coverage_enabled(false);
  const auto after_disable = serialize(il->detect_batch(*sessions, 2));

  EXPECT_EQ(with_ledger, baseline);
  EXPECT_EQ(after_disable, baseline);
}

TEST_F(DetectBatch, CoverageTotalsAreDeterministicAcrossJobWidths) {
  // Relaxed-atomic increments commute, so the ledger's totals (and its
  // serialized report) must be identical at --jobs 1/2/8.
  std::string want;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    core::IntelLog fresh;
    fresh.train(training_corpus("spark", 8, 71));
    fresh.set_coverage_enabled(true);
    (void)fresh.detect_batch(*sessions, jobs);
    ASSERT_NE(fresh.coverage(), nullptr);
    const std::string got = fresh.coverage()->to_json().dump();
    if (want.empty()) {
      want = got;
      EXPECT_GT(fresh.coverage()->hit_components(), 0u);
    } else {
      EXPECT_EQ(got, want) << "jobs=" << jobs;
    }
  }
}

TEST_F(DetectBatch, OnlineDrainMatchesSerialDetector) {
  // The streaming detector's batched draining must report exactly what the
  // serial per-session path reports, in the same (container-id) order.
  core::OnlineDetector serial(*il, /*jobs=*/1);
  core::OnlineDetector parallel(*il, /*jobs=*/4);
  for (const auto& s : *sessions) {
    for (const auto& rec : s.records) {
      serial.consume(rec);
      parallel.consume(rec);
    }
  }
  EXPECT_EQ(serialize(serial.close_all()), serialize(parallel.close_all()));
}

TEST_F(DetectBatch, FieldLayoutsBuiltOnFirstUseAcrossShardsAreRaceFree) {
  // A model fresh from disk holds no field layouts: four shards detecting
  // at once all compile their first layouts concurrently, often the same
  // shape's at the same time (one publishes, the rest adopt it). Reports
  // must equal the serial reference; under ThreadSanitizer (ci.sh tsan)
  // this is the publication race test.
  const std::vector<std::string> want = [] {
    std::vector<core::AnomalyReport> serial;
    for (const auto& s : *sessions) serial.push_back(il->detect(s));
    return serialize(serial);
  }();
  for (int round = 0; round < 3; ++round) {
    const core::IntelLog fresh = core::load_model(core::save_model(*il));
    ASSERT_EQ(fresh.spell().layout_count(), 0u);
    EXPECT_EQ(serialize(fresh.detect_batch(*sessions, 4)), want) << "round " << round;
    EXPECT_GT(fresh.spell().layout_count(), 0u);
  }
}
