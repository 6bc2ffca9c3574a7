// Identifier capture from Spell's field layouts, against the string path.
//
// Detection reads each record's identifiers straight off its tokens through
// the layout Spell compiled for its shape (or, when Spell has none, a
// layout aligned for that record). Training, explain and queries still
// build IntelMessage identifiers as strings with instantiate(). The two
// must agree exactly — same identifiers, same order, same bytes — on every
// key, and so must the subroutine instances partition_instances builds
// from them (the PartitionOracle's linear string algorithm judged the
// strings; here the strings judge the views).
#include <gtest/gtest.h>

#include <set>

#include "common/strings.hpp"
#include "core/detect_scratch.hpp"
#include "core/intellog.hpp"
#include "logparse/formatter.hpp"
#include "simsys/corruptor.hpp"
#include "simsys/eval_workload.hpp"
#include "simsys/workload.hpp"

using namespace intellog;
using core::IdentifierValue;
using core::IdentifierView;
using core::InfoExtractor;

namespace {

std::vector<std::pair<std::string, std::string>> strings_of(
    std::span<const IdentifierView> ids) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const IdentifierView& iv : ids) out.emplace_back(iv.type, iv.value);
  return out;
}

std::vector<std::pair<std::string, std::string>> strings_of(
    const std::vector<IdentifierValue>& ids) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const IdentifierValue& iv : ids) out.emplace_back(iv.type, iv.value);
  return out;
}

/// One partition, reduced to what the detector and explain read from it.
struct PartitionDigest {
  std::vector<std::string> id_values;
  std::set<std::string> signature;
  std::vector<std::size_t> records;
  bool operator==(const PartitionDigest&) const = default;
};

std::vector<PartitionDigest> digest(std::vector<core::GroupMessage> bucket) {
  core::DetectScratch scratch;
  const std::size_t n = core::partition_instances(std::move(bucket), scratch, true);
  std::vector<PartitionDigest> out;
  for (std::size_t i = 0; i < n; ++i) {
    const core::SubroutineInstance& inst = scratch.instances[i];
    PartitionDigest d{inst.id_values, inst.signature, {}};
    for (const auto& m : inst.messages) d.records.push_back(m.record_index);
    out.push_back(std::move(d));
  }
  return out;
}

struct Tally {
  std::size_t layout_records = 0;   ///< compared through Spell's layout
  std::size_t aligned_records = 0;  ///< compared through a per-record alignment
  std::size_t identifiers = 0;
  std::size_t partitions = 0;
  std::set<int> keys;  ///< keys with identifier slots that were compared
};

/// Compares, for every record of `session` that routes to an Intel Key
/// with identifier fields, the captured identifiers (through Spell's layout
/// when it has one, and always through a fresh alignment) with
/// instantiate(...).identifiers; then partitions the session's messages
/// once from each and compares the instances.
void check_session(const core::IntelLog& il, const logparse::Session& session, Tally& t) {
  core::DetectScratch scratch;  // holds the views until the partition below
  core::IdentifierStore store;
  std::vector<core::GroupMessage> from_views, from_strings;
  for (std::size_t ri = 0; ri < session.records.size(); ++ri) {
    const logparse::LogRecord& rec = session.records[ri];
    const logparse::Spell::Match m = il.spell().match(rec.content, scratch.ws);
    if (m.key < 0) continue;
    const auto ik = il.intel_keys().find(m.key);
    if (ik == il.intel_keys().end()) continue;
    const std::vector<InfoExtractor::IdentifierSlot> slots =
        InfoExtractor::identifier_slots(ik->second);
    const logparse::LogKey& key = il.spell().key(m.key);
    std::vector<IdentifierValue> want =
        il.extractor().instantiate(ik->second, key, rec).identifiers;

    std::span<const IdentifierView> got;
    if (m.layout != nullptr) {
      got = InfoExtractor::capture_identifiers(slots, key, m.layout, scratch);
      ASSERT_EQ(strings_of(got), strings_of(want)) << "layout, key " << m.key << ": "
                                                   << rec.content;
      ++t.layout_records;
    }
    const std::span<const IdentifierView> aligned =
        InfoExtractor::capture_identifiers(slots, key, nullptr, scratch);
    ASSERT_EQ(strings_of(aligned), strings_of(want)) << "aligned, key " << m.key << ": "
                                                     << rec.content;
    ++t.aligned_records;
    if (!slots.empty()) t.keys.insert(m.key);
    t.identifiers += want.size();

    core::GroupMessage gm;
    gm.key_id = m.key;
    gm.record_index = ri;
    gm.ids = m.layout != nullptr ? got : aligned;
    from_views.push_back(gm);
    gm.ids = store.add(std::move(want));
    from_strings.push_back(gm);
  }
  ASSERT_EQ(digest(std::move(from_views)), digest(std::move(from_strings)))
      << session.container_id;
  ++t.partitions;
}

core::IntelLog trained(const std::string& system) {
  simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen(system, 2024);
  std::vector<logparse::Session> corpus;
  for (int i = 0; i < 8; ++i) {
    simsys::JobResult job = simsys::run_job(gen.training_job(), cluster);
    for (auto& s : job.sessions) corpus.push_back(std::move(s));
  }
  core::IntelLog il;
  il.train(corpus);
  return il;
}

/// Every key with identifier fields that routes at least one record of the
/// corpus — the keys the comparison must have covered.
std::set<int> keys_with_slots(const core::IntelLog& il,
                              const std::vector<simsys::DetectionJob>& jobs) {
  std::set<int> out;
  for (const auto& dj : jobs) {
    for (const auto& s : dj.result.sessions) {
      for (const auto& rec : s.records) {
        const int id = il.spell().match(rec.content);
        const auto ik = il.intel_keys().find(id);
        if (ik != il.intel_keys().end() && !InfoExtractor::identifier_slots(ik->second).empty()) {
          out.insert(id);
        }
      }
    }
  }
  return out;
}

class LayoutCaptureOracle : public ::testing::TestWithParam<const char*> {};

}  // namespace

TEST_P(LayoutCaptureOracle, MatchesInstantiateOnTable6Corpus) {
  const std::string system = GetParam();
  const core::IntelLog il = trained(system);
  const auto workload = simsys::detection_workload(system, 3030);
  Tally t;
  for (const auto& dj : workload) {
    for (const auto& s : dj.result.sessions) {
      check_session(il, s, t);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(t.keys, keys_with_slots(il, workload));
  EXPECT_GT(t.keys.size(), 5u);
  EXPECT_GT(t.identifiers, 1000u);
  // Most records take the layout path; the rest still agree.
  EXPECT_GT(t.layout_records * 2, t.aligned_records);
  EXPECT_GT(il.spell().layout_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Table6, LayoutCaptureOracle,
                         ::testing::Values("mapreduce", "spark", "tez"));

TEST(LayoutCaptureCorrupted, MatchesInstantiateOnCorruptedStreams) {
  // Torn, skewed, reordered and garbage lines produce shapes training never
  // saw: those records align per record (memo/LCS verdicts), the intact ones
  // still read Spell's layouts.
  const core::IntelLog il = trained("spark");
  const auto fmt = logparse::make_spark_formatter();
  simsys::LogStreamCorruptor corruptor(simsys::CorruptionSpec::all(0.1), 17);
  Tally t;
  for (const auto& dj : simsys::detection_workload("spark", 3030)) {
    for (const auto& s : dj.result.sessions) {
      std::vector<std::string> lines;
      for (const auto& rec : s.records) lines.push_back(fmt->render(rec));
      const auto corrupted = corruptor.corrupt(lines);
      const auto ingest = logparse::parse_session_resilient(*fmt, s.container_id,
                                                            corrupted.lines, "spark");
      check_session(il, ingest.session, t);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(corruptor.stats().total_faults(), 100u);
  EXPECT_GT(t.layout_records, 0u);
  EXPECT_GT(t.aligned_records, t.layout_records);  // fallback records too
  EXPECT_GT(t.identifiers, 1000u);
}

// --- targeted cases -------------------------------------------------------------

namespace {

/// A Spell over `training` and an Intel Key for key `id` whose every field
/// is an identifier of type `types[f]` ("" = inferred per value).
struct Fixture {
  logparse::Spell spell;
  core::IntelKey ik;
  core::DetectScratch scratch;

  void make_key(int id, const std::vector<std::string>& types) {
    ik = {};
    ik.key_id = id;
    for (const std::string& t : types) {
      core::FieldInfo f;
      f.category = core::FieldCategory::Identifier;
      f.id_type = t;
      ik.fields.push_back(f);
    }
  }

  /// The identifiers of `message` through its layout (which must exist)
  /// and through instantiate(), as strings.
  std::pair<std::vector<std::pair<std::string, std::string>>,
            std::vector<std::pair<std::string, std::string>>>
  both(const std::string& message, const InfoExtractor& extractor) {
    const logparse::Spell::Match m = spell.match(message, scratch.ws);
    EXPECT_EQ(m.key, ik.key_id) << message;
    EXPECT_NE(m.layout, nullptr) << message;
    const auto slots = InfoExtractor::identifier_slots(ik);
    const auto got = strings_of(
        InfoExtractor::capture_identifiers(slots, spell.key(m.key), m.layout, scratch));
    logparse::LogRecord rec;
    rec.content = message;
    const auto want = strings_of(extractor.instantiate(ik, spell.key(m.key), rec).identifiers);
    return {got, want};
  }
};

const InfoExtractor& extractor() {
  static const InfoExtractor e;
  return e;
}

using Ids = std::vector<std::pair<std::string, std::string>>;

}  // namespace

TEST(LayoutCapture, LiteralStarTokenFillsItsField) {
  // A message's literal "*" has no digit, so the shape keeps it as "*" —
  // the same as a masked token — and no constant can equal it.
  Fixture fx;
  fx.spell.consume("Assigned container container_01 to attempt_02 on rack * now");
  fx.make_key(0, {"CONTAINER", "", ""});
  const auto [got, want] = fx.both("Assigned container container_07 to attempt_08 on rack * now",
                                   extractor());
  EXPECT_EQ(got, want);
  EXPECT_EQ(got, (Ids{{"CONTAINER", "container_07"}, {"ATTEMPT", "attempt_08"}, {"ID", "*"}}));
}

TEST(LayoutCapture, MultiTokenFieldJoinsAcrossTabsAndDoubleSpaces) {
  Fixture fx;
  fx.spell.consume("Shutting down worker pool alpha beta gamma now please");
  fx.spell.consume("Shutting down worker pool delta now please");
  ASSERT_EQ(fx.spell.size(), 1u);
  ASSERT_EQ(fx.spell.key(0).to_string(), "Shutting down worker pool * now please");
  fx.make_key(0, {"WORKER"});
  for (const std::string msg :
       {"Shutting down worker pool alpha beta gamma now please",
        "Shutting down worker pool alpha\tbeta gamma now please",
        "Shutting down worker pool alpha  beta\t\tgamma now please",
        "  Shutting down worker pool alpha beta gamma now please  "}) {
    const auto [got, want] = fx.both(msg, extractor());
    EXPECT_EQ(got, want) << msg;
    EXPECT_EQ(got, (Ids{{"WORKER", "alpha beta gamma"}})) << msg;
  }
}

TEST(LayoutCapture, TrailingPunctuationIsTrimmedAsInstantiateTrims) {
  Fixture fx;
  fx.spell.consume("Fetcher fetcher_1 read blk_2 for attempt_3). from bm_4; via (ctr_5,");
  fx.make_key(0, {"FETCHER", "BLOCK", "ATTEMPT", "", ""});
  const auto [got, want] = fx.both(
      "Fetcher fetcher_9 read blk_8). for attempt_7). from bm_6; via (ctr_5,", extractor());
  EXPECT_EQ(got, want);
  EXPECT_EQ(got, (Ids{{"FETCHER", "fetcher_9"},
                      {"BLOCK", "blk_8"},
                      {"ATTEMPT", "attempt_7"},
                      {"BM", "bm_6"},
                      {"CTR", "ctr_5"}}));
}

TEST(LayoutCapture, EmptyIdTypeFallsBackToInferIdType) {
  Fixture fx;
  fx.spell.consume("Registering BlockManager bm_1 with executor 42");
  fx.make_key(0, {"", ""});
  const auto [got, want] = fx.both("Registering BlockManager bm_7 with executor 9", extractor());
  EXPECT_EQ(got, want);
  EXPECT_EQ(got, (Ids{{"BM", "bm_7"}, {InfoExtractor::infer_id_type("9", {}), "9"}}));
}

TEST(LayoutCapture, RefineAfterLayoutsWereBuiltRealignsInTrainingMode) {
  // Training interleaves consume() with match(): a refine must not leave a
  // layout aligned against the key's old tokens.
  Fixture fx;
  fx.spell.consume("Task attempt_1 moved from state ASSIGNED to RUNNING on node_3");
  fx.make_key(0, {"", ""});
  const std::string msg = "Task attempt_4 moved from state ASSIGNED to RUNNING on node_5";
  {
    const auto [got, want] = fx.both(msg, extractor());
    EXPECT_EQ(got, want);
    EXPECT_EQ(got, (Ids{{"ATTEMPT", "attempt_4"}, {"NODE", "node_5"}}));
  }
  fx.spell.consume("Task attempt_6 moved from state NEW to RUNNING on node_7");
  ASSERT_EQ(fx.spell.key(0).to_string(), "Task * moved from state * to RUNNING on *");
  EXPECT_EQ(fx.spell.layout_count(), 0u);
  fx.make_key(0, {"", "STATE", ""});
  const auto [got, want] = fx.both(msg, extractor());
  EXPECT_EQ(got, want);
  EXPECT_EQ(got, (Ids{{"ATTEMPT", "attempt_4"}, {"STATE", "ASSIGNED"}, {"NODE", "node_5"}}));
}
