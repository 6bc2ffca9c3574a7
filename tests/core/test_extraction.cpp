#include "core/extraction.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/strings.hpp"

using namespace intellog::core;
using intellog::logparse::LogKey;

namespace {

LogKey key_from(const std::string& key_text) {
  LogKey k;
  k.id = 0;
  k.tokens = intellog::common::split_ws(key_text);
  return k;
}

bool has_entity(const IntelKey& ik, const std::string& e) {
  return std::find(ik.entities.begin(), ik.entities.end(), e) != ik.entities.end();
}

bool has_operation(const IntelKey& ik, const std::string& pred) {
  for (const auto& op : ik.operations) {
    if (op.predicate == pred) return true;
  }
  return false;
}

std::size_t count_category(const IntelKey& ik, FieldCategory c) {
  std::size_t n = 0;
  for (const auto& f : ik.fields) n += f.category == c;
  return n;
}

}  // namespace

class ExtractionTest : public ::testing::Test {
 protected:
  InfoExtractor extractor;
};

// --- Fig. 1: the MapReduce fetcher subroutine ------------------------------

TEST_F(ExtractionTest, Fig1Line1AboutToShuffle) {
  const IntelKey ik = extractor.extract(
      key_from("fetcher # * about to shuffle output of map *"),
      "fetcher # 1 about to shuffle output of map attempt_01");
  EXPECT_TRUE(has_entity(ik, "fetcher"));
  EXPECT_TRUE(has_entity(ik, "output of map"));
  ASSERT_EQ(ik.fields.size(), 2u);
  EXPECT_EQ(ik.fields[0].category, FieldCategory::Identifier);
  EXPECT_EQ(ik.fields[0].id_type, "FETCHER");
  EXPECT_EQ(ik.fields[1].category, FieldCategory::Identifier);
  EXPECT_EQ(ik.fields[1].id_type, "ATTEMPT");
  // Operation: {fetcher, shuffle, output of map}.
  ASSERT_FALSE(ik.operations.empty());
  bool found = false;
  for (const auto& op : ik.operations) {
    found |= op.subj == "fetcher" && op.predicate == "shuffle" && op.obj == "output of map";
  }
  EXPECT_TRUE(found) << "expected {fetcher, shuffle, output of map}";
}

TEST_F(ExtractionTest, Fig1Line2ReadBytes) {
  // Spell masks the whole "1]" token, so the key reads "...# * read ...".
  const IntelKey ik = extractor.extract(
      key_from("[fetcher # * read * bytes from map-output for *"),
      "[fetcher # 1] read 2264 bytes from map-output for attempt_01");
  EXPECT_TRUE(has_entity(ik, "fetcher"));
  EXPECT_TRUE(has_entity(ik, "map-output"));
  EXPECT_FALSE(has_entity(ik, "byte")) << "'bytes' is a unit and must be omitted";
  ASSERT_EQ(ik.fields.size(), 3u);
  EXPECT_EQ(ik.fields[0].id_type, "FETCHER");
  EXPECT_EQ(ik.fields[1].category, FieldCategory::Value);
  EXPECT_EQ(ik.fields[1].unit, "bytes");
  EXPECT_EQ(ik.fields[2].id_type, "ATTEMPT");
  EXPECT_TRUE(has_operation(ik, "read"));
}

TEST_F(ExtractionTest, Fig1Line3FreedBy) {
  const IntelKey ik = extractor.extract(key_from("* freed by fetcher # * in *"),
                                        "host1:13562 freed by fetcher # 1 in 4ms");
  ASSERT_EQ(ik.fields.size(), 3u);
  EXPECT_EQ(ik.fields[0].category, FieldCategory::Locality);
  EXPECT_EQ(ik.fields[1].category, FieldCategory::Identifier);
  EXPECT_EQ(ik.fields[1].id_type, "FETCHER");
  EXPECT_EQ(ik.fields[2].category, FieldCategory::Value);
  EXPECT_EQ(ik.fields[2].unit, "ms");
  EXPECT_TRUE(has_entity(ik, "fetcher"));
  EXPECT_TRUE(has_operation(ik, "free"));
}

// --- Fig. 3: sample-message tagging for keys with leading variables --------

TEST_F(ExtractionTest, Fig3MetricsSystem) {
  const IntelKey ik = extractor.extract(key_from("* MapTask metrics system"),
                                        "Starting MapTask metrics system");
  // The leading variable field is a verb: filtered by heuristic 1.
  ASSERT_EQ(ik.fields.size(), 1u);
  EXPECT_EQ(ik.fields[0].category, FieldCategory::Other);
  // Camel-case filter: MapTask -> map task.
  bool covers_map_task = false;
  for (const auto& e : ik.entities) {
    covers_map_task |= e.find("map task") != std::string::npos || e == "map task";
  }
  EXPECT_TRUE(covers_map_task);
  EXPECT_TRUE(has_operation(ik, "start"));
}

// --- Fig. 4: the Spark task-finish key --------------------------------------

TEST_F(ExtractionTest, Fig4TaskFinished) {
  const IntelKey ik = extractor.extract(
      key_from("Finished task * in stage * (TID * * bytes result sent to driver"),
      "Finished task 1.0 in stage 0.0 (TID 3). 2578 bytes result sent to driver");
  // Five entities, 'bytes' omitted as a unit (paper's wording).
  EXPECT_TRUE(has_entity(ik, "task"));
  EXPECT_TRUE(has_entity(ik, "stage"));
  EXPECT_TRUE(has_entity(ik, "tid"));
  EXPECT_TRUE(has_entity(ik, "result"));
  EXPECT_TRUE(has_entity(ik, "driver"));
  EXPECT_FALSE(has_entity(ik, "byte"));
  // Three identifiers + one value.
  EXPECT_EQ(count_category(ik, FieldCategory::Identifier), 3u);
  EXPECT_EQ(count_category(ik, FieldCategory::Value), 1u);
  // Two operations: {_, finish, task} and {result, send, driver}.
  bool op1 = false, op2 = false;
  for (const auto& op : ik.operations) {
    op1 |= op.predicate == "finish" && op.obj == "task";
    op2 |= op.subj == "result" && op.predicate == "send" && op.obj == "driver";
  }
  EXPECT_TRUE(op1) << "missing {_, finish, task}";
  EXPECT_TRUE(op2) << "missing {result, send, driver}";
}

// --- identifier/value heuristics -------------------------------------------

TEST_F(ExtractionTest, BareNumberAfterNounIsIdentifier) {
  const IntelKey ik =
      extractor.extract(key_from("Finished spill *"), "Finished spill 0");
  ASSERT_EQ(ik.fields.size(), 1u);
  EXPECT_EQ(ik.fields[0].category, FieldCategory::Identifier);
  EXPECT_EQ(ik.fields[0].id_type, "SPILL");
}

TEST_F(ExtractionTest, BareNumberAfterVerbIsValue) {
  const IntelKey ik = extractor.extract(key_from("Merging * sorted segments"),
                                        "Merging 24 sorted segments");
  ASSERT_EQ(ik.fields.size(), 1u);
  EXPECT_EQ(ik.fields[0].category, FieldCategory::Value);
}

TEST_F(ExtractionTest, MixedAlnumIsIdentifierWithPrefixType) {
  const IntelKey ik = extractor.extract(key_from("Launched container * for task attempt *"),
                                        "Launched container container_e01_12_01_000002 for "
                                        "task attempt attempt_12_m_0_0");
  ASSERT_EQ(ik.fields.size(), 2u);
  EXPECT_EQ(ik.fields[0].id_type, "CONTAINER");
  EXPECT_EQ(ik.fields[1].id_type, "ATTEMPT");
}

TEST_F(ExtractionTest, LocalityFieldsWin) {
  const IntelKey ik = extractor.extract(key_from("Saved output of task * to *"),
                                        "Saved output of task attempt_01 to "
                                        "hdfs://master:9000/user/out");
  ASSERT_EQ(ik.fields.size(), 2u);
  EXPECT_EQ(ik.fields[0].category, FieldCategory::Identifier);
  EXPECT_EQ(ik.fields[1].category, FieldCategory::Locality);
  EXPECT_TRUE(has_entity(ik, "output of task"));
}

TEST_F(ExtractionTest, NominalSentenceHasNoOperations) {
  // The paper's §6.2 missed-operation example.
  const IntelKey ik = extractor.extract(
      key_from("Down to the last merge-pass, with * segments left of total size: * bytes"),
      "Down to the last merge-pass, with 5 segments left of total size: 1048576 bytes");
  EXPECT_FALSE(has_operation(ik, "merge"));
  EXPECT_TRUE(has_entity(ik, "last merge-pass") || has_entity(ik, "merge-pass"));
}

TEST_F(ExtractionTest, AdjacentFieldsStayDistinct) {
  const IntelKey ik = extractor.extract(key_from("vertex * * tasks done"),
                                        "vertex vertex_01 42 tasks done");
  ASSERT_EQ(ik.fields.size(), 2u);
  EXPECT_EQ(ik.fields[0].category, FieldCategory::Identifier);
  EXPECT_EQ(ik.fields[0].id_type, "VERTEX");
  // "42" follows an identifier token (a noun), so heuristic 4 reads it as
  // an identifier too — the ambiguity the paper acknowledges in §6.2.
  EXPECT_EQ(ik.fields[1].category, FieldCategory::Identifier);
}

TEST_F(ExtractionTest, ExtractFromRawMessage) {
  // §4.2: unexpected messages get the same treatment without a log key.
  const InfoExtractor::Unexpected x =
      extractor.extract_unexpected("Failed to connect to host9:7337");
  EXPECT_EQ(x.key.to_string(), "Failed to connect to *");
  const IntelKey& ik = x.intel_key;
  EXPECT_TRUE(has_operation(ik, "connect") || has_operation(ik, "fail"));
  ASSERT_EQ(ik.fields.size(), 1u);
  EXPECT_EQ(ik.fields[0].category, FieldCategory::Locality);
}

// --- instantiation -----------------------------------------------------------

TEST_F(ExtractionTest, InstantiateFillsIntelMessage) {
  const LogKey key = key_from("* freed by fetcher # * in *");
  const IntelKey ik =
      extractor.extract(key, "host1:13562 freed by fetcher # 1 in 4ms");
  intellog::logparse::LogRecord rec;
  rec.content = "host7:13562 freed by fetcher # 3 in 17ms";
  rec.timestamp_ms = 12345;
  rec.container_id = "c9";
  const IntelMessage msg = extractor.instantiate(ik, key, rec);
  EXPECT_EQ(msg.timestamp_ms, 12345u);
  EXPECT_EQ(msg.container_id, "c9");
  ASSERT_EQ(msg.localities.size(), 1u);
  EXPECT_EQ(msg.localities[0], "host7:13562");
  ASSERT_EQ(msg.identifiers.size(), 1u);
  EXPECT_EQ(msg.identifiers[0].type, "FETCHER");
  EXPECT_EQ(msg.identifiers[0].value, "3");
  ASSERT_EQ(msg.values.size(), 1u);
  EXPECT_EQ(msg.values[0].first, "17ms");
}

TEST_F(ExtractionTest, InstantiateStripsSentencePunct) {
  const LogKey key = key_from("Running task * in stage * (TID *");
  const IntelKey ik = extractor.extract(key, "Running task 1.0 in stage 0.0 (TID 3)");
  intellog::logparse::LogRecord rec;
  rec.content = "Running task 7.0 in stage 2.0 (TID 99)";
  const IntelMessage msg = extractor.instantiate(ik, key, rec);
  ASSERT_EQ(msg.identifiers.size(), 3u);
  EXPECT_EQ(msg.identifiers[2].value, "99");  // ')' stripped
}

TEST_F(ExtractionTest, IdTypeInference) {
  EXPECT_EQ(InfoExtractor::infer_id_type("attempt_01", ""), "ATTEMPT");
  EXPECT_EQ(InfoExtractor::infer_id_type("container_e01_01", "for"), "CONTAINER");
  EXPECT_EQ(InfoExtractor::infer_id_type("3", "tid"), "TID");
  EXPECT_EQ(InfoExtractor::infer_id_type("0.0", "stage"), "STAGE");
  EXPECT_EQ(InfoExtractor::infer_id_type("bm7", ""), "BM");
  EXPECT_EQ(InfoExtractor::infer_id_type("123", ""), "ID");
}

TEST_F(ExtractionTest, UnitWords) {
  for (const char* u : {"bytes", "ms", "mb", "seconds", "%"}) {
    EXPECT_TRUE(InfoExtractor::is_unit_word(u)) << u;
  }
  EXPECT_FALSE(InfoExtractor::is_unit_word("driver"));
}

TEST_F(ExtractionTest, JsonExport) {
  const IntelKey ik = extractor.extract(key_from("Finished spill *"), "Finished spill 0");
  const auto j = ik.to_json();
  EXPECT_EQ(j["key"].as_string(), "Finished spill *");
  EXPECT_EQ(j["fields"][0u]["category"].as_string(), "identifier");
  EXPECT_EQ(j["fields"][0u]["id_type"].as_string(), "SPILL");
}

// --- align_fields ------------------------------------------------------------

TEST(AlignFields, SingleGaps) {
  const auto fields = align_fields({"read", "*", "bytes", "for", "*"},
                                   {"read", "2264", "bytes", "for", "attempt_01"}, nullptr);
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "2264");
  EXPECT_EQ(fields[1], "attempt_01");
}

TEST(AlignFields, AdjacentStarsSplitRun) {
  const auto fields =
      align_fields({"(TID", "*", "*", "bytes"}, {"(TID", "3).", "2578", "bytes"}, nullptr);
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "3).");
  EXPECT_EQ(fields[1], "2578");
}

TEST(AlignFields, MultiTokenFieldJoins) {
  const auto fields = align_fields({"capacity", "*", "on", "host", "*"},
                                   {"capacity", "<memory:4096,", "vCores:8>", "on", "host",
                                    "host3:8041"},
                                   nullptr);
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "<memory:4096, vCores:8>");
  EXPECT_EQ(fields[1], "host3:8041");
}

TEST(AlignFields, LeadingStar) {
  std::vector<int> idx;
  const auto fields = align_fields({"*", "MapTask", "metrics", "system"},
                                   {"Stopping", "MapTask", "metrics", "system"}, &idx);
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "Stopping");
  EXPECT_EQ(idx, (std::vector<int>{0, -1, -1, -1}));
}

TEST(AlignFields, EmptyFieldWhenValueMissing) {
  const auto fields = align_fields({"done", "*"}, {"done"}, nullptr);
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_TRUE(fields[0].empty());
}
