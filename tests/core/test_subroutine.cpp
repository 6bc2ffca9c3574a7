#include "core/subroutine.hpp"

#include "core/detect_scratch.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "core/extraction.hpp"

using namespace intellog::core;

namespace {

/// Owns every test message's identifiers for the whole run.
IdentifierStore& store() {
  static IdentifierStore s;
  return s;
}

GroupMessage msg(int key, std::vector<IdentifierValue> ids, std::size_t index = 0) {
  GroupMessage m;
  m.key_id = key;
  m.ids = store().add(std::move(ids));
  m.record_index = index;
  m.timestamp_ms = index * 10;
  return m;
}

IdentifierValue id(std::string type, std::string value) {
  return {std::move(type), std::move(value)};
}

/// The partition with materialized strings, moved out of a fresh scratch
/// (moves keep each instance's type views valid).
std::vector<SubroutineInstance> partition(std::vector<GroupMessage> messages) {
  DetectScratch scratch;
  const std::size_t n = partition_instances(std::move(messages), scratch, true);
  std::vector<SubroutineInstance> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(std::move(scratch.instances[i]));
  return out;
}

}  // namespace

TEST(PartitionInstances, NoIdsGoToNoneInstance) {
  const auto instances = partition({msg(1, {}), msg(2, {})});
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_TRUE(instances[0].id_values.empty());
  EXPECT_TRUE(instances[0].signature.empty());
  EXPECT_EQ(instances[0].messages.size(), 2u);
}

TEST(PartitionInstances, SubsetMatchingMergesSequences) {
  // Fig. 1 flow: {F:1} then {F:1, A:a05} then {F:1, A:a05} again.
  const auto instances = partition({
      msg(1, {id("FETCHER", "1"), id("ATTEMPT", "a05")}, 0),
      msg(2, {id("FETCHER", "1"), id("ATTEMPT", "a05")}, 1),
      msg(3, {id("FETCHER", "1")}, 2),
  });
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].messages.size(), 3u);
  EXPECT_EQ(instances[0].signature, (std::set<std::string>{"FETCHER", "ATTEMPT"}));
}

TEST(PartitionInstances, DisjointIdsSplitInstances) {
  const auto instances = partition({
      msg(1, {id("BLOCK", "rdd_0_1")}, 0),
      msg(1, {id("BLOCK", "rdd_0_2")}, 1),
  });
  EXPECT_EQ(instances.size(), 2u);
}

TEST(PartitionInstances, SameValueDifferentTypeDoesNotMerge) {
  // "TID 3" and "SPILL 3" share the numeral but not the identifier.
  const auto instances = partition({
      msg(1, {id("TID", "3")}, 0),
      msg(2, {id("SPILL", "3")}, 1),
  });
  EXPECT_EQ(instances.size(), 2u);
}

TEST(PartitionInstances, NoneKeyedSequenceIsSeparate) {
  const auto instances = partition({
      msg(1, {id("BM", "bm1")}, 0),
      msg(2, {}, 1),
      msg(3, {id("BM", "bm1")}, 2),
  });
  ASSERT_EQ(instances.size(), 2u);
  // With-identifier instance has keys {1,3}; NONE instance has {2}.
  EXPECT_EQ(instances[0].key_set(), (std::set<int>{1, 3}));
  EXPECT_EQ(instances[1].key_set(), (std::set<int>{2}));
}

// --- Partition oracle ----------------------------------------------------------
//
// The reference is Algorithm 2 as first written: S_v as a set of
// "TYPE:value" strings, and a linear scan for the earliest instance that is
// a subset or superset of it. The interned, posting-list routine must give
// the same instances, in the same order, with the same id_values,
// signatures and messages.

struct ReferencePartition {
  std::vector<SubroutineInstance> instances;
  std::size_t subset_merges = 0;    ///< message ⊆ instance
  std::size_t superset_merges = 0;  ///< instance ⊊ message
};

ReferencePartition reference_partition(const std::vector<GroupMessage>& messages) {
  ReferencePartition out;
  SubroutineInstance none;
  for (const GroupMessage& m : messages) {
    std::set<std::string> sv;
    for (const auto& iv : m.ids) sv.insert(std::string(iv.type) + ":" + std::string(iv.value));
    if (sv.empty()) {
      none.messages.push_back(m);
      continue;
    }
    bool placed = false;
    for (SubroutineInstance& inst : out.instances) {
      std::set<std::string> have(inst.id_values.begin(), inst.id_values.end());
      const bool sub = std::includes(have.begin(), have.end(), sv.begin(), sv.end());
      const bool super = std::includes(sv.begin(), sv.end(), have.begin(), have.end());
      if (!sub && !super) continue;
      (sub ? out.subset_merges : out.superset_merges)++;
      have.insert(sv.begin(), sv.end());
      inst.id_values.assign(have.begin(), have.end());
      for (const auto& iv : m.ids) inst.signature.emplace(iv.type);
      inst.messages.push_back(m);
      placed = true;
      break;
    }
    if (!placed) {
      SubroutineInstance inst;
      inst.id_values.assign(sv.begin(), sv.end());
      for (const auto& iv : m.ids) inst.signature.emplace(iv.type);
      inst.messages.push_back(m);
      out.instances.push_back(std::move(inst));
    }
  }
  if (!none.messages.empty()) out.instances.push_back(std::move(none));
  return out;
}

/// A random bucket: NONE messages, repeated values, one value under two
/// types, types that split "TYPE:value" differently ("A:b" + "c" against
/// "A" + "b:c"), long values past the SSO buffer, and types inferred from
/// the value the way detection infers them for untyped key fields.
std::vector<GroupMessage> random_bucket(intellog::common::Rng& rng) {
  static const std::vector<std::string> kTypes = {"ATTEMPT", "TASK", "A", "A:b", "FETCHER"};
  static const std::vector<std::string> kValues = {
      "1", "2", "c", "b:c", "attempt_1445144423722_0020_m_000001_0", "blk_1073741825",
      "container_1445144423722_0020_01_000004", "10.0.0.7:50010"};
  std::vector<GroupMessage> bucket;
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 24));
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<IdentifierValue> ids;
    if (!rng.chance(0.15)) {
      const auto k = rng.uniform_int(1, 3);
      for (std::int64_t j = 0; j < k; ++j) {
        const std::string& value = kValues[rng.uniform(kValues.size())];
        std::string type = rng.chance(0.2) ? InfoExtractor::infer_id_type(value, {})
                                           : kTypes[rng.uniform(kTypes.size())];
        ids.push_back(id(std::move(type), value));
        if (rng.chance(0.1)) ids.push_back(ids.back());  // repeated value
      }
    }
    bucket.push_back(msg(static_cast<int>(rng.uniform(6)), std::move(ids), i));
  }
  return bucket;
}

TEST(PartitionOracle, MatchesLinearStringAlgorithmOnRandomBuckets) {
  intellog::common::Rng rng(20190622);
  DetectScratch scratch;  // reused across buckets, as detection does
  std::size_t subset_merges = 0, superset_merges = 0, none_instances = 0, split_pairs = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::vector<GroupMessage> bucket = random_bucket(rng);
    const ReferencePartition want = reference_partition(bucket);
    subset_merges += want.subset_merges;
    superset_merges += want.superset_merges;
    for (const GroupMessage& m : bucket) {
      for (const auto& iv : m.ids) split_pairs += iv.type == "A:b" && iv.value == "c";
    }
    const std::size_t n = partition_instances(std::vector<GroupMessage>(bucket), scratch, true);
    ASSERT_EQ(n, want.instances.size()) << "round " << round;
    for (std::size_t i = 0; i < n; ++i) {
      const SubroutineInstance& got = scratch.instances[i];
      const SubroutineInstance& ref = want.instances[i];
      none_instances += ref.id_values.empty();
      EXPECT_EQ(got.id_values, ref.id_values) << "round " << round << " instance " << i;
      EXPECT_EQ(got.signature, ref.signature) << "round " << round << " instance " << i;
      EXPECT_EQ(std::vector<std::string>(got.types.begin(), got.types.end()),
                std::vector<std::string>(ref.signature.begin(), ref.signature.end()));
      ASSERT_EQ(got.messages.size(), ref.messages.size()) << "round " << round;
      for (std::size_t m = 0; m < got.messages.size(); ++m) {
        EXPECT_EQ(got.messages[m].record_index, ref.messages[m].record_index);
        EXPECT_EQ(got.messages[m].key_id, ref.messages[m].key_id);
      }
    }
  }
  // The buckets exercised every branch of Algorithm 2.
  EXPECT_GT(subset_merges, 100u);
  EXPECT_GT(superset_merges, 100u);
  EXPECT_GT(none_instances, 100u);
  EXPECT_GT(split_pairs, 100u);
}

TEST(PartitionOracle, JoinedStringDecidesIdentity) {
  // "A:b" + "c" and "A" + "b:c" both spell "A:b:c": one identifier.
  const auto instances = partition({msg(1, {id("A:b", "c")}, 0), msg(2, {id("A", "b:c")}, 1)});
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].id_values, (std::vector<std::string>{"A:b:c"}));
  EXPECT_EQ(instances[0].signature, (std::set<std::string>{"A", "A:b"}));
}

TEST(PartitionOracle, DetectionFormSkipsStrings) {
  DetectScratch scratch;
  const std::size_t n = partition_instances(
      {msg(1, {id("TASK", "t1")}, 0), msg(2, {id("TASK", "t1"), id("ATTEMPT", "a1")}, 1)},
      scratch);
  ASSERT_EQ(n, 1u);
  EXPECT_TRUE(scratch.instances[0].id_values.empty());
  EXPECT_TRUE(scratch.instances[0].signature.empty());
  EXPECT_EQ(scratch.instances[0].value_ids.size(), 2u);
  EXPECT_EQ(scratch.instances[0].types, (std::vector<std::string_view>{"ATTEMPT", "TASK"}));
}

// --- UpdateSubroutine / Fig. 5 ------------------------------------------------

class SubroutineModelTest : public ::testing::Test {
 protected:
  /// Builds one instance with the given key order, all sharing one id.
  SubroutineInstance inst(std::vector<int> keys, const std::string& value) {
    SubroutineInstance i;
    i.id_values = {"ID:" + value};
    i.signature = {"ID"};
    std::size_t pos = 0;
    for (const int k : keys) i.messages.push_back(msg(k, {id("ID", value)}, pos++));
    return i;
  }
  SubroutineModel model;
};

TEST_F(SubroutineModelTest, Fig5Scenario) {
  // Session 1: two instances A B C D (same order) -> all critical, total
  // order.
  model.update({inst({1, 2, 3, 4}, "a"), inst({1, 2, 3, 4}, "b")});
  {
    const auto& sub = model.subroutines().at({"ID"});
    EXPECT_EQ(sub.critical, (std::set<int>{1, 2, 3, 4}));
    EXPECT_TRUE(sub.before.count({2, 3}));
    EXPECT_TRUE(sub.before.count({1, 4}));
  }
  // Session 2, Seq3: B and C swapped -> BEFORE(2,3) broken, now parallel.
  model.update({inst({1, 3, 2, 4}, "c")});
  {
    const auto& sub = model.subroutines().at({"ID"});
    EXPECT_FALSE(sub.before.count({2, 3}));
    EXPECT_FALSE(sub.before.count({3, 2}));
    EXPECT_TRUE(sub.parallel.count({2, 3}));
    EXPECT_TRUE(sub.before.count({1, 2}));  // unaffected order survives
    EXPECT_EQ(sub.critical, (std::set<int>{1, 2, 3, 4}));
  }
  // Session 2, Seq4: no message for D -> D no longer critical.
  model.update({inst({1, 2, 3}, "d")});
  {
    const auto& sub = model.subroutines().at({"ID"});
    EXPECT_EQ(sub.critical, (std::set<int>{1, 2, 3}));
    EXPECT_TRUE(sub.keys.count(4));  // still a member key
    EXPECT_EQ(sub.instance_count, 4u);
  }
}

TEST_F(SubroutineModelTest, ParallelNeverReturnsToBefore) {
  model.update({inst({1, 2}, "a")});
  model.update({inst({2, 1}, "b")});   // break
  model.update({inst({1, 2}, "c")});   // same as original order again
  const auto& sub = model.subroutines().at({"ID"});
  EXPECT_FALSE(sub.before.count({1, 2}));
  EXPECT_TRUE(sub.parallel.count({1, 2}));
}

TEST_F(SubroutineModelTest, NewKeyIsNotCritical) {
  model.update({inst({1, 2}, "a")});
  model.update({inst({1, 2, 9}, "b")});
  const auto& sub = model.subroutines().at({"ID"});
  EXPECT_TRUE(sub.keys.count(9));
  EXPECT_FALSE(sub.critical.count(9));
}

TEST_F(SubroutineModelTest, SignaturesAreIndependent) {
  model.update({inst({1, 2}, "a")});
  SubroutineInstance other;
  other.signature = {"OTHER"};
  other.id_values = {"OTHER:x"};
  other.messages = {msg(7, {id("OTHER", "x")})};
  model.update({other});
  EXPECT_EQ(model.subroutines().size(), 2u);
  EXPECT_EQ(model.subroutines().at({"OTHER"}).critical, (std::set<int>{7}));
}

TEST_F(SubroutineModelTest, CheckDetectsMissingCritical) {
  model.update({inst({1, 2, 3}, "a"), inst({1, 2, 3}, "b")});
  const auto bad = model.check(inst({1, 2}, "z"));
  EXPECT_TRUE(bad.known_signature);
  EXPECT_EQ(bad.missing_critical, (std::vector<int>{3}));
  EXPECT_FALSE(bad.ok());
  const auto good = model.check(inst({1, 2, 3}, "y"));
  EXPECT_TRUE(good.ok());
}

TEST_F(SubroutineModelTest, CheckDetectsUnknownSignature) {
  model.update({inst({1, 2}, "a")});
  SubroutineInstance weird;
  weird.signature = {"NEVER_SEEN"};
  weird.id_values = {"NEVER_SEEN:1"};
  weird.messages = {msg(1, {id("NEVER_SEEN", "1")})};
  const auto check = model.check(weird);
  EXPECT_FALSE(check.known_signature);
  EXPECT_FALSE(check.ok());
}

TEST_F(SubroutineModelTest, CheckReportsUnknownKeys) {
  model.update({inst({1, 2}, "a")});
  const auto check = model.check(inst({1, 2, 77}, "b"));
  EXPECT_EQ(check.unknown_keys, (std::vector<int>{77}));
}

TEST_F(SubroutineModelTest, LengthIsKeyCount) {
  model.update({inst({1, 2, 3}, "a")});
  EXPECT_EQ(model.subroutines().at({"ID"}).length(), 3u);
}

TEST_F(SubroutineModelTest, OrderViolationNeedsEnoughTraining) {
  // 5 consistent instances: the BEFORE relation exists but is not yet
  // trusted for violation reports (min_instances_for_order = 20 default).
  for (int i = 0; i < 5; ++i) model.update({inst({1, 2, 3}, std::to_string(i))});
  const auto early = model.check(inst({3, 2, 1}, "x"));
  EXPECT_TRUE(early.order_violations.empty());
  // 20+ instances: an inverted order is reported.
  for (int i = 5; i < 25; ++i) model.update({inst({1, 2, 3}, std::to_string(i))});
  const auto late = model.check(inst({3, 2, 1}, "y"));
  EXPECT_FALSE(late.order_violations.empty());
  EXPECT_FALSE(late.ok());
  // The violated pairs are learned BEFORE relations.
  for (const auto& [a, b] : late.order_violations) {
    EXPECT_TRUE(model.subroutines().at({"ID"}).before.count({a, b}));
  }
  // A conforming instance stays clean.
  EXPECT_TRUE(model.check(inst({1, 2, 3}, "z")).ok());
}

TEST_F(SubroutineModelTest, OrderViolationIgnoresAbsentKeys) {
  for (int i = 0; i < 25; ++i) model.update({inst({1, 2, 3}, std::to_string(i))});
  // Key 1 missing entirely: no order to violate against it (the missing
  // key itself is a critical-key issue, not an order issue).
  const auto check = model.check(inst({2, 3}, "x"));
  EXPECT_TRUE(check.order_violations.empty());
  EXPECT_FALSE(check.missing_critical.empty());
}

TEST_F(SubroutineModelTest, RestoreRoundTrip) {
  model.update({inst({1, 2, 3}, "a"), inst({1, 2, 3}, "b")});
  const auto subs = model.subroutines();
  SubroutineModel other;
  other.restore(subs);
  EXPECT_EQ(other.subroutines().at({"ID"}).critical, (std::set<int>{1, 2, 3}));
  EXPECT_TRUE(other.check(inst({1, 2, 3}, "c")).ok());
}

// Property: BEFORE relations only ever shrink as more instances arrive.
class SubroutineMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(SubroutineMonotonicity, BeforeOnlyShrinksAfterFirstContact) {
  intellog::common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 1);
  SubroutineModel model;
  std::vector<int> keys = {1, 2, 3, 4, 5};
  // First instance fixes the candidate order set.
  SubroutineInstance first;
  first.signature = {"ID"};
  first.id_values = {"ID:0"};
  std::size_t pos = 0;
  for (const int k : keys) first.messages.push_back(msg(k, {id("ID", "0")}, pos++));
  model.update({first});
  auto before_prev = model.subroutines().at({"ID"}).before;
  for (int round = 0; round < 8; ++round) {
    rng.shuffle(keys);
    SubroutineInstance i;
    i.signature = {"ID"};
    i.id_values = {"ID:" + std::to_string(round + 1)};
    pos = 0;
    for (const int k : keys) i.messages.push_back(msg(k, {id("ID", "x")}, pos++));
    model.update({i});
    const auto& before_now = model.subroutines().at({"ID"}).before;
    for (const auto& pair : before_now) {
      EXPECT_TRUE(before_prev.count(pair)) << "BEFORE relation appeared late";
    }
    before_prev = before_now;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SubroutineMonotonicity, ::testing::Range(0, 10));
