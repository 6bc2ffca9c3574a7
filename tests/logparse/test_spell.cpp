#include "logparse/spell.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/strings.hpp"

using intellog::logparse::Spell;

TEST(Spell, FirstMessageFoundsKey) {
  Spell spell;
  const int id = spell.consume("Starting MapTask metrics system");
  EXPECT_EQ(id, 0);
  EXPECT_EQ(spell.size(), 1u);
  EXPECT_EQ(spell.key(0).to_string(), "Starting MapTask metrics system");
}

TEST(Spell, DigitTokensPreMaskedAsVariables) {
  Spell spell;
  spell.consume("read 2264 bytes from map-output for attempt_01");
  EXPECT_EQ(spell.key(0).to_string(), "read * bytes from map-output for *");
}

TEST(Spell, SameTemplateDifferentValuesSharesKey) {
  Spell spell;
  const int a = spell.consume("read 2264 bytes from map-output for attempt_01");
  const int b = spell.consume("read 512 bytes from map-output for attempt_07");
  EXPECT_EQ(a, b);
  EXPECT_EQ(spell.size(), 1u);
  EXPECT_EQ(spell.key(a).match_count, 2u);
}

TEST(Spell, Fig3StartingStoppingMerge) {
  // The paper's Fig. 3: "Starting ..." and "Stopping ..." merge into the
  // log key "* MapTask metrics system".
  Spell spell;
  const int a = spell.consume("Starting MapTask metrics system");
  const int b = spell.consume("Stopping MapTask metrics system");
  EXPECT_EQ(a, b);
  EXPECT_EQ(spell.key(a).to_string(), "* MapTask metrics system");
}

TEST(Spell, DistinctTemplatesGetDistinctKeys) {
  Spell spell;
  const int a = spell.consume("Registering BlockManager bm_01");
  const int b = spell.consume("Shutdown hook called");
  const int c = spell.consume("Created local directory at /tmp/spark-1");
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_EQ(spell.size(), 3u);
}

TEST(Spell, WordVariableCollapsesOnMerge) {
  // One variable word out of a long constant context merges and is starred.
  Spell spell;
  const int a = spell.consume("Task attempt attempt_1 transitioned from state ASSIGNED today");
  const int b = spell.consume("Task attempt attempt_1 transitioned from state RUNNING today");
  EXPECT_EQ(a, b);
  const std::string key = spell.key(a).to_string();
  EXPECT_NE(key.find("transitioned from state *"), std::string::npos);
}

TEST(Spell, TooManyVariableWordsSplitKeys) {
  // Two of five constant words changing drops LCS below the t=1.7 bar, so
  // Spell keeps separate keys — each (from, to) pair is its own key.
  Spell spell;
  const int a = spell.consume("Job job_01 transitioned from INIT to SETUP");
  const int b = spell.consume("Job job_01 transitioned from SETUP to RUNNING");
  EXPECT_NE(a, b);
  EXPECT_EQ(spell.size(), 2u);
}

TEST(Spell, MatchIsConstAndFindsTrainedKeys) {
  Spell spell;
  const int a = spell.consume("Got assigned task 12");
  EXPECT_EQ(spell.match("Got assigned task 999"), a);
  EXPECT_EQ(spell.size(), 1u);  // match never creates
}

TEST(Spell, MatchReturnsMinusOneForNovelMessage) {
  Spell spell;
  spell.consume("Got assigned task 12");
  spell.consume("Registering BlockManager bm_2");
  EXPECT_EQ(spell.match("Failed to connect to host9:7337"), -1);
  EXPECT_EQ(spell.match(""), -1);
}

TEST(Spell, ThresholdControlsMatching) {
  // With a strict threshold (t=1), only exact constant matches merge.
  Spell strict(1.0);
  const int a = strict.consume("alpha beta gamma delta");
  const int b = strict.consume("alpha beta gamma epsilon");
  EXPECT_NE(a, b);
  // Default 1.7 merges them (LCS 3 >= 4/1.7).
  Spell loose(1.7);
  const int c = loose.consume("alpha beta gamma delta");
  const int d = loose.consume("alpha beta gamma epsilon");
  EXPECT_EQ(c, d);
}

TEST(Spell, EmptyMessageIgnored) {
  Spell spell;
  EXPECT_EQ(spell.consume(""), -1);
  EXPECT_EQ(spell.size(), 0u);
}

TEST(Spell, ConstantsExcludeStars) {
  Spell spell;
  spell.consume("freed by fetcher # 1 in 4ms");
  const auto consts = spell.key(0).constants();
  for (const auto& c : consts) EXPECT_NE(c, "*");
  EXPECT_EQ(consts.size(), 5u);  // freed by fetcher # in
}

TEST(Spell, KeyCountStableUnderRepetition) {
  Spell spell;
  intellog::common::Rng rng(3);
  for (int round = 0; round < 50; ++round) {
    spell.consume("Got assigned task " + std::to_string(rng.uniform(1000)));
    spell.consume("Running task " + std::to_string(rng.uniform(10)) + ".0 in stage 0.0 (TID " +
                  std::to_string(rng.uniform(1000)) + ")");
    spell.consume("Shutdown hook called");
  }
  EXPECT_EQ(spell.size(), 3u);
}

TEST(Spell, RefineThenMatchStaysConsistent) {
  // Regression: refine_key changes a key's tokens; previously-cached shapes
  // and the rebuilt constants cache must keep routing to the same key id.
  Spell spell;
  const int a = spell.consume("Starting MapTask metrics system");
  // Seen again -> shape cache now holds the original shape.
  EXPECT_EQ(spell.consume("Starting MapTask metrics system"), a);
  // Refines the key to "* MapTask metrics system".
  const int b = spell.consume("Stopping MapTask metrics system");
  EXPECT_EQ(b, a);
  EXPECT_EQ(spell.key(a).to_string(), "* MapTask metrics system");
  // Both pre-refine shapes and the refined canonical form must match.
  EXPECT_EQ(spell.match("Starting MapTask metrics system"), a);
  EXPECT_EQ(spell.match("Stopping MapTask metrics system"), a);
  EXPECT_EQ(spell.match("Restarted MapTask metrics system"), a);
  // The cached constant ids were rebuilt to the refined constants.
  EXPECT_EQ(spell.key_constant_ids(a).size(), 3u);  // MapTask metrics system
}

TEST(Spell, MatchMemoizesUnseenShapesOfKnownKeys) {
  Spell spell;
  const int a = spell.consume("Task attempt attempt_1 transitioned from state ASSIGNED now");
  spell.consume("Task attempt attempt_1 transitioned from state RUNNING now");
  // "KILLED" produces a shape never consumed -> first match runs the LCS
  // search, then the verdict is memoized.
  EXPECT_EQ(spell.match_cache_size(), 0u);
  const int m1 = spell.match("Task attempt attempt_9 transitioned from state KILLED now");
  EXPECT_EQ(m1, a);
  EXPECT_EQ(spell.match_cache_size(), 1u);
  const int m2 = spell.match("Task attempt attempt_7 transitioned from state KILLED now");
  EXPECT_EQ(m2, m1);
  EXPECT_EQ(spell.match_cache_size(), 1u);  // same shape -> memo hit
  // Misses are memoized too.
  EXPECT_EQ(spell.match("completely unrelated gibberish line"), -1);
  EXPECT_EQ(spell.match("completely unrelated gibberish line"), -1);
  EXPECT_EQ(spell.match_cache_size(), 2u);
  EXPECT_EQ(spell.size(), 1u);  // match never creates keys
}

TEST(Spell, ConsumeInvalidatesMatchMemo) {
  Spell spell;
  spell.consume("alpha beta gamma delta epsilon");
  EXPECT_EQ(spell.match("zeta eta theta iota kappa"), -1);
  EXPECT_EQ(spell.match_cache_size(), 1u);
  // A new key that matches the previously-missed shape must flush the memo.
  const int k = spell.consume("zeta eta theta iota kappa");
  EXPECT_EQ(spell.match("zeta eta theta iota kappa"), k);
}

// Property: consuming the same message stream twice yields identical ids.
class SpellStability : public ::testing::TestWithParam<int> {};

TEST_P(SpellStability, RepeatedConsumeIsIdempotent) {
  Spell spell;
  intellog::common::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<std::string> messages;
  static const char* kTemplates[] = {
      "Got assigned task %", "Registering BlockManager bm_%",
      "read % bytes from map-output for attempt_%", "Shutdown hook called",
      "Created local directory at /tmp/spark-%"};
  for (int i = 0; i < 30; ++i) {
    std::string m = kTemplates[rng.uniform(5)];
    const auto pos = m.find('%');
    if (pos != std::string::npos) m.replace(pos, 1, std::to_string(rng.uniform(100000)));
    messages.push_back(std::move(m));
  }
  std::vector<int> first, second;
  for (const auto& m : messages) first.push_back(spell.consume(m));
  for (const auto& m : messages) second.push_back(spell.consume(m));
  EXPECT_EQ(first, second);
  EXPECT_LE(spell.size(), 5u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SpellStability, ::testing::Range(0, 10));

// --- field layouts ------------------------------------------------------------

namespace {

using intellog::logparse::FieldLayout;
using intellog::logparse::LogKey;

std::vector<std::string_view> tokens_of(std::string_view message) {
  std::vector<std::string_view> out;
  intellog::common::split_ws_views(message, out);
  return out;
}

}  // namespace

TEST(SpellLayout, ShapeHitReturnsTokensAndOneLayoutPerShape) {
  Spell spell;
  spell.consume("read 2264 bytes from map-output for attempt_01");
  std::vector<std::string_view> tokens;
  const std::string a = "read 512 bytes from map-output for attempt_07";
  const Spell::Match m = spell.match(a, tokens);
  EXPECT_EQ(m.key, 0);
  ASSERT_NE(m.layout, nullptr);
  EXPECT_EQ(tokens, tokens_of(a));
  EXPECT_EQ(m.layout->token_field, (std::vector<int>{-1, 0, -1, -1, -1, -1, 1}));
  ASSERT_EQ(m.layout->fields.size(), 2u);
  // Same shape, other values: the same compiled layout, no new entry.
  const Spell::Match again = spell.match("read 9 bytes from map-output for attempt_3", tokens);
  EXPECT_EQ(again.layout, m.layout);
  EXPECT_EQ(spell.layout_count(), 1u);
  EXPECT_EQ(spell.match(a), 0);
}

TEST(SpellLayout, MemoAndLcsVerdictsCarryNoLayout) {
  Spell spell;
  spell.consume("Task attempt attempt_1 transitioned from state ASSIGNED to RUNNING now");
  std::vector<std::string_view> tokens;
  // An unseen shape of the key: resolved by LCS, then by the memo.
  const std::string msg = "Task attempt attempt_1 transitioned from state ASSIGNED to KILLED now";
  for (int i = 0; i < 2; ++i) {
    const Spell::Match m = spell.match(msg, tokens);
    EXPECT_EQ(m.key, 0);
    EXPECT_EQ(m.layout, nullptr);
    EXPECT_EQ(tokens.size(), 10u);
  }
  EXPECT_EQ(spell.match("completely unrelated words here", tokens).layout, nullptr);
}

TEST(SpellLayout, RefineAndNewKeyFlushLayouts) {
  Spell spell;
  spell.consume("Task attempt attempt_1 transitioned from state ASSIGNED to RUNNING");
  std::vector<std::string_view> tokens;
  const std::string shape_a =
      "Task attempt attempt_2 transitioned from state ASSIGNED to RUNNING";
  const Spell::Match before = spell.match(shape_a, tokens);
  ASSERT_NE(before.layout, nullptr);
  EXPECT_EQ(before.layout->fields.size(), 1u);
  EXPECT_EQ(spell.layout_count(), 1u);

  // A refine widens the key ("ASSIGNED" becomes a field): the old layout
  // aligned against the old tokens, so it goes.
  spell.consume("Task attempt attempt_3 transitioned from state NEW to RUNNING");
  EXPECT_EQ(spell.key(0).to_string(), "Task attempt * transitioned from state * to RUNNING");
  EXPECT_EQ(spell.layout_count(), 0u);
  const Spell::Match after = spell.match(shape_a, tokens);
  ASSERT_NE(after.layout, nullptr);
  EXPECT_EQ(after.layout->fields.size(), 2u);
  EXPECT_EQ(after.layout->token_field[6], 1);  // "ASSIGNED" now fills field 1

  // A new key flushes too (the memo's rule).
  spell.consume("Shutdown hook called");
  EXPECT_EQ(spell.layout_count(), 0u);
  EXPECT_NE(spell.match(shape_a, tokens).layout, nullptr);
}

TEST(SpellLayout, RestoredKeyWithDigitConstantGetsNoLayout) {
  // A digit-bearing constant breaks the key fact (shapes mask it), so the
  // key's shapes fall back to aligning per record.
  Spell spell;
  LogKey v2;
  v2.id = 0;
  v2.tokens = {"protocol", "v2", "session", "*", "opened"};
  LogKey plain;
  plain.id = 1;
  plain.tokens = {"session", "*", "closed"};
  spell.restore_keys({v2, plain});
  std::vector<std::string_view> tokens;
  const Spell::Match broken = spell.match("protocol v2 session * opened", tokens);
  EXPECT_EQ(broken.key, 0);
  EXPECT_EQ(broken.layout, nullptr);
  const Spell::Match ok = spell.match("session * closed", tokens);
  EXPECT_EQ(ok.key, 1);
  EXPECT_NE(ok.layout, nullptr);
}

TEST(FieldLayout, TextViewsSingleSpacedRunsAndJoinsTheRest) {
  intellog::common::Arena arena;
  intellog::logparse::AlignScratch scratch;
  FieldLayout layout;
  const std::vector<std::string> key = {"stop", "*", "now", "*"};

  const std::string spaced = "stop alpha beta now x";
  auto tokens = tokens_of(spaced);
  layout.assign(key, tokens, scratch);
  const std::string_view f0 = layout.text(0, tokens, arena);
  EXPECT_EQ(f0, "alpha beta");
  EXPECT_EQ(f0.data(), spaced.data() + 5);  // a view of the message itself
  EXPECT_EQ(arena.bytes_used(), 0u);

  for (const std::string msg : {"stop alpha\tbeta now x", "stop alpha  beta now x"}) {
    tokens = tokens_of(msg);
    layout.assign(key, tokens, scratch);
    EXPECT_EQ(layout.text(0, tokens, arena), "alpha beta") << msg;
  }

  // More unmatched runs than star groups: the last field takes tokens that
  // a constant separates, joined with one space.
  const std::vector<std::string> short_key = {"stop", "*", "now"};
  const std::string msg = "stop a now b c";
  tokens = tokens_of(msg);
  layout.assign(short_key, tokens, scratch);
  EXPECT_EQ(layout.token_field, (std::vector<int>{-1, 0, -1, 0, 0}));
  EXPECT_EQ(layout.text(0, tokens, arena), "a b c");

  // Groups advance only past an unmatched run, so with the first run
  // missing "x" fills field 0 and field 1 is an empty view.
  tokens = tokens_of("stop now x");
  layout.assign(key, tokens, scratch);
  EXPECT_EQ(layout.text(0, tokens, arena), "x");
  EXPECT_TRUE(layout.text(1, tokens, arena).empty());
}
