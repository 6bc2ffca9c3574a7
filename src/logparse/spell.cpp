#include "logparse/spell.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "obs/flight/flight.hpp"
#include "obs/profile/profile.hpp"

namespace intellog::logparse {

namespace {

/// Thread-local scratch for the zero-allocation tokenize/shape/id steps.
/// One set per thread: match() runs concurrently under detect_batch.
struct Scratch {
  std::vector<std::string_view> tokens;
  std::string shape;
  std::vector<int> token_ids;
  AlignScratch align;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

}  // namespace

std::string LogKey::to_string() const { return common::join(tokens, " "); }

std::vector<std::string> LogKey::constants() const {
  std::vector<std::string> out;
  for (const auto& t : tokens) {
    if (t != "*") out.push_back(t);
  }
  return out;
}

Spell::Spell(double t) : t_(t) {}

Spell::Spell(Spell&& other) noexcept
    : t_(other.t_),
      keys_(std::move(other.keys_)),
      interner_(std::move(other.interner_)),
      key_const_ids_(std::move(other.key_const_ids_)),
      token_index_(std::move(other.token_index_)),
      key_layoutable_(std::move(other.key_layoutable_)),
      shape_cache_(std::move(other.shape_cache_)),
      layouts_built_(other.layouts_built_.load(std::memory_order_relaxed)),
      match_cache_(std::move(other.match_cache_)),
      match_mu_(std::move(other.match_mu_)) {
  other.match_mu_ = std::make_unique<obs::ProfiledMutex>("spell.match_memo");
}

Spell& Spell::operator=(Spell&& other) noexcept {
  if (this == &other) return *this;
  t_ = other.t_;
  keys_ = std::move(other.keys_);
  interner_ = std::move(other.interner_);
  key_const_ids_ = std::move(other.key_const_ids_);
  token_index_ = std::move(other.token_index_);
  key_layoutable_ = std::move(other.key_layoutable_);
  shape_cache_ = std::move(other.shape_cache_);
  layouts_built_.store(other.layouts_built_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  match_cache_ = std::move(other.match_cache_);
  match_mu_ = std::move(other.match_mu_);
  other.match_mu_ = std::make_unique<obs::ProfiledMutex>("spell.match_memo");
  return *this;
}

void Spell::restore_keys(std::vector<LogKey> keys) {
  keys_ = std::move(keys);
  shape_cache_.clear();
  token_index_.clear();
  interner_.clear();
  key_const_ids_.clear();
  key_layoutable_.clear();
  layouts_built_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard lock(*match_mu_);
    match_cache_.clear();
  }
  for (const LogKey& key : keys_) cache_key_constants(key);
  // Seed the cache with each key's own shape: messages whose variables are
  // all digit-bearing produce exactly this shape, and keys dominated by
  // variable fields ("headroom * *") would otherwise fail the LCS bar.
  for (const LogKey& key : keys_) {
    shape_cache_.emplace(common::join(key.tokens, " "), key.id);
  }
}

void Spell::shape_of(const std::vector<std::string_view>& tokens, std::string& out) {
  out.clear();
  for (const auto& t : tokens) {
    if (!out.empty()) out += ' ';
    if (common::has_digit(t)) {
      out += '*';
    } else {
      out += t;
    }
  }
}

void Spell::cache_key_constants(const LogKey& key) {
  const auto id = static_cast<std::size_t>(key.id);
  if (key_const_ids_.size() <= id) key_const_ids_.resize(id + 1);
  std::vector<int>& const_ids = key_const_ids_[id];
  const_ids.clear();
  if (key_layoutable_.size() <= id) key_layoutable_.resize(id + 1);
  key_layoutable_[id] = std::none_of(key.tokens.begin(), key.tokens.end(),
                                     [](const std::string& t) { return common::has_digit(t); });
  for (const auto& tok : key.tokens) {
    if (tok == "*") continue;
    const int tid = interner_.intern(tok);
    const_ids.push_back(tid);
    if (token_index_.size() <= static_cast<std::size_t>(tid)) {
      token_index_.resize(static_cast<std::size_t>(tid) + 1);
    }
    std::vector<int>& ids = token_index_[static_cast<std::size_t>(tid)];
    if (std::find(ids.begin(), ids.end(), key.id) == ids.end()) ids.push_back(key.id);
  }
}

const std::vector<int>& Spell::candidates(const std::vector<int>& token_ids) const {
  thread_local std::vector<int> out;
  out.clear();
  for (const int tid : token_ids) {
    if (tid < 0 || static_cast<std::size_t>(tid) >= token_index_.size()) continue;
    const std::vector<int>& ids = token_index_[static_cast<std::size_t>(tid)];
    out.insert(out.end(), ids.begin(), ids.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int Spell::best_match(const std::vector<int>& token_ids, std::size_t num_tokens,
                      bool& exact) const {
  exact = false;
  int best_id = -1;
  std::size_t best_lcs = 0;
  for (const int id : candidates(token_ids)) {
    const std::vector<int>& consts = key_const_ids_[static_cast<std::size_t>(id)];
    // Upper bound check first: even a perfect overlap of the smaller
    // sequence cannot pass the threshold if sizes diverge too far.
    const std::size_t longer = std::max(num_tokens, consts.size());
    const double needed = static_cast<double>(longer) / t_;
    if (static_cast<double>(std::min(num_tokens, consts.size())) < needed) continue;
    const std::size_t l = common::lcs_length_ids(token_ids, consts);
    if (static_cast<double>(l) >= needed && l > best_lcs) {
      best_lcs = l;
      best_id = id;
      if (l == num_tokens && l == consts.size()) exact = true;
    }
  }
  return best_id;
}

void Spell::refine_key(LogKey& key, const std::vector<std::string>& tokens) {
  PROF_FRAME("spell.refine");
  FLIGHT_EVENT(kSpellRefine, static_cast<std::uint64_t>(key.id), keys_.size());
  // Align the key's constant tokens with the message; keep common tokens,
  // collapse every divergent run (including pre-existing '*') to one '*'.
  const std::vector<std::string> consts = key.constants();
  const std::vector<std::string> common_seq = common::lcs(consts, tokens);

  std::vector<std::string> merged;
  std::size_t ki = 0, mi = 0, ci = 0;
  const auto emit_star = [&merged] {
    if (merged.empty() || merged.back() != "*") merged.emplace_back("*");
  };
  while (ci < common_seq.size()) {
    const std::string& next = common_seq[ci];
    bool gap = false;
    while (ki < key.tokens.size() && key.tokens[ki] != next) {
      gap = true;
      ++ki;
    }
    while (mi < tokens.size() && tokens[mi] != next) {
      gap = true;
      ++mi;
    }
    if (gap) emit_star();
    merged.push_back(next);
    ++ki;
    ++mi;
    ++ci;
  }
  if (ki < key.tokens.size() || mi < tokens.size()) emit_star();
  key.tokens = std::move(merged);
}

int Spell::consume(std::string_view message) {
  PROF_FRAME("spell.consume");
  Scratch& s = scratch();
  common::split_ws_views(message, s.tokens);
  if (s.tokens.empty()) return -1;
  shape_of(s.tokens, s.shape);
  if (const auto it = shape_cache_.find(s.shape); it != shape_cache_.end()) {
    keys_[static_cast<std::size_t>(it->second.key)].match_count++;
    return it->second.key;
  }

  // Interned-id view of the message. Unknown tokens (not a constant of any
  // key) map to kAbsent and can never equal a key constant id, which is
  // exactly the behaviour of the old string LCS: they matched nothing.
  s.token_ids.clear();
  for (const std::string_view tok : s.tokens) s.token_ids.push_back(interner_.find(tok));

  bool exact = false;
  const int matched = best_match(s.token_ids, s.tokens.size(), exact);
  if (matched >= 0) {
    LogKey& key = keys_[static_cast<std::size_t>(matched)];
    key.match_count++;
    if (!exact) {
      std::vector<std::string> tokens(s.tokens.begin(), s.tokens.end());
      refine_key(key, tokens);
      // Refinement changed the key's constants: rebuild its cached ids and
      // re-seed its (new) canonical shape so post-refine traffic that
      // produces exactly the refined template still short-circuits. Old
      // shape entries keep pointing at the same id, which stays valid.
      cache_key_constants(key);
      shape_cache_.emplace(common::join(key.tokens, " "), key.id);
      flush_layouts();  // the key's layouts align against its old tokens
      std::lock_guard lock(*match_mu_);
      match_cache_.clear();  // memoized verdicts may predate the refine
    }
    shape_cache_.emplace(s.shape, matched);
    return matched;
  }

  // Found a new key. Digit-bearing tokens start life as variables — Spell
  // would converge there after the second sample anyway, and pre-masking
  // keeps the shape cache consistent from the first line. Adjacent variable
  // tokens keep one '*' each so distinct fields stay distinct
  // ("(TID 3). 2578 bytes" has two fields, not one).
  LogKey key;
  key.id = static_cast<int>(keys_.size());
  for (const std::string_view tok : s.tokens) {
    key.tokens.push_back(common::has_digit(tok) ? std::string("*") : std::string(tok));
  }
  key.match_count = 1;
  keys_.push_back(std::move(key));
  cache_key_constants(keys_.back());
  shape_cache_.emplace(s.shape, keys_.back().id);
  flush_layouts();  // same rule as the memo below
  {
    std::lock_guard lock(*match_mu_);
    match_cache_.clear();  // a new key can turn memoized misses into hits
  }
  return keys_.back().id;
}

int Spell::match(std::string_view message) const {
  return match(message, scratch().tokens).key;
}

Spell::Match Spell::match(std::string_view message,
                          std::vector<std::string_view>& tokens) const {
  PROF_FRAME("spell.match");
  Scratch& s = scratch();
  common::split_ws_views(message, tokens);
  if (tokens.empty()) return {};
  shape_of(tokens, s.shape);
  if (const auto it = shape_cache_.find(s.shape); it != shape_cache_.end()) {
    return {it->second.key, layout_of(it->second, tokens)};
  }
  {
    std::lock_guard lock(*match_mu_);
    if (const auto it = match_cache_.find(s.shape); it != match_cache_.end()) {
      return {it->second, nullptr};
    }
  }

  s.token_ids.clear();
  for (const std::string_view tok : tokens) s.token_ids.push_back(interner_.find(tok));
  bool exact = false;
  const int verdict = best_match(s.token_ids, tokens.size(), exact);

  // Memoize hits *and* misses: repeated detection traffic for shapes never
  // seen in training is the common case under fault injection.
  std::lock_guard lock(*match_mu_);
  if (match_cache_.size() >= kMatchCacheCapacity) match_cache_.clear();
  match_cache_.emplace(s.shape, verdict);
  return {verdict, nullptr};
}

const FieldLayout* Spell::layout_of(const ShapeEntry& entry,
                                    const std::vector<std::string_view>& tokens) const {
  const FieldLayout* layout = entry.layout.load(std::memory_order_acquire);
  if (layout != nullptr || !key_layoutable_[static_cast<std::size_t>(entry.key)]) return layout;
  // First use of this entry. Concurrent first users each compile the same
  // layout; one publishes, the others free theirs and take the winner's.
  auto fresh = std::make_unique<FieldLayout>();
  fresh->assign(keys_[static_cast<std::size_t>(entry.key)].tokens, tokens, scratch().align);
  if (entry.layout.compare_exchange_strong(layout, fresh.get(), std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
    layouts_built_.store(true, std::memory_order_relaxed);
    return fresh.release();
  }
  return layout;
}

void Spell::flush_layouts() {
  if (!layouts_built_.exchange(false, std::memory_order_relaxed)) return;
  for (auto& [shape, entry] : shape_cache_) {
    delete entry.layout.exchange(nullptr, std::memory_order_relaxed);
  }
}

std::size_t Spell::match_cache_size() const {
  std::lock_guard lock(*match_mu_);
  return match_cache_.size();
}

std::size_t Spell::layout_count() const {
  std::size_t n = 0;
  for (const auto& [shape, entry] : shape_cache_) {
    n += entry.layout.load(std::memory_order_acquire) != nullptr;
  }
  return n;
}

}  // namespace intellog::logparse
