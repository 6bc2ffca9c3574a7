#include "core/subroutine.hpp"

#include <algorithm>
#include <string_view>

#include "core/detect_scratch.hpp"
#include "obs/profile/profile.hpp"

namespace intellog::core {

namespace {

// An interned identifier stands for the string type + ":" + value. Two
// pairs name the same string even when they split it differently ("A:b",
// "c" against "A", "b:c"), so hashing, equality and order all run over
// the joined bytes without building them.

std::size_t joined_size(const IdentifierView& id) { return id.type.size() + 1 + id.value.size(); }

unsigned char joined_at(const IdentifierView& id, std::size_t i) {
  if (i < id.type.size()) return static_cast<unsigned char>(id.type[i]);
  if (i == id.type.size()) return ':';
  return static_cast<unsigned char>(id.value[i - id.type.size() - 1]);
}

std::uint64_t joined_hash(const IdentifierView& id) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  };
  for (const char c : id.type) mix(static_cast<unsigned char>(c));
  mix(':');
  for (const char c : id.value) mix(static_cast<unsigned char>(c));
  return h;
}

bool joined_equal(const IdentifierView& a, const IdentifierView& b) {
  if (a.type.size() == b.type.size()) return a.type == b.type && a.value == b.value;
  if (joined_size(a) != joined_size(b)) return false;
  for (std::size_t i = 0; i < joined_size(a); ++i) {
    if (joined_at(a, i) != joined_at(b, i)) return false;
  }
  return true;
}

// std::string's operator< on the joined strings (unsigned byte order).
bool joined_less(const IdentifierView& a, const IdentifierView& b) {
  const std::size_t n = std::min(joined_size(a), joined_size(b));
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char x = joined_at(a, i);
    const unsigned char y = joined_at(b, i);
    if (x != y) return x < y;
  }
  return joined_size(a) < joined_size(b);
}

// Sizes the intern table for up to `n_ids` distinct ids (load <= 1/2).
void reset_interner(DetectScratch& s, std::size_t n_ids) {
  for (std::size_t i = 0; i < s.interned.size(); ++i) s.postings[i].clear();
  s.interned.clear();
  std::size_t cap = 16;
  while (cap < 2 * n_ids) cap *= 2;
  s.intern_slots.assign(cap, 0);
}

std::uint32_t intern(DetectScratch& s, const IdentifierView& key) {
  const std::size_t mask = s.intern_slots.size() - 1;
  for (std::size_t slot = joined_hash(key) & mask;; slot = (slot + 1) & mask) {
    const std::uint32_t entry = s.intern_slots[slot];
    if (entry == 0) {
      const auto id = static_cast<std::uint32_t>(s.interned.size());
      s.interned.push_back(key);
      if (s.postings.size() < s.interned.size()) s.postings.emplace_back();
      s.intern_slots[slot] = id + 1;
      return id;
    }
    if (joined_equal(s.interned[entry - 1], key)) return entry - 1;
  }
}

// Adds `msg`'s identifier types to `inst`'s sorted-unique type views.
void add_types(SubroutineInstance& inst, const GroupMessage& msg) {
  for (const IdentifierView& iv : msg.ids) {
    const std::string_view t = iv.type;
    const auto it = std::lower_bound(inst.types.begin(), inst.types.end(), t);
    if (it == inst.types.end() || *it != t) inst.types.insert(it, t);
  }
}

}  // namespace

std::span<const IdentifierView> IdentifierStore::add(std::vector<IdentifierValue> ids) {
  if (ids.empty()) return {};
  Entry& e = entries_.emplace_back();
  e.values = std::move(ids);
  e.views.reserve(e.values.size());
  for (const IdentifierValue& iv : e.values) e.views.push_back({iv.type, iv.value});
  return e.views;
}

std::set<int> SubroutineInstance::key_set() const {
  std::set<int> out;
  for (const auto& m : messages) out.insert(m.key_id);
  return out;
}

std::size_t partition_instances(std::vector<GroupMessage>&& messages, DetectScratch& s,
                                bool materialize_strings) {
  PROF_FRAME("detect.partition");
  std::size_t used = 0;
  const auto acquire = [&]() -> SubroutineInstance& {
    if (used == s.instances.size()) s.instances.emplace_back();
    if (s.hits.size() <= used) s.hits.resize(used + 1, 0);
    SubroutineInstance& inst = s.instances[used++];
    inst.id_values.clear();
    inst.signature.clear();
    inst.messages.clear();
    inst.value_ids.clear();
    inst.types.clear();
    return inst;
  };
  std::size_t n_ids = 0;
  for (const GroupMessage& msg : messages) n_ids += msg.ids.size();
  reset_interner(s, n_ids);
  s.none_messages.clear();  // the NONE-keyed sequence (Line 5)

  for (GroupMessage& msg : messages) {
    // S_v as sorted-unique interned ids.
    s.msg_values.clear();
    for (const IdentifierView& iv : msg.ids) s.msg_values.push_back(intern(s, iv));
    std::sort(s.msg_values.begin(), s.msg_values.end());
    s.msg_values.erase(std::unique(s.msg_values.begin(), s.msg_values.end()),
                       s.msg_values.end());
    if (s.msg_values.empty()) {
      s.none_messages.push_back(std::move(msg));
      continue;
    }
    // hits[i] = |S_v ∩ instance i|. S_v ⊆ i when it equals |S_v|, and
    // i ⊆ S_v when it equals |i|; Algorithm 2 takes the earliest such i.
    // An instance sharing no value with S_v is neither (instances are
    // never empty), so the posting lists reach every candidate.
    for (const std::uint32_t v : s.msg_values) {
      for (const std::uint32_t ii : s.postings[v]) {
        if (s.hits[ii]++ == 0) s.hit_list.push_back(ii);
      }
    }
    std::size_t best = used;
    for (const std::uint32_t ii : s.hit_list) {
      const std::size_t h = s.hits[ii];
      if (ii < best && (h == s.msg_values.size() || h == s.instances[ii].value_ids.size())) {
        best = ii;
      }
    }
    const bool msg_is_subset = best < used && s.hits[best] == s.msg_values.size();
    for (const std::uint32_t ii : s.hit_list) s.hits[ii] = 0;
    s.hit_list.clear();

    if (best < used) {
      SubroutineInstance& inst = s.instances[best];
      if (!msg_is_subset) {
        // The instance grows to S_v: post it under the values it lacked.
        for (const std::uint32_t v : s.msg_values) {
          if (!std::binary_search(inst.value_ids.begin(), inst.value_ids.end(), v)) {
            s.postings[v].push_back(static_cast<std::uint32_t>(best));
          }
        }
        inst.value_ids.assign(s.msg_values.begin(), s.msg_values.end());
      }
      inst.messages.push_back(std::move(msg));
      add_types(inst, inst.messages.back());
      continue;
    }
    const auto index = static_cast<std::uint32_t>(used);
    SubroutineInstance& inst = acquire();
    inst.value_ids.assign(s.msg_values.begin(), s.msg_values.end());
    for (const std::uint32_t v : s.msg_values) s.postings[v].push_back(index);
    inst.messages.push_back(std::move(msg));
    add_types(inst, inst.messages.back());
  }
  if (!s.none_messages.empty()) {
    // NONE comes last. The swap circulates buffer capacity between the
    // accumulator and the pool slot.
    acquire().messages.swap(s.none_messages);
  }

  if (materialize_strings) {
    for (std::size_t ii = 0; ii < used; ++ii) {
      SubroutineInstance& inst = s.instances[ii];
      s.id_order.assign(inst.value_ids.begin(), inst.value_ids.end());
      std::sort(s.id_order.begin(), s.id_order.end(), [&](std::uint32_t a, std::uint32_t b) {
        return joined_less(s.interned[a], s.interned[b]);
      });
      inst.id_values.reserve(s.id_order.size());
      for (const std::uint32_t v : s.id_order) {
        const IdentifierView& id = s.interned[v];
        std::string joined;
        joined.reserve(joined_size(id));
        joined.append(id.type).append(1, ':').append(id.value);
        inst.id_values.push_back(std::move(joined));
      }
      inst.signature.insert(inst.types.begin(), inst.types.end());
    }
  }
  return used;
}

void SubroutineModel::update(std::span<const SubroutineInstance> instances) {
  for (const auto& inst : instances) {
    Subroutine& sub = subs_[inst.signature];
    sub.signature = inst.signature;

    // First-occurrence positions of each key in this instance.
    std::map<int, std::size_t> first_pos;
    for (std::size_t i = 0; i < inst.messages.size(); ++i) {
      first_pos.emplace(inst.messages[i].key_id, i);
    }
    const std::set<int> inst_keys = inst.key_set();

    // Critical keys: intersection over all instances (Fig. 5).
    if (sub.instance_count == 0) {
      sub.critical = inst_keys;
    } else {
      std::set<int> still;
      std::set_intersection(sub.critical.begin(), sub.critical.end(), inst_keys.begin(),
                            inst_keys.end(), std::inserter(still, still.begin()));
      sub.critical = std::move(still);
    }

    // Order relations: keys already known keep/break their BEFORE pairs;
    // a violated order becomes PARALLEL permanently.
    for (const auto& [a, pa] : first_pos) {
      for (const auto& [b, pb] : first_pos) {
        if (a >= b) continue;
        const int lo = pa < pb ? a : b;
        const int hi = pa < pb ? b : a;
        const auto fwd = std::make_pair(lo, hi);
        const auto rev = std::make_pair(hi, lo);
        if (sub.parallel.count(fwd) || sub.parallel.count(rev)) continue;
        if (sub.before.count(rev)) {
          // Contradiction with the learned order: demote to parallel.
          sub.before.erase(rev);
          sub.parallel.insert(fwd);
          sub.parallel.insert(rev);
          continue;
        }
        const bool both_known = sub.keys.count(a) && sub.keys.count(b);
        if (!both_known || sub.before.count(fwd)) sub.before.insert(fwd);
      }
    }
    sub.keys.insert(inst_keys.begin(), inst_keys.end());
    sub.instance_count++;
  }
}

SubroutineModel::InstanceCheck SubroutineModel::check(
    const SubroutineInstance& inst, std::size_t min_instances_for_order) const {
  thread_local DetectScratch scratch;
  const auto it = subs_.find(inst.signature);
  return check_against(it == subs_.end() ? nullptr : &it->second, inst, scratch,
                       min_instances_for_order);
}

SubroutineModel::InstanceCheck SubroutineModel::check_against(
    const Subroutine* sub_ptr, const SubroutineInstance& inst, DetectScratch& s,
    std::size_t min_instances_for_order) {
  PROF_FRAME("detect.check");
  InstanceCheck out;
  if (sub_ptr == nullptr) {
    out.known_signature = false;
    return out;
  }
  const Subroutine& sub = *sub_ptr;
  out.matched = &sub;
  // Flat sorted-unique key list instead of a std::set: check() runs once
  // per instance on the detection hot path and the set's node allocations
  // dominated it. Ascending order matches the set's iteration order, so
  // unknown_keys comes out identical.
  std::vector<int>& keys = s.check_keys;
  keys.clear();
  keys.reserve(inst.messages.size());
  for (const auto& m : inst.messages) keys.push_back(m.key_id);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (const int k : sub.critical) {
    if (!std::binary_search(keys.begin(), keys.end(), k)) out.missing_critical.push_back(k);
  }
  for (const int k : keys) {
    if (!sub.keys.count(k)) out.unknown_keys.push_back(k);
  }
  // Order violations: a trained-invariant BEFORE relation observed inverted.
  if (sub.instance_count >= min_instances_for_order) {
    // First-occurrence position per key: sort (key, position) pairs and
    // keep the first of each key — the map this replaces kept only the
    // first emplace per key, which is the same thing.
    std::vector<std::pair<int, std::size_t>>& first_pos = s.check_first_pos;
    first_pos.clear();
    first_pos.reserve(inst.messages.size());
    for (std::size_t i = 0; i < inst.messages.size(); ++i) {
      first_pos.emplace_back(inst.messages[i].key_id, i);
    }
    std::sort(first_pos.begin(), first_pos.end());
    first_pos.erase(
        std::unique(first_pos.begin(), first_pos.end(),
                    [](const auto& a, const auto& b) { return a.first == b.first; }),
        first_pos.end());
    const auto pos_of = [&](int k) -> const std::pair<int, std::size_t>* {
      const auto pit = std::lower_bound(
          first_pos.begin(), first_pos.end(), k,
          [](const std::pair<int, std::size_t>& p, int key) { return p.first < key; });
      return (pit != first_pos.end() && pit->first == k) ? &*pit : nullptr;
    };
    for (const auto& [a, b] : sub.before) {
      const auto* pa = pos_of(a);
      const auto* pb = pos_of(b);
      if (pa && pb && pb->second < pa->second) out.order_violations.emplace_back(a, b);
    }
  }
  return out;
}

}  // namespace intellog::core
