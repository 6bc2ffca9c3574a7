#include "core/entity_grouping.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace intellog::core {

const std::set<std::string>& EntityGroups::groups_of(const std::string& entity) const {
  static const std::set<std::string> kEmpty;
  const auto it = reverse.find(entity);
  return it == reverse.end() ? kEmpty : it->second;
}

std::vector<std::string> longest_common_phrase(const std::vector<std::string>& a,
                                               const std::vector<std::string>& b) {
  if (a.empty() || b.empty()) return {};
  // One-word phrase: the common phrase is that word if the other phrase
  // contains it (Line 24-25 of Algorithm 1).
  if (a.size() == 1 || b.size() == 1) {
    const std::vector<std::string>& one = a.size() == 1 ? a : b;
    const std::vector<std::string>& other = a.size() == 1 ? b : a;
    if (std::find(other.begin(), other.end(), one[0]) != other.end()) return {one[0]};
    return {};
  }
  const std::vector<std::string> lcs = common::longest_common_substring_words(a, b);
  if (lcs.empty()) return {};
  // Two multi-word phrases that only share their last few words have
  // generic tails ("manager", "file", "output") — not correlated
  // (Line 26-27).
  const std::size_t suffix = common::common_suffix_words(a, b);
  if (suffix > 0 && lcs.size() <= suffix) return {};
  return lcs;
}

EntityGroups group_entities(const std::vector<std::string>& entities) {
  // Deduplicate and sort ascending by word count (Algorithm 1 input).
  std::vector<std::vector<std::string>> items;
  {
    std::set<std::string> seen;
    for (const auto& e : entities) {
      if (!e.empty() && seen.insert(e).second) items.push_back(common::split_ws(e));
    }
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const auto& x, const auto& y) { return x.size() < y.size(); });

  struct Group {
    std::vector<std::string> name;
    std::set<std::string> members;
  };
  std::vector<Group> groups;
  for (const auto& e : items) {
    const std::string joined = common::join(e, " ");
    bool grouped = false;
    for (auto& g : groups) {
      const auto lcp = longest_common_phrase(g.name, e);
      if (!lcp.empty()) {
        g.members.insert(joined);
        g.name = lcp;  // the group name shrinks to the shared phrase
        grouped = true;
      }
    }
    if (!grouped) groups.push_back({e, {joined}});
  }

  EntityGroups out;
  for (const auto& g : groups) {
    const std::string name = common::join(g.name, " ");
    auto& members = out.groups[name];
    members.insert(g.members.begin(), g.members.end());
    for (const auto& m : g.members) out.reverse[m].insert(name);
  }
  return out;
}

}  // namespace intellog::core
