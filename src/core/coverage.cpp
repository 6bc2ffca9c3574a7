#include "core/coverage.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "obs/metrics.hpp"

namespace intellog::core {

std::string subroutine_component_key(const std::string& group,
                                     const std::set<std::string>& signature) {
  std::string key = group + "[";
  bool first = true;
  for (const auto& s : signature) {
    if (!first) key += ",";
    key += s;
    first = false;
  }
  key += "]";
  return key;
}

std::string edge_component_key(const std::string& a, const std::string& b) {
  return a + "|" + b;
}

CoverageLedger::ComponentClass::ComponentClass(std::vector<std::string> component_names)
    : names(std::move(component_names)), hits(names.size()) {
  index.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) index.emplace(names[i], i);
}

std::size_t CoverageLedger::ComponentClass::hit_count() const {
  std::size_t n = 0;
  for (const auto& h : hits) n += h.load(std::memory_order_relaxed) > 0;
  return n;
}

common::Json CoverageLedger::ComponentClass::to_json() const {
  std::uint64_t max_hits = 0;
  for (const auto& h : hits) max_hits = std::max(max_hits, h.load(std::memory_order_relaxed));
  // Stale: exercised, but under 5% of the class's busiest component — the
  // long tail that a shrinking workload leaves behind before it goes dead.
  const std::uint64_t stale_below = max_hits / 20;

  common::Json cls = common::Json::object();
  common::Json components = common::Json::array();
  common::Json dead = common::Json::array();
  common::Json stale = common::Json::array();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::uint64_t h = hits[i].load(std::memory_order_relaxed);
    common::Json c = common::Json::object();
    c["name"] = names[i];
    c["hits"] = static_cast<std::int64_t>(h);
    components.push_back(std::move(c));
    if (h == 0) {
      dead.push_back(names[i]);
    } else if (h < stale_below) {
      stale.push_back(names[i]);
    }
  }
  cls["total"] = names.size();
  cls["hit"] = hit_count();
  cls["dead"] = std::move(dead);
  cls["stale"] = std::move(stale);
  cls["components"] = std::move(components);
  return cls;
}

namespace {

std::vector<std::string> log_key_names(const logparse::Spell& spell) {
  std::vector<std::string> names;
  names.reserve(spell.keys().size());
  for (const auto& key : spell.keys()) {
    names.push_back("key " + std::to_string(key.id) + ": " + common::join(key.tokens));
  }
  return names;
}

std::vector<std::string> subroutine_names(const HwGraph& graph) {
  std::vector<std::string> names;
  for (const auto& [gname, node] : graph.groups()) {
    for (const auto& [sig, sub] : node.subroutines.subroutines()) {
      (void)sub;
      names.push_back(subroutine_component_key(gname, sig));
    }
  }
  return names;
}

std::vector<std::string> edge_names(const HwGraph& graph) {
  std::vector<std::string> names;
  names.reserve(graph.relations().size());
  for (const auto& [pair, rel] : graph.relations()) {
    (void)rel;
    names.push_back(edge_component_key(pair.first, pair.second));
  }
  return names;
}

}  // namespace

CoverageLedger::CoverageLedger(const logparse::Spell& spell, const HwGraph& graph)
    : log_keys_(log_key_names(spell)),
      subroutines_(subroutine_names(graph)),
      edges_(edge_names(graph)) {
  // Log keys stamp by id on the hot path; pre-resolve id -> slot so the
  // per-record cost is one array index + one relaxed increment.
  int max_id = -1;
  for (const auto& key : spell.keys()) max_id = std::max(max_id, key.id);
  log_key_slots_.assign(static_cast<std::size_t>(max_id + 1), -1);
  std::size_t slot = 0;
  for (const auto& key : spell.keys()) {
    if (key.id >= 0) log_key_slots_[static_cast<std::size_t>(key.id)] =
        static_cast<std::int32_t>(slot);
    ++slot;
  }

  // Group name -> dense id, then per-group subroutine-signature slots and
  // edge adjacency, all in integer space for the per-session stamps.
  for (const auto& [gname, node] : graph.groups()) {
    (void)node;
    group_ids_.emplace(gname, group_ids_.size());
  }
  subroutine_slots_.resize(group_ids_.size());
  std::size_t sub_slot = 0;
  for (const auto& [gname, node] : graph.groups()) {
    auto& slots = subroutine_slots_[group_ids_.at(gname)];
    for (const auto& [sig, sub] : node.subroutines.subroutines()) {
      subroutine_ptr_slots_.emplace(&sub, sub_slot);
      slots.emplace(sig, sub_slot++);
    }
  }
  edge_adjacency_.resize(group_ids_.size());
  std::size_t edge_slot = 0;
  for (const auto& [pair, rel] : graph.relations()) {
    (void)rel;
    const auto a = group_ids_.find(pair.first);
    const auto b = group_ids_.find(pair.second);
    if (a != group_ids_.end() && b != group_ids_.end()) {
      edge_adjacency_[a->second].emplace_back(b->second, edge_slot);
    }
    ++edge_slot;
  }
}

void CoverageLedger::stamp(ComponentClass& cls, const std::string& key) {
  const auto it = cls.index.find(key);
  if (it == cls.index.end()) return;  // not a model component
  cls.hits[it->second].fetch_add(1, std::memory_order_relaxed);
}

void CoverageLedger::stamp_log_key(int key_id) {
  if (key_id < 0 || static_cast<std::size_t>(key_id) >= log_key_slots_.size()) return;
  const std::int32_t slot = log_key_slots_[static_cast<std::size_t>(key_id)];
  if (slot < 0) return;
  log_keys_.hits[static_cast<std::size_t>(slot)].fetch_add(1, std::memory_order_relaxed);
}

void CoverageLedger::stamp_subroutine(const std::string& group,
                                      const std::set<std::string>& signature) {
  const auto git = group_ids_.find(group);
  if (git == group_ids_.end()) return;
  const auto& slots = subroutine_slots_[git->second];
  const auto it = slots.find(signature);
  if (it == slots.end()) return;
  subroutines_.hits[it->second].fetch_add(1, std::memory_order_relaxed);
}

void CoverageLedger::stamp_subroutine(const Subroutine* sub) {
  if (sub == nullptr) return;
  const auto it = subroutine_ptr_slots_.find(sub);
  if (it == subroutine_ptr_slots_.end()) return;
  subroutines_.hits[it->second].fetch_add(1, std::memory_order_relaxed);
}

void CoverageLedger::stamp_edge(const std::string& a, const std::string& b) {
  stamp(edges_, edge_component_key(a, b));
}

void CoverageLedger::stamp_edges(std::span<const std::string_view> groups_seen) {
  // Resolve the (few) seen groups to ids once, then walk only their
  // adjacency — the model's full edge list is never touched. Membership
  // is a flat byte array over dense group ids (per thread: detect() runs
  // concurrently across shards; reused, so a session allocates nothing),
  // so the inner test is a single load.
  thread_local std::vector<std::uint8_t> seen_flags;
  thread_local std::vector<std::size_t> seen;
  seen_flags.assign(edge_adjacency_.size(), 0);
  seen.clear();
  for (const auto& g : groups_seen) {
    const auto it = group_ids_.find(g);
    if (it != group_ids_.end()) {
      seen_flags[it->second] = 1;
      seen.push_back(it->second);
    }
  }
  for (const std::size_t gid : seen) {
    for (const auto& [other, edge_slot] : edge_adjacency_[gid]) {
      if (seen_flags[other]) {
        edges_.hits[edge_slot].fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

void CoverageLedger::reset() {
  for (ComponentClass* cls : {&log_keys_, &subroutines_, &edges_}) {
    for (auto& h : cls->hits) h.store(0, std::memory_order_relaxed);
  }
}

std::size_t CoverageLedger::total_components() const {
  return log_keys_.names.size() + subroutines_.names.size() + edges_.names.size();
}

std::size_t CoverageLedger::hit_components() const {
  return log_keys_.hit_count() + subroutines_.hit_count() + edges_.hit_count();
}

double CoverageLedger::coverage_ratio() const {
  const std::size_t total = total_components();
  return total == 0 ? 1.0 : static_cast<double>(hit_components()) / static_cast<double>(total);
}

common::Json CoverageLedger::to_json() const {
  common::Json doc = common::Json::object();
  doc["kind"] = "intellog_coverage";
  doc["schema_version"] = 1;
  common::Json classes = common::Json::object();
  classes["log_keys"] = log_keys_.to_json();
  classes["subroutines"] = subroutines_.to_json();
  classes["edges"] = edges_.to_json();
  doc["classes"] = std::move(classes);
  doc["total"] = total_components();
  doc["hit"] = hit_components();
  doc["coverage_ratio"] = coverage_ratio();
  return doc;
}

void CoverageLedger::record_metrics(obs::MetricsRegistry& reg) const {
  reg.describe("intellog_model_coverage_ratio",
               "Share of model components exercised by detection, in permille");
  reg.describe("intellog_model_coverage_components", "Model components per class");
  reg.describe("intellog_model_coverage_hit", "Model components with nonzero hits per class");
  reg.gauge("intellog_model_coverage_ratio")
      .set(static_cast<std::int64_t>(coverage_ratio() * 1000.0 + 0.5));
  const auto per_class = [&reg](const char* name, const ComponentClass& cls) {
    reg.gauge("intellog_model_coverage_components", {{"class", name}})
        .set(static_cast<std::int64_t>(cls.names.size()));
    reg.gauge("intellog_model_coverage_hit", {{"class", name}})
        .set(static_cast<std::int64_t>(cls.hit_count()));
  };
  per_class("log_keys", log_keys_);
  per_class("subroutines", subroutines_);
  per_class("edges", edges_);
}

}  // namespace intellog::core
