#include "core/anomaly.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "core/coverage.hpp"
#include "core/detect_scratch.hpp"
#include "core/explain.hpp"
#include "obs/stages.hpp"

namespace intellog::core {

common::Json EvidenceLine::to_json() const {
  common::Json j = common::Json::object();
  j["record_index"] = record_index;
  j["timestamp_ms"] = static_cast<std::int64_t>(timestamp_ms);
  j["key"] = key_id;
  j["content"] = content;
  j["file"] = file;
  j["line"] = line_no;
  j["byte_offset"] = static_cast<std::int64_t>(byte_offset);
  return j;
}

common::Json Evidence::to_json() const {
  const auto keys_json = [](const std::vector<int>& keys) {
    common::Json arr = common::Json::array();
    for (const int k : keys) arr.push_back(k);
    return arr;
  };
  common::Json j = common::Json::object();
  j["expected_keys"] = keys_json(expected_keys);
  j["observed_keys"] = keys_json(observed_keys);
  j["matched_keys"] = keys_json(matched_keys);
  j["missing_keys"] = keys_json(missing_keys);
  j["deviation"] = deviation;
  common::Json lj = common::Json::array();
  for (const EvidenceLine& line : lines) lj.push_back(line.to_json());
  j["lines"] = std::move(lj);
  return j;
}

std::string_view to_string(GroupIssue::Kind kind) {
  switch (kind) {
    case GroupIssue::Kind::MissingGroup: return "missing-group";
    case GroupIssue::Kind::IncompleteSubroutine: return "incomplete-subroutine";
    case GroupIssue::Kind::UnknownSignature: return "unknown-signature";
    case GroupIssue::Kind::OrderViolation: return "order-violation";
  }
  return "unknown";
}

common::Json AnomalyReport::to_json() const {
  common::Json j = common::Json::object();
  j["container"] = container_id;
  j["session_length"] = session_length;
  j["anomalous"] = anomalous();
  // Only emitted for degraded-mode reports: normal reports keep their
  // pre-existing byte layout (checkpoint parity tests compare dumps).
  if (degraded()) j["degraded"] = degraded_reason;
  common::Json unexp = common::Json::array();
  for (const auto& u : unexpected) {
    common::Json uj = common::Json::object();
    uj["record_index"] = u.record_index;
    uj["content"] = u.content;
    uj["intel_key"] = u.extracted.to_json();
    uj["intel_message"] = u.message.to_json();
    // Omitted when evidence construction is disabled: the key's absence is
    // the documented signal, not an empty object.
    if (!u.evidence.empty()) uj["evidence"] = u.evidence.to_json();
    unexp.push_back(std::move(uj));
  }
  j["unexpected_messages"] = std::move(unexp);
  common::Json iss = common::Json::array();
  for (const auto& i : issues) {
    common::Json ij = common::Json::object();
    ij["kind"] = std::string(to_string(i.kind));
    ij["group"] = i.group;
    common::Json sig = common::Json::array();
    for (const auto& s : i.signature) sig.push_back(s);
    ij["signature"] = std::move(sig);
    common::Json mk = common::Json::array();
    for (const int k : i.missing_keys) mk.push_back(k);
    ij["missing_critical_keys"] = std::move(mk);
    common::Json ov = common::Json::array();
    for (const auto& [a, b] : i.violated_orders) {
      common::Json pair = common::Json::array();
      pair.push_back(a);
      pair.push_back(b);
      ov.push_back(std::move(pair));
    }
    ij["violated_orders"] = std::move(ov);
    if (!i.evidence.empty()) ij["evidence"] = i.evidence.to_json();
    iss.push_back(std::move(ij));
  }
  j["group_issues"] = std::move(iss);
  return j;
}

AnomalyDetector::AnomalyDetector(const logparse::Spell& spell, const logparse::KvFilter& kv,
                                 const InfoExtractor& extractor,
                                 const std::map<int, IntelKey>& intel_keys,
                                 const EntityGroups& groups, const HwGraph& graph,
                                 double expected_group_fraction)
    : spell_(spell),
      extractor_(extractor),
      expected_groups_(graph.expected_groups(expected_group_fraction)) {
  // Groups are numbered in name order, so walking touched indices in
  // ascending order visits groups as a std::map<std::string, ...> would.
  // The HW-graph's groups are included: an expected group that no key
  // routes to still needs an index to be reported missing.
  std::vector<std::string_view> names;
  for (const auto& [name, members] : groups.groups) names.push_back(name);
  for (const auto& [entity, names_of] : groups.reverse) {
    for (const auto& name : names_of) names.push_back(name);
  }
  for (const auto& [name, node] : graph.groups()) names.push_back(name);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  const auto index_of = [&names](std::string_view name) {
    return static_cast<std::uint32_t>(std::lower_bound(names.begin(), names.end(), name) -
                                      names.begin());
  };

  group_plan_.resize(names.size());
  for (std::size_t gi = 0; gi < names.size(); ++gi) group_plan_[gi].name = names[gi];
  for (const auto& [name, node] : graph.groups()) {
    GroupPlan& plan = group_plan_[index_of(name)];
    plan.node = &node;
    // std::map order of std::set<std::string> keys is the lexicographic
    // order of their sorted elements, so the table comes out sorted.
    for (const auto& [signature, sub] : node.subroutines.subroutines()) {
      plan.signatures.push_back({{signature.begin(), signature.end()}, &sub});
    }
  }

  // A key routes its records when it is an Intel Key, not learned
  // key-value noise (§5), and its entities map to at least one group.
  int max_key = -1;
  for (const auto& [id, ik] : intel_keys) max_key = std::max(max_key, id);
  key_plan_.resize(static_cast<std::size_t>(max_key + 1));
  for (const auto& [id, ik] : intel_keys) {
    if (id < 0 || kv.is_learned_kv_key(id)) continue;
    KeyPlan& plan = key_plan_[static_cast<std::size_t>(id)];
    for (const auto& entity : ik.entities) {
      for (const auto& g : groups.groups_of(entity)) plan.groups.push_back(index_of(g));
    }
    std::sort(plan.groups.begin(), plan.groups.end());
    plan.groups.erase(std::unique(plan.groups.begin(), plan.groups.end()), plan.groups.end());
    if (plan.groups.empty()) continue;
    plan.intel_key = &ik;
    plan.id_slots = InfoExtractor::identifier_slots(ik);
  }

  expected_index_.reserve(expected_groups_.size());
  for (const auto& g : expected_groups_) expected_index_.push_back(index_of(g));
}

const Subroutine* AnomalyDetector::find_subroutine(const GroupPlan& group,
                                                   const std::vector<std::string_view>& types) {
  const auto less = [](const std::vector<std::string_view>& a,
                       const std::vector<std::string_view>& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
  };
  const auto it = std::lower_bound(
      group.signatures.begin(), group.signatures.end(), types,
      [&](const SignatureEntry& e, const std::vector<std::string_view>& t) {
        return less(e.types, t);
      });
  return it != group.signatures.end() && it->types == types ? it->subroutine : nullptr;
}

AnomalyReport AnomalyDetector::detect(const logparse::Session& session) const {
  thread_local DetectScratch scratch;
  return detect(session, scratch);
}

AnomalyReport AnomalyDetector::detect(const logparse::Session& session,
                                      DetectScratch& scratch) const {
  OBS_STAGE("detect.session");
  scratch.reset_session();
  scratch.begin_groups(group_plan_.size());
  AnomalyReport report;
  report.container_id = session.container_id;
  report.session_length = session.records.size();

  const bool with_evidence = evidence_enabled();
  CoverageLedger* const cov = coverage();

  // Per-record Spell matching, on-the-fly extraction and entity grouping,
  // in one pass: a record's match hands its tokens and field layout
  // straight to identifier capture.
  obs::ObsStage scan_stage("detect.scan");
  // Spell key per record (-1: no match). OnlineDetector::consume caches
  // them, and their layouts, in the session; anything else is matched
  // here, once, into scratch.record_keys.
  const std::size_t n_records = session.records.size();
  const bool cached = session.spell_keys.size() == n_records;
  const bool cached_layouts = cached && session.spell_layouts.size() == n_records;
  if (!cached) scratch.record_keys.clear();
  for (std::size_t ri = 0; ri < n_records; ++ri) {
    const logparse::LogRecord& rec = session.records[ri];
    int key_id = -1;
    const logparse::FieldLayout* layout = nullptr;
    bool tokenized = false;
    if (cached) {
      key_id = session.spell_keys[ri];
      if (cached_layouts) layout = session.spell_layouts[ri];
    } else {
      const logparse::Spell::Match m = spell_.match(rec.content, scratch.ws);
      key_id = m.key;
      layout = m.layout;
      tokenized = true;
      scratch.record_keys.push_back(key_id);
    }
    if (cov && key_id >= 0) cov->stamp_log_key(key_id);
    if (key_id < 0) {
      // Unexpected log message: run extraction on the fly (§4.2), and
      // instantiate against the pseudo key it was extracted over.
      UnexpectedMessage u;
      u.record_index = ri;
      u.content = rec.content;
      InfoExtractor::Unexpected x = extractor_.extract_unexpected(rec.content);
      u.message = extractor_.instantiate(x.intel_key, x.key, rec, scratch);
      u.extracted = std::move(x.intel_key);
      if (with_evidence) u.evidence = build_unexpected_evidence(session, ri);
      report.unexpected.push_back(std::move(u));
      continue;
    }
    if (static_cast<std::size_t>(key_id) >= key_plan_.size()) continue;
    const KeyPlan& plan = key_plan_[static_cast<std::size_t>(key_id)];
    if (plan.intel_key == nullptr) continue;

    GroupMessage gm;
    gm.key_id = key_id;
    if (!plan.id_slots.empty()) {
      if (!tokenized) common::split_ws_views(rec.content, scratch.ws);
      gm.ids = InfoExtractor::capture_identifiers(plan.id_slots, spell_.key(key_id), layout,
                                                  scratch);
    }
    gm.record_index = ri;
    gm.timestamp_ms = rec.timestamp_ms;
    for (const std::uint32_t g : plan.groups) {
      if (!scratch.group_seen[g]) {
        scratch.group_seen[g] = 1;
        scratch.touched_groups.push_back(g);
      }
      scratch.buckets[g].push_back(gm);
    }
  }
  const std::vector<int>* record_keys = cached ? &session.spell_keys : &scratch.record_keys;
  std::sort(scratch.touched_groups.begin(), scratch.touched_groups.end());

  scan_stage.close();

  // An edge is exercised when both endpoint groups appeared this session.
  if (cov) {
    scratch.seen_group_names.clear();
    for (const std::uint32_t g : scratch.touched_groups) {
      scratch.seen_group_names.push_back(group_plan_[g].name);
    }
    cov->stamp_edges(scratch.seen_group_names);
  }

  // HW-graph instance checks: missing groups, then subroutine structure.
  OBS_STAGE("detect.hwgraph_check");
  // Expected groups that never appeared -> erroneous HW-graph instance.
  for (std::size_t i = 0; i < expected_groups_.size(); ++i) {
    const GroupPlan& group = group_plan_[expected_index_[i]];
    if (scratch.group_seen[expected_index_[i]]) continue;
    GroupIssue issue;
    issue.kind = GroupIssue::Kind::MissingGroup;
    issue.group = expected_groups_[i];
    if (with_evidence && group.node) {
      issue.evidence = build_missing_group_evidence(session, *group.node, *record_keys);
    }
    report.issues.push_back(std::move(issue));
  }

  // Subroutine instances checked against the trained model, groups in
  // name order. Each bucket's messages move into their instances.
  for (const std::uint32_t g : scratch.touched_groups) {
    const GroupPlan& group = group_plan_[g];
    if (group.node == nullptr || group.node->subroutines.empty()) continue;
    const std::size_t n_instances = partition_instances(std::move(scratch.buckets[g]), scratch);
    for (std::size_t ii = 0; ii < n_instances; ++ii) {
      SubroutineInstance& inst = scratch.instances[ii];
      const Subroutine* trained = find_subroutine(group, inst.types);
      const auto check = SubroutineModel::check_against(trained, inst, scratch);
      if (cov) cov->stamp_subroutine(check.matched);
      if (check.ok()) continue;
      GroupIssue issue;
      issue.group = group.name;
      issue.signature.insert(inst.types.begin(), inst.types.end());
      if (!check.known_signature) {
        issue.kind = GroupIssue::Kind::UnknownSignature;
      } else if (!check.missing_critical.empty()) {
        issue.kind = GroupIssue::Kind::IncompleteSubroutine;
        issue.missing_keys = check.missing_critical;
      } else {
        issue.kind = GroupIssue::Kind::OrderViolation;
        issue.violated_orders = check.order_violations;
      }
      if (with_evidence) {
        inst.signature = issue.signature;  // cited by the evidence text
        issue.evidence = build_instance_evidence(session, trained, inst, check);
      }
      report.issues.push_back(std::move(issue));
    }
  }
  return report;
}

}  // namespace intellog::core
