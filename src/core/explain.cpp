#include "core/explain.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "core/detect_scratch.hpp"
#include "obs/profile/profile.hpp"

namespace intellog::core {

namespace {

/// Stored bytes per evidence line (stack traces folded into a record can
/// run to kilobytes; the provenance points back at the full text).
constexpr std::size_t kMaxEvidenceLineBytes = 512;

std::string join_keys(const std::vector<int>& keys, std::string_view sep = " -> ") {
  std::string out;
  for (const int k : keys) {
    if (!out.empty()) out += sep;
    out += std::to_string(k);
  }
  return out;
}

std::string signature_text(const std::set<std::string>& signature) {
  if (signature.empty()) return "NONE";
  std::string out = "{";
  for (const auto& s : signature) {
    if (out.size() > 1) out += ",";
    out += s;
  }
  out += "}";
  return out;
}

std::vector<int> ints_from_json(const common::Json& j) {
  std::vector<int> out;
  if (!j.is_array()) return out;
  for (const auto& v : j.as_array()) {
    if (v.is_number()) out.push_back(static_cast<int>(v.as_int()));
  }
  return out;
}

GroupIssue::Kind kind_from_string(std::string_view s) {
  if (s == "missing-group") return GroupIssue::Kind::MissingGroup;
  if (s == "incomplete-subroutine") return GroupIssue::Kind::IncompleteSubroutine;
  if (s == "unknown-signature") return GroupIssue::Kind::UnknownSignature;
  if (s == "order-violation") return GroupIssue::Kind::OrderViolation;
  throw std::runtime_error("report_from_json: unknown issue kind: " + std::string(s));
}

}  // namespace

EvidenceLine make_evidence_line(const logparse::Session& session, std::size_t record_index,
                                int key_id) {
  EvidenceLine line;
  line.record_index = record_index;
  line.key_id = key_id;
  line.file = session.source_file.empty() ? session.container_id : session.source_file;
  if (record_index < session.records.size()) {
    const logparse::LogRecord& rec = session.records[record_index];
    line.timestamp_ms = rec.timestamp_ms;
    line.content = rec.content.substr(0, kMaxEvidenceLineBytes);
    line.line_no = rec.line_no;
    line.byte_offset = rec.byte_offset;
  }
  return line;
}

Evidence build_unexpected_evidence(const logparse::Session& session,
                                   std::size_t record_index) {
  PROF_FRAME("detect.evidence");
  Evidence ev;
  ev.deviation = "message matched no trained log key";
  ev.lines.push_back(make_evidence_line(session, record_index, -1));
  return ev;
}

std::vector<int> expected_key_sequence(const Subroutine& sub) {
  // Kahn's algorithm over the learned BEFORE relations, smallest ready key
  // first, so the sequence is deterministic and id-ordered where the
  // training data left the order unconstrained.
  std::map<int, std::size_t> indegree;
  std::map<int, std::vector<int>> out_edges;
  for (const int k : sub.keys) indegree[k] = 0;
  for (const auto& [a, b] : sub.before) {
    if (!indegree.count(a) || !indegree.count(b)) continue;
    out_edges[a].push_back(b);
    ++indegree[b];
  }
  std::set<int> ready;
  for (const auto& [k, deg] : indegree) {
    if (deg == 0) ready.insert(k);
  }
  std::vector<int> order;
  order.reserve(sub.keys.size());
  while (!ready.empty()) {
    const int k = *ready.begin();
    ready.erase(ready.begin());
    order.push_back(k);
    for (const int next : out_edges[k]) {
      if (--indegree[next] == 0) ready.insert(next);
    }
  }
  // BEFORE relations are mined from observed sequences so cycles should not
  // exist; if deserialized state ever carries one, emit the leftovers in id
  // order rather than dropping keys from the expectation.
  if (order.size() < sub.keys.size()) {
    for (const int k : sub.keys) {
      if (std::find(order.begin(), order.end(), k) == order.end()) order.push_back(k);
    }
  }
  return order;
}

Evidence build_instance_evidence(const logparse::Session& session, const Subroutine* trained,
                                 const SubroutineInstance& instance,
                                 const SubroutineModel::InstanceCheck& check) {
  PROF_FRAME("detect.evidence");
  Evidence ev;
  std::set<int> observed_set;
  for (const GroupMessage& m : instance.messages) {
    ev.observed_keys.push_back(m.key_id);
    observed_set.insert(m.key_id);
  }
  if (trained != nullptr) {
    ev.expected_keys = expected_key_sequence(*trained);
    for (const int k : ev.expected_keys) {
      (observed_set.count(k) ? ev.matched_keys : ev.missing_keys).push_back(k);
    }
  }

  if (!check.known_signature) {
    ev.deviation = "identifier signature " + signature_text(instance.signature) +
                   " never observed in training";
  } else if (!check.missing_critical.empty()) {
    ev.deviation = "subroutine ended without critical key(s) " +
                   join_keys(check.missing_critical, ", ");
  } else if (!check.order_violations.empty()) {
    const auto& [a, b] = check.order_violations.front();
    ev.deviation = "key " + std::to_string(b) + " observed before key " + std::to_string(a) +
                   "; training always saw " + std::to_string(a) + " BEFORE " +
                   std::to_string(b);
  }

  // Raw-line selection: records implicated in an order violation are proof,
  // so they go first; remaining slots take the instance's boundary messages
  // (the span in which the expectation failed).
  std::set<int> violated;
  for (const auto& [a, b] : check.order_violations) {
    violated.insert(a);
    violated.insert(b);
  }
  std::vector<std::size_t> chosen;  // indices into instance.messages
  std::set<std::size_t> taken;
  const auto add = [&](std::size_t mi) {
    if (chosen.size() < kMaxEvidenceLines && taken.insert(mi).second) chosen.push_back(mi);
  };
  if (!violated.empty()) {
    for (std::size_t mi = 0; mi < instance.messages.size(); ++mi) {
      if (violated.count(instance.messages[mi].key_id)) add(mi);
    }
  }
  const std::size_t n = instance.messages.size();
  if (n <= kMaxEvidenceLines) {
    for (std::size_t mi = 0; mi < n; ++mi) add(mi);
  } else {
    for (std::size_t mi = 0; mi < kMaxEvidenceLines / 2; ++mi) add(mi);
    for (std::size_t mi = n - kMaxEvidenceLines / 2; mi < n; ++mi) add(mi);
  }
  std::sort(chosen.begin(), chosen.end(), [&](std::size_t x, std::size_t y) {
    return instance.messages[x].record_index < instance.messages[y].record_index;
  });
  for (const std::size_t mi : chosen) {
    const GroupMessage& m = instance.messages[mi];
    ev.lines.push_back(make_evidence_line(session, m.record_index, m.key_id));
  }
  return ev;
}

Evidence build_missing_group_evidence(const logparse::Session& session, const GroupNode& node,
                                      const std::vector<int>& record_keys) {
  PROF_FRAME("detect.evidence");
  Evidence ev;
  ev.expected_keys.assign(node.keys.begin(), node.keys.end());
  ev.missing_keys = ev.expected_keys;
  ev.deviation = "entity group '" + node.name + "' never appeared in " +
                 std::to_string(session.records.size()) + " records";
  // The group is absent, so the proof is the observed span itself: the
  // session's boundary records, labeled with the keys they did match.
  const auto key_of = [&](std::size_t ri) {
    return ri < record_keys.size() ? record_keys[ri] : -1;
  };
  const std::size_t n = session.records.size();
  const std::size_t half = kMaxEvidenceLines / 2;
  if (n <= kMaxEvidenceLines) {
    for (std::size_t ri = 0; ri < n; ++ri) {
      ev.lines.push_back(make_evidence_line(session, ri, key_of(ri)));
    }
  } else {
    for (std::size_t ri = 0; ri < half; ++ri) {
      ev.lines.push_back(make_evidence_line(session, ri, key_of(ri)));
    }
    for (std::size_t ri = n - half; ri < n; ++ri) {
      ev.lines.push_back(make_evidence_line(session, ri, key_of(ri)));
    }
  }
  return ev;
}

// --- report round-trip -------------------------------------------------------

EvidenceLine evidence_line_from_json(const common::Json& j) {
  EvidenceLine line;
  if (!j.is_object()) return line;
  if (j.contains("record_index")) line.record_index = static_cast<std::size_t>(j["record_index"].as_int());
  if (j.contains("timestamp_ms")) line.timestamp_ms = static_cast<std::uint64_t>(j["timestamp_ms"].as_int());
  if (j.contains("key")) line.key_id = static_cast<int>(j["key"].as_int());
  if (j.contains("content")) line.content = j["content"].as_string();
  if (j.contains("file")) line.file = j["file"].as_string();
  if (j.contains("line")) line.line_no = static_cast<std::size_t>(j["line"].as_int());
  if (j.contains("byte_offset")) line.byte_offset = static_cast<std::uint64_t>(j["byte_offset"].as_int());
  return line;
}

Evidence evidence_from_json(const common::Json& j) {
  Evidence ev;
  if (!j.is_object()) return ev;
  ev.expected_keys = ints_from_json(j["expected_keys"]);
  ev.observed_keys = ints_from_json(j["observed_keys"]);
  ev.matched_keys = ints_from_json(j["matched_keys"]);
  ev.missing_keys = ints_from_json(j["missing_keys"]);
  if (j.contains("deviation")) ev.deviation = j["deviation"].as_string();
  if (j["lines"].is_array()) {
    for (const auto& lj : j["lines"].as_array()) {
      ev.lines.push_back(evidence_line_from_json(lj));
    }
  }
  return ev;
}

AnomalyReport report_from_json(const common::Json& j) {
  if (!j.is_object() || !j.contains("container")) {
    throw std::runtime_error("report_from_json: not an anomaly report object");
  }
  AnomalyReport report;
  report.container_id = j["container"].as_string();
  if (j.contains("session_length")) {
    report.session_length = static_cast<std::size_t>(j["session_length"].as_int());
  }
  if (j.contains("degraded")) report.degraded_reason = j["degraded"].as_string();
  if (j["unexpected_messages"].is_array()) {
    for (const auto& uj : j["unexpected_messages"].as_array()) {
      UnexpectedMessage u;
      if (uj.contains("record_index")) {
        u.record_index = static_cast<std::size_t>(uj["record_index"].as_int());
      }
      if (uj.contains("content")) u.content = uj["content"].as_string();
      // The nested intel_key/intel_message extractions are display payload;
      // explain does not need them re-materialized.
      u.evidence = evidence_from_json(uj["evidence"]);
      report.unexpected.push_back(std::move(u));
    }
  }
  if (j["group_issues"].is_array()) {
    for (const auto& ij : j["group_issues"].as_array()) {
      GroupIssue issue;
      issue.kind = kind_from_string(ij["kind"].as_string());
      if (ij.contains("group")) issue.group = ij["group"].as_string();
      if (ij["signature"].is_array()) {
        for (const auto& s : ij["signature"].as_array()) issue.signature.insert(s.as_string());
      }
      issue.missing_keys = ints_from_json(ij["missing_critical_keys"]);
      if (ij["violated_orders"].is_array()) {
        for (const auto& pj : ij["violated_orders"].as_array()) {
          if (pj.is_array() && pj.size() == 2) {
            issue.violated_orders.emplace_back(static_cast<int>(pj[0].as_int()),
                                               static_cast<int>(pj[1].as_int()));
          }
        }
      }
      issue.evidence = evidence_from_json(ij["evidence"]);
      report.issues.push_back(std::move(issue));
    }
  }
  return report;
}

std::string render_explanation(const AnomalyReport& report) {
  if (!report.anomalous()) return "";
  std::string out = "container " + report.container_id + " — ANOMALOUS (" +
                    std::to_string(report.unexpected.size() + report.issues.size()) +
                    " finding" +
                    (report.unexpected.size() + report.issues.size() == 1 ? "" : "s") + ", " +
                    std::to_string(report.session_length) + " records";
  if (report.degraded()) out += ", degraded: " + report.degraded_reason;
  out += ")\n";

  std::size_t n = 0;
  const auto render_evidence = [&out](const Evidence& ev) {
    if (!ev.expected_keys.empty()) out += "    expected: " + join_keys(ev.expected_keys) + "\n";
    if (!ev.observed_keys.empty()) out += "    observed: " + join_keys(ev.observed_keys) + "\n";
    if (!ev.missing_keys.empty()) {
      out += "    missing : " + join_keys(ev.missing_keys, ", ") + "\n";
    }
    if (!ev.deviation.empty()) out += "    deviation: " + ev.deviation + "\n";
    for (const EvidenceLine& line : ev.lines) {
      out += "      " + line.file + ":" + std::to_string(line.line_no) + " +" +
             std::to_string(line.byte_offset) + "B";
      out += line.key_id >= 0 ? " [key " + std::to_string(line.key_id) + "] " : " [no key] ";
      // Folded continuations would break the one-line-per-record layout.
      std::string content = line.content.substr(0, line.content.find('\n'));
      out += content + "\n";
    }
  };

  for (const UnexpectedMessage& u : report.unexpected) {
    out += "\n[" + std::to_string(++n) + "] unexpected-message at record " +
           std::to_string(u.record_index) + "\n";
    render_evidence(u.evidence);
  }
  for (const GroupIssue& issue : report.issues) {
    out += "\n[" + std::to_string(++n) + "] " + std::string(to_string(issue.kind)) +
           " in group '" + issue.group + "'";
    if (!issue.signature.empty()) out += " (signature " + signature_text(issue.signature) + ")";
    out += "\n";
    render_evidence(issue.evidence);
  }
  return out;
}

// --- HW-graph instance view --------------------------------------------------

std::string SubroutineView::name() const { return "sub " + signature_text(signature); }

WorkflowView build_workflow_view(const IntelLog& model, const logparse::Session& session) {
  WorkflowView view;
  view.container_id = session.container_id;
  view.system = session.system;
  view.source_file = session.source_file;
  if (!session.records.empty()) {
    view.first_ms = session.records.front().timestamp_ms;
    view.last_ms = view.first_ms;
    for (const logparse::LogRecord& rec : session.records) {
      view.first_ms = std::min(view.first_ms, rec.timestamp_ms);
      view.last_ms = std::max(view.last_ms, rec.timestamp_ms);
    }
  }

  // Per-record routing, identical to the detection path: Spell match ->
  // Intel Key -> entity groups.
  const logparse::Spell& spell = model.spell();
  const auto& intel_keys = model.intel_keys();
  IdentifierStore ids;  // what group_messages' identifiers view
  std::map<std::string, std::vector<GroupMessage>> group_messages;
  for (std::size_t ri = 0; ri < session.records.size(); ++ri) {
    const logparse::LogRecord& rec = session.records[ri];
    const int key_id = spell.match(rec.content);
    if (key_id < 0) continue;
    if (model.kv_filter().is_learned_kv_key(key_id)) continue;
    const auto ik_it = intel_keys.find(key_id);
    if (ik_it == intel_keys.end()) continue;
    const IntelKey& ik = ik_it->second;
    IntelMessage msg = model.extractor().instantiate(ik, spell.key(key_id), rec);
    GroupMessage gm;
    gm.key_id = key_id;
    gm.ids = ids.add(std::move(msg.identifiers));
    gm.record_index = ri;
    gm.timestamp_ms = rec.timestamp_ms;
    std::set<std::string> target_groups;
    for (const auto& entity : ik.entities) {
      const auto& gs = model.entity_groups().groups_of(entity);
      target_groups.insert(gs.begin(), gs.end());
    }
    for (const auto& g : target_groups) group_messages[g].push_back(gm);
  }

  // Track order: DFS over the trained containment tree (parents before
  // children), then any groups the graph does not know, id-sorted.
  std::vector<std::string> order;
  std::set<std::string> ordered;
  const auto visit = [&](const auto& self, const std::string& g) -> void {
    if (!ordered.insert(g).second) return;
    order.push_back(g);
    for (const std::string& child : model.hw_graph().children_of(g)) self(self, child);
  };
  for (const std::string& root : model.hw_graph().roots()) visit(visit, root);
  for (const auto& [g, msgs] : group_messages) {
    if (!ordered.count(g)) order.push_back(g);  // map iteration is id-sorted
  }

  DetectScratch scratch;
  for (const std::string& gname : order) {
    const auto it = group_messages.find(gname);
    if (it == group_messages.end()) continue;
    std::vector<GroupMessage>& messages = it->second;
    GroupSpanView gv;
    gv.group = gname;
    gv.message_count = messages.size();
    gv.first_ms = messages.front().timestamp_ms;
    gv.last_ms = gv.first_ms;
    for (const GroupMessage& m : messages) {
      gv.first_ms = std::min(gv.first_ms, m.timestamp_ms);
      gv.last_ms = std::max(gv.last_ms, m.timestamp_ms);
      gv.hits.push_back({m.key_id, m.record_index, m.timestamp_ms});
    }
    const std::size_t n_instances = partition_instances(std::move(messages), scratch, true);
    for (std::size_t ii = 0; ii < n_instances; ++ii) {
      const SubroutineInstance& inst = scratch.instances[ii];
      SubroutineView sv;
      sv.signature = inst.signature;
      sv.id_values.insert(inst.id_values.begin(), inst.id_values.end());
      if (!inst.messages.empty()) {
        sv.first_ms = inst.messages.front().timestamp_ms;
        sv.last_ms = sv.first_ms;
        for (const GroupMessage& m : inst.messages) {
          sv.first_ms = std::min(sv.first_ms, m.timestamp_ms);
          sv.last_ms = std::max(sv.last_ms, m.timestamp_ms);
          sv.hits.push_back({m.key_id, m.record_index, m.timestamp_ms});
        }
      }
      gv.subroutines.push_back(std::move(sv));
    }
    view.groups.push_back(std::move(gv));
  }
  return view;
}

}  // namespace intellog::core
