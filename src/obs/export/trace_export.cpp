#include "obs/export/trace_export.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/explain.hpp"

namespace intellog::obs {

namespace {

using core::GroupSpanView;
using core::KeyHitView;
using core::SubroutineView;
using core::WorkflowView;

std::vector<WorkflowView> build_views(const core::IntelLog& model,
                                      std::span<const logparse::Session> sessions) {
  std::vector<WorkflowView> views;
  views.reserve(sessions.size());
  for (const logparse::Session& s : sessions) {
    views.push_back(core::build_workflow_view(model, s));
  }
  return views;
}

/// Earliest record timestamp across all sessions (the trace's t=0).
std::uint64_t epoch_ms(const std::vector<WorkflowView>& views) {
  std::uint64_t t0 = UINT64_MAX;
  for (const WorkflowView& v : views) {
    if (!v.groups.empty() || v.last_ms != 0 || v.first_ms != 0) {
      t0 = std::min(t0, v.first_ms);
    }
  }
  return t0 == UINT64_MAX ? 0 : t0;
}

// --- Chrome trace-event format ----------------------------------------------

common::Json meta_event(int pid, int tid, const char* what, const std::string& value) {
  common::Json m = common::Json::object();
  m["ph"] = "M";
  m["pid"] = pid;
  m["tid"] = tid;
  m["name"] = what;
  common::Json args = common::Json::object();
  args["name"] = value;
  m["args"] = std::move(args);
  return m;
}

common::Json complete_event(int pid, int tid, const std::string& name, const char* category,
                            std::uint64_t ts_us, std::uint64_t dur_us) {
  common::Json x = common::Json::object();
  x["ph"] = "X";
  x["pid"] = pid;
  x["tid"] = tid;
  x["name"] = name;
  x["cat"] = category;
  x["ts"] = static_cast<std::int64_t>(ts_us);
  // Zero-length spans (single-message lifespans) get 1µs so every span
  // renders; the paired begin/end stays ordered.
  x["dur"] = static_cast<std::int64_t>(dur_us == 0 ? 1 : dur_us);
  return x;
}

common::Json instant_event(int pid, int tid, const std::string& name, std::uint64_t ts_us) {
  common::Json i = common::Json::object();
  i["ph"] = "i";
  i["pid"] = pid;
  i["tid"] = tid;
  i["name"] = name;
  i["cat"] = "intel-key";
  i["s"] = "t";  // thread-scoped instant
  i["ts"] = static_cast<std::int64_t>(ts_us);
  return i;
}

// --- OTLP-style ids ----------------------------------------------------------

std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 0xCBF29CE484222325ull) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

/// 16-byte trace id (32 hex chars) from the session path.
std::string trace_id(const std::string& path) {
  return hex16(fnv1a(path)) + hex16(fnv1a(path, 0x84222325CBF29CE4ull));
}

/// 8-byte span id (16 hex chars) from the span path. The OTLP spec forbids
/// the all-zero id; FNV of a non-empty path never produces it in practice,
/// but guard anyway.
std::string span_id(const std::string& path) {
  const std::uint64_t h = fnv1a(path);
  return hex16(h == 0 ? 1 : h);
}

common::Json otlp_attr(const char* key, const std::string& value) {
  common::Json a = common::Json::object();
  a["key"] = key;
  common::Json v = common::Json::object();
  v["stringValue"] = value;
  a["value"] = std::move(v);
  return a;
}

common::Json otlp_attr_int(const char* key, std::int64_t value) {
  common::Json a = common::Json::object();
  a["key"] = key;
  common::Json v = common::Json::object();
  // OTLP JSON encodes 64-bit integers as strings.
  v["intValue"] = std::to_string(value);
  a["value"] = std::move(v);
  return a;
}

std::string unix_nano(std::uint64_t ms) { return std::to_string(ms * 1000000ull); }

common::Json otlp_span(const std::string& tid, const std::string& sid,
                       const std::string& parent_sid, const std::string& name,
                       std::uint64_t first_ms, std::uint64_t last_ms) {
  common::Json s = common::Json::object();
  s["traceId"] = tid;
  s["spanId"] = sid;
  if (!parent_sid.empty()) s["parentSpanId"] = parent_sid;
  s["name"] = name;
  s["kind"] = 1;  // SPAN_KIND_INTERNAL
  s["startTimeUnixNano"] = unix_nano(first_ms);
  // A single-message span still needs end > start to be a valid interval.
  s["endTimeUnixNano"] = unix_nano(last_ms > first_ms ? last_ms : first_ms + 1);
  return s;
}

}  // namespace

common::Json hwgraph_chrome_trace(const core::IntelLog& model,
                                  std::span<const logparse::Session> sessions) {
  const std::vector<WorkflowView> views = build_views(model, sessions);
  const std::uint64_t t0 = epoch_ms(views);
  const auto us = [t0](std::uint64_t ms) { return (ms - t0) * 1000; };

  common::Json events = common::Json::array();
  for (std::size_t si = 0; si < views.size(); ++si) {
    const WorkflowView& view = views[si];
    const int pid = static_cast<int>(si) + 1;
    std::string proc = view.container_id;
    if (!view.system.empty()) proc += " (" + view.system + ")";
    events.push_back(meta_event(pid, 0, "process_name", proc));

    for (std::size_t gi = 0; gi < view.groups.size(); ++gi) {
      const GroupSpanView& gv = view.groups[gi];
      const int tid = static_cast<int>(gi) + 1;
      events.push_back(meta_event(pid, tid, "thread_name", "group " + gv.group));

      // Parent span: the entity group's lifespan on its own track.
      common::Json span = complete_event(pid, tid, gv.group, "entity-group",
                                         us(gv.first_ms), (gv.last_ms - gv.first_ms) * 1000);
      common::Json args = common::Json::object();
      args["messages"] = gv.message_count;
      args["subroutines"] = gv.subroutines.size();
      if (!view.source_file.empty()) args["source_file"] = view.source_file;
      span["args"] = std::move(args);
      events.push_back(std::move(span));

      // Child spans: one per subroutine execution, nested inside the
      // lifespan on the same track.
      for (const SubroutineView& sv : gv.subroutines) {
        common::Json sub = complete_event(pid, tid, sv.name(), "subroutine", us(sv.first_ms),
                                          (sv.last_ms - sv.first_ms) * 1000);
        common::Json sargs = common::Json::object();
        std::string ids;
        for (const std::string& v : sv.id_values) {
          if (!ids.empty()) ids += " ";
          ids += v;
        }
        sargs["ids"] = ids;
        sargs["hits"] = sv.hits.size();
        sub["args"] = std::move(sargs);
        events.push_back(std::move(sub));
      }

      // Instant events: every Intel-Key hit in the group, once.
      for (const KeyHitView& hit : gv.hits) {
        events.push_back(
            instant_event(pid, tid, "key " + std::to_string(hit.key_id), us(hit.timestamp_ms)));
      }
    }
  }

  common::Json doc = common::Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

common::Json hwgraph_otlp_json(const core::IntelLog& model,
                               std::span<const logparse::Session> sessions) {
  const std::vector<WorkflowView> views = build_views(model, sessions);

  common::Json resource_spans = common::Json::array();
  for (const WorkflowView& view : views) {
    const std::string tid = trace_id("session/" + view.container_id);
    const std::string session_sid = span_id("session/" + view.container_id);

    common::Json spans = common::Json::array();
    // Root span: the whole session.
    {
      common::Json root = otlp_span(tid, session_sid, "", "session " + view.container_id,
                                    view.first_ms, view.last_ms);
      common::Json attrs = common::Json::array();
      attrs.push_back(otlp_attr_int("intellog.groups", static_cast<std::int64_t>(view.groups.size())));
      root["attributes"] = std::move(attrs);
      spans.push_back(std::move(root));
    }

    // Group spans parent onto the trained containment tree where the
    // parent group also appeared in this session, else onto the root.
    std::map<std::string, std::string> group_sid;
    for (const GroupSpanView& gv : view.groups) {
      group_sid[gv.group] = span_id("session/" + view.container_id + "/group/" + gv.group);
    }
    for (const GroupSpanView& gv : view.groups) {
      const std::string parent_group = model.hw_graph().parent_of(gv.group);
      const auto pit = group_sid.find(parent_group);
      const std::string parent_sid = pit == group_sid.end() ? session_sid : pit->second;
      common::Json gs =
          otlp_span(tid, group_sid[gv.group], parent_sid, gv.group, gv.first_ms, gv.last_ms);
      common::Json attrs = common::Json::array();
      attrs.push_back(otlp_attr("intellog.kind", "entity-group"));
      attrs.push_back(otlp_attr_int("intellog.messages", static_cast<std::int64_t>(gv.message_count)));
      gs["attributes"] = std::move(attrs);
      // Key hits as span events on the group span.
      common::Json events = common::Json::array();
      for (const KeyHitView& hit : gv.hits) {
        common::Json ev = common::Json::object();
        ev["timeUnixNano"] = unix_nano(hit.timestamp_ms);
        ev["name"] = "key " + std::to_string(hit.key_id);
        events.push_back(std::move(ev));
      }
      if (!events.as_array().empty()) gs["events"] = std::move(events);
      spans.push_back(std::move(gs));

      for (std::size_t subi = 0; subi < gv.subroutines.size(); ++subi) {
        const SubroutineView& sv = gv.subroutines[subi];
        const std::string sub_sid = span_id("session/" + view.container_id + "/group/" +
                                            gv.group + "/sub/" + std::to_string(subi));
        common::Json ss = otlp_span(tid, sub_sid, group_sid[gv.group], sv.name(), sv.first_ms,
                                    sv.last_ms);
        common::Json sattrs = common::Json::array();
        sattrs.push_back(otlp_attr("intellog.kind", "subroutine"));
        sattrs.push_back(otlp_attr_int("intellog.hits", static_cast<std::int64_t>(sv.hits.size())));
        ss["attributes"] = std::move(sattrs);
        spans.push_back(std::move(ss));
      }
    }

    common::Json scope = common::Json::object();
    common::Json scope_name = common::Json::object();
    scope_name["name"] = "intellog.hwgraph";
    scope["scope"] = std::move(scope_name);
    scope["spans"] = std::move(spans);
    common::Json scope_spans = common::Json::array();
    scope_spans.push_back(std::move(scope));

    common::Json resource = common::Json::object();
    common::Json rattrs = common::Json::array();
    rattrs.push_back(otlp_attr("service.name", "intellog"));
    rattrs.push_back(otlp_attr("container.id", view.container_id));
    if (!view.system.empty()) rattrs.push_back(otlp_attr("intellog.system", view.system));
    if (!view.source_file.empty()) {
      rattrs.push_back(otlp_attr("intellog.source_file", view.source_file));
    }
    resource["attributes"] = std::move(rattrs);

    common::Json rs = common::Json::object();
    rs["resource"] = std::move(resource);
    rs["scopeSpans"] = std::move(scope_spans);
    resource_spans.push_back(std::move(rs));
  }

  common::Json doc = common::Json::object();
  doc["resourceSpans"] = std::move(resource_spans);
  return doc;
}

common::Json flight_chrome_trace(const flight::FlightDump& dump) {
  // t=0 is the oldest surviving event; events are already time-sorted.
  std::uint64_t t0 = UINT64_MAX;
  for (const flight::DecodedEvent& e : dump.events) t0 = std::min(t0, e.steady_ns);
  if (t0 == UINT64_MAX) t0 = 0;
  const auto us = [t0](std::uint64_t ns) { return (ns - t0) / 1000; };

  constexpr int kPid = 1;
  common::Json events = common::Json::array();

  // One thread track per ring slot, named by the OS thread id so the trace
  // lines up with gdb/perf output from the same process.
  std::vector<std::uint32_t> seen_slots;
  for (const flight::DecodedEvent& e : dump.events) {
    if (std::find(seen_slots.begin(), seen_slots.end(), e.slot) == seen_slots.end()) {
      seen_slots.push_back(e.slot);
      events.push_back(meta_event(kPid, static_cast<int>(e.slot) + 1, "thread_name",
                                  "ring " + std::to_string(e.slot) + " (tid " +
                                      std::to_string(e.os_tid) + ")"));
    }
  }

  // Open stages per ring slot, innermost last. Stages nest LIFO per
  // thread, so an end with no open begin lost its begin to ring overwrite.
  std::map<std::uint32_t, std::vector<std::uint64_t>> open_stages;

  for (const flight::DecodedEvent& e : dump.events) {
    const flight::FlightEventInfo& info = flight::event_info(e.id);
    const int tid = static_cast<int>(e.slot) + 1;
    const std::uint64_t ts = us(e.steady_ns);

    const bool begin = e.id == flight::FlightEventId::kStageBegin;
    if (begin || e.id == flight::FlightEventId::kStageEnd) {
      // Paired duration events on the ring's thread track: Perfetto
      // matches B/E by (pid, tid, name).
      std::vector<std::uint64_t>& open = open_stages[e.slot];
      if (begin) {
        open.push_back(e.a);
      } else if (!open.empty() && open.back() == e.a) {
        open.pop_back();
      } else {
        continue;
      }
      common::Json d = common::Json::object();
      d["ph"] = begin ? "B" : "E";
      d["pid"] = kPid;
      d["tid"] = tid;
      d["name"] = e.str;
      d["cat"] = info.subsystem;
      d["ts"] = static_cast<std::int64_t>(ts);
      events.push_back(std::move(d));
      continue;
    }

    common::Json i = common::Json::object();
    i["ph"] = "i";
    i["pid"] = kPid;
    i["tid"] = tid;
    i["name"] = info.name;
    i["cat"] = info.subsystem;
    i["s"] = "t";  // thread-scoped instant
    i["ts"] = static_cast<std::int64_t>(ts);
    common::Json args = common::Json::object();
    args[info.arg_a] = static_cast<std::size_t>(e.a);
    args[info.arg_b] = static_cast<std::size_t>(e.b);
    if (!e.str.empty()) args["str"] = e.str;
    i["args"] = std::move(args);
    events.push_back(std::move(i));
  }

  common::Json doc = common::Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

}  // namespace intellog::obs
