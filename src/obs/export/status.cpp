#include "obs/export/status.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace intellog::obs {

namespace {

std::string fmt_double(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

common::Json build_status(const StatusContext& ctx) {
  common::Json doc = common::Json::object();
  doc["kind"] = "intellog_status";
  doc["schema_version"] = kStatusSchemaVersion;

  common::Json sessions = common::Json::array();
  if (ctx.detector) {
    for (const auto& info : ctx.detector->open_session_info()) {
      common::Json s = common::Json::object();
      s["container"] = info.container_id;
      s["buffered_records"] = info.buffered_records;
      s["first_seen_ms"] = static_cast<std::int64_t>(info.first_seen_ms);
      s["last_seen_ms"] = static_cast<std::int64_t>(info.last_seen_ms);
      sessions.push_back(std::move(s));
    }

    const auto& limits = ctx.detector->limits();
    common::Json occ = common::Json::object();
    occ["open_sessions"] = ctx.detector->open_session_count();
    occ["max_sessions"] = limits.max_sessions;  // 0: unbounded
    occ["buffered_records"] = ctx.detector->total_buffered_records();
    occ["max_buffered_records"] = limits.max_buffered_records;
    occ["max_session_age_ms"] = static_cast<std::int64_t>(limits.max_session_age_ms);
    occ["pending_evicted"] = ctx.detector->pending_evicted();
    doc["occupancy"] = std::move(occ);
  }
  doc["sessions"] = std::move(sessions);

  if (ctx.registry) {
    // Flat counter/gauge views (quarantine reasons, eviction counts, ...):
    // series key -> value, lifted out of the full metrics snapshot.
    common::Json counters = common::Json::object();
    common::Json gauges = common::Json::object();
    const common::Json all = ctx.registry->to_json();
    for (const auto& [key, m] : all.as_object()) {
      if (!m.is_object() || !m["type"].is_string()) continue;
      if (m["type"].as_string() == "counter") {
        counters[key] = m["value"];
      } else if (m["type"].as_string() == "gauge") {
        gauges[key] = m["value"];
      }
    }
    doc["counters"] = std::move(counters);
    doc["gauges"] = std::move(gauges);

    // Consume-latency histogram with exemplars: each occupied bucket can
    // name the session that most recently landed in it.
    if (const Histogram* h = ctx.registry->find_histogram("intellog_online_consume_us")) {
      doc["consume_latency_us"] = histogram_to_json(*h);
    }
  }

  if (!ctx.checkpoint_path.empty()) {
    common::Json cp = common::Json::object();
    cp["path"] = ctx.checkpoint_path;
    cp["age_s"] = ctx.checkpoint_age_s < 0 ? common::Json(nullptr)
                                           : common::Json(ctx.checkpoint_age_s);
    doc["checkpoint"] = std::move(cp);
  }
  if (!ctx.cursor.is_null()) doc["cursor"] = ctx.cursor;
  if (ctx.alerts) doc["alerts"] = ctx.alerts->to_json();

  if (ctx.profiler) {
    // Hot-frame attribution from the live profiling session, so `top`
    // shows where cycles and allocations go while the run is in flight.
    common::Json prof = common::Json::object();
    prof["sample_period_us"] = ctx.profiler->options().sample_period_us;
    prof["total_samples"] = ctx.profiler->total_samples();
    prof["total_alloc_bytes"] = ctx.profiler->total_alloc_bytes();
    common::Json hot = common::Json::array();
    for (const HotFrame& h : ctx.profiler->hot_frames(8)) {
      common::Json f = common::Json::object();
      f["path"] = h.path;
      f["self_samples"] = h.self_samples;
      f["self_pct"] = h.self_pct;
      f["alloc_bytes"] = h.alloc_bytes;
      hot.push_back(std::move(f));
    }
    prof["hot_frames"] = std::move(hot);
    doc["profile"] = std::move(prof);
  }
  return doc;
}

common::Json histogram_to_json(const Histogram& h) {
  common::Json hist = common::Json::object();
  hist["count"] = h.count();
  hist["sum"] = h.sum();
  common::Json buckets = common::Json::array();
  for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
    common::Json b = common::Json::object();
    b["le"] = i < h.bounds().size() ? common::Json(h.bounds()[i]) : common::Json("+Inf");
    b["count"] = h.bucket_count(i);
    if (const auto ex = h.exemplar(i)) {
      common::Json ej = common::Json::object();
      ej["value"] = ex->value;
      ej["session"] = ex->label;
      b["exemplar"] = std::move(ej);
    }
    buckets.push_back(std::move(b));
  }
  hist["buckets"] = std::move(buckets);
  return hist;
}

void write_json_atomic(const common::Json& doc, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) throw std::runtime_error("write_json_atomic: cannot open " + tmp);
    out << doc.dump(2) << "\n";
    out.flush();
    if (!out) throw std::runtime_error("write_json_atomic: write failed: " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

std::string render_top(const common::Json& status) {
  if (!status.is_object() || !status["kind"].is_string() ||
      status["kind"].as_string() != "intellog_status") {
    throw std::runtime_error("render_top: not an intellog_status document");
  }
  std::string out;

  // Unknown schema versions are a warning, not an error: an old `top`
  // pointed at a newer writer still renders the fields it understands.
  if (status["schema_version"].is_number() &&
      status["schema_version"].as_int() != kStatusSchemaVersion) {
    out += "warning: status schema_version " +
           std::to_string(status["schema_version"].as_int()) + " (this reader expects " +
           std::to_string(kStatusSchemaVersion) + "); rendering known fields only\n";
  }

  const common::Json& occ = status["occupancy"];
  const auto occ_int = [&occ](const char* key) {
    return occ.is_object() && occ[key].is_number() ? occ[key].as_int() : 0;
  };
  out += "intellog status — " + std::to_string(occ_int("open_sessions")) + " open session(s), " +
         std::to_string(occ_int("buffered_records")) + " buffered record(s)";
  if (occ_int("pending_evicted") > 0) {
    out += ", " + std::to_string(occ_int("pending_evicted")) + " pending evicted";
  }
  out += "\n";
  if (occ_int("max_sessions") > 0 || occ_int("max_buffered_records") > 0) {
    out += "limits: " + std::to_string(occ_int("max_sessions")) + " sessions, " +
           std::to_string(occ_int("max_buffered_records")) + " records (0 = unbounded)\n";
  }

  // Serve-mode statuses carry a per-tenant table on top of the aggregate
  // occupancy; render it before the session list so the multi-tenant shape
  // is visible at a glance.
  if (status["tenants"].is_array() && !status["tenants"].as_array().empty()) {
    out += "tenants:\n";
    for (const common::Json& t : status["tenants"].as_array()) {
      if (!t.is_object() || !t["tenant"].is_string()) continue;
      const auto t_int = [&t](const char* key) {
        return t[key].is_number() ? t[key].as_int() : 0;
      };
      out += "  " + t["tenant"].as_string();
      if (t["breaker"].is_string()) out += "  breaker " + t["breaker"].as_string();
      out += "  " + std::to_string(t_int("open_sessions")) + " open, " +
             std::to_string(t_int("buffered_records")) + " buffered, " +
             std::to_string(t_int("pending_files")) + " pending file(s)";
      if (t_int("restarts") > 0) out += ", " + std::to_string(t_int("restarts")) + " restart(s)";
      out += "\n";
      // End-to-end latency (spool arrival -> report write), with the
      // slowest session named from the highest-valued bucket exemplar.
      if (t["e2e_latency_ms"].is_object() && t["e2e_latency_ms"]["count"].as_int() > 0) {
        const common::Json& h = t["e2e_latency_ms"];
        std::string slow_id;
        double slow_v = -1.0;
        for (const common::Json& b : h["buckets"].as_array()) {
          if (!b["exemplar"].is_object()) continue;
          const double v = b["exemplar"]["value"].as_double();
          if (v > slow_v) {
            slow_v = v;
            slow_id = b["exemplar"]["session"].as_string();
          }
        }
        out += "    e2e latency (ms) — count " + std::to_string(h["count"].as_int()) +
               ", sum " + fmt_double(h["sum"].as_double());
        if (!slow_id.empty()) {
          out += ", slowest " + slow_id + " @ " + fmt_double(slow_v) + "ms";
        }
        out += "\n";
      }
    }
  }

  if (status["checkpoint"].is_object()) {
    const common::Json& cp = status["checkpoint"];
    out += "checkpoint: " + cp["path"].as_string();
    if (cp["age_s"].is_number()) out += " (age " + fmt_double(cp["age_s"].as_double()) + "s)";
    out += "\n";
  }

  if (status["sessions"].is_array() && !status["sessions"].as_array().empty()) {
    out += "sessions:\n";
    for (const common::Json& s : status["sessions"].as_array()) {
      out += "  " + s["container"].as_string() + "  " +
             std::to_string(s["buffered_records"].as_int()) + " records  active " +
             std::to_string(s["first_seen_ms"].as_int()) + ".." +
             std::to_string(s["last_seen_ms"].as_int()) + " ms\n";
    }
  }

  if (status["alerts"].is_array() && !status["alerts"].as_array().empty()) {
    std::size_t firing = 0, pending = 0;
    for (const common::Json& a : status["alerts"].as_array()) {
      firing += a["firing"].is_bool() && a["firing"].as_bool();
      pending += a["pending"].is_bool() && a["pending"].as_bool();
    }
    out += "alerts: " + std::to_string(firing) + " firing, " + std::to_string(pending) +
           " pending, " + std::to_string(status["alerts"].as_array().size()) + " rule(s)\n";
    for (const common::Json& a : status["alerts"].as_array()) {
      const bool is_firing = a["firing"].is_bool() && a["firing"].as_bool();
      const bool is_pending = a["pending"].is_bool() && a["pending"].as_bool();
      if (!is_firing && !is_pending) continue;
      out += std::string("  ") + (is_firing ? "FIRING " : "pending ") +
             a["rule"].as_string();
      if (a["description"].is_string()) out += "  " + a["description"].as_string();
      out += "\n";
    }
  }

  if (status["counters"].is_object() && !status["counters"].as_object().empty()) {
    out += "counters:\n";
    for (const auto& [key, v] : status["counters"].as_object()) {
      out += "  " + key + " = " + std::to_string(v.as_int()) + "\n";
    }
  }

  if (status["profile"].is_object()) {
    const common::Json& prof = status["profile"];
    out += "hot frames — " + std::to_string(prof["total_samples"].as_int()) +
           " samples, " + std::to_string(prof["total_alloc_bytes"].as_int()) +
           " alloc bytes:\n";
    if (prof["hot_frames"].is_array()) {
      for (const common::Json& f : prof["hot_frames"].as_array()) {
        char pct[16];
        std::snprintf(pct, sizeof(pct), "%5.1f%%",
                      f["self_pct"].is_number() ? f["self_pct"].as_double() : 0.0);
        out += std::string("  ") + pct + "  " +
               std::to_string(f["self_samples"].as_int()) + " samples  " +
               std::to_string(f["alloc_bytes"].as_int()) + " B  " +
               f["path"].as_string() + "\n";
      }
    }
  }

  if (status["consume_latency_us"].is_object()) {
    const common::Json& h = status["consume_latency_us"];
    out += "consume latency (us) — count " + std::to_string(h["count"].as_int()) + ", sum " +
           fmt_double(h["sum"].as_double()) + ":\n";
    for (const common::Json& b : h["buckets"].as_array()) {
      if (b["count"].as_int() == 0) continue;  // only occupied buckets
      const std::string le = b["le"].is_string() ? b["le"].as_string()
                                                 : fmt_double(b["le"].as_double());
      out += "  le " + le + "  " + std::to_string(b["count"].as_int());
      if (b["exemplar"].is_object()) {
        out += "  <- " + b["exemplar"]["session"].as_string() + " @ " +
               fmt_double(b["exemplar"]["value"].as_double()) + "us";
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace intellog::obs
