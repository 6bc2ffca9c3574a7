// chaos_soak — end-to-end robustness gate for the ingestion + detection path.
//
//   chaos_soak [--seed S] [--intensity p] [--workdir dir] [--jobs N] [--keep]
//
// One soak run, fully deterministic in --seed:
//   1. generate a clean spark dataset (simsys), train a model on it,
//   2. corrupt the dataset with LogStreamCorruptor (every fault kind on),
//   3. resilient-ingest the corrupted logs and check the hard invariants:
//        - ingest accounting balances (no line silently vanishes),
//        - nothing byte-identical to an intact original line is quarantined,
//        - detection runs to completion over the surviving sessions,
//   4. duplicates-only parity: with only re-delivery faults enabled, the
//      deduped record stream — and every anomaly report — must be
//      byte-identical to the clean run's,
//   5. kill-and-resume: consume half the corrupted stream, checkpoint, drop
//      the detector, restore from the file, consume the rest; the
//      concatenated report JSON must be byte-identical to an uninterrupted
//      run,
//   6. bounded state: with hard Limits and no explicit closes, the live
//      session/record caps must hold at every step (evictions flagged
//      degraded).
//
// Exit 0 when every invariant holds; 1 with a "CHAOS VIOLATION" line per
// failure otherwise. tools/ci.sh runs three seeds under ASan/UBSan.
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/intellog.hpp"
#include "core/online.hpp"
#include "logparse/formatter.hpp"
#include "logparse/log_io.hpp"
#include "simsys/corruptor.hpp"
#include "simsys/workload.hpp"
#include "numeric_flag.hpp"

using namespace intellog;

namespace {

int usage() {
  std::cerr << "usage: chaos_soak [--seed S] [--intensity p] [--workdir dir]"
               " [--jobs N] [--keep]\n";
  return 2;
}

bool g_failed = false;

void check(bool ok, const std::string& what) {
  if (ok) return;
  g_failed = true;
  std::cerr << "CHAOS VIOLATION: " << what << "\n";
}

std::string dump_reports(const std::vector<core::AnomalyReport>& reports) {
  std::string out;
  for (const auto& r : reports) {
    out += r.to_json().dump();
    out += '\n';
  }
  return out;
}

/// Streams every record of `sessions` through an OnlineDetector, closing
/// each session at its boundary, optionally checkpointing + "crashing" +
/// restoring at record `kill_at` (0 = uninterrupted). Returns the emitted
/// reports in order.
std::vector<core::AnomalyReport> stream_detect(const core::IntelLog& model,
                                               const std::vector<logparse::Session>& sessions,
                                               std::size_t kill_at,
                                               const std::string& ckpt_path) {
  std::vector<core::AnomalyReport> reports;
  auto online = std::make_unique<core::OnlineDetector>(model);
  std::size_t idx = 0;
  for (const auto& s : sessions) {
    for (const auto& rec : s.records) {
      online->consume(rec);
      if (++idx == kill_at) {
        online->checkpoint_file(ckpt_path);
        online.reset();  // the "crash": all in-memory state gone
        online = std::make_unique<core::OnlineDetector>(
            core::OnlineDetector::restore_file(model, ckpt_path));
      }
    }
    if (auto r = online->close_session(s.container_id)) reports.push_back(std::move(*r));
  }
  for (auto& r : online->close_all()) reports.push_back(std::move(r));
  return reports;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  double intensity = 0.02;
  std::size_t gen_jobs = 3;
  std::string workdir;
  bool keep = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(usage());
      return argv[++i];
    };
    if (arg == "--seed") seed = tools::numeric_flag<std::uint64_t>("chaos_soak", arg, next());
    else if (arg == "--intensity") intensity = tools::numeric_flag<double>("chaos_soak", arg, next());
    else if (arg == "--workdir") workdir = next();
    else if (arg == "--jobs") gen_jobs = tools::numeric_flag<std::size_t>("chaos_soak", arg, next());
    else if (arg == "--keep") keep = true;
    else return usage();
  }
  if (workdir.empty()) {
    workdir = (std::filesystem::temp_directory_path() /
               ("intellog_chaos_" + std::to_string(seed)))
                  .string();
  }
  std::filesystem::remove_all(workdir);
  const std::string clean_dir = workdir + "/clean";
  const std::string corrupt_dir = workdir + "/corrupt";
  const std::string dup_dir = workdir + "/dup_only";
  const std::string ckpt_path = workdir + "/checkpoint.json";

  // --- 1. clean dataset + model --------------------------------------------
  const simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen("spark", seed);
  const auto fmt = logparse::make_spark_formatter();
  for (std::size_t j = 0; j < gen_jobs; ++j) {
    const simsys::JobResult result = simsys::run_job(gen.training_job(), cluster, {});
    logparse::write_log_directory(*fmt, result.sessions,
                                  clean_dir + "/job_" + std::to_string(j));
  }
  const auto clean = logparse::read_log_directory_resilient(clean_dir);
  check(!clean.sessions.empty(), "clean dataset produced no sessions");
  core::IntelLog model;
  model.train(clean.sessions);

  // --- 2. corrupt (every fault kind) ---------------------------------------
  simsys::LogStreamCorruptor corruptor(simsys::CorruptionSpec::all(intensity), seed);
  const auto provenance = corruptor.corrupt_directory(clean_dir, corrupt_dir);
  std::map<std::string, const simsys::LogStreamCorruptor::Result*> by_stem;
  for (const auto& [stem, result] : provenance) by_stem[stem] = &result;
  std::cerr << "corruptor: " << corruptor.stats().to_json().dump() << "\n";

  // --- 3. resilient ingest of the corrupted stream -------------------------
  const auto corrupted = logparse::read_log_directory_resilient(corrupt_dir);
  const logparse::IngestStats& st = corrupted.stats;
  check(st.records + st.continuations + st.quarantined + st.duplicates_dropped ==
            st.lines_total,
        "ingest accounting does not balance: " + std::to_string(st.records) + " records + " +
            std::to_string(st.continuations) + " continuations + " +
            std::to_string(st.quarantined) + " quarantined + " +
            std::to_string(st.duplicates_dropped) + " deduped != " +
            std::to_string(st.lines_total) + " lines");
  // Intact lines parse cleanly, so the quarantine channel must only ever
  // hold mutated or injected lines (origin == -1 in the provenance map).
  for (const auto& q : corrupted.quarantined) {
    const std::string stem = std::filesystem::path(q.file).stem().string();
    const auto it = by_stem.find(stem);
    if (it == by_stem.end()) {
      check(false, "quarantined line from unknown stream " + q.file);
      continue;
    }
    const auto& origin = it->second->origin;
    if (q.line_no == 0 || q.line_no > origin.size()) {
      check(false, "quarantine line_no out of range: " + q.file + ":" +
                       std::to_string(q.line_no));
      continue;
    }
    check(origin[q.line_no - 1] == -1,
          "intact original line quarantined (" + q.reason + "): " + q.file + ":" +
              std::to_string(q.line_no));
  }

  // Detection must run to completion over whatever survived.
  std::size_t anomalous = 0;
  try {
    for (const auto& r : model.detect_batch(corrupted.sessions, 1)) {
      anomalous += r.anomalous();
    }
  } catch (const std::exception& e) {
    check(false, std::string("detection threw on corrupted input: ") + e.what());
  }

  // --- 4. duplicates-only parity -------------------------------------------
  // Re-delivery is the one fault kind the hardened path must fully undo:
  // with only duplicate_p enabled, the deduped record stream and every
  // report must be byte-identical to the clean run's.
  {
    simsys::CorruptionSpec dup_spec;
    dup_spec.duplicate_p = intensity * 4;
    simsys::LogStreamCorruptor dup(dup_spec, seed);
    dup.corrupt_directory(clean_dir, dup_dir);
    const auto dup_ingest = logparse::read_log_directory_resilient(dup_dir);
    check(dup.stats().duplicated > 0, "duplicates-only corruptor injected nothing");
    check(dup_ingest.stats.quarantined == 0, "duplicates-only stream quarantined lines");
    // corrupt_directory flattens the job_*/ layout, so compare by container
    // id rather than directory-scan order.
    const auto by_container = [](const std::vector<logparse::Session>& sessions) {
      std::map<std::string, const logparse::Session*> m;
      for (const auto& s : sessions) m[s.container_id] = &s;
      return m;
    };
    const auto clean_by_id = by_container(clean.sessions);
    const auto dup_by_id = by_container(dup_ingest.sessions);
    bool records_equal = clean_by_id.size() == dup_by_id.size();
    for (const auto& [id, cs] : clean_by_id) {
      if (!records_equal) break;
      const auto it = dup_by_id.find(id);
      if (it == dup_by_id.end()) {
        records_equal = false;
        break;
      }
      const auto& a = cs->records;
      const auto& b = it->second->records;
      records_equal = a.size() == b.size();
      for (std::size_t k = 0; records_equal && k < a.size(); ++k) {
        records_equal = a[k].timestamp_ms == b[k].timestamp_ms &&
                        a[k].content == b[k].content && a[k].level == b[k].level;
      }
    }
    check(records_equal, "deduped record stream differs from the clean stream");
    std::string clean_dump, dup_dump;
    for (const auto& [id, s] : clean_by_id) clean_dump += model.detect(*s).to_json().dump() + "\n";
    for (const auto& [id, s] : dup_by_id) dup_dump += model.detect(*s).to_json().dump() + "\n";
    check(clean_dump == dup_dump,
          "reports over the deduped stream differ from the clean reports");
  }

  // --- 5. kill-and-resume --------------------------------------------------
  std::size_t total_records = 0;
  for (const auto& s : corrupted.sessions) total_records += s.records.size();
  const auto uninterrupted = stream_detect(model, corrupted.sessions, 0, ckpt_path);
  const auto resumed = stream_detect(model, corrupted.sessions, total_records / 2, ckpt_path);
  check(dump_reports(uninterrupted) == dump_reports(resumed),
        "kill-and-resume final report is not byte-identical to the uninterrupted run");

  // --- 6. bounded state under no-close overload ----------------------------
  {
    core::OnlineDetector::Limits limits;
    limits.max_sessions = 4;
    limits.max_buffered_records = 2000;
    core::OnlineDetector bounded(model, 1, limits);
    std::size_t evicted = 0;
    bool caps_held = true, degraded_flagged = true;
    for (const auto& s : corrupted.sessions) {
      for (const auto& rec : s.records) {
        bounded.consume(rec);
        caps_held = caps_held && bounded.open_session_count() <= limits.max_sessions &&
                    bounded.total_buffered_records() <= limits.max_buffered_records;
      }
      for (const auto& r : bounded.take_evicted()) {
        ++evicted;
        degraded_flagged = degraded_flagged && r.degraded_reason == "lru";
      }
    }
    check(caps_held, "session/record caps exceeded during overload");
    check(evicted > 0, "overload produced no evictions (caps not exercised)");
    check(degraded_flagged, "evicted report missing degraded_reason=lru");
    bounded.close_all();
  }

  std::cerr << "soak seed=" << seed << ": " << st.lines_total << " corrupted lines -> "
            << st.records << " records, " << st.quarantined << " quarantined, "
            << st.duplicates_dropped << " deduped, " << anomalous << " / "
            << corrupted.sessions.size() << " sessions anomalous\n";
  if (!keep) std::filesystem::remove_all(workdir);
  if (g_failed) {
    std::cerr << "CHAOS SOAK FAILED (seed " << seed << ")\n";
    return 1;
  }
  std::cerr << "chaos soak passed (seed " << seed << ")\n";
  return 0;
}
