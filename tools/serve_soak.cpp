// serve_soak — chaos gate for the multi-tenant `intellog serve` daemon.
//
//   serve_soak [--seed S] [--workdir dir] [--jobs N] [--keep]
//
// One soak run, fully deterministic in --seed:
//   1. generate per-tenant spark spools + a shared model,
//   2. uninterrupted multi-tenant run (drain-on-empty): per-tenant
//      accounting must balance against an independent count of the spool's
//      records and session files,
//   3. kill-and-resume: the daemon is killed mid-flight (simulated crash:
//      no drain, no final checkpoint) at a seed-derived tick, then resumed;
//      final per-tenant accounting must be identical to the uninterrupted
//      run's — no double-counted sessions, no lost records,
//   4. corrupt-checkpoint recovery: a tampered tenant checkpoint is set
//      aside (renamed, counted) and the tenant replays to identical totals,
//   5. quarantine-storm isolation: one tenant's spool is flooded with
//      garbage (LogStreamCorruptor debris + raw binary files); only that
//      tenant's breaker may trip, every other tenant's accounting must be
//      untouched and its mean consume latency within 2x of a solo-run
//      baseline (with an absolute floor, so micro-latency noise cannot
//      fail the gate),
//   6. parse-bomb shedding: an oversized spool file is shed whole to the
//      shed ledger with provenance, trips the breaker, and the tenant's
//      clean files still complete after the breaker recloses,
//   7. wedged-shard supervision: a fault hook wedges one tenant's tick past
//      the heartbeat deadline; the watchdog must restart the shard
//      in-process and the tenant must still reach the uninterrupted totals.
//
// Exit 0 when every invariant holds; 1 with a "SERVE VIOLATION" line per
// failure otherwise. tools/ci.sh runs three seeds under ASan/UBSan.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/intellog.hpp"
#include "core/model_io.hpp"
#include "logparse/formatter.hpp"
#include "logparse/log_io.hpp"
#include "obs/metrics.hpp"
#include "serve/daemon.hpp"
#include "simsys/corruptor.hpp"
#include "simsys/workload.hpp"
#include "numeric_flag.hpp"

using namespace intellog;
namespace fs = std::filesystem;

namespace {

int usage() {
  std::cerr << "usage: serve_soak [--seed S] [--workdir dir] [--jobs N] [--keep]\n";
  return 2;
}

bool g_failed = false;

void check(bool ok, const std::string& what) {
  if (ok) return;
  g_failed = true;
  std::cerr << "SERVE VIOLATION: " << what << "\n";
}

/// The integer (replay-deterministic) half of the accounting; latency sums
/// are wall-clock and legitimately differ between runs.
bool accounting_eq(const serve::TenantAccounting& a, const serve::TenantAccounting& b,
                   std::string* why) {
  const auto diff = [&](const char* field, std::uint64_t x, std::uint64_t y) {
    if (x == y) return false;
    *why = std::string(field) + ": " + std::to_string(x) + " != " + std::to_string(y);
    return true;
  };
  return !(diff("records_admitted", a.records_admitted, b.records_admitted) ||
           diff("lines_seen", a.lines_seen, b.lines_seen) ||
           diff("lines_quarantined", a.lines_quarantined, b.lines_quarantined) ||
           diff("sessions_closed", a.sessions_closed, b.sessions_closed) ||
           diff("sessions_anomalous", a.sessions_anomalous, b.sessions_anomalous) ||
           diff("files_done", a.files_done, b.files_done) ||
           diff("files_shed", a.files_shed, b.files_shed) ||
           diff("bytes_shed", a.bytes_shed, b.bytes_shed) ||
           diff("breaker_trips", a.breaker_trips, b.breaker_trips));
}

double mean_consume_us(const serve::TenantAccounting& a) {
  return a.records_admitted == 0 ? 0.0
                                 : a.consume_us_sum / static_cast<double>(a.records_admitted);
}

/// Writes one tenant spool: `gen_jobs` spark jobs' sessions as flat
/// <container>.log files, plus one zero-byte session (a container that died
/// before logging — the empty-session detect path).
void make_spool(const std::string& dir, std::uint64_t seed, std::size_t gen_jobs) {
  fs::create_directories(dir);
  const simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen("spark", seed);
  const auto fmt = logparse::make_spark_formatter();
  for (std::size_t j = 0; j < gen_jobs; ++j) {
    const simsys::JobResult result = simsys::run_job(gen.training_job(), cluster, {});
    logparse::write_log_directory(*fmt, result.sessions, dir);
  }
  std::ofstream(dir + "/zz_empty_container.log");  // zero bytes
}

/// Independent ground truth for one spool directory, computed with the
/// same resilient reader the shard uses.
struct SpoolTruth {
  std::uint64_t files = 0;
  std::uint64_t records = 0;
  std::uint64_t sessions = 0;  ///< files that produce a session (records, or empty file)
};

SpoolTruth spool_truth(const std::string& dir) {
  SpoolTruth t;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (!e.is_regular_file() || e.path().extension() != ".log") continue;
    const std::string name = e.path().filename().string();
    if (!name.empty() && name[0] == '.') continue;
    ++t.files;
    const auto ingest = logparse::read_session_file_resilient(e.path().string());
    t.records += ingest.session.records.size();
    if (!ingest.session.records.empty() || fs::file_size(e.path()) == 0) ++t.sessions;
  }
  return t;
}

void copy_tree(const std::string& src, const std::string& dst) {
  fs::create_directories(dst);
  fs::copy(src, dst, fs::copy_options::recursive | fs::copy_options::overwrite_existing);
}

serve::ServeOptions base_options(const std::string& root, const std::string& model_path) {
  serve::ServeOptions opt;
  opt.root = root;
  opt.model_path = model_path;
  opt.jobs = 2;
  opt.poll_ms = 1;
  opt.checkpoint_every_ticks = 2;
  opt.drain_on_empty = true;
  opt.handle_signals = false;  // the soak drives stop conditions itself
  opt.max_ticks = 500;         // safety bound; every phase asserts it drained early
  opt.shard.quotas.max_records_per_tick = 700;  // several ticks per tenant
  opt.shard.quotas.max_files_per_tick = 4;      // keeps storm ticks garbage-dense
  return opt;
}

serve::ServeSummary run_daemon(const serve::ServeOptions& opt) {
  serve::ServeDaemon daemon(opt);
  return daemon.run();
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::size_t gen_jobs = 2;
  std::string workdir;
  bool keep = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(usage());
      return argv[++i];
    };
    if (arg == "--seed") seed = tools::numeric_flag<std::uint64_t>("serve_soak", arg, next());
    else if (arg == "--workdir") workdir = next();
    else if (arg == "--jobs") gen_jobs = tools::numeric_flag<std::size_t>("serve_soak", arg, next());
    else if (arg == "--keep") keep = true;
    else return usage();
  }
  if (workdir.empty()) {
    workdir = (fs::temp_directory_path() / ("intellog_serve_soak_" + std::to_string(seed)))
                  .string();
  }
  fs::remove_all(workdir);
  fs::create_directories(workdir);

  obs::MetricsRegistry registry;
  obs::set_registry(&registry);

  // --- 1. spools + model -----------------------------------------------------
  const std::vector<std::string> tenant_names = {"alpha", "beta", "gamma"};
  const std::string seed_root = workdir + "/seed_spools";
  std::map<std::string, SpoolTruth> truth;
  for (std::size_t i = 0; i < tenant_names.size(); ++i) {
    make_spool(seed_root + "/" + tenant_names[i], seed * 10 + i, gen_jobs);
  }
  const std::string model_path = workdir + "/model.json";
  {
    const auto train = logparse::read_log_directory_resilient(seed_root);
    check(!train.sessions.empty(), "seed spools produced no sessions");
    core::IntelLog model;
    model.train(train.sessions);
    core::save_model_file(model, model_path);
  }
  for (const auto& t : tenant_names) truth[t] = spool_truth(seed_root + "/" + t);

  // --- 2. uninterrupted multi-tenant run ------------------------------------
  const std::string root_base = workdir + "/root_base";
  copy_tree(seed_root, root_base);
  const auto base = run_daemon(base_options(root_base, model_path));
  check(!base.killed && base.ticks < 500, "uninterrupted run did not drain");
  for (const auto& t : tenant_names) {
    const auto& acc = base.tenants.at(t);
    const SpoolTruth& tr = truth.at(t);
    check(acc.records_admitted == tr.records,
          t + ": admitted " + std::to_string(acc.records_admitted) + " records, spool holds " +
              std::to_string(tr.records));
    check(acc.sessions_closed == tr.sessions,
          t + ": closed " + std::to_string(acc.sessions_closed) + " sessions, spool holds " +
              std::to_string(tr.sessions));
    check(acc.files_done == tr.files,
          t + ": finished " + std::to_string(acc.files_done) + " files, spool holds " +
              std::to_string(tr.files));
    check(acc.files_shed == 0 && acc.breaker_trips == 0,
          t + ": clean spool shed files or tripped the breaker");
  }

  // --- 3. kill-and-resume ----------------------------------------------------
  const std::string root_kill = workdir + "/root_kill";
  copy_tree(seed_root, root_kill);
  auto kill_opt = base_options(root_kill, model_path);
  kill_opt.kill_after_ticks = 1 + seed % 5;  // kill mid-flight, seed-derived
  const auto killed = run_daemon(kill_opt);
  check(killed.killed, "kill_after_ticks did not kill the daemon");
  const auto resumed = run_daemon(base_options(root_kill, model_path));
  check(!resumed.killed && resumed.ticks < 500, "resumed run did not drain");
  for (const auto& t : tenant_names) {
    std::string why;
    check(accounting_eq(resumed.tenants.at(t), base.tenants.at(t), &why),
          t + ": kill-and-resume accounting differs from uninterrupted run (" + why + ")");
  }

  // --- 4. corrupt-checkpoint recovery ---------------------------------------
  {
    const std::string ckpt = serve::ServeDaemon::checkpoint_path(root_kill + "/alpha");
    check(fs::exists(ckpt), "drained run left no checkpoint for alpha");
    {
      std::fstream f(ckpt, std::ios::in | std::ios::out);
      f.seekp(static_cast<std::streamoff>(fs::file_size(ckpt) / 2));
      f.put('!');  // flip a byte mid-document: the checksum must catch it
    }
    const auto recovered = run_daemon(base_options(root_kill, model_path));
    check(recovered.checkpoints_corrupt == 1,
          "tampered checkpoint was not detected (corrupt count " +
              std::to_string(recovered.checkpoints_corrupt) + ")");
    check(fs::exists(ckpt + ".corrupt"), "tampered checkpoint was not set aside");
    std::string why;
    check(accounting_eq(recovered.tenants.at("alpha"), base.tenants.at("alpha"), &why),
          "alpha: replay after corrupt checkpoint differs from uninterrupted run (" + why +
              ")");
  }

  // --- 5. quarantine-storm isolation ----------------------------------------
  // Solo baselines first: each quiet tenant alone, same knobs, for a
  // latency yardstick that already includes this machine's noise.
  std::map<std::string, double> solo_us;
  for (const auto& t : tenant_names) {
    const std::string solo_root = workdir + "/solo_" + t;
    copy_tree(seed_root + "/" + t, solo_root + "/" + t);
    const auto solo = run_daemon(base_options(solo_root, model_path));
    solo_us[t] = mean_consume_us(solo.tenants.at(t));
  }

  const std::string root_storm = workdir + "/root_storm";
  copy_tree(seed_root, root_storm);
  {
    // Flood gamma: corrupted copies of its own spool plus raw binary files.
    const std::string noisy = root_storm + "/gamma";
    simsys::LogStreamCorruptor corruptor(simsys::CorruptionSpec::all(0.8), seed);
    corruptor.corrupt_directory(seed_root + "/gamma", workdir + "/storm_debris");
    for (const auto& e : fs::directory_iterator(workdir + "/storm_debris")) {
      if (e.path().extension() != ".log") continue;
      fs::copy(e.path(), noisy + "/storm_" + e.path().filename().string(),
               fs::copy_options::overwrite_existing);
    }
    // Enough contiguous (by sort order) garbage files that at least one
    // tick reads nothing but garbage, whatever the record budget left over.
    for (int i = 0; i < 8; ++i) {
      std::ofstream out(noisy + "/garbage_" + std::to_string(i) + ".log");
      for (int l = 0; l < 300; ++l) out << "\x01\x02\xfe garbage \x03 line \xff\n";
    }
  }
  const auto storm = run_daemon(base_options(root_storm, model_path));
  check(!storm.killed && storm.ticks < 500, "storm run did not drain");
  check(storm.tenants.at("gamma").breaker_trips >= 1,
        "garbage flood did not trip gamma's breaker");
  check(fs::exists(root_storm + "/gamma/.quarantine.jsonl"),
        "storm left no quarantine ledger for gamma");
  for (const auto& t : {std::string("alpha"), std::string("beta")}) {
    const auto& acc = storm.tenants.at(t);
    check(acc.breaker_trips == 0, t + ": quiet tenant's breaker tripped during the storm");
    std::string why;
    check(accounting_eq(acc, base.tenants.at(t), &why),
          t + ": accounting degraded by another tenant's storm (" + why + ")");
    // Isolation in latency terms: within 2x of the solo baseline, with an
    // absolute floor so sub-microsecond baselines don't amplify noise.
    const double solo = std::max(solo_us.at(t), 50.0);
    const double multi = mean_consume_us(acc);
    check(multi <= 2.0 * solo,
          t + ": consume latency " + std::to_string(multi) + "us vs solo baseline " +
              std::to_string(solo_us.at(t)) + "us (floor 50us, budget 2x)");
  }

  // --- 6. parse-bomb shedding ------------------------------------------------
  {
    const std::string root_bomb = workdir + "/root_bomb";
    copy_tree(seed_root + "/alpha", root_bomb + "/bomb");
    // The guard must sit above the largest legitimate session file, and the
    // bomb clearly above the guard.
    std::uint64_t largest_clean = 0;
    for (const auto& e : fs::directory_iterator(root_bomb + "/bomb")) {
      if (e.is_regular_file()) largest_clean = std::max(largest_clean, fs::file_size(e));
    }
    const std::uint64_t guard = largest_clean + 64 * 1024;
    {
      std::ofstream out(root_bomb + "/bomb/aa_bomb.log");  // sorts first
      std::uint64_t written = 0;
      for (int i = 0; written < guard + 128 * 1024; ++i) {
        const std::string line = "payload line " + std::to_string(i) + " padding padding\n";
        out << line;
        written += line.size();
      }
    }
    auto bomb_opt = base_options(root_bomb, model_path);
    bomb_opt.shard.quotas.max_file_bytes = guard;
    const auto bomb = run_daemon(bomb_opt);
    check(!bomb.killed && bomb.ticks < 500, "parse-bomb run did not drain");
    const auto& acc = bomb.tenants.at("bomb");
    check(acc.files_shed == 1 && acc.bytes_shed > guard,
          "oversized file was not shed whole (shed " + std::to_string(acc.files_shed) +
              " files, " + std::to_string(acc.bytes_shed) + " bytes)");
    check(acc.breaker_trips >= 1, "parse-bomb shed did not trip the breaker");
    check(acc.records_admitted == base.tenants.at("alpha").records_admitted &&
              acc.sessions_closed == base.tenants.at("alpha").sessions_closed,
          "bomb tenant's clean files did not complete after the breaker reclosed");
    std::ifstream shed(root_bomb + "/bomb/.shed.jsonl");
    std::string shed_line;
    std::getline(shed, shed_line);
    check(shed_line.find("parse-bomb") != std::string::npos &&
              shed_line.find("aa_bomb.log") != std::string::npos,
          "shed ledger is missing the parse-bomb provenance: " + shed_line);
  }

  // --- 7. wedged-shard supervision ------------------------------------------
  {
    const std::string root_wedge = workdir + "/root_wedge";
    copy_tree(seed_root, root_wedge);
    auto wedge_opt = base_options(root_wedge, model_path);
    // The deadline must sit far above a healthy tick even under ASan/UBSan
    // (sanitized detect ticks run tens-of-ms), and the wedge far above the
    // deadline so the miss is unambiguous on a loaded CI runner.
    wedge_opt.heartbeat_timeout_ms = 750;
    wedge_opt.fault_hook = [](const std::string& tenant, std::uint64_t tick) {
      if (tenant == "beta" && tick == 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3000));
      }
    };
    const auto wedge = run_daemon(wedge_opt);
    check(!wedge.killed && wedge.ticks < 500, "wedge run did not drain");
    check(wedge.restarts.at("beta") >= 1, "watchdog did not restart the wedged shard");
    check(wedge.restarts.at("alpha") == 0 && wedge.restarts.at("gamma") == 0,
          "watchdog restarted healthy shards");
    std::string why;
    check(accounting_eq(wedge.tenants.at("beta"), base.tenants.at("beta"), &why),
          "beta: accounting after wedge + in-process restart differs (" + why + ")");
  }

  obs::set_registry(nullptr);

  std::cerr << "serve soak seed=" << seed << ": base " << base.ticks << " ticks, "
            << base.checkpoints_written << " checkpoints; storm tripped gamma "
            << storm.tenants.at("gamma").breaker_trips << "x\n";
  if (!keep) fs::remove_all(workdir);
  if (g_failed) {
    std::cerr << "SERVE SOAK FAILED (seed " << seed << ")\n";
    return 1;
  }
  std::cerr << "serve soak passed (seed " << seed << ")\n";
  return 0;
}
