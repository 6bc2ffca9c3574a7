// Unit tests for the `intellog serve` building blocks: TenantShard admission
// and backpressure, the circuit breaker, checkpoint/restore, the stop-signal
// flag, the stock serve alert rules, and a small end-to-end ServeDaemon run
// (the heavyweight chaos coverage lives in tools/serve_soak).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/intellog.hpp"
#include "core/model_io.hpp"
#include "logparse/formatter.hpp"
#include "logparse/log_io.hpp"
#include "obs/export/status.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries/alerts.hpp"
#include "obs/timeseries/timeseries.hpp"
#include "serve/daemon.hpp"
#include "serve/signals.hpp"
#include "serve/tenant.hpp"
#include "simsys/workload.hpp"

namespace fs = std::filesystem;
using namespace intellog;

namespace {

/// Writes one spool of spark sessions (flat `<container>.log` files).
void make_spool(const std::string& dir, std::uint64_t seed) {
  fs::create_directories(dir);
  const simsys::ClusterSpec cluster;
  simsys::WorkloadGenerator gen("spark", seed);
  const auto fmt = logparse::make_spark_formatter();
  const simsys::JobResult result = simsys::run_job(gen.training_job(), cluster, {});
  logparse::write_log_directory(*fmt, result.sessions, dir);
}

/// First line of any .log file in `dir` — a format-detectable header.
std::string first_log_line(const std::string& dir) {
  for (const auto& e : fs::directory_iterator(dir)) {
    if (!e.is_regular_file() || e.path().extension() != ".log") continue;
    std::ifstream in(e.path());
    std::string line;
    if (std::getline(in, line) && !line.empty()) return line;
  }
  ADD_FAILURE() << "no log line found in " << dir;
  return "";
}

/// A file whose format detects (via the valid header line) but whose body is
/// binary junk: every body line quarantines, which is what drives the
/// breaker tests. (A file with NO detectable format is skipped whole with a
/// single forensic quarantine sample — that path cannot storm the breaker.)
void write_garbage_file(const std::string& path, const std::string& header,
                        std::size_t lines) {
  std::ofstream out(path, std::ios::binary);
  out << header << "\n";
  for (std::size_t i = 0; i < lines; ++i) {
    out << "\x01\x02\xfe garbage payload " << i << " \xff\xff\n";
  }
}

struct SpoolTruth {
  std::uint64_t files = 0;
  std::uint64_t records = 0;
  std::uint64_t sessions = 0;
};

SpoolTruth spool_truth(const std::string& dir) {
  SpoolTruth t;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (!e.is_regular_file() || e.path().extension() != ".log") continue;
    ++t.files;
    const auto ingest = logparse::read_session_file_resilient(e.path().string());
    t.records += ingest.session.records.size();
    if (!ingest.session.records.empty() || fs::file_size(e.path()) == 0) ++t.sessions;
  }
  return t;
}

void expect_accounting_eq(const serve::TenantAccounting& a, const serve::TenantAccounting& b) {
  EXPECT_EQ(a.records_admitted, b.records_admitted);
  EXPECT_EQ(a.lines_seen, b.lines_seen);
  EXPECT_EQ(a.lines_quarantined, b.lines_quarantined);
  EXPECT_EQ(a.sessions_closed, b.sessions_closed);
  EXPECT_EQ(a.sessions_anomalous, b.sessions_anomalous);
  EXPECT_EQ(a.files_done, b.files_done);
  EXPECT_EQ(a.files_shed, b.files_shed);
  EXPECT_EQ(a.bytes_shed, b.bytes_shed);
  EXPECT_EQ(a.breaker_trips, b.breaker_trips);
}

/// What a drain produced: shed records, and the container ids of sessions
/// closed (in closing order) and reported.
struct DrainLog {
  std::vector<serve::ShedRecord> shed;
  std::vector<std::string> closed;
  std::vector<std::string> reported;
};

/// Ticks until the shard reports an empty backlog and no open sessions (or
/// the safety bound trips, which fails the calling test).
DrainLog drain(serve::TenantShard& shard, std::size_t max_ticks = 200) {
  DrainLog log;
  for (std::size_t ticks = 0; ticks < max_ticks; ++ticks) {
    auto r = shard.tick();
    for (auto& s : r.shed) log.shed.push_back(std::move(s));
    for (const auto& [id, ms] : r.session_ingress_ms) log.closed.push_back(id);
    for (const auto& rep : r.reports) log.reported.push_back(rep.container_id);
    if (r.pending_files == 0 && shard.open_sessions() == 0 &&
        shard.breaker_state() == serve::BreakerState::Closed) {
      return log;
    }
  }
  ADD_FAILURE() << "shard did not drain within " << max_ticks << " ticks";
  return log;
}

class TenantShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("intellog_test_serve_") + info->name()))
               .string();
    fs::remove_all(dir_);
    make_spool(dir_, 7);
    truth_ = spool_truth(dir_);
    model_.train(logparse::read_log_directory_resilient(dir_).sessions);
  }
  void TearDown() override { fs::remove_all(dir_); }

  serve::TenantShard::Options small_budget_options() const {
    serve::TenantShard::Options opt;
    opt.quotas.max_records_per_tick = 60;  // forces several ticks per spool
    opt.quotas.max_files_per_tick = 2;
    return opt;
  }

  std::string dir_;
  SpoolTruth truth_;
  core::IntelLog model_;
};

TEST_F(TenantShardTest, AdmissionBalancesAgainstSpoolTruth) {
  serve::TenantShard shard("t", dir_, model_, small_budget_options(), 1);
  drain(shard);
  const auto& acc = shard.accounting();
  EXPECT_EQ(acc.records_admitted, truth_.records);
  EXPECT_EQ(acc.sessions_closed, truth_.sessions);
  EXPECT_EQ(acc.files_done, truth_.files);
  EXPECT_EQ(acc.files_shed, 0u);
  EXPECT_EQ(acc.breaker_trips, 0u);
}

TEST_F(TenantShardTest, RecordQuotaIsLosslessBackpressure) {
  auto opt = small_budget_options();
  opt.quotas.max_records_per_tick = 25;
  serve::TenantShard shard("t", dir_, model_, opt, 1);
  std::size_t ticks = 0;
  std::uint64_t total = 0;
  while (ticks < 400) {
    const auto r = shard.tick();
    ++ticks;
    EXPECT_LE(r.records_admitted, 25u) << "tick overran the record quota";
    total += r.records_admitted;
    if (r.pending_files == 0 && shard.open_sessions() == 0) break;
  }
  // Backpressure defers work, it never drops it.
  EXPECT_EQ(total, truth_.records);
  EXPECT_GE(ticks, truth_.records / 25);  // the quota actually throttled
}

TEST_F(TenantShardTest, CheckpointRestoreResumesToIdenticalTotals) {
  const auto opt = small_budget_options();
  serve::TenantShard full("t", dir_, model_, opt, 1);
  drain(full);

  serve::TenantShard partial("t", dir_, model_, opt, 1);
  partial.tick();
  partial.tick();  // mid-flight: cursors + open sessions + partial accounting
  const common::Json cp = partial.checkpoint();

  serve::TenantShard resumed("t", dir_, model_, opt, 2);
  resumed.restore(cp);
  expect_accounting_eq(resumed.accounting(), partial.accounting());
  drain(resumed);
  // Resume replays the remaining spool exactly once: totals match the
  // uninterrupted shard's, no double-counted sessions.
  expect_accounting_eq(resumed.accounting(), full.accounting());
}

TEST_F(TenantShardTest, RestoreRejectsBadDocumentsAndStaysFresh) {
  serve::TenantShard src("t", dir_, model_, {}, 1);
  src.tick();
  const common::Json good = src.checkpoint();

  serve::TenantShard shard("t", dir_, model_, {}, 1);

  common::Json tampered = good;
  tampered["accounting"]["records_admitted"] = 999999;  // no checksum restamp
  EXPECT_THROW(
      {
        try {
          shard.restore(tampered);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
          throw;
        }
      },
      std::runtime_error);

  common::Json wrong_kind = good;
  wrong_kind["kind"] = "intellog_checkpoint";
  EXPECT_THROW(shard.restore(wrong_kind), std::runtime_error);

  common::Json future = good;
  future["version"] = serve::TenantShard::kCheckpointVersion + 1;
  EXPECT_THROW(
      {
        try {
          shard.restore(future);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
          throw;
        }
      },
      std::runtime_error);

  // Every failed restore left the shard untouched: fresh accounting, and a
  // normal drain still balances.
  EXPECT_EQ(shard.accounting().records_admitted, 0u);
  drain(shard);
  EXPECT_EQ(shard.accounting().records_admitted, truth_.records);
}

TEST_F(TenantShardTest, GarbageFloodTripsBreakerThenProbeRecloses) {
  // A fresh spool of pure garbage: first tick sees >50% quarantined lines.
  const std::string storm = dir_ + "_storm";
  fs::create_directories(storm);
  const std::string header = first_log_line(dir_);
  for (int i = 0; i < 3; ++i) {
    write_garbage_file(storm + "/garbage_" + std::to_string(i) + ".log", header, 100);
  }
  serve::TenantShard::Options opt;
  opt.breaker.open_ticks = 2;
  serve::TenantShard shard("t", storm, model_, opt, 1);

  const auto r1 = shard.tick();
  EXPECT_TRUE(r1.breaker_tripped);
  EXPECT_EQ(shard.breaker_state(), serve::BreakerState::Open);
  EXPECT_EQ(shard.accounting().breaker_trips, 1u);
  EXPECT_GT(shard.accounting().lines_quarantined, 0u);

  // While open, admission is paused (lossless): no records move.
  const auto r2 = shard.tick();
  EXPECT_EQ(r2.records_admitted, 0u);
  EXPECT_EQ(r2.lines_seen, 0u);

  // After open_ticks the breaker half-opens; a clean probe file closes it.
  shard.tick();
  EXPECT_EQ(shard.breaker_state(), serve::BreakerState::HalfOpen);
  make_spool(storm, 11);
  while (shard.breaker_state() != serve::BreakerState::Closed) shard.tick();
  EXPECT_GT(shard.accounting().records_admitted, 0u);
  fs::remove_all(storm);
}

TEST_F(TenantShardTest, ParseBombIsShedWholeWithProvenance) {
  std::uint64_t largest_clean = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    if (e.is_regular_file()) largest_clean = std::max<std::uint64_t>(largest_clean, e.file_size());
  }
  const std::uint64_t guard = largest_clean + 4096;
  {
    std::ofstream bomb(dir_ + "/aa_bomb.log", std::ios::binary);
    const std::string line(256, 'x');
    for (std::uint64_t written = 0; written <= guard + 8192; written += line.size() + 1) {
      bomb << line << "\n";
    }
  }
  auto opt = small_budget_options();
  opt.quotas.max_file_bytes = guard;
  serve::TenantShard shard("t", dir_, model_, opt, 1);

  serve::TickResult first = shard.tick();
  ASSERT_EQ(first.shed.size(), 1u);
  EXPECT_EQ(first.shed[0].reason, "parse-bomb");
  EXPECT_NE(first.shed[0].file.find("aa_bomb.log"), std::string::npos);
  EXPECT_GT(first.shed[0].bytes, guard);
  EXPECT_TRUE(first.breaker_tripped);

  // The clean files behind the bomb still complete once the breaker recloses.
  for (int i = 0; i < 200 && shard.open_sessions() + shard.tick().pending_files > 0; ++i) {
  }
  const auto& acc = shard.accounting();
  EXPECT_EQ(acc.files_shed, 1u);
  EXPECT_EQ(acc.records_admitted, truth_.records);
  EXPECT_EQ(acc.sessions_closed, truth_.sessions);
}

/// Spool file names in service (name) order.
std::vector<std::string> spool_names(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".log") {
      names.push_back(e.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Largest file in the spool: a parse-bomb cap just above it admits every
/// clean file.
std::uint64_t largest_file(const std::string& dir) {
  std::uint64_t largest = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) largest = std::max<std::uint64_t>(largest, e.file_size());
  }
  return largest;
}

/// Appends `bytes` of filler lines to `path` (creating it when absent).
void append_filler(const std::string& path, std::uint64_t bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  const std::string line(255, 'x');
  for (std::uint64_t written = 0; written < bytes; written += line.size() + 1) {
    out << line << "\n";
  }
}

TEST_F(TenantShardTest, ParseBombBehindTheBacklogIsShedOnTheTickItIsListed) {
  const std::uint64_t guard = largest_file(dir_) + 4096;
  auto opt = small_budget_options();
  opt.quotas.max_files_per_tick = 1;
  opt.quotas.max_file_bytes = guard;
  const auto write_bomb = [&](const std::string& name) {
    append_filler(dir_ + "/bomb.tmp", guard + 8192);
    fs::rename(dir_ + "/bomb.tmp", dir_ + "/" + name);
  };
  // Both bombs sort after every clean file, so admission would reach them
  // last; the shed pass finds them as soon as a listing measures them.
  write_bomb("zz_bomb_1.log");
  serve::TenantShard shard("t", dir_, model_, opt, 1);
  const serve::TickResult first = shard.tick();
  ASSERT_EQ(first.shed.size(), 1u);
  EXPECT_EQ(first.shed[0].file, dir_ + "/zz_bomb_1.log");
  while (shard.breaker_state() != serve::BreakerState::Closed) shard.tick();

  write_bomb("zz_bomb_2.log");
  const serve::TickResult later = shard.tick();
  ASSERT_EQ(later.shed.size(), 1u);
  EXPECT_EQ(later.shed[0].file, dir_ + "/zz_bomb_2.log");
  EXPECT_EQ(later.shed[0].reason, "parse-bomb");
}

TEST_F(TenantShardTest, VanishedFileIsNeitherReportedNorCountedDone) {
  const auto names = spool_names(dir_);
  ASSERT_GE(names.size(), 3u);
  serve::TenantShard::Options opt;
  opt.quotas.max_files_per_tick = 1;
  serve::TenantShard shard("t", dir_, model_, opt, 1);
  const auto first = shard.tick();
  ASSERT_EQ(first.pending_files, names.size() - 1);

  // Listed on the first tick, never opened: the producer takes it back.
  const std::string gone = names.back();
  const std::string gone_id = fs::path(gone).stem().string();
  const auto gone_truth = logparse::read_session_file_resilient(dir_ + "/" + gone);
  ASSERT_FALSE(gone_truth.session.records.empty());
  fs::remove(dir_ + "/" + gone);

  const auto second = shard.tick();
  EXPECT_EQ(second.pending_files, names.size() - 3) << "the deleted file stays pending";
  const DrainLog log = drain(shard);
  EXPECT_EQ(std::count(log.reported.begin(), log.reported.end(), gone_id), 0)
      << "a vanished file was reported as a session";
  EXPECT_EQ(std::count(log.closed.begin(), log.closed.end(), gone_id), 0);
  const auto& acc = shard.accounting();
  EXPECT_EQ(acc.files_done, truth_.files - 1);
  EXPECT_EQ(acc.sessions_closed, truth_.sessions - 1);
  EXPECT_EQ(acc.records_admitted, truth_.records - gone_truth.session.records.size());
  EXPECT_EQ(acc.files_shed, 0u);
}

TEST_F(TenantShardTest, ListedFileRenamedOverByABombIsShedAsParseBomb) {
  const auto names = spool_names(dir_);
  const std::uint64_t guard = largest_file(dir_) + 4096;
  auto opt = small_budget_options();
  opt.quotas.max_files_per_tick = 1;
  opt.quotas.max_file_bytes = guard;
  serve::TenantShard shard("t", dir_, model_, opt, 1);
  shard.tick();

  // The spool contract's own move: a finished file renamed in, here over a
  // name the shard has already listed (and measured) but not yet opened.
  const std::string target = dir_ + "/" + names.back();
  const auto replaced = logparse::read_session_file_resilient(target);
  append_filler(dir_ + "/bomb.tmp", guard + 8192);
  fs::rename(dir_ + "/bomb.tmp", target);

  const DrainLog log = drain(shard);
  ASSERT_EQ(log.shed.size(), 1u);
  EXPECT_EQ(log.shed[0].reason, "parse-bomb");
  EXPECT_EQ(log.shed[0].file, target);
  EXPECT_GT(log.shed[0].bytes, guard);
  const auto& acc = shard.accounting();
  EXPECT_EQ(acc.files_shed, 1u);
  EXPECT_EQ(acc.files_done, truth_.files - 1);
  EXPECT_EQ(acc.records_admitted, truth_.records - replaced.session.records.size());
}

TEST_F(TenantShardTest, ListedFileGrownInPlaceIsShedAsParseBombAtOpen) {
  const auto names = spool_names(dir_);
  const std::uint64_t guard = largest_file(dir_) + 4096;
  auto opt = small_budget_options();
  opt.quotas.max_files_per_tick = 1;
  opt.quotas.max_file_bytes = guard;
  serve::TenantShard shard("t", dir_, model_, opt, 1);
  shard.tick();

  // Same inode, new size: the listing keeps its first measurement, so only
  // the stat at open can catch the growth.
  const std::string target = dir_ + "/" + names.back();
  const auto grown = logparse::read_session_file_resilient(target);
  append_filler(target, guard + 8192);

  const DrainLog log = drain(shard);
  ASSERT_EQ(log.shed.size(), 1u);
  EXPECT_EQ(log.shed[0].reason, "parse-bomb");
  EXPECT_EQ(log.shed[0].file, target);
  EXPECT_GT(log.shed[0].bytes, guard);
  const auto& acc = shard.accounting();
  EXPECT_EQ(acc.files_shed, 1u);
  EXPECT_EQ(acc.records_admitted, truth_.records - grown.session.records.size());
}

TEST_F(TenantShardTest, NewEarlierNameIsAdmittedInNameOrder) {
  serve::TenantShard::Options opt;
  opt.quotas.max_files_per_tick = 1;
  opt.quotas.max_records_per_tick = std::size_t{1} << 30;  // one whole file per tick
  serve::TenantShard shard("t", dir_, model_, opt, 1);
  shard.tick();

  // A producer renames in a file whose name sorts before everything the
  // shard has already listed.
  const auto names = spool_names(dir_);
  fs::copy_file(dir_ + "/" + names.back(), dir_ + "/aaa_early.log");

  // A fresh shard resumed from the same state lists the spool from scratch.
  serve::TenantShard fresh("t", dir_, model_, opt, 2);
  fresh.restore(shard.checkpoint());

  const DrainLog live = drain(shard);
  const DrainLog relisted = drain(fresh);
  ASSERT_FALSE(live.closed.empty());
  EXPECT_EQ(live.closed.front(), "aaa_early");
  EXPECT_EQ(live.closed, relisted.closed);
  std::vector<std::string> expected{"aaa_early"};
  for (std::size_t i = 1; i < names.size(); ++i) {
    expected.push_back(fs::path(names[i]).stem().string());
  }
  EXPECT_EQ(live.closed, expected);
}

TEST_F(TenantShardTest, RestoredShardRebuildsTheBacklogOnItsFirstListing) {
  const auto opt = small_budget_options();
  serve::TenantShard full("t", dir_, model_, opt, 1);
  full.tick();
  full.tick();
  const serve::TickResult third = full.tick();
  ASSERT_GT(third.pending_files, 0u);

  serve::TenantShard partial("t", dir_, model_, opt, 1);
  partial.tick();
  partial.tick();
  serve::TenantShard resumed("t", dir_, model_, opt, 2);
  resumed.restore(partial.checkpoint());
  const serve::TickResult first = resumed.tick();
  EXPECT_EQ(first.pending_files, third.pending_files);
  EXPECT_EQ(first.pending_bytes, third.pending_bytes);
  EXPECT_EQ(first.records_admitted, third.records_admitted);
}

TEST_F(TenantShardTest, DoneNameThatLeftTheSpoolAndCameBackIsANewFile) {
  // A container that died before logging a line: its zero-byte file is
  // reported as an anomalous session.
  const std::string died = dir_ + "/zz_died.log";
  std::ofstream(died).close();
  serve::TenantShard shard("t", dir_, model_, small_budget_options(), 1);
  const DrainLog first = drain(shard);
  ASSERT_EQ(std::count(first.reported.begin(), first.reported.end(), "zz_died"), 1);
  const std::uint64_t files_done = shard.accounting().files_done;

  // The name leaves the spool; the next listing drops it from the done-set,
  // so the checkpoint no longer carries it.
  fs::remove(died);
  shard.tick();
  const auto done_names = [&] {
    const common::Json cp = shard.checkpoint();
    std::vector<std::string> names;
    for (const auto& n : cp["done"].as_array()) names.push_back(n.as_string());
    return names;
  };
  std::vector<std::string> expected_done = spool_names(dir_);
  EXPECT_EQ(done_names(), expected_done);

  // The same name comes back: a new file, consumed and reported again.
  std::ofstream(died).close();
  const DrainLog second = drain(shard);
  EXPECT_EQ(second.closed, std::vector<std::string>{"zz_died"});
  EXPECT_EQ(second.reported, std::vector<std::string>{"zz_died"});
  EXPECT_EQ(shard.accounting().files_done, files_done + 1);
  expected_done.push_back("zz_died.log");
  EXPECT_EQ(done_names(), expected_done);
}

TEST_F(TenantShardTest, DoneFileLeftInTheSpoolIsNeverAdmittedAgain) {
  serve::TenantShard shard("t", dir_, model_, small_budget_options(), 1);
  drain(shard);
  const serve::TenantAccounting drained = shard.accounting();
  for (int i = 0; i < 3; ++i) {
    const serve::TickResult r = shard.tick();
    EXPECT_EQ(r.records_admitted, 0u);
    EXPECT_EQ(r.pending_files, 0u);
  }
  expect_accounting_eq(shard.accounting(), drained);

  // A listing that cannot open the spool proves nothing has left it: the
  // done-set survives, and the files are not admitted again when it returns.
  fs::rename(dir_, dir_ + "_away");
  EXPECT_TRUE(shard.tick().listed);
  fs::rename(dir_ + "_away", dir_);
  EXPECT_EQ(shard.tick().records_admitted, 0u);
  expect_accounting_eq(shard.accounting(), drained);

  // A restored shard lists the spool again and finds every name done.
  serve::TenantShard resumed("t", dir_, model_, small_budget_options(), 2);
  resumed.restore(shard.checkpoint());
  const serve::TickResult r = resumed.tick();
  EXPECT_TRUE(r.listed);
  EXPECT_EQ(r.records_admitted, 0u);
  EXPECT_EQ(r.pending_files, 0u);
  expect_accounting_eq(resumed.accounting(), drained);
}

/// Adds `copies - 1` copies of every spool file under distinct names (so
/// distinct sessions): a backlog of many ticks.
void widen_spool(const std::string& spool, int copies) {
  for (const auto& name : spool_names(spool)) {
    for (int c = 1; c < copies; ++c) {
      fs::copy_file(spool + "/" + name, spool + "/copy" + std::to_string(c) + "_" + name);
    }
  }
}

TEST_F(TenantShardTest, BackloggedShardListsOnlyWhenToldTheSpoolChanged) {
  widen_spool(dir_, 4);
  serve::TenantShard::Options opt;
  opt.quotas.max_files_per_tick = 2;
  opt.quotas.max_records_per_tick = std::size_t{1} << 30;
  serve::TenantShard shard("t", dir_, model_, opt, 1);
  EXPECT_TRUE(shard.tick(false).listed) << "a new shard lists on its first tick";
  const serve::TickResult quiet = shard.tick(false);
  EXPECT_FALSE(quiet.listed);
  ASSERT_GE(quiet.pending_files, 2u);

  // Told of a change, the shard lists and sees the new name.
  fs::copy_file(dir_ + "/" + spool_names(dir_).back(), dir_ + "/aaa_new.log");
  const serve::TickResult told = shard.tick(true);
  EXPECT_TRUE(told.listed);
  EXPECT_EQ(told.pending_files, quiet.pending_files - 1);  // +1 arrival, -2 admitted

  std::size_t listings = 0;
  for (int i = 0; i < 200; ++i) {
    const serve::TickResult r = shard.tick(false);
    listings += r.listed;
    if (r.pending_files == 0 && shard.open_sessions() == 0) break;
  }
  // Only ticks that start with less than one tick's admission indexed list.
  EXPECT_LE(listings, 2u);
  EXPECT_EQ(shard.accounting().files_done, spool_truth(dir_).files);
}

TEST(ServeSignalsTest, StopFlagKeepsFirstSignalAndClears) {
  serve::clear_stop_signal();
  EXPECT_EQ(serve::stop_signal(), 0);
  serve::request_stop(SIGTERM);
  EXPECT_EQ(serve::stop_signal(), SIGTERM);
  serve::request_stop(SIGINT);  // later signals keep the original intent
  EXPECT_EQ(serve::stop_signal(), SIGTERM);
  serve::clear_stop_signal();
  EXPECT_EQ(serve::stop_signal(), 0);
}

TEST(ServeSignalsTest, StopRequestedFromAnotherThreadReachesThePoller) {
  serve::clear_stop_signal();
  // Two requesters race; exactly one signal wins and stays.
  std::thread term([] { serve::request_stop(SIGTERM); });
  std::thread intr([] { serve::request_stop(SIGINT); });
  int seen = 0;
  while ((seen = serve::stop_signal()) == 0) std::this_thread::yield();
  term.join();
  intr.join();
  EXPECT_TRUE(seen == SIGTERM || seen == SIGINT) << seen;
  EXPECT_EQ(serve::stop_signal(), seen);
  serve::clear_stop_signal();
}

TEST(ServeRulesTest, StockRulesCoverServeGaugesAndFire) {
  const auto rules = obs::ts::AlertEngine::serve_rules();
  ASSERT_GT(rules.size(), obs::ts::AlertEngine::default_rules().size());
  bool has_saturation = false, has_breaker = false;
  for (const auto& r : rules) {
    has_saturation |= r.name == "serve-queue-saturation";
    has_breaker |= r.name == "serve-breaker-open";
  }
  EXPECT_TRUE(has_saturation);
  EXPECT_TRUE(has_breaker);

  obs::MetricsRegistry reg;
  reg.double_gauge("intellog_serve_queue_saturation_ratio", {}).set(0.95);
  reg.gauge("intellog_serve_breakers_open", {}).set(1);
  obs::ts::TimeSeriesStore store;
  store.observe_registry(reg, 1'000);
  store.observe_registry(reg, 2'000);
  obs::ts::AlertEngine engine(rules);
  std::size_t firing = 0;
  for (const auto& a : engine.evaluate(store, 2'000)) {
    if (!a.firing) continue;
    ++firing;
    EXPECT_TRUE(a.rule == "serve-queue-saturation" || a.rule == "serve-breaker-open")
        << a.rule;
  }
  EXPECT_EQ(firing, 2u);
}

TEST(ServeDaemonTest, DrainOnEmptyBalancesAndPublishesTenantStatus) {
  const std::string root =
      (fs::temp_directory_path() / "intellog_test_serve_daemon").string();
  fs::remove_all(root);
  make_spool(root + "/acme", 3);
  make_spool(root + "/globex", 4);
  const std::string model_path = root + "/model.json";
  {
    core::IntelLog model;
    model.train(logparse::read_log_directory_resilient(root).sessions);
    core::save_model_file(model, model_path);
  }
  const SpoolTruth acme = spool_truth(root + "/acme");
  const SpoolTruth globex = spool_truth(root + "/globex");

  obs::MetricsRegistry registry;
  obs::set_registry(&registry);
  serve::ServeOptions opt;
  opt.root = root;
  opt.model_path = model_path;
  opt.jobs = 2;
  opt.poll_ms = 1;
  opt.checkpoint_every_ticks = 2;
  opt.drain_on_empty = true;
  opt.handle_signals = false;
  opt.max_ticks = 200;
  opt.status_path = root + "/status.json";
  opt.shard.quotas.max_records_per_tick = 400;

  serve::ServeDaemon daemon(opt);
  EXPECT_EQ(daemon.tenants(), (std::vector<std::string>{"acme", "globex"}));
  const serve::ServeSummary summary = daemon.run();
  obs::set_registry(nullptr);

  EXPECT_FALSE(summary.killed);
  EXPECT_LT(summary.ticks, 200u);
  EXPECT_GT(summary.checkpoints_written, 0u);
  EXPECT_EQ(summary.tenants.at("acme").records_admitted, acme.records);
  EXPECT_EQ(summary.tenants.at("acme").sessions_closed, acme.sessions);
  EXPECT_EQ(summary.tenants.at("globex").records_admitted, globex.records);
  EXPECT_EQ(summary.tenants.at("globex").sessions_closed, globex.sessions);

  // The per-tenant checkpoints exist and restore cleanly in a fresh daemon
  // (which then drains immediately: nothing left to do).
  EXPECT_TRUE(fs::exists(serve::ServeDaemon::checkpoint_path(root + "/acme")));
  const serve::ServeSummary again = [&] {
    serve::ServeDaemon d2(opt);
    return d2.run();
  }();
  expect_accounting_eq(again.tenants.at("acme"), summary.tenants.at("acme"));
  expect_accounting_eq(again.tenants.at("globex"), summary.tenants.at("globex"));

  // Status document: serve schema with the tenant table, and render_top
  // shows the per-tenant rows.
  std::ifstream in(opt.status_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const common::Json status = common::Json::parse(buf.str());
  EXPECT_EQ(status["kind"].as_string(), "intellog_status");
  ASSERT_TRUE(status["tenants"].is_array());
  ASSERT_EQ(status["tenants"].as_array().size(), 2u);
  EXPECT_EQ(status["tenants"].as_array()[0]["tenant"].as_string(), "acme");
  EXPECT_EQ(status["tenants"].as_array()[0]["breaker"].as_string(), "closed");
  const std::string top = obs::render_top(status);
  EXPECT_NE(top.find("tenants:"), std::string::npos);
  EXPECT_NE(top.find("acme"), std::string::npos);
  EXPECT_NE(top.find("globex"), std::string::npos);
  fs::remove_all(root);
}

/// Writes a one-tenant root whose spool holds `copies` copies of one spark
/// spool (see widen_spool), plus a model trained on it; returns the model
/// path.
std::string make_wide_root(const std::string& root, const std::string& tenant, int copies) {
  fs::remove_all(root);
  const std::string spool = root + "/" + tenant;
  make_spool(spool, 3);
  const std::string model_path = root + "/model.json";
  core::IntelLog model;
  model.train(logparse::read_log_directory_resilient(spool).sessions);
  core::save_model_file(model, model_path);
  widen_spool(spool, copies);
  return model_path;
}

serve::ServeOptions drain_options(const std::string& root, const std::string& model_path) {
  serve::ServeOptions opt;
  opt.root = root;
  opt.model_path = model_path;
  opt.jobs = 1;
  opt.poll_ms = 0;
  opt.checkpoint_every_ticks = 4;
  opt.drain_on_empty = true;
  opt.handle_signals = false;
  opt.max_ticks = 500;
  opt.shard.quotas.max_records_per_tick = std::size_t{1} << 30;
  return opt;
}

std::uint64_t listings(const obs::MetricsRegistry& registry, const std::string& tenant) {
  const obs::Counter* c =
      registry.find_counter("intellog_serve_spool_listings_total", {{"tenant", tenant}});
  return c == nullptr ? ~std::uint64_t{0} : c->value();
}

TEST(ServeDaemonTest, BackloggedTenantListsItsSpoolOnlyWhenItChanges) {
  const std::string root =
      (fs::temp_directory_path() / "intellog_test_serve_listings").string();
  const std::string model_path = make_wide_root(root, "acme", 12);
  const SpoolTruth truth = spool_truth(root + "/acme");

  obs::MetricsRegistry registry;
  obs::set_registry(&registry);
  serve::ServeOptions opt = drain_options(root, model_path);
  opt.shard.quotas.max_files_per_tick = 2;
  serve::ServeDaemon daemon(opt);
  EXPECT_EQ(listings(registry, "acme"), 0u) << "the counter is registered at zero";
  const serve::ServeSummary summary = daemon.run();
  obs::set_registry(nullptr);

  ASSERT_GE(summary.ticks, 40u);
  EXPECT_LT(summary.ticks, opt.max_ticks);
  // The first tick, the ticks that start with less than one tick's
  // admission indexed, and the final idle tick: the daemon's own
  // checkpoint and ledger writes never count as spool changes.
  EXPECT_LE(listings(registry, "acme"), 5u);
  EXPECT_GE(listings(registry, "acme"), 1u);
  EXPECT_EQ(summary.tenants.at("acme").files_done, truth.files);
  EXPECT_EQ(summary.tenants.at("acme").records_admitted, truth.records);
  EXPECT_EQ(summary.tenants.at("acme").sessions_closed, truth.sessions);
  fs::remove_all(root);
}

TEST(ServeDaemonTest, ArrivalsAndADeletionMidDrainAreAccountedExactlyOnce) {
  const std::string root =
      (fs::temp_directory_path() / "intellog_test_serve_arrivals").string();
  const std::string stage = root + "_stage";
  const std::string model_path = make_wide_root(root, "acme", 4);
  const std::string spool = root + "/acme";
  // Sorts after every other name, so it is still pending when it goes.
  std::ofstream(spool + "/zz_doomed.log").close();
  fs::remove_all(stage);
  fs::create_directories(stage);
  // Arrivals at both ends of the name order: zero-byte files (sessions that
  // died before logging, always reported) and a copy of a real session.
  const std::vector<std::string> died{"aa_died.log", "mm_died.log", "zy_died.log"};
  for (const auto& name : died) std::ofstream(stage + "/" + name).close();
  fs::copy_file(spool + "/" + spool_names(spool).front(), stage + "/mm_copy.log");

  const auto reported_ids = [&] {
    std::map<std::string, int> ids;
    std::ifstream in(spool + "/.reports.jsonl");
    for (std::string line; std::getline(in, line);) {
      ++ids[common::Json::parse(line)["container"].as_string()];
    }
    return ids;
  };

  serve::ServeOptions opt = drain_options(root, model_path);
  opt.shard.quotas.max_files_per_tick = 1;
  std::string hook_errors;
  bool early_arrival_reported = false;
  opt.fault_hook = [&](const std::string&, std::uint64_t tick) {
    std::error_code ec;
    if (tick == 3) fs::rename(stage + "/aa_died.log", spool + "/aa_died.log", ec);
    // The watch reported the rename before tick 4, which admitted the file
    // (it sorts first) ahead of the backlog; its report landed before tick 5.
    if (tick == 6) early_arrival_reported = reported_ids().count("aa_died") == 1;
    if (tick == 5) fs::remove(spool + "/zz_doomed.log", ec);
    if (tick == 7) fs::rename(stage + "/mm_copy.log", spool + "/mm_copy.log", ec);
    if (tick == 7) fs::rename(stage + "/mm_died.log", spool + "/mm_died.log", ec);
    if (tick == 9) fs::rename(stage + "/zy_died.log", spool + "/zy_died.log", ec);
    if (ec) hook_errors += ec.message() + "; ";
  };
  obs::MetricsRegistry registry;
  obs::set_registry(&registry);
  const serve::ServeSummary summary = [&] {
    serve::ServeDaemon daemon(opt);
    return daemon.run();
  }();
  obs::set_registry(nullptr);
  EXPECT_EQ(hook_errors, "");
  ASSERT_GT(summary.ticks, 9u) << "the drain ended before every arrival";
  EXPECT_LT(summary.ticks, opt.max_ticks);
  EXPECT_TRUE(early_arrival_reported) << "an arrival waited for the backlog to drain";

  const std::map<std::string, int> reported = reported_ids();
  for (const auto& [container, n] : reported) {
    EXPECT_EQ(n, 1) << container << " reported " << n << " times";
  }
  for (const auto& name : died) EXPECT_EQ(reported.count(fs::path(name).stem().string()), 1u);
  EXPECT_EQ(reported.count("zz_doomed"), 0u) << "a deleted file was reported";

  const SpoolTruth truth = spool_truth(spool);
  const serve::TenantAccounting& acc = summary.tenants.at("acme");
  EXPECT_EQ(acc.files_done, truth.files);
  EXPECT_EQ(acc.records_admitted, truth.records);
  EXPECT_EQ(acc.sessions_closed, truth.sessions);
  EXPECT_EQ(acc.files_shed, 0u);
  fs::remove_all(root);
  fs::remove_all(stage);
}

}  // namespace
