// Daemon runs: spool drains and open-loop trickles, each checked session by
// session against the serial reference.
#include <sys/inotify.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "serve/signals.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using il::common::Json;

namespace {

/// Watches the tenants' `.reports.jsonl` ledgers with inotify and stamps each
/// report line when it becomes readable: the moment a user would see it.
/// Optionally follows the daemon's status snapshot for the backlog.
class ReportWatcher {
 public:
  struct Alert {
    std::string tenant;
    std::string container;
    std::string line;
    std::uint64_t visible_ns = 0;
  };

  ReportWatcher(const std::string& root, const std::vector<Tenant>& tenants, bool status)
      : root_(root), fd_(::inotify_init1(IN_NONBLOCK | IN_CLOEXEC)) {
    if (fd_ < 0) throw std::runtime_error("inotify_init1 failed");
    for (const auto& t : tenants) {
      const std::string dir = (fs::path(root) / t.name).string();
      const int wd = ::inotify_add_watch(fd_, dir.c_str(), IN_CLOSE_WRITE);
      if (wd < 0) throw std::runtime_error("inotify_add_watch failed on " + dir);
      tenant_of_[wd] = t.name;
      offset_[t.name] = 0;
    }
    if (status) {
      status_wd_ = ::inotify_add_watch(fd_, root.c_str(), IN_MOVED_TO);
      if (status_wd_ < 0) throw std::runtime_error("inotify_add_watch failed on " + root);
    }
  }
  ~ReportWatcher() { ::close(fd_); }
  ReportWatcher(const ReportWatcher&) = delete;
  ReportWatcher& operator=(const ReportWatcher&) = delete;

  /// Waits up to `timeout_ms` for ledger writes and reads every new line.
  void poll(int timeout_ms) {
    pollfd p{fd_, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return;
    alignas(inotify_event) char buf[64 * 1024];
    std::set<std::string> dirty;
    bool status_changed = false;
    while (true) {
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n <= 0) break;
      for (char* ptr = buf; ptr < buf + n;) {
        const auto* ev = reinterpret_cast<const inotify_event*>(ptr);
        ptr += sizeof(inotify_event) + ev->len;
        if (ev->mask & IN_Q_OVERFLOW) {
          for (const auto& [wd, tenant] : tenant_of_) dirty.insert(tenant);
          continue;
        }
        const std::string name = ev->len ? std::string(ev->name) : std::string();
        if (ev->wd == status_wd_) {
          status_changed |= name == ".status.json";
        } else if (name == ".reports.jsonl") {
          dirty.insert(tenant_of_[ev->wd]);
        }
      }
    }
    for (const auto& tenant : dirty) read_new(tenant);
    if (status_changed) read_status();
  }

  /// Reads whatever the ledgers hold beyond what was seen (after the run).
  void flush() {
    for (const auto& [wd, tenant] : tenant_of_) read_new(tenant);
  }

  std::vector<Alert> alerts;
  std::size_t backlog_files_max = 0;

 private:
  void read_new(const std::string& tenant) {
    const std::string path = (fs::path(root_) / tenant / ".reports.jsonl").string();
    std::ifstream in(path, std::ios::binary);
    if (!in) return;
    in.seekg(static_cast<std::streamoff>(offset_[tenant]));
    std::string chunk((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const std::uint64_t now = now_ns();
    std::size_t start = 0;
    for (std::size_t nl; (nl = chunk.find('\n', start)) != std::string::npos; start = nl + 1) {
      Alert a;
      a.tenant = tenant;
      a.line = chunk.substr(start, nl - start);
      a.visible_ns = now;
      static const std::string kKey = "\"container\":\"";
      const std::size_t at = a.line.find(kKey);
      if (at != std::string::npos) {
        const std::size_t b = at + kKey.size();
        a.container = a.line.substr(b, a.line.find('"', b) - b);
      }
      alerts.push_back(std::move(a));
    }
    offset_[tenant] += start;  // a partial last line is read again next time
  }

  void read_status() {
    std::ifstream in((fs::path(root_) / ".status.json").string());
    std::stringstream buf;
    buf << in.rdbuf();
    try {
      const Json doc = Json::parse(buf.str());
      for (const auto& t : doc["tenants"].as_array()) {
        backlog_files_max =
            std::max(backlog_files_max, static_cast<std::size_t>(t["pending_files"].as_int()));
      }
    } catch (const std::exception&) {
      // Replaced mid-read; the next snapshot will be read instead.
    }
  }

  std::string root_;
  int fd_;
  int status_wd_ = -1;
  std::map<int, std::string> tenant_of_;
  std::map<std::string, std::size_t> offset_;
};

using Expected = std::map<std::string, std::map<std::string, std::string>>;

const std::string* expected_dump(const Expected& expected, const std::string& tenant,
                                 const std::string& container) {
  const auto t = expected.find(tenant);
  if (t == expected.end()) return nullptr;
  const auto e = t->second.find(container);
  return e == t->second.end() ? nullptr : &e->second;
}

/// Checks one daemon run's report lines against what each submitted session
/// should produce. `expected` maps tenant -> container -> reference dump
/// ("" for sessions that must produce no report line).
void check_reports(const std::vector<ReportWatcher::Alert>& alerts,
                   const std::map<std::string, std::map<std::string, std::string>>& expected,
                   Verdicts& v) {
  std::map<std::string, std::set<std::string>> seen;
  for (const auto& a : alerts) {
    const std::string* want = expected_dump(expected, a.tenant, a.container);
    if (want == nullptr) {
      v.fail("report for unknown session " + a.tenant + "/" + a.container);
    } else if (!seen[a.tenant].insert(a.container).second) {
      v.fail("duplicate report for " + a.tenant + "/" + a.container);
    } else if (want->empty()) {
      v.fail("report for a session the reference finds normal: " + a.tenant + "/" + a.container);
    } else if (*want != a.line) {
      v.fail("report differs from serial detect: " + a.tenant + "/" + a.container);
    }
  }
  for (const auto& [tenant, sessions] : expected) {
    for (const auto& [container, dump] : sessions) {
      if (!dump.empty() && seen[tenant].count(container) == 0) {
        v.fail("missing report for " + tenant + "/" + container);
      }
    }
  }
}

void check_accounting(const il::serve::ServeSummary& summary,
                      const std::map<std::string, il::serve::TenantAccounting>& want,
                      Verdicts& v) {
  for (const auto& [tenant, w] : want) {
    const auto it = summary.tenants.find(tenant);
    if (it == summary.tenants.end()) {
      v.fail("tenant " + tenant + " missing from the serve summary", w.sessions_closed);
      continue;
    }
    const il::serve::TenantAccounting& got = it->second;
    if (got.files_shed != 0) v.fail(tenant + ": files shed", got.files_shed);
    if (got.sessions_closed < w.sessions_closed) {
      v.fail(tenant + ": sessions missing", w.sessions_closed - got.sessions_closed);
    }
    if (got.records_admitted != w.records_admitted || got.lines_quarantined != w.lines_quarantined) {
      v.fail(tenant + ": records/quarantine accounting differs from the reference (" +
             std::to_string(got.records_admitted) + " vs " + std::to_string(w.records_admitted) +
             " records, " + std::to_string(got.lines_quarantined) + " vs " +
             std::to_string(w.lines_quarantined) + " quarantined)");
    }
  }
}

std::uint64_t sum_shed(const il::serve::ServeSummary& s) {
  std::uint64_t n = 0;
  for (const auto& [t, a] : s.tenants) n += a.files_shed;
  return n;
}

std::uint64_t sum_trips(const il::serve::ServeSummary& s) {
  std::uint64_t n = 0;
  for (const auto& [t, a] : s.tenants) n += a.breaker_trips;
  return n;
}

}  // namespace

// --- spool drain ----------------------------------------------------------------

DrainResult drain_once(const Corpus& corpus, const Models& models, const Reference& ref,
                       const DrainOptions& opt, Verdicts& v) {
  for (const auto& t : corpus.tenants) remove_dotfiles((fs::path(corpus.root) / t.name).string());
  std::error_code ec;
  fs::remove(fs::path(corpus.root) / ".status.json", ec);
  il::serve::clear_stop_signal();

  il::serve::ServeOptions o = serve_options(models, corpus.root, opt.jobs);
  o.drain_on_empty = true;
  // Backlog caps above the spool size: a drain sheds nothing.
  o.shard.quotas.max_backlog_files = std::size_t{1} << 30;
  o.shard.quotas.max_backlog_bytes = std::size_t{1} << 50;
  if (opt.status) o.status_path = (fs::path(corpus.root) / ".status.json").string();

  std::map<std::string, il::serve::TenantAccounting> want;
  Expected expected;
  std::uint64_t total_records = 0;
  for (const auto& [tenant, entries] : ref.by_tenant) {
    il::serve::TenantAccounting& w = want[tenant];
    for (const auto& [container, e] : entries) {
      ++w.sessions_closed;
      w.records_admitted += e.records;
      w.lines_quarantined += e.quarantined;
      expected[tenant][container] = e.anomalous ? e.dump : std::string();
    }
    total_records += w.records_admitted;
    v.attempted += entries.size();
  }

  il::obs::MetricsRegistry registry;
  if (opt.registry) il::obs::set_registry(&registry);
  DrainResult r;
  il::serve::ServeSummary summary;
  std::vector<ReportWatcher::Alert> alerts;
  {
    il::serve::ServeDaemon daemon(o);
    ReportWatcher watcher(corpus.root, corpus.tenants, opt.status);
    std::atomic<bool> done{false};
    std::uint64_t t1 = 0;
    const std::uint64_t t0 = now_ns();
    std::thread runner([&] {
      summary = daemon.run();
      t1 = now_ns();
      done.store(true);
    });
    // The daemon counts a tick's records once it has written that tick's
    // ledgers, so the counters' progress is the records' spool->report time.
    // The report lines themselves are read after the run unless the backlog
    // is followed: reading them as they land took CPU from the daemon.
    std::uint64_t at_p50 = 0, at_p99 = 0;
    while (!done.load()) {
      if (opt.status) {
        watcher.poll(2);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (!opt.registry || at_p99 != 0) continue;
      std::uint64_t n = 0;
      for (const auto& t : corpus.tenants) {
        const il::obs::Counter* c =
            registry.find_counter("intellog_serve_records_total", {{"tenant", t.name}});
        if (c != nullptr) n += c->value();
      }
      const std::uint64_t now = now_ns();
      if (at_p50 == 0 && 2 * n >= total_records) at_p50 = now;
      if (100 * n >= 99 * total_records) at_p99 = now;
    }
    runner.join();
    watcher.flush();
    r.wall_s = static_cast<double>(t1 - t0) / 1e9;
    r.latency_p50_ms = static_cast<double>((at_p50 ? at_p50 : t1) - t0) / 1e6;
    r.latency_p99_ms = static_cast<double>((at_p99 ? at_p99 : t1) - t0) / 1e6;
    r.alerts = watcher.alerts.size();
    r.backlog_files_max = watcher.backlog_files_max;
    alerts = std::move(watcher.alerts);
  }
  il::obs::set_registry(nullptr);

  check_accounting(summary, want, v);
  check_reports(alerts, expected, v);
  for (const auto& [t, a] : summary.tenants) r.records += a.records_admitted;
  r.files_shed = sum_shed(summary);
  r.breaker_trips = sum_trips(summary);
  return r;
}

// --- open-loop trickle ------------------------------------------------------------

TrickleResult trickle_once(const Config& cfg, const Corpus& corpus, const Models& models,
                           const Reference& ref, const TrickleOptions& opt, Verdicts& v) {
  struct Entry {
    const SessionFile* file = nullptr;
    std::string name;
    std::string container;
    std::string stage;
    double due_s = 0;
  };
  const fs::path base = fs::path(cfg.work_dir) / ("trickle_" + opt.tag);
  const fs::path root = base / "root";
  fs::remove_all(base);
  for (const auto& t : corpus.tenants) {
    fs::create_directories(root / t.name);
    fs::create_directories(base / "stage" / t.name);
  }
  install_models(models, root.string());

  // Seeded Poisson schedule at a fixed total record rate: exponential gaps
  // with mean (records per file / rate), files drawn in shuffled passes over
  // the corpus; later passes replay it under new container ids.
  il::common::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + std::hash<std::string>{}(opt.tag));
  const double mean_records =
      static_cast<double>(corpus.records) / static_cast<double>(corpus.files.size());
  const double mean_gap_s = mean_records / kTrickleRecordsPerS;
  std::vector<Entry> schedule;
  std::size_t alerts = 0;
  double t = 0;
  for (int pass = 0; t < opt.schedule_s || alerts < opt.min_alerts; ++pass) {
    std::vector<std::size_t> order(corpus.files.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.uniform(i)]);
    for (const std::size_t i : order) {
      if (t >= opt.schedule_s && alerts >= opt.min_alerts) break;
      const SessionFile& f = corpus.files[i];
      Entry e;
      e.file = &f;
      e.container = pass == 0 ? f.container : f.container + "-r" + std::to_string(pass);
      e.name = e.container + ".log";
      e.stage = (base / "stage" / f.tenant / e.name).string();
      t += -std::log(1.0 - rng.uniform01()) * mean_gap_s;
      e.due_s = t;
      alerts += ref.find(f.tenant, f.container)->anomalous;
      schedule.push_back(std::move(e));
    }
  }
  // Rescale so the offered rate is exactly the configured one: the seed
  // moves arrival order and gaps, not the load.
  std::size_t scheduled_records = 0;
  for (const Entry& e : schedule) scheduled_records += e.file->records;
  const double scale =
      static_cast<double>(scheduled_records) / kTrickleRecordsPerS / schedule.back().due_s;
  for (Entry& e : schedule) e.due_s *= scale;
  // End on an anomalous session, so the last report marks the end of the run.
  for (std::size_t i = schedule.size(); i-- > 0;) {
    if (ref.find(schedule[i].file->tenant, schedule[i].file->container)->anomalous) {
      std::swap(schedule[i].file, schedule.back().file);
      std::swap(schedule[i].name, schedule.back().name);
      std::swap(schedule[i].container, schedule.back().container);
      std::swap(schedule[i].stage, schedule.back().stage);
      break;
    }
  }

  // A replayed file is a new session (its container id is its name), so the
  // reference runs over the staged files themselves.
  std::vector<SessionFile> staged;
  for (const Entry& e : schedule) {
    fs::create_hard_link(e.file->path, e.stage);
    SessionFile f = *e.file;
    f.name = e.name;
    f.container = e.container;
    f.path = e.stage;
    staged.push_back(std::move(f));
  }
  const Reference staged_ref = build_reference(staged, models, Reader::kResilient);

  TrickleResult r;
  std::map<std::string, il::serve::TenantAccounting> want;
  Expected expected;
  std::map<std::string, std::size_t> entry_of;  // tenant/container -> schedule index
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Entry& e = schedule[i];
    const Reference::Entry* re = staged_ref.find(e.file->tenant, e.container);
    il::serve::TenantAccounting& w = want[e.file->tenant];
    ++w.sessions_closed;
    w.records_admitted += re->records;
    w.lines_quarantined += re->quarantined;
    expected[e.file->tenant][e.container] = re->anomalous ? re->dump : std::string();
    entry_of[e.file->tenant + "/" + e.container] = i;
    r.records += re->records;
    r.lines += re->lines;
    r.quarantined += re->quarantined;
    r.alerts_expected += re->anomalous;
  }
  v.attempted += schedule.size();

  il::serve::clear_stop_signal();
  il::serve::ServeOptions o = serve_options(models, root.string(), opt.jobs);
  if (opt.status) o.status_path = (root / ".status.json").string();
  il::obs::MetricsRegistry registry;
  il::obs::set_registry(&registry);
  il::serve::ServeSummary summary;
  std::vector<ReportWatcher::Alert> seen;
  {
    il::serve::ServeDaemon daemon(o);
    ReportWatcher watcher(root.string(), corpus.tenants, opt.status);
    std::thread runner([&] { summary = daemon.run(); });

    const std::uint64_t start = now_ns() + 50'000'000;  // the daemon's loop is up by then
    const auto due_ns = [&](const Entry& e) {
      return start + static_cast<std::uint64_t>(e.due_s * 1e9);
    };
    std::vector<double> lag_ms(schedule.size());
    std::thread generator([&] {
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        const Entry& e = schedule[i];
        const std::uint64_t due = due_ns(e);
        const std::uint64_t now = now_ns();
        if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        fs::rename(e.stage, root / e.file->tenant / e.name);
        lag_ms[i] = static_cast<double>(now_ns() - due) / 1e6;
      }
    });

    // Wait for every expected report, then for every file to be done (the
    // checkpoints' done-sets), so stopping loses nothing.
    const std::uint64_t deadline = due_ns(schedule.back()) + 30'000'000'000ULL;
    const auto alerts_in = [&] {
      std::size_t n = 0;
      for (const auto& a : watcher.alerts) {
        const std::string* want = expected_dump(expected, a.tenant, a.container);
        n += want != nullptr && !want->empty();
      }
      return n;
    };
    while (alerts_in() < r.alerts_expected && now_ns() < deadline) watcher.poll(20);
    generator.join();
    const auto all_done = [&] {
      for (const auto& [tenant, w] : want) {
        std::ifstream in((root / tenant / ".checkpoint.json").string());
        if (!in) return false;
        std::stringstream buf;
        buf << in.rdbuf();
        try {
          if (Json::parse(buf.str())["done"].size() < w.sessions_closed) return false;
        } catch (const std::exception&) {
          return false;
        }
      }
      return true;
    };
    while (!all_done() && now_ns() < deadline) watcher.poll(100);
    il::serve::request_stop(SIGTERM);
    runner.join();
    il::serve::clear_stop_signal();
    watcher.flush();
    r.gen_lag_ms = std::move(lag_ms);
    r.backlog_files_max = watcher.backlog_files_max;

    const std::uint64_t stop = now_ns();
    std::map<std::string, std::uint64_t> visible;
    for (const auto& a : watcher.alerts) {
      visible.emplace(a.tenant + "/" + a.container, a.visible_ns);
    }
    for (const auto& [key, i] : entry_of) {
      const Entry& e = schedule[i];
      if (!staged_ref.find(e.file->tenant, e.container)->anomalous) continue;
      const auto it = visible.find(key);
      // A missing alert counts as over any limit: it is charged until the stop.
      const std::uint64_t at = it == visible.end() ? stop : it->second;
      r.alert_latency_ms.push_back(static_cast<double>(at - due_ns(e)) / 1e6);
    }
    seen = std::move(watcher.alerts);
  }
  // The daemon's pool adds its workers' task time to this counter when run()
  // shuts it down; the ticks are its only tasks.
  const il::obs::Counter* busy_us = registry.find_counter("intellog_pool_busy_us_total", {});
  if (busy_us == nullptr || busy_us->value() == 0) {
    throw std::runtime_error("trickle: the daemon's pool reported no busy time");
  }
  r.service_records_per_s =
      static_cast<double>(r.records) / (static_cast<double>(busy_us->value()) / 1e6);
  il::obs::set_registry(nullptr);
  check_accounting(summary, want, v);
  check_reports(seen, expected, v);
  r.files_shed = sum_shed(summary);
  r.breaker_trips = sum_trips(summary);
  fs::remove_all(base);
  return r;
}

}  // namespace perfbench
