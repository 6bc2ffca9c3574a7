// The traced run: per-layer metrics, a Chrome trace and a self-time table.
//
// Spans come from this file, around the public calls into each layer. The
// daemon's own calls are not visible from outside, so the serve layer is
// traced by driving its per-tenant unit (TenantShard::tick / checkpoint) on
// one thread in the daemon's tenant order until the spools drain, and the
// record-level layers by a probe pass over the same files.
#include <algorithm>
#include <filesystem>
#include <fstream>

#include "bench.hpp"
#include "core/detect_scratch.hpp"
#include "core/online.hpp"
#include "logparse/log_io.hpp"
#include "obs/profile/profile.hpp"
#include "serve/tenant.hpp"
#include "trace.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

struct ProbeTotals {
  std::size_t files = 0;
  std::size_t sessions = 0;
  std::size_t lines = 0;
  std::size_t records = 0;
  std::size_t quarantined = 0;
  std::size_t quarantine_not_injected = 0;  ///< quarantined lines the corruptor left intact
  std::size_t sink = 0;                     ///< keeps match results observable
};

/// One pass over the workload's sessions through each layer's public call:
/// read -> consume -> close_session, then Spell::match and IntelLog::detect
/// on the same records. With a null tracer nothing is timed.
class Probe {
 public:
  Probe(const Config& cfg, const Corpus& corpus, const Models& models)
      : cfg_(cfg), corpus_(corpus), models_(models) {}

  ProbeTotals run(Tracer* tr) {
    ProbeTotals t;
    std::map<std::string, std::unique_ptr<il::core::OnlineDetector>> online;
    for (const auto& tenant : corpus_.tenants) {
      online[tenant.name] = std::make_unique<il::core::OnlineDetector>(models_.of(tenant.name));
    }
    il::core::DetectScratch scratch;
    if (cfg_.workload == "batch_detect") {
      // What `intellog detect` reads: whole directories, plain reader.
      for (const std::string& system : systems()) {
        std::vector<il::logparse::Session> sessions;
        {
          Span s(tr, "logparse.read_log_directory", system);
          sessions = il::logparse::read_log_directory((fs::path(corpus_.root) / system).string());
        }
        t.files += sessions.size();
        for (const auto& session : sessions) {
          t.lines += session.records.size();
          Span s(tr, "probe.session", system + "/" + session.container_id);
          process(tr, system, session, *online[system], scratch, t);
        }
      }
      return t;
    }
    for (const SessionFile& f : corpus_.files) {
      const std::string id = f.tenant + "/" + f.container;
      Span s(tr, "probe.session", id);
      il::logparse::SessionIngest ingest;
      {
        Span r(tr, "logparse.read_session_file_resilient", id);
        ingest = il::logparse::read_session_file_resilient(f.path);
      }
      ++t.files;
      t.lines += ingest.stats.lines_total;
      t.quarantined += ingest.stats.quarantined;
      const auto origin = corpus_.origin.find(f.name);
      for (const auto& q : ingest.quarantined) {
        const bool injected = origin != corpus_.origin.end() && q.line_no >= 1 &&
                              q.line_no <= origin->second.size() &&
                              origin->second[q.line_no - 1] == -1;
        t.quarantine_not_injected += !injected;
      }
      process(tr, f.tenant, ingest.session, *online[f.tenant], scratch, t);
    }
    return t;
  }

 private:
  void process(Tracer* tr, const std::string& tenant, const il::logparse::Session& session,
               il::core::OnlineDetector& online, il::core::DetectScratch& scratch,
               ProbeTotals& t) {
    const std::string id = tenant + "/" + session.container_id;
    const il::core::IntelLog& model = models_.of(tenant);
    ++t.sessions;
    t.records += session.records.size();
    if (!session.records.empty()) {
      {
        Span s(tr, "core.consume", id);
        for (const auto& rec : session.records) online.consume(rec);
      }
      Span s(tr, "core.close_session", id);
      online.close_session(session.container_id);
    }
    {
      Span s(tr, "logparse.spell_match", id);
      for (const auto& rec : session.records) t.sink += model.spell().match(rec.content) >= 0;
    }
    Span s(tr, "core.detect", id);
    t.sink += model.detect(session, scratch).anomalous();
  }

  const Config& cfg_;
  const Corpus& corpus_;
  const Models& models_;
};

std::uint64_t subtree_allocs(const il::obs::FrameNode* node) {
  std::uint64_t n = node->allocs.load();
  for (const il::obs::FrameNode* c = node->first_child.load(); c; c = c->next_sibling) {
    n += subtree_allocs(c);
  }
  return n;
}

std::uint64_t frame_allocs(const il::obs::Profiler& prof, const std::string& name) {
  for (const il::obs::FrameNode* c = prof.root()->first_child.load(); c; c = c->next_sibling) {
    if (name == c->name) return subtree_allocs(c);
  }
  return 0;
}

/// Allocation counts per record from the profiler's alloc counters, over
/// every fourth session (the ratios are per record, so a sample suffices).
void alloc_probe(const Corpus& corpus, const Models& models, Metrics& m) {
  il::obs::ProfilerOptions opts;
  opts.sample_period_us = 100'000;  // counting allocations, not sampling
  opts.track_allocs = true;
  std::size_t records = 0;
  il::core::DetectScratch scratch;
  std::map<std::string, std::unique_ptr<il::core::OnlineDetector>> online;
  for (const auto& tenant : corpus.tenants) {
    online[tenant.name] = std::make_unique<il::core::OnlineDetector>(models.of(tenant.name));
  }
  il::obs::Profiler prof(opts);
  for (std::size_t i = 0; i < corpus.files.size(); i += 4) {
    const SessionFile& f = corpus.files[i];
    const il::logparse::SessionIngest ingest = il::logparse::read_session_file_resilient(f.path);
    const auto& session = ingest.session;
    records += session.records.size();
    if (!session.records.empty()) {
      {
        PROF_FRAME("perfbench.consume");
        for (const auto& rec : session.records) online[f.tenant]->consume(rec);
      }
      PROF_FRAME("perfbench.close_session");
      online[f.tenant]->close_session(session.container_id);
    }
    PROF_FRAME("perfbench.detect");
    (void)models.of(f.tenant).detect(session, scratch);
  }
  prof.stop();
  const double recs = static_cast<double>(std::max<std::size_t>(1, records));
  m.set("core.consume_allocs_per_record",
        static_cast<double>(frame_allocs(prof, "perfbench.consume")) / recs, "count");
  m.set("core.close_allocs_per_record",
        static_cast<double>(frame_allocs(prof, "perfbench.close_session")) / recs, "count");
  m.set("core.detect_allocs_per_record",
        static_cast<double>(frame_allocs(prof, "perfbench.detect")) / recs, "count");
}

/// detect_batch at N workers against 1 over the workload's sessions.
double batch_speedup(const Config& cfg, const Corpus& corpus, const Models& models,
                     Tracer* tr) {
  std::map<std::string, std::vector<il::logparse::Session>> sessions;
  for (const SessionFile& f : corpus.files) {
    if (f.tenant == "spark2") continue;  // the three Table-6 corpora
    sessions[f.tenant].push_back(il::logparse::read_session_file_resilient(f.path).session);
  }
  std::vector<double> one, many;
  for (int rep = 0; rep < 2; ++rep) {
    for (const std::size_t jobs : {std::size_t{1}, cfg.workers}) {
      const std::uint64_t t0 = now_ns();
      for (const auto& [tenant, list] : sessions) {
        Span s(tr, "core.detect_batch", tenant + "/jobs=" + std::to_string(jobs));
        (void)models.of(tenant).detect_batch(list, jobs);
      }
      (jobs == 1 ? one : many).push_back(static_cast<double>(now_ns() - t0));
    }
  }
  return median(one) / median(many);
}

struct SweepResult {
  std::map<std::string, double> busy_ns;  ///< per tenant
  std::size_t checkpoint_bytes = 0;       ///< largest serialised checkpoint
};

/// Drives each tenant's TenantShard::tick() on this thread, in the daemon's
/// tenant order, with the daemon's checkpoint cadence, until the spools drain.
SweepResult serve_sweep(const Config& cfg, const Corpus& corpus, const Models& models,
                        const Reference& ref, Tracer* tr, Verdicts& v) {
  const fs::path root = fs::path(cfg.work_dir) / "sweep";
  fs::remove_all(root);
  for (const auto& t : corpus.tenants) fs::create_directories(root / t.name);
  for (const SessionFile& f : corpus.files) fs::create_hard_link(f.path, root / f.tenant / f.name);

  il::serve::TenantShard::Options opts;
  opts.quotas.max_backlog_files = std::size_t{1} << 30;
  opts.quotas.max_backlog_bytes = std::size_t{1} << 50;
  std::vector<std::unique_ptr<il::serve::TenantShard>> shards;
  for (const auto& t : corpus.tenants) {
    shards.push_back(std::make_unique<il::serve::TenantShard>(
        t.name, (root / t.name).string(), models.of(t.name), opts, 1));
  }
  SweepResult out;
  std::map<std::string, std::size_t> reports;
  for (std::uint64_t round = 1;; ++round) {
    bool idle = true;
    for (auto& shard : shards) {
      const std::uint64_t t0 = now_ns();
      il::serve::TickResult r;
      {
        Span s(tr, "serve.tick", shard->tenant());
        r = shard->tick();
      }
      out.busy_ns[shard->tenant()] += static_cast<double>(now_ns() - t0);
      if (r.records_admitted != 0 || r.pending_files != 0 || shard->open_sessions() != 0) {
        idle = false;
      }
      for (const auto& rep : r.reports) {
        const Reference::Entry* e = ref.find(shard->tenant(), rep.container_id);
        ++reports[shard->tenant()];
        if (e == nullptr || !e->anomalous || e->dump != rep.to_json().dump()) {
          v.fail("serve sweep: report differs from serial detect: " + shard->tenant() + "/" +
                 rep.container_id);
        }
      }
    }
    if (round % 8 == 0 || idle) {
      for (auto& shard : shards) {
        Span s(tr, "serve.checkpoint", shard->tenant());
        out.checkpoint_bytes =
            std::max(out.checkpoint_bytes, shard->checkpoint().dump(2).size());
      }
    }
    if (idle) break;
  }
  for (int round = 0; round < 10; ++round) {
    for (auto& shard : shards) {
      Span s(tr, "serve.idle_tick", shard->tenant());
      (void)shard->tick();
    }
  }
  for (const auto& [tenant, entries] : ref.by_tenant) {
    std::size_t want = 0;
    for (const auto& [c, e] : entries) want += e.anomalous;
    if (reports[tenant] != want) v.fail("serve sweep: " + tenant + " report count differs");
  }
  fs::remove_all(root);
  return out;
}

/// The workload's files as pre-filled spools. spool_trickle keeps its inputs
/// staged, so they are linked into a spool root of their own.
Corpus drain_shape(const Config& cfg, const Corpus& corpus, const Models& models) {
  Corpus c = corpus;
  if (cfg.workload != "spool_trickle") return c;
  c.root = (fs::path(cfg.work_dir) / "drain_root").string();
  for (const auto& t : c.tenants) fs::create_directories(fs::path(c.root) / t.name);
  for (SessionFile& f : c.files) {
    const std::string linked = (fs::path(c.root) / f.tenant / f.name).string();
    fs::create_hard_link(f.path, linked);
    f.path = linked;
  }
  install_models(models, c.root);
  return c;
}

}  // namespace

void run_layers(const Config& cfg, Corpus& corpus, Metrics& m, Verdicts& v) {
  Tracer tracer;
  Tracer* tr = &tracer;
  const std::uint64_t wall0 = now_ns();

  // Set-up: training, model files, daemon construction, model load.
  Models models = setup(cfg, corpus, 1, tr);
  for (const auto& s : tracer.spans()) {
    if (s.name == "core.train") {
      m.set("core.train_ms." + s.session, static_cast<double>(s.end_ns - s.start_ns) / 1e6, "ms");
    }
  }
  m.set("core.model_load_ms", tracer.total_ns("core.load_model_file") / 1e6, "ms");

  const bool batch = cfg.workload == "batch_detect";
  const Reference ref = build_reference(corpus.files, models, Reader::kResilient);
  m.set("simsys.records", static_cast<double>(corpus.records), "count");
  m.set("simsys.sessions", static_cast<double>(corpus.files.size()), "count");
  m.set("simsys.alerts_expected", static_cast<double>(ref.alerts()), "count");

  // Record-level probe: untraced, traced, untraced. The traced pass against
  // the mean of the two untraced ones is the tracing overhead.
  Probe probe(cfg, corpus, models);
  const auto timed = [&](Tracer* t) {
    const std::uint64_t t0 = now_ns();
    const ProbeTotals totals = probe.run(t);
    return std::make_pair(static_cast<double>(now_ns() - t0), totals);
  };
  const double untraced_a = timed(nullptr).first;
  const auto [traced, totals] = timed(tr);
  const double untraced_b = timed(nullptr).first;
  m.set("obs.trace_overhead_ratio", traced / ((untraced_a + untraced_b) / 2), "ratio");

  double ingest_ns = tracer.total_ns("logparse.read_session_file_resilient");
  if (batch) {
    ingest_ns = 0;
    for (const auto& s : tracer.spans()) {
      // Training reads in set-up carry a "train/" session; they are not ingest.
      if (s.name == "logparse.read_log_directory" && s.session.rfind("train/", 0) != 0) {
        ingest_ns += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
  }
  const double recs = static_cast<double>(std::max<std::size_t>(1, totals.records));
  m.set("logparse.ingest_lines_per_s", static_cast<double>(totals.lines) / (ingest_ns / 1e9), "1/s");
  m.set("logparse.ingest_us_per_file", ingest_ns / 1e3 / static_cast<double>(totals.files), "us");
  m.set("logparse.quarantine_frac",
        static_cast<double>(totals.quarantined) /
            static_cast<double>(std::max<std::size_t>(1, totals.lines)),
        "ratio");
  std::size_t injected = 0;
  for (const auto& [name, n] : corpus.corrupted_lines) injected += n;
  m.set("simsys.lines_corrupted", static_cast<double>(injected), "count");
  if (totals.quarantine_not_injected != 0) {
    v.fail("quarantined lines the corruptor did not touch", totals.quarantine_not_injected);
  }
  const double match_ns = tracer.total_ns("logparse.spell_match") / recs;
  const double consume_ns = tracer.total_ns("core.consume") / recs;
  m.set("logparse.spell_match_ns", match_ns, "ns");
  m.set("core.consume_ns", consume_ns, "ns");
  m.set("core.consume_self_ns", consume_ns - match_ns, "ns");
  const std::vector<double> close_ns = tracer.durations_ns("core.close_session");
  m.set("core.close_us_p50", percentile(close_ns, 50) / 1e3, "us");
  m.set("core.close_us_p99", percentile(close_ns, 99) / 1e3, "us");
  m.set("core.detect_us_per_session",
        tracer.total_ns("core.detect") / 1e3 / static_cast<double>(totals.sessions), "us");

  alloc_probe(corpus, models, m);
  m.set("core.detect_batch_speedup", batch_speedup(cfg, corpus, models, tr), "x");

  // Serve layer: the per-tenant unit on one thread.
  const SweepResult sweep = serve_sweep(cfg, corpus, models, ref, tr, v);
  double busy_total = 0, busy_max = 0;
  for (const auto& [tenant, ns] : sweep.busy_ns) {
    m.set("serve.busy_s." + tenant, ns / 1e9, "s");
    busy_total += ns;
    busy_max = std::max(busy_max, ns);
  }
  m.set("serve.tenant_skew", busy_max / (busy_total / static_cast<double>(sweep.busy_ns.size())),
        "ratio");
  const std::vector<double> ticks = tracer.durations_ns("serve.tick");
  m.set("serve.tick_ms_p50", percentile(ticks, 50) / 1e6, "ms");
  m.set("serve.tick_ms_max", percentile(ticks, 100) / 1e6, "ms");
  m.set("serve.idle_tick_us", median(tracer.durations_ns("serve.idle_tick")) / 1e3, "us");
  m.set("serve.checkpoint_ms", median(tracer.durations_ns("serve.checkpoint")) / 1e6, "ms");
  m.set("serve.checkpoint_kb", static_cast<double>(sweep.checkpoint_bytes) / 1024.0, "kB");
  const double tick_ckpt_ns = tracer.total_ns("serve.tick") + tracer.total_ns("serve.checkpoint");

  // Real daemon drains over pre-filled spools (batch inputs sit there too):
  // registry on/off at one worker, then N workers.
  const Corpus spool = drain_shape(cfg, corpus, models);
  std::vector<double> with_registry, without_registry;
  for (int rep = 0; rep < 2; ++rep) {
    for (const bool registry : {true, false}) {
      Span s(tr, "serve.daemon_drain", registry ? "1w+registry" : "1w");
      DrainOptions o;
      o.jobs = 1;
      o.registry = registry;
      (registry ? with_registry : without_registry)
          .push_back(drain_once(spool, models, ref, o, v).wall_s);
    }
  }
  const double w1 = median(with_registry);
  m.set("obs.registry_overhead_ratio", w1 / median(without_registry), "ratio");
  m.set("serve.daemon_overhead_frac", 1.0 - tick_ckpt_ns / 1e9 / w1, "ratio");

  std::uint64_t shed = 0, trips = 0;
  std::size_t backlog = 0;
  {
    Span s(tr, "serve.daemon_drain", std::to_string(cfg.workers) + "w+status");
    DrainOptions o;
    o.jobs = cfg.workers;
    o.status = cfg.workload != "spool_trickle";
    const DrainResult d = drain_once(spool, models, ref, o, v);
    m.set("common.pool_efficiency",
          busy_total / 1e9 / (static_cast<double>(cfg.workers) * d.wall_s), "ratio");
    backlog = d.backlog_files_max;
    shed += d.files_shed;
    trips += d.breaker_trips;
  }
  if (cfg.workload == "spool_trickle") {
    Span s(tr, "serve.daemon_trickle", "status");
    TrickleOptions o;
    o.jobs = cfg.workers;
    o.schedule_s = cfg.seconds / 2;
    o.status = true;
    o.tag = "traced";
    const TrickleResult t = trickle_once(cfg, corpus, models, ref, o, v);
    backlog = t.backlog_files_max;
    shed += t.files_shed;
    trips += t.breaker_trips;
    m.set("simsys.gen_lag_p99_ms", percentile(t.gen_lag_ms, 99), "ms");
  }
  m.set("serve.backlog_files_max", static_cast<double>(backlog), "count");
  m.set("serve.files_shed", static_cast<double>(shed), "count");
  m.set("serve.breaker_trips", static_cast<double>(trips), "count");

  // Artifacts: the Chrome trace and the self-time table.
  const std::uint64_t wall = now_ns() - wall0;
  fs::create_directories(cfg.out_dir);
  const std::string stem = (fs::path(cfg.out_dir) / cfg.workload).string();
  {
    std::ofstream f(stem + ".trace.json");
    f << tracer.chrome_trace().dump() << "\n";
  }
  std::ofstream table(stem + ".selftime.txt");
  table << "per-layer self time, workload " << cfg.workload << ", seed " << cfg.seed << "\n\n"
        << tracer.self_time_table(wall);
  if (cfg.workload == "spool_drain") {
    char line[200];
    std::snprintf(line, sizeof line,
                  "serve: ticks + checkpoints cover %.2f%% of a one-worker drain's wall time; "
                  "the rest (%.2f%%) is serve.daemon_overhead_frac\n",
                  100.0 * tick_ckpt_ns / 1e9 / w1, 100.0 * (1.0 - tick_ckpt_ns / 1e9 / w1));
    table << line;
  }
}

}  // namespace perfbench
