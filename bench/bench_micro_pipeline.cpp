// Microbenchmarks (google-benchmark) for the pipeline's hot paths:
// Spell key matching, POS tagging + extraction, Intel-Message
// instantiation, and end-to-end session detection. These are not paper
// tables; they document the throughput envelope of the implementation.
//
// After the google benchmarks, main() measures the detection path with the
// repo harness (steady_clock, warm-up + repeats) and writes
// BENCH_micro_pipeline.json — the committed baseline that tools/ci.sh's
// bench smoke stage regresses against. Headline throughput_per_s is Spell
// match records/s; `extra` carries detect records/s, detect_batch
// 1/2/4-thread scaling, the observability overhead ratios
// (evidence/coverage/profiler/flight/scrape — all gated in ci.sh) and the profiler's
// top-N hotspot attribution. Pass --benchmark_filter to trim the google
// part (the harness part always runs).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "core/detect_scratch.hpp"
#include "core/extraction.hpp"
#include "core/online.hpp"
#include "logparse/formatter.hpp"
#include "logparse/log_io.hpp"
#include "logparse/session.hpp"
#include "obs/export/trace_export.hpp"
#include "obs/flight/flight.hpp"
#include "obs/http/admin.hpp"
#include "obs/http/http.hpp"
#include "obs/metrics.hpp"
#include "obs/profile/profile.hpp"
#include "simsys/corruptor.hpp"

using namespace intellog;

namespace {

const core::IntelLog& shared_model() {
  static const core::IntelLog il = bench::train_model("spark", 10, 7);
  return il;
}

const logparse::Session& shared_session() {
  static const logparse::Session session = [] {
    simsys::ClusterSpec cluster;
    simsys::WorkloadGenerator gen("spark", 17);
    static simsys::JobResult job = simsys::run_job(gen.detection_job(2), cluster);
    return job.sessions.front();
  }();
  return session;
}

const std::vector<logparse::Session>& shared_batch() {
  static const std::vector<logparse::Session> sessions = [] {
    simsys::ClusterSpec cluster;
    simsys::WorkloadGenerator gen("spark", 29);
    std::vector<logparse::Session> out;
    for (int j = 0; j < 6; ++j) {
      simsys::JobResult job = simsys::run_job(gen.detection_job(j % 3), cluster);
      for (auto& s : job.sessions) out.push_back(std::move(s));
    }
    return out;
  }();
  return sessions;
}

void BM_SpellMatch(benchmark::State& state) {
  const auto& il = shared_model();
  const auto& session = shared_session();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& rec = session.records[i++ % session.records.size()];
    benchmark::DoNotOptimize(il.spell().match(rec.content));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpellMatch);

void BM_PosTagMessage(benchmark::State& state) {
  const nlp::PosTagger tagger;
  const std::string msg =
      "Finished task 1.0 in stage 0.0 (TID 3). 2578 bytes result sent to driver";
  for (auto _ : state) {
    benchmark::DoNotOptimize(tagger.tag_message(msg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PosTagMessage);

void BM_ExtractIntelKey(benchmark::State& state) {
  const core::InfoExtractor extractor;
  logparse::LogKey key;
  key.id = 0;
  key.tokens = {"fetcher", "#", "*", "about", "to", "shuffle", "output", "of", "map", "*"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        extractor.extract(key, "fetcher # 1 about to shuffle output of map attempt_01"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ExtractIntelKey);

void BM_DetectSession(benchmark::State& state) {
  const auto& il = shared_model();
  const auto& session = shared_session();
  for (auto _ : state) {
    benchmark::DoNotOptimize(il.detect(session));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * session.records.size()));
}
BENCHMARK(BM_DetectSession);

// Same workload as BM_DetectSession but with a metrics registry installed:
// the delta against BM_DetectSession is the full (enabled) metrics cost;
// BM_DetectSession itself runs with the registry null, i.e. the no-op path.
void BM_DetectSessionMetricsEnabled(benchmark::State& state) {
  const auto& il = shared_model();
  const auto& session = shared_session();
  obs::MetricsRegistry reg;
  obs::set_registry(&reg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(il.detect(session));
  }
  obs::set_registry(nullptr);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * session.records.size()));
}
BENCHMARK(BM_DetectSessionMetricsEnabled);

void BM_TrainSmallCorpus(benchmark::State& state) {
  const auto sessions = bench::training_corpus("spark", 3, 5);
  std::size_t records = 0;
  for (const auto& s : sessions) records += s.records.size();
  for (auto _ : state) {
    core::IntelLog il;
    il.train(sessions);
    benchmark::DoNotOptimize(il.trained());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * records));
}
BENCHMARK(BM_TrainSmallCorpus);

void BM_DetectBatch4Threads(benchmark::State& state) {
  const auto& il = shared_model();
  const auto& sessions = shared_batch();
  std::size_t records = 0;
  for (const auto& s : sessions) records += s.records.size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(il.detect_batch(sessions, 4));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * records));
}
BENCHMARK(BM_DetectBatch4Threads);

/// Harness-timed (steady_clock, warm-up + repeats) measurements emitted to
/// BENCH_micro_pipeline.json for the perf trajectory + CI regression gate.
void emit_harness_bench() {
  const auto& il = shared_model();
  const auto& session = shared_session();
  const auto& sessions = shared_batch();
  const std::size_t session_records = session.records.size();
  std::size_t batch_records = 0;
  for (const auto& s : sessions) batch_records += s.records.size();

  // Spell match throughput (the headline number ci.sh gates on).
  constexpr int kMatchPasses = 50;
  const bench::Timing match_timing = bench::run_timed(
      [&] {
        for (int p = 0; p < kMatchPasses; ++p) {
          for (const auto& rec : session.records) {
            benchmark::DoNotOptimize(il.spell().match(rec.content));
          }
        }
      },
      /*repeats=*/5, /*warmup=*/1);

  // End-to-end serial detection over one session.
  constexpr int kDetectPasses = 10;
  const bench::Timing detect_timing = bench::run_timed(
      [&] {
        for (int p = 0; p < kDetectPasses; ++p) benchmark::DoNotOptimize(il.detect(session));
      },
      /*repeats=*/5, /*warmup=*/1);

  // Sharded batch detection at 1/2/4 workers over a multi-job workload.
  common::Json extra = common::Json::object();
  double batch_1t_ms = 0;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const bench::Timing t = bench::run_timed(
        [&] { benchmark::DoNotOptimize(il.detect_batch(sessions, jobs)); },
        /*repeats=*/3, /*warmup=*/1);
    const std::string tag = "batch_" + std::to_string(jobs) + "t";
    extra[tag + "_ms_min"] = t.min_ms();
    if (jobs == 1) {
      batch_1t_ms = t.min_ms();
    } else if (t.min_ms() > 0) {
      // On a single-core host the multi-thread shards cannot beat serial;
      // the number is still worth recording but must not trip speedup
      // gates, so it lands under an _advisory name those gates skip.
      const bool advisory = std::thread::hardware_concurrency() <= 1;
      extra[tag + (advisory ? "_speedup_advisory" : "_speedup")] = batch_1t_ms / t.min_ms();
    }
  }
  extra["detect_records_per_s"] =
      detect_timing.min_ms() > 0
          ? static_cast<double>(kDetectPasses * session_records) /
                (detect_timing.min_ms() / 1000.0)
          : 0.0;
  extra["batch_records"] = batch_records;
  extra["batch_sessions"] = sessions.size();
  extra["hardware_concurrency"] = static_cast<std::size_t>(std::thread::hardware_concurrency());

  // Ingestion cost: the hardened parser vs the seed parser over the same
  // clean rendered lines (ci.sh gates on ingest_resilient_ratio — hardening
  // must stay cheap on clean input), plus resilient ingest of a corrupted
  // copy of the stream.
  {
    const auto fmt = logparse::make_spark_formatter();
    std::vector<std::vector<std::string>> rendered;
    std::size_t clean_lines = 0;
    for (const auto& s : sessions) {
      std::vector<std::string> lines;
      lines.reserve(s.records.size());
      for (const auto& rec : s.records) lines.push_back(fmt->render(rec));
      clean_lines += lines.size();
      rendered.push_back(std::move(lines));
    }
    // The per-repeat timings are a few ms, so clock drift between two
    // back-to-back run_timed() calls easily fakes a 10% delta. Interleave
    // the plain/resilient repeats instead — both parsers sample the same
    // thermal/frequency conditions — and take the median of the per-pair
    // ratios, which is robust to a single slow outlier in either series.
    constexpr int kIngestPasses = 5;
    const auto run_plain = [&] {
      for (int p = 0; p < kIngestPasses; ++p) {
        for (std::size_t i = 0; i < rendered.size(); ++i) {
          benchmark::DoNotOptimize(
              logparse::parse_session(*fmt, sessions[i].container_id, rendered[i], "spark"));
        }
      }
    };
    const auto run_resilient = [&] {
      for (int p = 0; p < kIngestPasses; ++p) {
        for (std::size_t i = 0; i < rendered.size(); ++i) {
          benchmark::DoNotOptimize(logparse::parse_session_resilient(
              *fmt, sessions[i].container_id, rendered[i], "spark"));
        }
      }
    };
    bench::Timing plain;
    bench::Timing resilient;
    std::vector<double> pair_ratios;
    run_plain();
    run_resilient();  // warmup
    const auto timed_ms = [](const auto& fn) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
    };
    for (int r = 0; r < 15; ++r) {
      // Alternate which parser goes first: within a pair the second runner
      // sees slightly drifted clock/thermal conditions, and alternation
      // makes that bias cancel across pairs instead of accumulating.
      double plain_ms = 0;
      double resilient_ms = 0;
      if (r % 2 == 0) {
        plain_ms = timed_ms(run_plain);
        resilient_ms = timed_ms(run_resilient);
      } else {
        resilient_ms = timed_ms(run_resilient);
        plain_ms = timed_ms(run_plain);
      }
      plain.runs_ms.push_back(plain_ms);
      resilient.runs_ms.push_back(resilient_ms);
      if (resilient_ms > 0) pair_ratios.push_back(plain_ms / resilient_ms);
    }
    std::sort(pair_ratios.begin(), pair_ratios.end());
    simsys::LogStreamCorruptor corruptor(simsys::CorruptionSpec::all(0.02), 7);
    std::vector<std::vector<std::string>> corrupted;
    std::size_t corrupted_lines = 0;
    for (const auto& lines : rendered) {
      auto result = corruptor.corrupt(lines);
      corrupted_lines += result.lines.size();
      corrupted.push_back(std::move(result.lines));
    }
    const bench::Timing chaos = bench::run_timed(
        [&] {
          for (int p = 0; p < kIngestPasses; ++p) {
            for (std::size_t i = 0; i < corrupted.size(); ++i) {
              benchmark::DoNotOptimize(logparse::parse_session_resilient(
                  *fmt, sessions[i].container_id, corrupted[i], "spark"));
            }
          }
        },
        /*repeats=*/3, /*warmup=*/1);
    const auto lines_per_s = [](std::size_t lines, const bench::Timing& t) {
      return t.min_ms() > 0
                 ? static_cast<double>(kIngestPasses * lines) / (t.min_ms() / 1000.0)
                 : 0.0;
    };
    extra["ingest_plain_lines_per_s"] = lines_per_s(clean_lines, plain);
    extra["ingest_resilient_lines_per_s"] = lines_per_s(clean_lines, resilient);
    extra["ingest_corrupted_lines_per_s"] = lines_per_s(corrupted_lines, chaos);
    extra["ingest_resilient_ratio"] =
        pair_ratios.empty() ? 0.0 : pair_ratios[pair_ratios.size() / 2];

    // Zero-copy file ingest: the same sessions written to .log files once,
    // then read end-to-end through the mmap + SWAR + borrowed-record
    // reader, against the pre-arena pipeline it replaced (ifstream getline
    // into strings, then the owning parse). ci.sh gates the ratio of the
    // two — the mmap path must stay decisively ahead.
    {
      namespace fs = std::filesystem;
      const fs::path dir = fs::temp_directory_path() / "intellog_bench_mmap";
      fs::create_directories(dir);
      // Each file carries the session's lines several times over:
      // production log files run to megabytes, and the per-file
      // open/mmap/munmap cost is noise at that size — tiny one-session
      // files would instead make syscall overhead the thing measured.
      constexpr int kFileRepeat = 8;
      const std::size_t file_lines = clean_lines * kFileRepeat;
      std::vector<std::string> paths;
      for (std::size_t i = 0; i < rendered.size(); ++i) {
        const fs::path p = dir / (sessions[i].container_id + ".log");
        std::ofstream out(p);
        for (int r = 0; r < kFileRepeat; ++r) {
          for (const auto& line : rendered[i]) out << line << "\n";
        }
        paths.push_back(p.string());
      }
      const bench::Timing mmap_t = bench::run_timed(
          [&] {
            for (int p = 0; p < kIngestPasses; ++p) {
              for (const auto& path : paths) {
                benchmark::DoNotOptimize(logparse::read_session_file(path, "spark"));
              }
            }
          },
          /*repeats=*/5, /*warmup=*/1);
      const bench::Timing getline_t = bench::run_timed(
          [&] {
            for (int p = 0; p < kIngestPasses; ++p) {
              for (std::size_t i = 0; i < paths.size(); ++i) {
                std::ifstream in(paths[i]);
                std::vector<std::string> lines;
                std::string line;
                while (std::getline(in, line)) lines.push_back(line);
                benchmark::DoNotOptimize(
                    logparse::parse_session(*fmt, sessions[i].container_id, lines, "spark"));
              }
            }
          },
          /*repeats=*/5, /*warmup=*/1);
      extra["ingest_mmap_lines_per_s"] = lines_per_s(file_lines, mmap_t);
      extra["ingest_getline_lines_per_s"] = lines_per_s(file_lines, getline_t);
      for (const auto& path : paths) fs::remove(path);
      std::error_code ec;
      fs::remove(dir, ec);
    }
  }

  // Workflow Observatory cost: evidence construction on the detect path
  // (on by default) and the trace exporters. The evidence ratio uses the
  // same interleaved median-of-pair-ratios scheme as the ingest ratio —
  // ci.sh gates it at <= 1.05 (evidence must stay within 5% of bare
  // detection), so it must not be fooled by clock drift between two
  // back-to-back series.
  {
    constexpr int kEvidencePasses = 3;
    const auto detect_all = [&] {
      for (int p = 0; p < kEvidencePasses; ++p) {
        for (const auto& s : sessions) benchmark::DoNotOptimize(il.detect(s));
      }
    };
    const auto timed_ms = [](const auto& fn) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
    };
    il.set_evidence_enabled(false);
    detect_all();
    il.set_evidence_enabled(true);
    detect_all();  // warmup both modes
    std::vector<double> evidence_ratios;
    for (int r = 0; r < 9; ++r) {
      double on_ms = 0;
      double off_ms = 0;
      if (r % 2 == 0) {
        il.set_evidence_enabled(true);
        on_ms = timed_ms(detect_all);
        il.set_evidence_enabled(false);
        off_ms = timed_ms(detect_all);
      } else {
        il.set_evidence_enabled(false);
        off_ms = timed_ms(detect_all);
        il.set_evidence_enabled(true);
        on_ms = timed_ms(detect_all);
      }
      if (off_ms > 0) evidence_ratios.push_back(on_ms / off_ms);
    }
    il.set_evidence_enabled(true);  // restore the default
    std::sort(evidence_ratios.begin(), evidence_ratios.end());
    extra["evidence_overhead_ratio"] =
        evidence_ratios.empty() ? 0.0 : evidence_ratios[evidence_ratios.size() / 2];

    // Quality Observatory cost: the coverage ledger stamps relaxed-atomic
    // hit counters on the same path. Same interleaved median-of-pair
    // scheme; ci.sh gates it at <= 1.05.
    il.set_coverage_enabled(false);
    detect_all();
    il.set_coverage_enabled(true);
    detect_all();  // warmup both modes
    std::vector<double> coverage_ratios;
    for (int r = 0; r < 9; ++r) {
      double on_ms = 0;
      double off_ms = 0;
      if (r % 2 == 0) {
        il.set_coverage_enabled(true);
        on_ms = timed_ms(detect_all);
        il.set_coverage_enabled(false);
        off_ms = timed_ms(detect_all);
      } else {
        il.set_coverage_enabled(false);
        off_ms = timed_ms(detect_all);
        il.set_coverage_enabled(true);
        on_ms = timed_ms(detect_all);
      }
      if (off_ms > 0) coverage_ratios.push_back(on_ms / off_ms);
    }
    il.set_coverage_enabled(false);  // restore the default
    std::sort(coverage_ratios.begin(), coverage_ratios.end());
    extra["coverage_overhead_ratio"] =
        coverage_ratios.empty() ? 0.0 : coverage_ratios[coverage_ratios.size() / 2];

    // Exporter wall time over the whole batch (one-shot artifact cost, not
    // a per-record tax: exports run after detection, never inside it).
    const bench::Timing chrome = bench::run_timed(
        [&] { benchmark::DoNotOptimize(obs::hwgraph_chrome_trace(il, sessions)); },
        /*repeats=*/3, /*warmup=*/1);
    const bench::Timing otlp = bench::run_timed(
        [&] { benchmark::DoNotOptimize(obs::hwgraph_otlp_json(il, sessions)); },
        /*repeats=*/3, /*warmup=*/1);
    extra["export_chrome_ms_min"] = chrome.min_ms();
    extra["export_otlp_ms_min"] = otlp.min_ms();
    extra["export_chrome_records_per_s"] =
        chrome.min_ms() > 0
            ? static_cast<double>(batch_records) / (chrome.min_ms() / 1000.0)
            : 0.0;
  }

  // Performance Observatory cost: detection under a live sampling profiler
  // (sampler thread + frame annotations + alloc attribution) vs bare
  // detection. Same interleaved median-of-pair scheme; ci.sh gates the
  // enabled ratio at <= 1.10 and the disabled noise floor at ~1.00 (the
  // annotations must stay one relaxed load + branch when no profiler is
  // installed).
  {
    constexpr int kProfPasses = 3;
    const auto detect_all = [&] {
      for (int p = 0; p < kProfPasses; ++p) {
        for (const auto& s : sessions) benchmark::DoNotOptimize(il.detect(s));
      }
    };
    const auto timed_ms = [](const auto& fn) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
    };
    const obs::ProfilerOptions prof_opts;  // defaults: 1ms period, allocs on
    detect_all();
    {
      obs::Profiler warm(prof_opts);
      detect_all();  // warmup both modes
    }
    // min(on)/min(off) over order-alternated interleaved pairs: the minimum
    // of repeated runs is the least-noise estimate of true cost (scheduler
    // and cache interference are strictly additive), so the ratio of minima
    // isolates the profiler's own overhead from machine noise that a
    // median-of-pair-ratios estimator still lets through on busy hosts.
    std::vector<double> on_runs;
    std::vector<double> off_runs;
    for (int r = 0; r < 9; ++r) {
      if (r % 2 == 0) {
        {
          obs::Profiler prof(prof_opts);
          on_runs.push_back(timed_ms(detect_all));
        }
        off_runs.push_back(timed_ms(detect_all));
      } else {
        off_runs.push_back(timed_ms(detect_all));
        {
          obs::Profiler prof(prof_opts);
          on_runs.push_back(timed_ms(detect_all));
        }
      }
    }
    const auto min_of = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
    };
    const double min_off = min_of(off_runs);
    extra["profiler_overhead_ratio"] = min_off > 0 ? min_of(on_runs) / min_off : 0.0;

    // Noise floor: the same estimator over two sets of bare runs (slot A /
    // slot B, order-alternated). Should straddle 1.00; a drift here means
    // the ratio gate above is measuring the machine, not the profiler.
    std::vector<double> bare_a;
    std::vector<double> bare_b;
    for (int r = 0; r < 9; ++r) {
      if (r % 2 == 0) {
        bare_a.push_back(timed_ms(detect_all));
        bare_b.push_back(timed_ms(detect_all));
      } else {
        bare_b.push_back(timed_ms(detect_all));
        bare_a.push_back(timed_ms(detect_all));
      }
    }
    const double min_b = min_of(bare_b);
    extra["profiler_disabled_ratio"] = min_b > 0 ? min_of(bare_a) / min_b : 0.0;

    // Top-N hotspot attribution over one fully profiled batch: where do the
    // detect-path cycles and allocations actually go? compare_bench.py
    // ignores non-numeric extras, so the nested array is report-only.
    {
      obs::ProfilerOptions attr_opts;
      attr_opts.sample_period_us = 100;
      obs::Profiler prof(attr_opts);
      detect_all();
      prof.stop();
      extra["profiler_samples"] = static_cast<std::int64_t>(prof.total_samples());
      extra["profiler_alloc_bytes"] = static_cast<std::int64_t>(prof.total_alloc_bytes());
      extra["profiler_allocs"] = static_cast<std::int64_t>(prof.total_allocs());
      // Allocation discipline of the arena-backed detect path, gated in
      // ci.sh: heap allocations per record across the fully profiled batch.
      extra["detect_allocs_per_record"] =
          static_cast<double>(prof.total_allocs()) /
          static_cast<double>(kProfPasses * batch_records);
      // High-water mark of the per-shard detect arenas over everything run
      // so far (report-only context for the alloc gate).
      extra["arena_bytes_peak"] = static_cast<std::int64_t>(core::detect_arena_bytes_peak());
      common::Json hotspots = common::Json::array();
      for (const obs::HotFrame& h : prof.hot_frames(10)) {
        common::Json row = common::Json::object();
        row["path"] = h.path;
        row["self_samples"] = static_cast<std::int64_t>(h.self_samples);
        row["self_pct"] = h.self_pct;
        row["alloc_bytes"] = static_cast<std::int64_t>(h.alloc_bytes);
        row["allocs"] = static_cast<std::int64_t>(h.allocs);
        hotspots.push_back(std::move(row));
      }
      extra["profiler_hotspots"] = std::move(hotspots);
    }
  }

  // Allocation discipline of the streaming entry point, gated in ci.sh:
  // heap allocations per record inside OnlineDetector::consume (the
  // buffered record copy, the session's Spell-key cache, new-session
  // bookkeeping), with the sessions' closing detect outside the window.
  {
    core::OnlineDetector online(il);
    obs::ProfilerOptions alloc_opts;
    alloc_opts.sample_period_us = 100'000;  // counting allocations, not sampling
    obs::Profiler prof(alloc_opts);
    for (const auto& s : sessions) {
      for (const auto& rec : s.records) (void)online.consume(rec);
    }
    prof.stop();
    extra["online_consume_allocs_per_record"] =
        static_cast<double>(prof.total_allocs()) / static_cast<double>(batch_records);
    benchmark::DoNotOptimize(online.close_all());
  }

  // Flight-recorder cost: batch detection with the always-on event journal
  // recording (shard begin/end + any other instrumented sites firing) vs
  // with the recorder disabled. Same min-over-order-alternated-interleaved
  // scheme as the profiler ratio; ci.sh gates the enabled ratio at <= 1.05
  // and the disabled noise floor at ~1.00 — the disabled FLIGHT_EVENT
  // macro must stay one relaxed load + branch, invisible at this scale.
  {
    constexpr int kFlightPasses = 3;
    const auto detect_all = [&] {
      for (int p = 0; p < kFlightPasses; ++p) {
        benchmark::DoNotOptimize(il.detect_batch(sessions, 2));
      }
    };
    const auto timed_ms = [](const auto& fn) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
    };
    const auto min_of = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
    };
    detect_all();  // warmup (recorder currently off)
    obs::flight::flight_enable();
    detect_all();  // warmup the enabled path (ring registration etc.)
    obs::flight::flight_disable();

    std::vector<double> on_runs;
    std::vector<double> off_runs;
    for (int r = 0; r < 9; ++r) {
      const auto run_on = [&] {
        obs::flight::flight_enable();
        on_runs.push_back(timed_ms(detect_all));
        obs::flight::flight_disable();
      };
      const auto run_off = [&] { off_runs.push_back(timed_ms(detect_all)); };
      if (r % 2 == 0) {
        run_on();
        run_off();
      } else {
        run_off();
        run_on();
      }
    }
    const double min_off = min_of(off_runs);
    extra["flight_overhead_ratio"] = min_off > 0 ? min_of(on_runs) / min_off : 0.0;

    // Noise floor: the identical estimator over two sets of recorder-off
    // runs. Gated to straddle 1.00 in ci.sh — this is the assertion that
    // the disabled FLIGHT_EVENT path costs one relaxed atomic load.
    std::vector<double> bare_a;
    std::vector<double> bare_b;
    for (int r = 0; r < 9; ++r) {
      if (r % 2 == 0) {
        bare_a.push_back(timed_ms(detect_all));
        bare_b.push_back(timed_ms(detect_all));
      } else {
        bare_b.push_back(timed_ms(detect_all));
        bare_a.push_back(timed_ms(detect_all));
      }
    }
    const double min_b = min_of(bare_b);
    extra["flight_disabled_ratio"] = min_b > 0 ? min_of(bare_a) / min_b : 0.0;
  }

  // Telemetry-plane cost: detection while a 10 Hz client scrapes /metrics
  // off the embedded HTTP admin server, vs bare detection. Scrape work
  // (registry serialization + socket IO) runs on the server's worker
  // threads, so the gated ratio (<= 1.05 in ci.sh) pins the contract that
  // a live scraper taxes the detect path no more than scheduling noise.
  // Same min-over-order-alternated-rounds estimator as the profiler gate.
  {
    constexpr int kScrapePasses = 3;
    const auto detect_all = [&] {
      for (int p = 0; p < kScrapePasses; ++p) {
        for (const auto& s : sessions) benchmark::DoNotOptimize(il.detect(s));
      }
    };
    const auto timed_ms = [](const auto& fn) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
    };
    // The registry stays installed across both arms (constant cost); a
    // representative family mix makes each scrape serialize real series,
    // including an exemplared e2e-latency histogram per tenant.
    obs::MetricsRegistry reg;
    obs::set_registry(&reg);
    reg.describe("intellog_serve_e2e_latency_ms", "spool arrival to report write");
    for (const char* tenant : {"acme", "globex", "initech"}) {
      const obs::Labels labels{{"tenant", tenant}};
      reg.counter("intellog_serve_records_total", labels).add(12345);
      obs::Histogram& h = reg.histogram("intellog_serve_e2e_latency_ms", labels);
      for (int i = 0; i < 64; ++i) {
        h.observe(0.05 * static_cast<double>(i + 1), "container_bench");
      }
    }
    obs::http::StatusBoard board;
    obs::http::HttpServer server;
    obs::http::mount_admin_plane(server, board);
    server.start();
    const std::uint16_t port = server.port();
    const auto run_scraped = [&] {
      std::atomic<bool> stop{false};
      std::thread scraper([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          benchmark::DoNotOptimize(
              obs::http::http_get("127.0.0.1", port, "/metrics", /*timeout_ms=*/1000));
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
      });
      const double ms = timed_ms(detect_all);
      stop.store(true, std::memory_order_relaxed);
      scraper.join();
      return ms;
    };
    detect_all();         // warmup bare
    (void)run_scraped();  // warmup scraped (server accept path, scraper thread)
    std::vector<double> on_runs;
    std::vector<double> off_runs;
    for (int r = 0; r < 9; ++r) {
      if (r % 2 == 0) {
        on_runs.push_back(run_scraped());
        off_runs.push_back(timed_ms(detect_all));
      } else {
        off_runs.push_back(timed_ms(detect_all));
        on_runs.push_back(run_scraped());
      }
    }
    server.stop();
    obs::set_registry(nullptr);
    const auto min_of = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
    };
    const double min_off = min_of(off_runs);
    extra["scrape_overhead_ratio"] = min_off > 0 ? min_of(on_runs) / min_off : 0.0;
  }

  bench::emit_bench_json("micro_pipeline", match_timing,
                         static_cast<double>(kMatchPasses * session_records),
                         std::move(extra));
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_harness_bench();
  return 0;
}
