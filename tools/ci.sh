#!/usr/bin/env bash
# Tier-1 verification: build + run the full test suite in Release, then
# again under ASan/UBSan, then a bench smoke run that guards the detection
# path's throughput. Run from anywhere; builds land in build-ci-*.
#
#   tools/ci.sh            # all stages
#   tools/ci.sh release    # Release build + tests + bench smoke
#   tools/ci.sh asan       # sanitizers only
#   tools/ci.sh bench      # bench smoke only (builds Release if needed)
#   tools/ci.sh chaos      # corrupted-stream soak under ASan (3 seeds)
#   tools/ci.sh serve      # multi-tenant daemon soak under ASan (3 seeds)
#                          # + CLI serve end-to-end with status validation
#                          # + spool-size scaling probe (5k/15k/40k files)
#   tools/ci.sh http       # live admin-plane smoke (Release + ASan/UBSan):
#                          # endpoint validation, e2e-latency SLO series,
#                          # breaker-driven /readyz flip and recovery
#   tools/ci.sh flight     # black-box recorder crash drill: SIGSEGV a live
#                          # daemon, decode + validate the post-mortem dump
#   tools/ci.sh observatory # end-to-end trace-export/explain/status checks
#   tools/ci.sh quality    # seeded score round-trip, coverage + drift gates
#   tools/ci.sh profile    # sampling-profiler smoke (Release + ASan/UBSan)
#   tools/ci.sh tsan       # ThreadSanitizer build of the lock-free suites
#   tools/ci.sh perfbench  # end-to-end benchmark: compare.py rules + a smoke
#                          # run of every workload against the serial reference
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
mode="${1:-all}"

generator=()
command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)

# Each stage's scratch directory is removed when the stage ends, whether it
# passed or failed: a failing check exits the script from inside the stage,
# so removal is an EXIT trap, set when the directory is made and cleared
# once the stage has removed the directory itself.
stage_tmp() {  # stage_tmp VAR: make a directory and store its path in VAR
  local d
  d="$(mktemp -d)"
  trap "rm -rf '$d'" EXIT
  printf -v "$1" '%s' "$d"
}
end_stage_tmp() {
  rm -rf "$1"
  trap - EXIT
}

run_config() {
  local name="$1"; shift
  local dir="$repo/build-ci-$name"
  echo "==> [$name] configure"
  cmake -B "$dir" -S "$repo" "${generator[@]}" "$@"
  echo "==> [$name] build"
  cmake --build "$dir" -j "$jobs"
  echo "==> [$name] ctest"
  # Under the sanitizer config the arenas poison freed regions on every
  # reset (0xCD scribble + ASan shadow poisoning), so any read of stale
  # arena bytes — a view that outlived its session — dies loudly here
  # instead of flaking in production.
  local ctest_env=()
  [[ "$name" == asan ]] && ctest_env=(INTELLOG_ARENA_POISON=1)
  env "${ctest_env[@]}" ctest --test-dir "$dir" -j "$jobs" --output-on-failure
}

# Bench smoke: run bench_micro_pipeline's harness section (the google
# micro loops are filtered out for speed) and gate the fresh snapshot with
# tools/compare_bench.py against the committed BENCH_micro_pipeline.json
# baseline. Regenerate the baseline by copying the fresh JSON over the
# committed one when a change legitimately moves the numbers.
#
# Gates (tolerances chosen for small/shared CI runners, where scheduling
# noise alone moves ratios a few percent):
#   throughput_per_s >= 0.70x baseline  headline Spell-match throughput
#   ingest_resilient_ratio >= 0.80      hardened ingest vs plain parse
#   evidence_overhead_ratio <= 1.05     evidence construction on detect
#   coverage_overhead_ratio <= 1.08     coverage ledger stamping on detect
#                                       (the arena rewrite made the detect
#                                       loop ~2.4x faster, so the ledger's
#                                       fixed integer-stamping cost is a
#                                       larger fraction — 1.05 started
#                                       flaking at exactly the bound)
#   profiler_overhead_ratio <= 1.10     detect under a live sampling profiler
#   scrape_overhead_ratio <= 1.05       detect while a 10 Hz client scrapes
#                                       /metrics off the embedded HTTP server
#   profiler_disabled_ratio in 0.90..1.10  noise floor: uninstalled PROF_FRAME
#                                       annotations must cost ~nothing
#   flight_overhead_ratio <= 1.05       detect_batch with the flight
#                                       recorder journaling vs off
#   flight_disabled_ratio in 0.90..1.10 noise floor: a disabled FLIGHT_EVENT
#                                       must stay one relaxed load + branch
#   ingest_mmap/ingest_getline >= 1.8   zero-copy mmap+SWAR file ingest vs
#                                       the getline+owning-parse pipeline it
#                                       replaced (measured ~2.3x; headroom
#                                       for scheduling noise)
#   detect_allocs_per_record <= 0.2     arena-backed detect hot path (the
#                                       pre-arena pipeline paid ~50; ~6.5
#                                       after the rewrite, ~2.3 with the
#                                       compiled detect plan, 0.09 since
#                                       identifiers are views captured
#                                       through Spell's field layouts; the
#                                       bound leaves ~2x headroom, about one
#                                       more allocation per 10 records)
#   online_consume_allocs_per_record <= 3.5
#                                       OnlineDetector::consume: 3.23 with
#                                       the slimmer record, the per-session
#                                       storage and the layout cache (6.25
#                                       before them, 9.16 before the id
#                                       lookup by view and the in-place LRU
#                                       re-key); ~8% headroom. Counts are
#                                       deterministic.
# The overhead ratios are order-alternated interleaved-pair medians, and
# the mmap/getline and alloc gates compare two fresh measurements, so all
# of them are self-relative and need no baseline entry to be meaningful.
bench_smoke() {
  local dir="$repo/build-ci-release"
  if [[ -x "$dir/bench/bench_micro_pipeline" ]]; then
    # Incremental rebuild so a standalone `ci.sh bench` never measures a
    # binary staler than the working tree (full run_config would re-ctest).
    cmake --build "$dir" -j "$jobs" --target bench_micro_pipeline
  else
    run_config release -DCMAKE_BUILD_TYPE=Release
  fi
  local out
  stage_tmp out
  echo "==> [bench] smoke run (bench_micro_pipeline harness section)"
  INTELLOG_BENCH_DIR="$out" "$dir/bench/bench_micro_pipeline" \
    --benchmark_filter='DISABLED_none' >/dev/null 2>&1 || {
      echo "bench smoke: bench_micro_pipeline failed to run" >&2; exit 1; }
  local baseline="$repo/BENCH_micro_pipeline.json"
  if [[ ! -f "$baseline" ]]; then
    echo "bench smoke: no committed baseline at $baseline; skipping comparison"
    end_stage_tmp "$out"
    return 0
  fi
  python3 "$repo/tools/compare_bench.py" "$baseline" "$out/BENCH_micro_pipeline.json" \
    --ratio-min throughput_per_s=0.70 \
    --extra-min ingest_resilient_ratio=0.80 \
    --extra-max evidence_overhead_ratio=1.05 \
    --extra-max coverage_overhead_ratio=1.08 \
    --extra-max profiler_overhead_ratio=1.10 \
    --extra-range profiler_disabled_ratio=0.90:1.10 \
    --extra-max flight_overhead_ratio=1.05 \
    --extra-range flight_disabled_ratio=0.90:1.10 \
    --extra-ratio-min ingest_mmap_lines_per_s/ingest_getline_lines_per_s=1.8 \
    --extra-max detect_allocs_per_record=0.2 \
    --extra-max online_consume_allocs_per_record=3.5 \
    --extra-max scrape_overhead_ratio=1.05
  end_stage_tmp "$out"
}

# Profile smoke: the Performance Observatory end to end through the CLI.
# A seeded spark workload is trained and then detected with `--profile`
# (and once through the `intellog profile` wrapper); the collapsed-stack /
# pprof artifacts must pass the strict profile validator — well-formed
# frame paths spanning ingest/spell/extract/detect, self counters summing
# exactly to the totals, and alloc bytes attributed across >= 5 frames.
# Runs in both the Release and the ASan/UBSan build: under sanitizers the
# operator-new replacement is not linked (the runtime owns operator new)
# and attribution must flow through the sanitizer's malloc hooks instead —
# this stage pins that both paths produce valid, balanced artifacts.
# The detect run and the wrapper's train run also write `--trace`, whose
# stage spans must pair up per track and name only profiler frames of the
# same run (validate_observatory.py stages).
profile_smoke() {
  local name="$1"
  local dir="$repo/build-ci-$name"
  if [[ ! -x "$dir/tools/intellog" ]]; then
    if [[ "$name" == asan ]]; then
      run_config asan \
        -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
    else
      run_config release -DCMAKE_BUILD_TYPE=Release
    fi
  fi
  echo "==> [profile:$name] seeded profiler smoke"
  local tmp rc
  stage_tmp tmp
  "$dir/tools/loggen" "$tmp/jobs" --system spark --jobs 20 --seed 11 >/dev/null
  mkdir -p "$tmp/logs"
  cp "$tmp"/jobs/job_*/*.log "$tmp/logs/"
  "$dir/tools/intellog" train "$tmp/logs" -o "$tmp/model.json" >/dev/null 2>&1

  # A 50us sample period keeps the short seeded run statistically useful
  # (thousands of sampler ticks) while staying far from sampler saturation.
  rc=0
  INTELLOG_PROF_PERIOD_US=50 "$dir/tools/intellog" detect "$tmp/logs" \
      -m "$tmp/model.json" --jobs 2 --profile "$tmp/prof" \
      --trace "$tmp/detect.trace.json" >/dev/null 2>&1 || rc=$?
  [[ $rc -eq 0 || $rc -eq 3 ]] || {
    echo "profile smoke: FAIL — detect --profile exited $rc" >&2; exit 1; }
  python3 "$repo/tools/validate_observatory.py" profile "$tmp/prof" || {
    echo "profile smoke: FAIL — artifact validation ($name)" >&2; exit 1; }
  python3 "$repo/tools/validate_observatory.py" stages "$tmp/detect.trace.json" \
      "$tmp/prof.pprof.json" detect.session detect.scan detect.hwgraph_check || {
    echo "profile smoke: FAIL — detect stage trace ($name)" >&2; exit 1; }

  # The wrapper spelling must produce the same artifact set.
  INTELLOG_PROF_PERIOD_US=50 "$dir/tools/intellog" profile -o "$tmp/wrap" \
      train "$tmp/logs" -o "$tmp/model2.json" --trace "$tmp/train.trace.json" \
      >/dev/null 2>&1 || {
    echo "profile smoke: FAIL — intellog profile wrapper" >&2; exit 1; }
  [[ -s "$tmp/wrap" && -s "$tmp/wrap.alloc" && -s "$tmp/wrap.pprof.json" ]] || {
    echo "profile smoke: FAIL — wrapper artifacts missing" >&2; exit 1; }
  python3 "$repo/tools/validate_observatory.py" stages "$tmp/train.trace.json" \
      "$tmp/wrap.pprof.json" train.pipeline train.spell train.extract \
      train.group_entities train.subroutines train.session_view train.hwgraph || {
    echo "profile smoke: FAIL — train stage trace ($name)" >&2; exit 1; }

  # A one-tenant serve drain: its once-per-tick stages must be traced spans
  # and profiler frames, the spool listing inside its tick.
  mkdir -p "$tmp/spool/acme"
  cp "$tmp"/logs/*.log "$tmp/spool/acme/"
  "$dir/tools/intellog" serve "$tmp/spool" -m "$tmp/model.json" --drain-on-empty \
      --poll-ms 1 --max-ticks 300 --trace "$tmp/serve.trace.json" \
      --profile "$tmp/serve_prof" >/dev/null 2>&1 || {
    echo "profile smoke: FAIL — serve --profile ($name)" >&2; exit 1; }
  python3 "$repo/tools/validate_observatory.py" stages "$tmp/serve.trace.json" \
      "$tmp/serve_prof.pprof.json" serve.tick serve.list_spool || {
    echo "profile smoke: FAIL — serve stage trace ($name)" >&2; exit 1; }
  end_stage_tmp "$tmp"
  echo "profile smoke: OK ($name)"
}

# Observatory smoke: a seeded end-to-end run through the CLI per system —
# train on clean jobs, export the HW-graph span trees and validate them
# with a strict parser (whole-file json.loads: trailing garbage is a
# failure), require >= 1 lifespan span per entity-group track, detect a
# faulty run and require every finding to carry evidence lines with
# file/line/byte-offset provenance, round-trip the report through
# `intellog explain`, and validate the --status-file snapshot schema.
observatory_smoke() {
  local dir="$repo/build-ci-release"
  [[ -x "$dir/tools/intellog" ]] || run_config release -DCMAKE_BUILD_TYPE=Release
  echo "==> [observatory] seeded export/explain/status validation"
  local tmp sys rc
  stage_tmp tmp
  for sys in spark mapreduce tez; do
    "$dir/tools/loggen" "$tmp/$sys/train" --system "$sys" --jobs 3 --seed 7 >/dev/null
    "$dir/tools/loggen" "$tmp/$sys/clean" --system "$sys" --jobs 1 --seed 99 >/dev/null
    "$dir/tools/loggen" "$tmp/$sys/faulty" --system "$sys" --jobs 2 --seed 99 \
        --fault network >/dev/null
    "$dir/tools/intellog" train "$tmp/$sys/train" -o "$tmp/$sys/model.json" >/dev/null

    "$dir/tools/intellog" export-trace "$tmp/$sys/clean" -m "$tmp/$sys/model.json" \
        -o "$tmp/$sys/trace.json" --otlp "$tmp/$sys/otlp.json"

    rc=0
    "$dir/tools/intellog" detect "$tmp/$sys/faulty" -m "$tmp/$sys/model.json" --json \
        > "$tmp/$sys/report.json" || rc=$?
    [[ $rc -eq 0 || $rc -eq 3 ]] || {
      echo "observatory smoke: FAIL — detect exited $rc for $sys" >&2; exit 1; }

    # The explain round-trip re-renders the saved JSON report (exit 3 =
    # anomalies explained; anything else is a failure).
    rc=0
    "$dir/tools/intellog" explain "$tmp/$sys/report.json" \
        > "$tmp/$sys/explain.txt" || rc=$?
    [[ $rc -eq 0 || $rc -eq 3 ]] || {
      echo "observatory smoke: FAIL — explain exited $rc for $sys" >&2; exit 1; }

    # Streaming run publishing a live status snapshot.
    rc=0
    "$dir/tools/intellog" detect "$tmp/$sys/clean" -m "$tmp/$sys/model.json" \
        --status-file "$tmp/$sys/status.json" >/dev/null || rc=$?
    [[ $rc -eq 0 || $rc -eq 3 ]] || {
      echo "observatory smoke: FAIL — streaming detect exited $rc for $sys" >&2; exit 1; }
    "$dir/tools/intellog" top "$tmp/$sys/status.json" >/dev/null

    python3 "$repo/tools/validate_observatory.py" "$tmp/$sys" "$sys" || {
      echo "observatory smoke: FAIL — schema validation for $sys" >&2; exit 1; }
  done
  end_stage_tmp "$tmp"
  echo "observatory smoke: OK (spark, mapreduce, tez)"
}

# Quality smoke: the Quality Observatory loop, end to end through the CLI
# with the bench_table6 seeds. loggen emits the Table-6 evaluation workload
# for spark with its ground-truth labels sidecar; detect runs with the
# coverage ledger attached; `intellog score` replays the Table-6
# accounting and must land exactly on the committed bench envelope for
# these seeds (15 detected / 1 FP / 0 FN — same numerators and
# denominators as bench_table6_anomaly's spark row). Two trainings of the
# same corpus must diff-model at drift exactly 0, and the coverage report
# must pass strict schema validation.
quality_smoke() {
  local dir="$repo/build-ci-release"
  [[ -x "$dir/tools/intellog" ]] || run_config release -DCMAKE_BUILD_TYPE=Release
  echo "==> [quality] seeded score round-trip + coverage/drift gates"
  local tmp rc
  stage_tmp tmp
  "$dir/tools/loggen" "$tmp/train" --system spark --jobs 30 --seed 2024 >/dev/null
  "$dir/tools/intellog" train "$tmp/train" -o "$tmp/model.json" >/dev/null

  # Identical corpus, second training: any nonzero structural drift means
  # training is nondeterministic or model IO lost a component class.
  "$dir/tools/intellog" train "$tmp/train" -o "$tmp/model2.json" >/dev/null
  "$dir/tools/intellog" diff-model "$tmp/model.json" "$tmp/model2.json" --json \
      > "$tmp/drift.json"

  # Table-6 evaluation workload + labels sidecar, detection with the
  # coverage ledger stamping, then the scorer over report + labels.
  "$dir/tools/loggen" "$tmp/eval" --system spark --table6 --seed 3030 \
      --labels "$tmp/labels.json" >/dev/null
  rc=0
  "$dir/tools/intellog" detect "$tmp/eval" -m "$tmp/model.json" --json \
      --coverage "$tmp/coverage.json" > "$tmp/report.json" 2>/dev/null || rc=$?
  [[ $rc -eq 3 ]] || {
    echo "quality smoke: FAIL — detect exited $rc (want 3: workload has injected faults)" >&2
    exit 1; }
  "$dir/tools/intellog" score "$tmp/report.json" --labels "$tmp/labels.json" --json \
      > "$tmp/score.json"

  python3 "$repo/tools/validate_observatory.py" quality "$tmp" 15 1 0 || {
    echo "quality smoke: FAIL — score/coverage/drift validation" >&2; exit 1; }
  end_stage_tmp "$tmp"
}

# Chaos smoke: the seeded log-stream corruptor + hardened-ingestion soak
# (tools/chaos_soak), run under the ASan/UBSan build. Fails on any crash,
# leak, sanitizer report, or invariant violation — intact lines quarantined,
# kill-and-resume report divergence, duplicates-only parity break, or a
# session/record cap overrun.
chaos_smoke() {
  local dir="$repo/build-ci-asan"
  [[ -x "$dir/tools/chaos_soak" ]] || run_config asan \
      -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  echo "==> [chaos] corrupted-stream soak (3 seeds, ASan/UBSan)"
  local tmp seed no_mmap
  stage_tmp tmp
  for seed in 1 2 3; do
    # Seed 3 runs with mmap disabled: the read()-fallback reader must
    # survive the same corrupted streams as the mmap path.
    no_mmap=0; [[ "$seed" == 3 ]] && no_mmap=1
    ASAN_OPTIONS=detect_leaks=1 INTELLOG_ARENA_POISON=1 INTELLOG_NO_MMAP="$no_mmap" \
        "$dir/tools/chaos_soak" \
        --seed "$seed" --workdir "$tmp/soak_$seed" || {
      echo "chaos smoke: FAIL — seed $seed (see CHAOS VIOLATION lines above)" >&2
      exit 1
    }
  done
  end_stage_tmp "$tmp"
}

# Serve smoke: the multi-tenant daemon's chaos gate (tools/serve_soak)
# under ASan/UBSan — per-tenant accounting balance against independent
# spool truth, kill-and-resume accounting identity, corrupt-checkpoint
# set-aside, quarantine-storm isolation (breaker + 2x latency bound),
# parse-bomb shedding with ledger provenance, and wedged-shard watchdog
# restarts — then one `intellog serve` run through the Release CLI with
# strict status-document validation, and a spool-size scaling probe.
serve_smoke() {
  local dir="$repo/build-ci-asan"
  if [[ -x "$dir/tools/serve_soak" ]]; then
    cmake --build "$dir" -j "$jobs" --target serve_soak
  else
    run_config asan \
        -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  fi
  echo "==> [serve] multi-tenant daemon soak (3 seeds, ASan/UBSan)"
  local tmp seed rc
  stage_tmp tmp
  for seed in 1 2 3; do
    ASAN_OPTIONS=detect_leaks=1 INTELLOG_ARENA_POISON=1 \
        "$dir/tools/serve_soak" --seed "$seed" --workdir "$tmp/soak_$seed" || {
      echo "serve smoke: FAIL — seed $seed (see SERVE VIOLATION lines above)" >&2
      exit 1
    }
  done

  # CLI end to end: two tenant spools served to drain, then the published
  # status snapshot must pass strict serve-schema validation and render.
  local rdir="$repo/build-ci-release"
  if [[ -x "$rdir/tools/intellog" ]]; then
    # Incremental rebuild so a standalone `ci.sh serve` never runs a CLI
    # staler than the working tree (full run_config would re-ctest).
    cmake --build "$rdir" -j "$jobs" --target intellog --target loggen
  else
    run_config release -DCMAKE_BUILD_TYPE=Release
  fi
  echo "==> [serve] CLI serve end-to-end (Release)"
  "$rdir/tools/loggen" "$tmp/gen_a" --system spark --jobs 2 --seed 5 >/dev/null
  "$rdir/tools/loggen" "$tmp/gen_b" --system spark --jobs 2 --seed 6 >/dev/null
  mkdir -p "$tmp/root/acme" "$tmp/root/globex" "$tmp/train"
  cp "$tmp"/gen_a/job_*/*.log "$tmp/root/acme/"
  cp "$tmp"/gen_b/job_*/*.log "$tmp/root/globex/"
  cp "$tmp"/gen_a/job_*/*.log "$tmp"/gen_b/job_*/*.log "$tmp/train/"
  "$rdir/tools/intellog" train "$tmp/train" -o "$tmp/model.json" >/dev/null 2>&1
  rc=0
  "$rdir/tools/intellog" serve "$tmp/root" -m "$tmp/model.json" \
      --drain-on-empty --poll-ms 1 --max-ticks 300 \
      --status-file "$tmp/status.json" --metrics "$tmp/metrics.json" \
      >/dev/null 2>&1 || rc=$?
  [[ $rc -eq 0 ]] || {
    echo "serve smoke: FAIL — intellog serve exited $rc" >&2; exit 1; }
  "$rdir/tools/intellog" top "$tmp/status.json" >/dev/null || {
    echo "serve smoke: FAIL — top cannot render the serve status" >&2; exit 1; }
  python3 "$repo/tools/validate_observatory.py" serve "$tmp/status.json" || {
    echo "serve smoke: FAIL — serve status validation" >&2; exit 1; }

  # Scaling probe: a drain's cost per record must not grow with the spool's
  # history. One worker drains the first 5k, 15k and 40k files of one
  # seeded mapreduce spool (files sorted by path, flattened into one tenant
  # the way cp would: a later job's file of the same name replaces the
  # earlier one). Per-record wall time at 40k may be at most twice that at
  # 5k, and a tenant with a backlog lists its spool only when the spool
  # changed: at most 5 listings per drain.
  echo "==> [serve] scaling probe: 5k / 15k / 40k-file mapreduce drains (Release)"
  "$rdir/tools/loggen" "$tmp/mr_gen" --system mapreduce --jobs 400 --seed 7 >/dev/null
  "$rdir/tools/loggen" "$tmp/mr_train" --system mapreduce --jobs 30 --seed 2024 >/dev/null
  "$rdir/tools/intellog" train "$tmp/mr_train" -o "$tmp/mr_model.json" >/dev/null 2>&1
  find "$tmp/mr_gen" -name '*.log' | LC_ALL=C sort > "$tmp/mr_files"
  local n t0 t1
  for n in 5000 15000 40000; do
    rm -rf "$tmp/mr_root"
    mkdir -p "$tmp/mr_root/mapreduce"
    head -n "$n" "$tmp/mr_files" | xargs ln -f -t "$tmp/mr_root/mapreduce"
    t0=$(date +%s%N)
    rc=0
    "$rdir/tools/intellog" serve "$tmp/mr_root" -m "$tmp/mr_model.json" --jobs 1 \
        --drain-on-empty --backlog-files 100000 --metrics "$tmp/mr_metrics_$n.json" \
        >/dev/null 2>&1 || rc=$?
    t1=$(date +%s%N)
    [[ $rc -eq 0 ]] || {
      echo "serve smoke: FAIL — scaling probe drain of $n files exited $rc" >&2; exit 1; }
    echo "$n $((t1 - t0))" >> "$tmp/mr_walls"
  done
  python3 - "$tmp" <<'PY' || { echo "serve smoke: FAIL — scaling probe" >&2; exit 1; }
import json, os, sys
tmp = sys.argv[1]
ns_per_record, ok = {}, True
for line in open(os.path.join(tmp, "mr_walls")):
    n, wall_ns = map(int, line.split())
    with open(os.path.join(tmp, f"mr_metrics_{n}.json")) as f:
        metrics = json.load(f).values()
    def total(name):
        values = [m["value"] for m in metrics if m["name"] == name]
        return sum(values) if values else None
    records = total("intellog_serve_records_total") or 0
    listings = total("intellog_serve_spool_listings_total")
    ns_per_record[n] = wall_ns / max(1, records)
    print(f"  {n:>6} files: {records} records in {wall_ns / 1e9:.2f} s, "
          f"{ns_per_record[n]:.0f} ns/record, {listings} spool listings")
    if listings is None or listings > 5:
        print(f"  {n} files: want at most 5 spool listings per drain")
        ok = False
ratio = ns_per_record[40000] / ns_per_record[5000]
print(f"  per-record wall time 40k/5k: {ratio:.2f} (want <= 2)")
sys.exit(0 if ok and ratio <= 2.0 else 1)
PY
  end_stage_tmp "$tmp"
}

# Flight smoke: the black-box recorder's crash drill. A Release daemon is
# booted with --blackbox against two tenant spools and SIGSEGV'd while
# detect work is flowing; it must die 128+11 leaving a decodable
# blackbox.bin whose merged event log passes the strict flight validator
# (>= 50 events spanning >= 3 subsystems, per-thread monotonic steady
# timestamps, reason=signal signo=11). /flightz must answer with a live
# ring snapshot before the kill, and the decode side (file parsing of a
# crash-truncatable binary format) re-runs under ASan/UBSan when that
# build exists — decode only, the dump is already on disk.
flight_smoke() {
  local dir="$repo/build-ci-release"
  if [[ -x "$dir/tools/intellog" ]]; then
    cmake --build "$dir" -j "$jobs" --target intellog --target loggen
  else
    run_config release -DCMAKE_BUILD_TYPE=Release
  fi
  echo "==> [flight] crash-time black-box drill (Release)"
  local tmp pid addr rc i
  stage_tmp tmp
  "$dir/tools/loggen" "$tmp/gen_a" --system spark --jobs 2 --seed 5 >/dev/null
  "$dir/tools/loggen" "$tmp/gen_b" --system spark --jobs 2 --seed 6 >/dev/null
  mkdir -p "$tmp/root/acme" "$tmp/root/globex" "$tmp/train"
  cp "$tmp"/gen_a/job_*/*.log "$tmp/root/acme/"
  cp "$tmp"/gen_b/job_*/*.log "$tmp/root/globex/"
  cp "$tmp"/gen_a/job_*/*.log "$tmp"/gen_b/job_*/*.log "$tmp/train/"
  "$dir/tools/intellog" train "$tmp/train" -o "$tmp/model.json" >/dev/null 2>&1

  "$dir/tools/intellog" serve "$tmp/root" -m "$tmp/model.json" \
      --listen 127.0.0.1:0 --poll-ms 20 --blackbox "$tmp/blackbox.bin" \
      >/dev/null 2>"$tmp/serve.err" &
  pid=$!
  for i in $(seq 1 100); do
    grep -q "listening on http://" "$tmp/serve.err" && break
    kill -0 "$pid" 2>/dev/null || {
      echo "flight smoke: FAIL — serve died before listening:" >&2
      cat "$tmp/serve.err" >&2; exit 1; }
    sleep 0.1
  done
  addr="$(sed -n 's#.*listening on http://\([0-9.:]*\).*#\1#p' "$tmp/serve.err" | head -1)"
  [[ -n "$addr" ]] || {
    echo "flight smoke: FAIL — no listen address in serve stderr" >&2; exit 1; }
  rc=2
  for i in $(seq 1 200); do
    rc=0; "$dir/tools/intellog" healthcheck "$addr" >/dev/null 2>&1 || rc=$?
    [[ $rc -eq 0 ]] && break
    sleep 0.1
  done
  [[ $rc -eq 0 ]] || {
    echo "flight smoke: FAIL — daemon never became ready (healthcheck $rc)" >&2
    kill -9 "$pid" 2>/dev/null; exit 1; }

  # Live ring snapshot while the daemon is healthy: /flightz must say the
  # recorder is on and already hold journal events.
  python3 - "$addr" <<'PY' || { kill -9 "$pid" 2>/dev/null; exit 1; }
import json, sys, urllib.request
doc = json.loads(urllib.request.urlopen(
    f"http://{sys.argv[1]}/flightz", timeout=15).read().decode())
if doc.get("enabled") is not True:
    sys.exit("flight smoke: FAIL - /flightz says recorder is off")
if not doc.get("events"):
    sys.exit("flight smoke: FAIL - /flightz snapshot holds no events")
PY

  # Fresh spool drops keep detect work in flight, then the crash drill:
  # SIGSEGV mid-run must exit 139 with the handler's dump on disk.
  cp "$tmp"/gen_a/job_*/*.log "$tmp/root/globex/" 2>/dev/null || true
  sleep 0.3
  kill -SEGV "$pid"
  rc=0; wait "$pid" || rc=$?
  [[ $rc -eq $((128 + 11)) ]] || {
    echo "flight smoke: FAIL — SIGSEGV exited $rc (want 139)" >&2; exit 1; }
  [[ -s "$tmp/blackbox.bin" ]] || {
    echo "flight smoke: FAIL — no blackbox.bin after the crash" >&2; exit 1; }

  "$dir/tools/intellog" flight decode "$tmp/blackbox.bin" > "$tmp/flight.txt" || {
    echo "flight smoke: FAIL — text decode failed" >&2; exit 1; }
  "$dir/tools/intellog" flight decode "$tmp/blackbox.bin" --trace > "$tmp/flight.trace.json" || {
    echo "flight smoke: FAIL — trace decode failed" >&2; exit 1; }
  "$dir/tools/intellog" flight decode "$tmp/blackbox.bin" --json > "$tmp/flight.json" || {
    echo "flight smoke: FAIL — json decode failed" >&2; exit 1; }
  python3 "$repo/tools/validate_observatory.py" flight "$tmp/flight.json" signal 11 || {
    echo "flight smoke: FAIL — flight validation" >&2; exit 1; }

  # Decode-only repeat under sanitizers: the dump parser takes untrusted
  # crash-time bytes, so it gets the ASan/UBSan pass too when available.
  local adir="$repo/build-ci-asan"
  if [[ -x "$adir/tools/intellog" ]]; then
    cmake --build "$adir" -j "$jobs" --target intellog
    "$adir/tools/intellog" flight decode "$tmp/blackbox.bin" --json > "$tmp/flight.asan.json" || {
      echo "flight smoke: FAIL — ASan decode failed" >&2; exit 1; }
    python3 "$repo/tools/validate_observatory.py" flight "$tmp/flight.asan.json" signal 11 || {
      echo "flight smoke: FAIL — ASan flight validation" >&2; exit 1; }
  else
    echo "flight smoke: note — no ASan build tree, decode-only repeat skipped"
  fi
  end_stage_tmp "$tmp"
  echo "flight smoke: OK"
}

# HTTP smoke: the live telemetry plane end to end against a real daemon.
# `intellog serve --listen 127.0.0.1:0` is started against two tenant
# spools; once `healthcheck` reports ready, every admin endpoint must pass
# the strict http validator (content types, Prometheus exposition, serve
# status schema), /metrics must carry the per-tenant e2e-latency histogram
# with session exemplars, and `top --connect` must render the live view.
# Then a garbage flood trips one tenant's breaker: /readyz must flip to
# 503 (healthcheck exit 1) while the breaker is open and recover to 200
# after the half-open probe closes it. SIGTERM must drain gracefully.
# Runs against both the Release and the ASan/UBSan build.
http_smoke() {
  local name="$1"
  local dir="$repo/build-ci-$name"
  if [[ -x "$dir/tools/intellog" ]]; then
    cmake --build "$dir" -j "$jobs" --target intellog --target loggen
  elif [[ "$name" == asan ]]; then
    run_config asan \
        -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  else
    run_config release -DCMAKE_BUILD_TYPE=Release
  fi
  echo "==> [http:$name] live admin-plane smoke"
  local tmp pid addr rc i
  stage_tmp tmp
  "$dir/tools/loggen" "$tmp/gen_a" --system spark --jobs 2 --seed 5 >/dev/null
  "$dir/tools/loggen" "$tmp/gen_b" --system spark --jobs 2 --seed 6 >/dev/null
  mkdir -p "$tmp/root/acme" "$tmp/root/globex" "$tmp/train"
  cp "$tmp"/gen_a/job_*/*.log "$tmp/root/acme/"
  cp "$tmp"/gen_b/job_*/*.log "$tmp/root/globex/"
  cp "$tmp"/gen_a/job_*/*.log "$tmp"/gen_b/job_*/*.log "$tmp/train/"
  "$dir/tools/intellog" train "$tmp/train" -o "$tmp/model.json" >/dev/null 2>&1

  # --breaker-open-ticks 20 at --poll-ms 50 keeps /readyz degraded for
  # about a second, wide enough for the healthcheck poll below to observe
  # the flip on a loaded runner.
  "$dir/tools/intellog" serve "$tmp/root" -m "$tmp/model.json" \
      --listen 127.0.0.1:0 --poll-ms 50 --breaker-open-ticks 20 \
      >/dev/null 2>"$tmp/serve.err" &
  pid=$!
  for i in $(seq 1 100); do
    grep -q "listening on http://" "$tmp/serve.err" && break
    kill -0 "$pid" 2>/dev/null || {
      echo "http smoke: FAIL — serve died before listening:" >&2
      cat "$tmp/serve.err" >&2; exit 1; }
    sleep 0.1
  done
  addr="$(sed -n 's#.*listening on http://\([0-9.:]*\).*#\1#p' "$tmp/serve.err" | head -1)"
  [[ -n "$addr" ]] || {
    echo "http smoke: FAIL — no listen address in serve stderr" >&2; exit 1; }

  # Ready once the first tick has published real state and both spools
  # consumed cleanly.
  rc=2
  for i in $(seq 1 200); do
    rc=0; "$dir/tools/intellog" healthcheck "$addr" >/dev/null 2>&1 || rc=$?
    [[ $rc -eq 0 ]] && break
    sleep 0.1
  done
  [[ $rc -eq 0 ]] || {
    echo "http smoke: FAIL — daemon never became ready (healthcheck $rc)" >&2
    kill -9 "$pid" 2>/dev/null; exit 1; }

  python3 "$repo/tools/validate_observatory.py" http "$addr" || {
    echo "http smoke: FAIL — endpoint validation" >&2
    kill -9 "$pid" 2>/dev/null; exit 1; }

  # The SLO pillar: per-tenant e2e latency histograms with session
  # exemplars must be in the live exposition once sessions have closed.
  python3 - "$addr" <<'PY' || { kill -9 "$pid" 2>/dev/null; exit 1; }
import sys, urllib.request
body = urllib.request.urlopen(f"http://{sys.argv[1]}/metrics", timeout=15).read().decode()
lines = [l for l in body.splitlines() if l.startswith("intellog_serve_e2e_latency_ms_bucket")]
if not lines:
    sys.exit("http smoke: FAIL - no e2e latency buckets in /metrics")
for tenant in ("acme", "globex"):
    if not any(f'tenant="{tenant}"' in l for l in lines):
        sys.exit(f"http smoke: FAIL - no e2e latency series for {tenant}")
if not any(' # {session="' in l for l in lines):
    sys.exit("http smoke: FAIL - e2e latency buckets carry no session exemplars")
PY

  "$dir/tools/intellog" top --connect "$addr" | grep -q "e2e latency" || {
    echo "http smoke: FAIL — top --connect does not render e2e latency" >&2
    kill -9 "$pid" 2>/dev/null; exit 1; }

  # Breaker flip: a flood file of junk with one parseable line at the END —
  # the trailing line lets format detection succeed, and with no parsed
  # record yet every junk line quarantines as "unparseable" (junk after a
  # valid record would fold into it as stack-trace continuations instead).
  # >50% of the tick's lines quarantining with >= 64 seen trips the
  # breaker, and /readyz must say so.
  { for i in $(seq 1 200); do echo "@@ garbage line $i @@"; done
    head -1 "$(ls "$tmp/root/acme"/*.log | head -1)"
  } > "$tmp/flood.log"
  mv "$tmp/flood.log" "$tmp/root/acme/zzflood.log"
  rc=0
  for i in $(seq 1 200); do
    rc=0; "$dir/tools/intellog" healthcheck "$addr" >/dev/null 2>&1 || rc=$?
    [[ $rc -eq 1 ]] && break
    [[ $rc -eq 2 ]] && break
    sleep 0.05
  done
  [[ $rc -eq 1 ]] || {
    echo "http smoke: FAIL — breaker trip never degraded /readyz (last $rc)" >&2
    kill -9 "$pid" 2>/dev/null; exit 1; }

  # Recovery: the half-open probe closes the breaker once the pause ends
  # (the flood file is already done), and /readyz must return to 200.
  rc=1
  for i in $(seq 1 200); do
    rc=0; "$dir/tools/intellog" healthcheck "$addr" >/dev/null 2>&1 || rc=$?
    [[ $rc -eq 0 ]] && break
    sleep 0.1
  done
  [[ $rc -eq 0 ]] || {
    echo "http smoke: FAIL — /readyz never recovered after the breaker pause" >&2
    kill -9 "$pid" 2>/dev/null; exit 1; }

  kill -TERM "$pid"
  rc=0; wait "$pid" || rc=$?
  [[ $rc -eq $((128 + 15)) ]] || {
    echo "http smoke: FAIL — SIGTERM drain exited $rc (want 143)" >&2; exit 1; }
  end_stage_tmp "$tmp"
  echo "http smoke: OK ($name)"
}

# TSan smoke: a ThreadSanitizer build of the suites that own lock-free or
# cross-thread state — event rings and thread pool, profiler, flight
# recorder and stages, the serve daemon, detect_batch's session claiming
# and the parallel directory read. Any race report fails the stage.
tsan_smoke() {
  local dir="$repo/build-ci-tsan"
  echo "==> [tsan] build + lock-free/cross-thread suites"
  cmake -B "$dir" -S "$repo" "${generator[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread" -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build "$dir" -j "$jobs" --target test_common test_obs test_serve test_core \
      test_logparse
  local -x TSAN_OPTIONS="halt_on_error=1"
  "$dir/tests/test_common" --gtest_filter='EventRing.*:ThreadPool.*'
  "$dir/tests/test_obs" --gtest_filter='Profile.*:Flight*:Stage.*'
  "$dir/tests/test_serve"
  "$dir/tests/test_core" --gtest_filter='DetectBatch.*'
  "$dir/tests/test_logparse" --gtest_filter='LogIo.*:*Resilient*'
}

# Perfbench smoke: the end-to-end benchmark's own tests. They check the
# compare.py verdict rules, then run all three workloads (spool_drain,
# spool_trickle, batch_detect) on a small corpus, traced and untraced, and
# fail unless every report equals the serial detect reference and the serve
# accounting balances. This is the end-to-end check on serve admission.
perfbench_smoke() {
  echo "==> [perfbench] compare rules + smoke run of every workload"
  (cd "$repo" && python3 perfbench/test_perfbench.py)
}

case "$mode" in
  release|all)
    run_config release -DCMAKE_BUILD_TYPE=Release
    ;;&
  asan|all)
    run_config asan \
      -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
    ;;&
  chaos|all)
    chaos_smoke
    ;;&
  serve|all)
    serve_smoke
    ;;&
  release|http|all)
    http_smoke release
    ;;&
  asan|http|all)
    http_smoke asan
    ;;&
  release|flight|all)
    flight_smoke
    ;;&
  release|bench|all)
    bench_smoke
    ;;&
  release|observatory|all)
    observatory_smoke
    ;;&
  release|quality|all)
    quality_smoke
    ;;&
  release|profile|all)
    profile_smoke release
    ;;&
  asan|profile|all)
    profile_smoke asan
    ;;&
  tsan|all)
    tsan_smoke
    ;;&
  perfbench|all)
    perfbench_smoke
    ;;&
  release|asan|bench|chaos|serve|http|flight|observatory|quality|profile|tsan|perfbench|all) ;;
  *)
    echo "usage: $0 [release|asan|bench|chaos|serve|http|flight|observatory|quality|profile|tsan|perfbench|all]" >&2
    exit 2
    ;;
esac

echo "==> ci.sh OK ($mode)"
