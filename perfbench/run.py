#!/usr/bin/env python3
"""IntelLog end-to-end benchmark: build, run one workload, print the result.

    python3 perfbench/run.py --workload spool_drain --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset.
Inputs are generated under .bench_work/ and removed afterwards; the traced
run (--trace 1) writes its Chrome trace and self-time table to .bench_out/.

Every metric is printed as "name workload value unit". The last line is a
JSON object with the keys correct, attempted, failed and metrics; metrics
holds the end_to_end metrics of BENCHMARK.json with --trace 0 and its
per_layer metrics with --trace 1. The exit code is 0 only when every check
passed. --record FILE appends the result (with workload, seed and trace) to
FILE as one JSON line, the format compare.py reads.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("spool_drain", "spool_trickle", "batch_detect")

# Metrics the benchmark prints beyond BENCHMARK.json's lists, by workload and
# trace mode. The smoke run checks they are all there. They are not gated:
# some may read 0 (failures, sheds, breaker trips), and the one-worker rates
# move by more than any allowed bound with the host's load.
EXTRA = {
    (0, "spool_drain"): ["drain_1w_records_per_s", "failed_frac"],
    (0, "spool_trickle"): ["simsys.gen_lag_p99_ms", "logparse.quarantine_frac", "failed_frac"],
    (0, "batch_detect"): ["batch_1w_records_per_s", "failed_frac"],
    (1, "spool_drain"): ["logparse.quarantine_frac", "serve.backlog_files_max",
                         "serve.files_shed", "serve.breaker_trips", "failed_frac"],
    (1, "spool_trickle"): ["logparse.quarantine_frac", "serve.backlog_files_max",
                           "serve.files_shed", "serve.breaker_trips", "simsys.gen_lag_p99_ms",
                           "failed_frac"],
    (1, "batch_detect"): ["logparse.quarantine_frac", "serve.backlog_files_max",
                          "serve.files_shed", "serve.breaker_trips", "failed_frac"],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def benchmark_spec():
    for path in ("BENCHMARK.json", os.path.join(HERE, "..", "BENCHMARK.json")):
        if os.path.exists(path):
            with open(path) as f:
                return json.load(f)
    raise SystemExit("perfbench: BENCHMARK.json not found")


def build():
    """Configures (once) and builds the benchmark; returns the binary's path."""
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            raise SystemExit("perfbench: cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", build_dir, "--target", "intellog_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")
    return os.path.join(build_dir, "intellog_perfbench")


def run_once(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (printed metric lines, result object)."""
    work = os.path.join(".bench_work", "%s-%d" % (workload, os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", work, "--out", os.path.join(".bench_out", "trace")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit("perfbench: %s printed no result (exit %d)" % (workload, proc.returncode))
    return lines[:-1], json.loads(lines[-1])


def select(spec, result, trace):
    """The result with exactly the metrics BENCHMARK.json lists for this mode."""
    wanted = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise SystemExit("perfbench: metric %s missing or not in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def smoke(spec, binary):
    """Small-seed, seconds-long run of every workload in both modes."""
    ok = True
    for trace in (0, 1):
        for workload in WORKLOADS:
            _, result = run_once(binary, workload, 11, 2, trace, smoke=True)
            try:
                select(spec, result, trace)
            except SystemExit as e:
                log("smoke %s trace=%d: %s" % (workload, trace, e))
                ok = False
            missing = [n for n in EXTRA[(trace, workload)] if n not in result["metrics"]]
            if missing or not result["correct"]:
                log("smoke %s trace=%d: correct=%s missing=%s"
                    % (workload, trace, result["correct"], missing))
                ok = False
            else:
                log("smoke %s trace=%d: ok (%d metrics)"
                    % (workload, trace, len(result["metrics"])))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=3030)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record", help="append the result as a JSON line to this file")
    args = p.parse_args()
    if not args.smoke and not args.workload:
        p.error("--workload is required")

    spec = benchmark_spec()
    binary = build()
    if args.smoke:
        return 0 if smoke(spec, binary) else 1

    printed, result = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    out = select(spec, result, args.trace)
    for line in printed:
        print(line)
    print(json.dumps(out), flush=True)
    if args.record:
        with open(args.record, "a") as f:
            row = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
            row.update(out)
            f.write(json.dumps(row) + "\n")
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
