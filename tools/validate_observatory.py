#!/usr/bin/env python3
"""Strict schema validation for the observatory and quality CI stages.

Default mode validates the artifacts one observatory_smoke iteration
produced in <dir>:
  trace.json   Chrome trace-event export of the clean run
  otlp.json    OTLP-style export of the same run
  report.json  `intellog detect --json` output for the faulty run
  status.json  `--status-file` snapshot from the streaming run

`quality <dir> <detected> <fp> <fn>` mode validates the Quality
Observatory artifacts quality_smoke produced in <dir>:
  score.json     `intellog score --json` — Table-6 tallies must equal the
                 expected detected/fp/fn exactly, and the emitted
                 precision/recall must be internally consistent
  coverage.json  coverage-ledger report — per-class hit/dead/stale
                 bookkeeping must add up
  drift.json     `intellog diff-model --json` of two identical-seed
                 trainings — drift_score must be exactly 0

`profile <prefix>` mode validates the Performance Observatory artifacts
profile_smoke produced (`intellog detect --profile <prefix>`):
  <prefix>             collapsed stacks, CPU-sample weights — every line
                       must match "frame[;frame]* COUNT"
  <prefix>.alloc       collapsed stacks, allocation-byte weights
  <prefix>.pprof.json  pprof-style JSON whose per-frame self counters must
                       sum exactly to the document totals (and match the
                       collapsed weights); the union of frame paths must
                       span ingest/spell/extract/detect with >= 8 distinct
                       paths and alloc bytes attributed to >= 5 frames

`serve <status.json>` mode validates the status snapshot an `intellog
serve` run publishes: the detect-mode status schema plus a sorted,
duplicate-free per-tenant table (breaker state, occupancy, accounting
with quarantined <= seen) and the intellog_serve_* metric families.

`http HOST:PORT` mode probes a live `serve --listen` admin plane: every
endpoint must answer with the right status and content type, /metrics
must pass strict Prometheus text-exposition checks (one HELP/TYPE per
family, well-formed samples, histogram +Inf bucket == _count), and
/status.json must satisfy the serve-mode status schema. Any 5xx or
unreachable endpoint is fatal.

`flight <flight.json> [reason signo]` mode validates a decoded flight-
recorder dump (`intellog flight decode --json` of the blackbox a crashed
daemon left behind): schema, >= 50 events spanning >= 3 subsystems,
per-thread (per ring slot, in listed order) monotonic steady timestamps,
and — for the CI crash drill — reason "signal" with signo 11.

`stages <trace.json> <prof.pprof.json> [stage...]` mode checks a `--trace`
file against the `--profile` of the same run: every stage B has its E on
its track, every traced stage is a profiler frame name with enters >= 1,
each listed stage appears, and a stage that only runs inside another
(serve.list_spool inside serve.tick) opens inside it on its track. A
serve run lists serve.tick and serve.list_spool, its once-per-tick
stages.

"Strict" means: the whole file must be one JSON document (json.loads over
the full text rejects trailing garbage), every entity-group track must
carry at least one lifespan span, and every finding must prove itself with
file/line/byte-offset evidence. Exits nonzero with a message on the first
schema drift, so ci.sh fails loudly instead of shipping a broken exporter.
"""

import json
import sys


def fail(msg):
    print(f"validate_observatory: {msg}", file=sys.stderr)
    sys.exit(1)


def load_strict(path):
    # read-then-loads: a concatenated or truncated document is an error,
    # unlike stream parsers that stop at the first complete value.
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"{path}: not a single valid JSON document: {e}")


def check_chrome_trace(path):
    doc = load_strict(path)
    if doc.get("displayTimeUnit") != "ms":
        fail(f"{path}: missing displayTimeUnit")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: empty or missing traceEvents")
    tracks = {}       # (pid, tid) -> thread_name
    group_spans = {}  # (pid, tid) -> lifespan span count
    sub_spans = 0
    for e in events:
        ph = e.get("ph")
        if ph not in ("X", "i", "M"):
            fail(f"{path}: unexpected phase {ph!r}")
        key = (e.get("pid"), e.get("tid"))
        if ph == "M":
            if e.get("name") == "thread_name":
                tracks[key] = e["args"]["name"]
            continue
        if not isinstance(e.get("ts"), (int, float)) or e["ts"] < 0:
            fail(f"{path}: event without a valid ts: {e}")
        if ph == "X":
            if not isinstance(e.get("dur"), (int, float)) or e["dur"] < 1:
                fail(f"{path}: complete event with dur < 1us: {e}")
            if e.get("name", "").startswith("sub "):
                sub_spans += 1
            else:
                group_spans[key] = group_spans.get(key, 0) + 1
    if not tracks:
        fail(f"{path}: no entity-group thread_name tracks")
    for key, name in tracks.items():
        if group_spans.get(key, 0) < 1:
            fail(f"{path}: track {name!r} has no entity-group lifespan span")
    if sub_spans == 0:
        fail(f"{path}: no subroutine spans")
    return len(tracks), sub_spans


def check_otlp(path):
    doc = load_strict(path)
    resource_spans = doc.get("resourceSpans")
    if not isinstance(resource_spans, list) or not resource_spans:
        fail(f"{path}: empty or missing resourceSpans")
    for rs in resource_spans:
        span_ids, parents = set(), []
        for ss in rs.get("scopeSpans", []):
            for sp in ss.get("spans", []):
                tid, sid = sp.get("traceId", ""), sp.get("spanId", "")
                if len(tid) != 32 or len(sid) != 16:
                    fail(f"{path}: malformed span ids {tid!r}/{sid!r}")
                int(tid, 16), int(sid, 16)  # must be hex
                span_ids.add(sid)
                if "parentSpanId" in sp:
                    parents.append(sp["parentSpanId"])
                if int(sp["endTimeUnixNano"]) <= int(sp["startTimeUnixNano"]):
                    fail(f"{path}: span {sp.get('name')!r} ends before it starts")
        if not span_ids:
            fail(f"{path}: resourceSpans entry with no spans")
        for p in parents:
            if p not in span_ids:
                fail(f"{path}: dangling parentSpanId {p!r}")


def check_report(path):
    reports = load_strict(path)
    if not isinstance(reports, list):
        fail(f"{path}: detect --json must emit an array")
    findings = 0
    for report in reports:
        for u in report.get("unexpected_messages", []):
            findings += 1
            check_evidence(path, u, f"unexpected@{u.get('record_index')}")
        for issue in report.get("group_issues", []):
            findings += 1
            check_evidence(path, issue, f"{issue.get('kind')}:{issue.get('group')}")
    return len(reports), findings


def check_evidence(path, finding, label):
    ev = finding.get("evidence")
    if not isinstance(ev, dict):
        fail(f"{path}: finding {label} has no evidence block")
    lines = ev.get("lines")
    if not isinstance(lines, list) or not lines:
        fail(f"{path}: finding {label} has no evidence lines")
    for line in lines:
        for key in ("file", "line", "byte_offset", "content", "record_index"):
            if key not in line:
                fail(f"{path}: evidence line of {label} lacks {key!r}")
        if not line["file"]:
            fail(f"{path}: evidence line of {label} has an empty file")
        # Sessions came off disk, so real provenance is required — a zero
        # line number would mean the ingest path dropped it.
        if line["line"] < 1:
            fail(f"{path}: evidence line of {label} has line {line['line']}")
        if line["byte_offset"] < 0:
            fail(f"{path}: negative byte offset in {label}")


def check_status(path):
    check_status_doc(load_strict(path), path)


def check_status_doc(doc, path):
    if doc.get("kind") != "intellog_status":
        fail(f"{path}: kind != intellog_status")
    # Versioned since the Quality Observatory: `intellog top` warns on a
    # version it doesn't know, so the writer must always stamp one.
    if not isinstance(doc.get("schema_version"), int) or doc["schema_version"] < 1:
        fail(f"{path}: missing or non-positive schema_version")
    for key, typ in (("sessions", list), ("occupancy", dict),
                     ("counters", dict), ("gauges", dict)):
        if not isinstance(doc.get(key), typ):
            fail(f"{path}: missing or mistyped {key!r}")
    occ = doc["occupancy"]
    for key in ("open_sessions", "buffered_records", "pending_evicted"):
        if not isinstance(occ.get(key), int):
            fail(f"{path}: occupancy lacks {key!r}")
    hist = doc.get("consume_latency_us")
    if hist is not None:
        if not isinstance(hist.get("buckets"), list) or not hist["buckets"]:
            fail(f"{path}: consume_latency_us without buckets")


def check_serve_status(path):
    return check_serve_status_doc(load_strict(path), path)


def check_serve_status_doc(doc, path):
    """Serve-mode status: the detect-mode schema plus the per-tenant table
    and the intellog_serve_* self-monitoring series."""
    check_status_doc(doc, path)
    tenants = doc.get("tenants")
    if not isinstance(tenants, list) or not tenants:
        fail(f"{path}: serve status without a tenants array")
    names = []
    for t in tenants:
        name = t.get("tenant")
        if not isinstance(name, str) or not name:
            fail(f"{path}: tenant row without a name: {t}")
        names.append(name)
        if t.get("breaker") not in ("closed", "open", "half-open"):
            fail(f"{path}: tenant {name}: bad breaker state {t.get('breaker')!r}")
        for key in ("epoch", "open_sessions", "buffered_records",
                    "pending_files", "pending_bytes", "restarts"):
            if not isinstance(t.get(key), int) or t[key] < 0:
                fail(f"{path}: tenant {name} lacks non-negative integer {key!r}")
        acc = t.get("accounting")
        if not isinstance(acc, dict):
            fail(f"{path}: tenant {name} has no accounting block")
        for key in ("records_admitted", "lines_seen", "lines_quarantined",
                    "sessions_closed", "sessions_anomalous", "files_done",
                    "files_shed", "bytes_shed", "breaker_trips"):
            if not isinstance(acc.get(key), int) or acc[key] < 0:
                fail(f"{path}: tenant {name} accounting lacks {key!r}")
        # Line accounting must be internally consistent: quarantined lines
        # are a subset of the lines seen.
        if acc["lines_quarantined"] > acc["lines_seen"]:
            fail(f"{path}: tenant {name}: more lines quarantined than seen")
    if names != sorted(names):
        fail(f"{path}: tenants not in service (sorted) order: {names}")
    if len(set(names)) != len(names):
        fail(f"{path}: duplicate tenant rows: {names}")
    counters = doc["counters"]
    if not any(k.startswith("intellog_serve_ticks_total") for k in counters):
        fail(f"{path}: no intellog_serve_ticks_total counter — the serve "
             "metrics bridge never ran")
    gauges = doc["gauges"]
    for family in ("intellog_serve_queue_saturation_ratio",
                   "intellog_serve_breakers_open"):
        if not any(k.startswith(family) for k in gauges):
            fail(f"{path}: missing serve gauge family {family!r}")
    if not isinstance(doc.get("alerts"), list):
        fail(f"{path}: serve status without an alerts array (stock "
             "serve_rules must always be evaluated)")
    return names


def serve_main(argv):
    if len(argv) != 2:
        fail("usage: validate_observatory.py serve <status.json>")
    names = check_serve_status(argv[1])
    print(f"validate_observatory: serve OK — {len(names)} tenant(s): "
          f"{', '.join(names)}")


def http_fetch(base, target, timeout=15):
    """GET base+target; returns (status, content_type, body_bytes). Any
    transport-level failure (refused, reset, timeout) is fatal — the CI
    stage starts the daemon first, so unreachable means it crashed."""
    import urllib.error
    import urllib.request
    url = base + target
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.headers.get("Content-Type", ""), resp.read()
    except urllib.error.HTTPError as e:
        body = e.read()
        return e.code, e.headers.get("Content-Type", "") or "", body
    except OSError as e:
        fail(f"{url}: unreachable: {e}")


def check_prometheus_text(text, label):
    """Strict Prometheus text-exposition checks: every line is a comment or
    a well-formed sample, HELP/TYPE at most once per family and before its
    samples, histogram families carry _bucket/_sum/_count with a +Inf
    bucket equal to _count. Returns the set of family names seen."""
    import re
    name_re = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
    label_set_re = r"\{(?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\",?)*\}"
    number_re = r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
    # OpenMetrics-style exemplar suffix the serve e2e-latency histogram
    # emits on _bucket lines: ` # {session="..."} VALUE`.
    sample_re = re.compile(
        r"^(" + name_re + r")"
        r"(" + label_set_re + r")?"
        r" (" + number_re + r"|[+-]?Inf|NaN)"
        r"( # " + label_set_re + r" " + number_re + r")?$")
    if not text:
        fail(f"{label}: empty exposition")
    if not text.endswith("\n"):
        fail(f"{label}: exposition does not end with a newline")
    helped, typed, families = set(), set(), set()
    sampled = set()
    buckets = {}   # family -> +Inf bucket value
    sums = set()   # families with a _sum sample
    counts = {}    # family -> _count value
    for i, line in enumerate(text.splitlines(), 1):
        if not line:
            fail(f"{label}:{i}: blank line in exposition")
        if line.startswith("#"):
            m = re.match(r"^# (HELP|TYPE) (" + name_re + r")(?: (.*))?$", line)
            if not m:
                fail(f"{label}:{i}: malformed comment line: {line!r}")
            kind, family = m.group(1), m.group(2)
            seen = helped if kind == "HELP" else typed
            if family in seen:
                fail(f"{label}:{i}: duplicate {kind} for family {family}")
            if family in sampled:
                fail(f"{label}:{i}: {kind} for {family} after its samples")
            seen.add(family)
            if kind == "TYPE" and m.group(3) not in (
                    "counter", "gauge", "histogram", "summary", "untyped"):
                fail(f"{label}:{i}: unknown TYPE {m.group(3)!r}")
            continue
        m = sample_re.match(line)
        if not m:
            fail(f"{label}:{i}: not a valid sample line: {line!r}")
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        if m.group(4) and not name.endswith("_bucket"):
            fail(f"{label}:{i}: exemplar on a non-bucket sample: {line!r}")
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        families.add(family)
        sampled.add(family)
        sampled.add(name)
        if name.endswith("_bucket"):
            lem = re.search(r'le="([^"]*)"', labels)
            if not lem:
                fail(f"{label}:{i}: histogram bucket without le: {line!r}")
            if lem.group(1) == "+Inf":
                buckets[family] = float(value)
        elif name.endswith("_sum"):
            sums.add(family)
        elif name.endswith("_count"):
            counts[family] = float(value)
    for family in buckets:
        if family not in sums or family not in counts:
            fail(f"{label}: histogram {family} lacks _sum/_count")
        if buckets[family] != counts[family]:
            fail(f"{label}: histogram {family}: +Inf bucket "
                 f"{buckets[family]} != _count {counts[family]}")
    return families


def http_main(argv):
    if len(argv) != 2 or ":" not in argv[1]:
        fail("usage: validate_observatory.py http HOST:PORT")
    base = f"http://{argv[1]}"

    status, ctype, body = http_fetch(base, "/healthz")
    if status != 200 or not ctype.startswith("text/plain"):
        fail(f"/healthz: {status} {ctype!r}")
    if body.decode("utf-8", "replace").strip() != "ok":
        fail(f"/healthz: unexpected body {body!r}")

    status, ctype, body = http_fetch(base, "/readyz")
    if status not in (200, 503) or not ctype.startswith("application/json"):
        fail(f"/readyz: {status} {ctype!r}")
    try:
        ready = json.loads(body.decode("utf-8"))
    except json.JSONDecodeError as e:
        fail(f"/readyz: not JSON: {e}")
    if not isinstance(ready.get("ready"), bool) or \
            not isinstance(ready.get("reasons"), list):
        fail(f"/readyz: bad schema: {ready!r}")
    if ready["ready"] != (status == 200):
        fail(f"/readyz: ready={ready['ready']} but HTTP status {status}")

    status, ctype, body = http_fetch(base, "/metrics")
    if status != 200:
        fail(f"/metrics: HTTP {status}")
    if not ctype.startswith("text/plain") or "version=0.0.4" not in ctype:
        fail(f"/metrics: bad content type {ctype!r}")
    families = check_prometheus_text(body.decode("utf-8"), "/metrics")
    for family in ("intellog_serve_ticks_total",
                   "intellog_serve_queue_saturation_ratio",
                   "intellog_serve_breakers_open"):
        if family not in families:
            fail(f"/metrics: missing serve family {family}")

    status, ctype, body = http_fetch(base, "/status.json")
    if status != 200 or not ctype.startswith("application/json"):
        fail(f"/status.json: {status} {ctype!r}")
    try:
        doc = json.loads(body.decode("utf-8"))
    except json.JSONDecodeError as e:
        fail(f"/status.json: not JSON: {e}")
    names = check_serve_status_doc(doc, "/status.json")

    for target, want_list in (("/tenants", True), ("/alerts", True)):
        status, ctype, body = http_fetch(base, target)
        if status != 200 or not ctype.startswith("application/json"):
            fail(f"{target}: {status} {ctype!r}")
        try:
            payload = json.loads(body.decode("utf-8"))
        except json.JSONDecodeError as e:
            fail(f"{target}: not JSON: {e}")
        if want_list and not isinstance(payload, list):
            fail(f"{target}: expected a JSON array")
    if len(json.loads(http_fetch(base, "/tenants")[2])) != len(names):
        fail("/tenants: row count disagrees with /status.json")

    status, ctype, body = http_fetch(base, "/profilez?seconds=1", timeout=30)
    if status != 200 or not ctype.startswith("text/plain"):
        fail(f"/profilez: {status} {ctype!r}")
    import re
    pattern = re.compile(r"^([^; ]+(?:;[^; ]+)*) (\d+)$")
    for i, line in enumerate(body.decode("utf-8").splitlines(), 1):
        if line and not pattern.match(line):
            fail(f"/profilez:{i}: not a collapsed-stack line: {line!r}")

    status, _, _ = http_fetch(base, "/no-such-endpoint")
    if status != 404:
        fail(f"/no-such-endpoint: expected 404, got {status}")

    print(f"validate_observatory: http OK — all endpoints up, "
          f"{len(families)} metric families, {len(names)} tenant(s): "
          f"{', '.join(names)}")


def check_score(path, expect_detected, expect_fp, expect_fn):
    doc = load_strict(path)
    if doc.get("kind") != "intellog_score":
        fail(f"{path}: kind != intellog_score")
    if doc.get("schema_version") != 1:
        fail(f"{path}: unexpected schema_version {doc.get('schema_version')!r}")
    systems = doc.get("systems")
    if not isinstance(systems, list) or not systems:
        fail(f"{path}: empty or missing systems")
    overall = doc.get("overall")
    if not isinstance(overall, dict):
        fail(f"{path}: missing overall block")
    for row in systems + [overall]:
        label = row.get("system", "overall")
        for key in ("detected", "false_positives", "false_negatives",
                    "injected_jobs"):
            if not isinstance(row.get(key), int) or row[key] < 0:
                fail(f"{path}: {label} lacks non-negative integer {key!r}")
        # The ratios must be recomputable from the tallies they ship with —
        # a mismatch means the scorer and its JSON writer disagree.
        d, fp = row["detected"], row["false_positives"]
        injected = row["injected_jobs"]
        if d + row["false_negatives"] != injected:
            fail(f"{path}: {label}: detected+false_negatives != injected_jobs")
        want_p = d / (d + fp) if d + fp else 1.0
        want_r = d / injected if injected else 1.0
        if abs(row.get("precision", -1) - want_p) > 1e-9:
            fail(f"{path}: {label} precision {row.get('precision')} != {want_p}")
        if abs(row.get("recall", -1) - want_r) > 1e-9:
            fail(f"{path}: {label} recall {row.get('recall')} != {want_r}")
    got = (overall["detected"], overall["false_positives"], overall["false_negatives"])
    want = (expect_detected, expect_fp, expect_fn)
    if got != want:
        fail(f"{path}: D/FP/FN {got} != expected {want} — the seeded run no "
             "longer reproduces the committed bench_table6 envelope")
    return got


def check_coverage(path):
    doc = load_strict(path)
    if doc.get("kind") != "intellog_coverage":
        fail(f"{path}: kind != intellog_coverage")
    classes = doc.get("classes")
    if not isinstance(classes, dict):
        fail(f"{path}: missing classes")
    total = hit = 0
    for name in ("log_keys", "subroutines", "edges"):
        cls = classes.get(name)
        if not isinstance(cls, dict):
            fail(f"{path}: missing class {name!r}")
        components = cls.get("components")
        if not isinstance(components, list) or len(components) != cls.get("total"):
            fail(f"{path}: class {name}: components don't match total")
        nonzero = sum(1 for c in components if c.get("hits", 0) > 0)
        if nonzero != cls.get("hit"):
            fail(f"{path}: class {name}: hit={cls.get('hit')} but "
                 f"{nonzero} components have nonzero hits")
        by_name = {c["name"] for c in components}
        for bucket in ("dead", "stale"):
            for comp in cls.get(bucket, []):
                if comp not in by_name:
                    fail(f"{path}: class {name}: {bucket} lists unknown {comp!r}")
        total += cls["total"]
        hit += cls["hit"]
    if doc.get("total") != total or doc.get("hit") != hit:
        fail(f"{path}: top-level total/hit don't match the class sums")
    if total and abs(doc.get("coverage_ratio", -1) - hit / total) > 1e-9:
        fail(f"{path}: coverage_ratio != hit/total")
    if hit == 0:
        fail(f"{path}: detection exercised no model components — the "
             "ledger was never stamped")
    return hit, total


def check_drift(path):
    doc = load_strict(path)
    if doc.get("kind") != "intellog_model_diff":
        fail(f"{path}: kind != intellog_model_diff")
    if doc.get("drift_score") != 0:
        fail(f"{path}: identical-seed trainings drifted "
             f"(drift_score={doc.get('drift_score')}) — training is "
             "nondeterministic or model IO dropped a component class")
    for name, cls in doc.get("classes", {}).items():
        if cls.get("added") or cls.get("removed"):
            fail(f"{path}: class {name} has churn despite drift 0")
        if cls.get("common", 0) <= 0:
            fail(f"{path}: class {name} is empty — nothing was compared")


def check_collapsed(path, min_paths=0):
    """Collapsed-stack format (flamegraph.pl / speedscope): every line is
    "frame[;frame]* COUNT" with non-empty frames and a positive integer
    weight. Returns {path: weight}."""
    import re
    pattern = re.compile(r"^([^; ]+(?:;[^; ]+)*) (\d+)$")
    weights = {}
    with open(path, encoding="utf-8") as f:
        for i, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                fail(f"{path}:{i}: blank line in collapsed-stack output")
            m = pattern.match(line)
            if not m:
                fail(f"{path}:{i}: not a collapsed-stack line: {line!r}")
            stack, weight = m.group(1), int(m.group(2))
            if weight <= 0:
                fail(f"{path}:{i}: non-positive weight")
            if stack in weights:
                fail(f"{path}:{i}: duplicate frame path {stack!r}")
            weights[stack] = weight
    if len(weights) < min_paths:
        fail(f"{path}: only {len(weights)} distinct frame paths "
             f"(need >= {min_paths})")
    return weights


def check_pprof(path):
    doc = load_strict(path)
    if doc.get("kind") != "intellog_profile":
        fail(f"{path}: kind != intellog_profile")
    if not isinstance(doc.get("schema_version"), int) or doc["schema_version"] < 1:
        fail(f"{path}: bad schema_version")
    frames = doc.get("frames")
    if not isinstance(frames, list) or not frames:
        fail(f"{path}: empty or missing frames")
    samples = allocs = alloc_bytes = 0
    alloc_frames = 0
    for fr in frames:
        for key in ("path", "name", "self_samples", "cum_samples",
                    "alloc_bytes", "cum_alloc_bytes", "allocs", "enters"):
            if key not in fr:
                fail(f"{path}: frame missing {key}: {fr.get('path')}")
        if fr["cum_samples"] < fr["self_samples"]:
            fail(f"{path}: {fr['path']}: cumulative < self samples")
        if fr["cum_alloc_bytes"] < fr["alloc_bytes"]:
            fail(f"{path}: {fr['path']}: cumulative < self alloc bytes")
        samples += fr["self_samples"]
        alloc_bytes += fr["alloc_bytes"]
        allocs += fr["allocs"]
        if fr["alloc_bytes"] > 0:
            alloc_frames += 1
    # The balancing invariant: per-frame self counters partition the totals.
    if samples != doc.get("total_samples"):
        fail(f"{path}: sum(self_samples)={samples} != "
             f"total_samples={doc.get('total_samples')}")
    if alloc_bytes != doc.get("total_alloc_bytes"):
        fail(f"{path}: sum(alloc_bytes)={alloc_bytes} != "
             f"total_alloc_bytes={doc.get('total_alloc_bytes')}")
    if allocs != doc.get("total_allocs"):
        fail(f"{path}: sum(allocs)={allocs} != "
             f"total_allocs={doc.get('total_allocs')}")
    return samples, alloc_bytes, alloc_frames


def profile_main(argv):
    if len(argv) != 2:
        fail("usage: validate_observatory.py profile <prefix>")
    prefix = argv[1]
    cpu = check_collapsed(prefix)
    alloc = check_collapsed(f"{prefix}.alloc")
    samples, alloc_bytes, alloc_frames = check_pprof(f"{prefix}.pprof.json")

    if not cpu:
        fail(f"{prefix}: no CPU samples collected — workload too short or "
             "the sampler never ran")
    if sum(cpu.values()) != samples:
        fail(f"{prefix}: collapsed CPU weight {sum(cpu.values())} != "
             f"pprof total_samples {samples}")
    if sum(alloc.values()) != alloc_bytes:
        fail(f"{prefix}.alloc: collapsed weight {sum(alloc.values())} != "
             f"pprof total_alloc_bytes {alloc_bytes}")

    # Coverage of the pipeline: the profiled run must span ingestion,
    # Spell matching, extraction and anomaly detection. Allocation paths
    # are deterministic, CPU paths are sampled — check the union.
    paths = set(cpu) | set(alloc)
    if len(paths) < 8:
        fail(f"{prefix}: only {len(paths)} distinct frame paths across "
             "CPU+alloc collapsed stacks (need >= 8)")
    for family in ("ingest.", "spell.", "extract.", "detect."):
        if not any(family in p for p in paths):
            fail(f"{prefix}: no frame path mentions {family}* — the "
                 "pipeline stage is unannotated or never ran")
    if alloc_frames < 5:
        fail(f"{prefix}: allocation bytes attributed to only {alloc_frames} "
             "frames (need >= 5)")
    print(f"validate_observatory: profile OK — {len(cpu)} CPU paths "
          f"({samples} samples), {len(alloc)} alloc paths "
          f"({alloc_bytes} bytes over {alloc_frames} frames)")


def quality_main(argv):
    if len(argv) != 5:
        fail("usage: validate_observatory.py quality <dir> <detected> <fp> <fn>")
    d = argv[1]
    expect = [int(x) for x in argv[2:5]]
    got = check_score(f"{d}/score.json", *expect)
    hit, total = check_coverage(f"{d}/coverage.json")
    check_drift(f"{d}/drift.json")
    print(f"validate_observatory: quality OK — score D/FP/FN {got}, "
          f"coverage {hit}/{total} components, drift 0")


def flight_main(argv):
    if len(argv) not in (2, 4):
        fail("usage: validate_observatory.py flight <flight.json> [reason signo]")
    path = argv[1]
    doc = load_strict(path)
    if doc.get("kind") != "intellog_flight":
        fail(f"{path}: kind is {doc.get('kind')!r}, not intellog_flight")
    for key in ("version", "reason", "signo", "threads", "dropped", "events",
                "anchor_wall_ns", "anchor_steady_ns"):
        if key not in doc:
            fail(f"{path}: missing {key}")
    if len(argv) == 4:
        want_reason, want_signo = argv[2], int(argv[3])
        if doc["reason"] != want_reason:
            fail(f"{path}: reason {doc['reason']!r}, want {want_reason!r}")
        if doc["signo"] != want_signo:
            fail(f"{path}: signo {doc['signo']}, want {want_signo}")

    events = doc["events"]
    if not isinstance(events, list) or len(events) < 50:
        fail(f"{path}: only {len(events) if isinstance(events, list) else '?'} "
             "events (need >= 50 — the journal was not always-on)")
    subsystems = set()
    last_by_slot = {}
    for i, e in enumerate(events):
        for key in ("seq", "steady_ns", "wall_ns", "slot", "os_tid", "event",
                    "subsystem"):
            if key not in e:
                fail(f"{path}: event {i} missing {key}")
        subsystems.add(e["subsystem"])
        # The merged log is globally time-sorted, so per-slot order in the
        # listed sequence must also be monotonic in the steady clock — a
        # violation means the decoder mis-merged or a ring tore.
        slot = e["slot"]
        if slot in last_by_slot and e["steady_ns"] < last_by_slot[slot]:
            fail(f"{path}: event {i} (slot {slot}) steady_ns goes backwards")
        last_by_slot[slot] = e["steady_ns"]
    if len(subsystems) < 3:
        fail(f"{path}: events span only {sorted(subsystems)} "
             "(need >= 3 subsystems)")
    print(f"validate_observatory: flight OK — {len(events)} events over "
          f"{len(last_by_slot)} thread(s) and {len(subsystems)} subsystems "
          f"({doc['reason']}, signo {doc['signo']}, "
          f"dropped {doc['dropped']})")


def stages_main(argv):
    if len(argv) < 3:
        fail("usage: validate_observatory.py stages <trace.json> "
             "<prof.pprof.json> [stage...]")
    trace_path, pprof_path, required = argv[1], argv[2], argv[3:]
    # Stages that run only inside another stage: child -> its parent.
    parent_of = {"serve.list_spool": "serve.tick"}
    doc = load_strict(trace_path)
    if doc.get("displayTimeUnit") != "ms":
        fail(f"{trace_path}: missing displayTimeUnit")
    open_by_track = {}  # (pid, tid) -> stack of open stage names
    spans = {}          # stage name -> closed B/E pairs
    for e in doc.get("traceEvents", []):
        if e.get("ph") not in ("B", "E"):
            continue
        name = e.get("name")
        stack = open_by_track.setdefault((e.get("pid"), e.get("tid")), [])
        if e["ph"] == "B":
            parent = parent_of.get(name)
            if parent is not None and parent not in stack:
                fail(f"{trace_path}: {name!r} on track {e.get('tid')} opens outside "
                     f"{parent!r}")
            stack.append(name)
        elif stack and stack[-1] == name:
            stack.pop()
            spans[name] = spans.get(name, 0) + 1
        else:
            fail(f"{trace_path}: E {name!r} on track {e.get('tid')} closes no open B")
    for (_, tid), stack in open_by_track.items():
        if stack:
            fail(f"{trace_path}: track {tid} leaves {stack} without an E")
    enters = {}
    for fr in load_strict(pprof_path).get("frames", []):
        enters[fr["name"]] = enters.get(fr["name"], 0) + fr["enters"]
    for name in spans:
        if enters.get(name, 0) < 1:
            fail(f"{trace_path}: stage {name!r} is no frame with enters >= 1 in {pprof_path}")
    for name in required:
        if name not in spans:
            fail(f"{trace_path}: no {name!r} stage span (have {sorted(spans)})")
    print(f"validate_observatory: stages OK — {sum(spans.values())} B/E pairs "
          f"over {len(spans)} stages, all profiler frames")


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "quality":
        quality_main(sys.argv[1:])
        return
    if len(sys.argv) >= 2 and sys.argv[1] == "profile":
        profile_main(sys.argv[1:])
        return
    if len(sys.argv) >= 2 and sys.argv[1] == "serve":
        serve_main(sys.argv[1:])
        return
    if len(sys.argv) >= 2 and sys.argv[1] == "http":
        http_main(sys.argv[1:])
        return
    if len(sys.argv) >= 2 and sys.argv[1] == "flight":
        flight_main(sys.argv[1:])
        return
    if len(sys.argv) >= 2 and sys.argv[1] == "stages":
        stages_main(sys.argv[1:])
        return
    if len(sys.argv) != 3:
        fail("usage: validate_observatory.py <artifact-dir> <system> | "
             "quality <dir> <detected> <fp> <fn> | profile <prefix> | "
             "serve <status.json> | http HOST:PORT | "
             "flight <flight.json> [reason signo] | "
             "stages <trace.json> <prof.pprof.json> [stage...]")
    d, system = sys.argv[1], sys.argv[2]
    tracks, subs = check_chrome_trace(f"{d}/trace.json")
    check_otlp(f"{d}/otlp.json")
    reports, findings = check_report(f"{d}/report.json")
    check_status(f"{d}/status.json")
    if reports == 0:
        fail(f"{d}: faulty {system} run produced no anomalous reports — "
             "the evidence path was never exercised")
    print(f"validate_observatory: {system} OK — {tracks} group tracks, "
          f"{subs} subroutine spans, {reports} anomalous reports, "
          f"{findings} evidence-backed findings")


if __name__ == "__main__":
    main()
