#!/usr/bin/env python3
"""One benchmark run of the repository.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the repository and the
harness from source with sbt (offline) and keeps the class path under
perfbench/.build; later runs reuse it while the sources are unchanged. The run
starts one JVM, which sets up the workload's data, warms up, runs one client
in a closed loop for --seconds and checks every result. This script turns the
raw samples into metrics, prints a report and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end metrics; with --trace 1 the JVM spends half the
time untraced and half with spans around every call into the repository's
layers, and the metrics are the per-layer ones.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("mpt_scan", "mpt_selective", "sim_workload")
TECHNIQUES = ("scan", "filter", "limit", "topk", "join")
# The tail percentile each workload reports: the highest one with at least
# stats.MIN_BEYOND samples beyond it in a run of BENCHMARK.json's length.
# A run of mpt_scan holds one pass of 21 queries, too few for a tail.
TAIL = {"mpt_scan": None, "mpt_selective": 75.0, "sim_workload": 99.0}
# A run ends within 180 s; a first run that builds, within 900 s.
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 700.0
JVM_HEAP = "3g"

# name -> unit; direction and bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "latency_vs_ref": "ratio",
    "pruned_frac": "ratio",
    "heap_used_mb": "MB",
}
# Client-side throughput and latencies. On a shared 4-core machine they moved
# by up to a third from one run to the next as the host's load changed, so
# they are not guarded: latency_vs_ref, which divides by a reference timed in
# the same loop, is. Every run prints them, and the traced run reports them
# with the per-layer metrics.
LATENCY_DETAIL = {
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    **{f"{t}_p50_ms": "ms" for t in TECHNIQUES},
}

# Layers whose spans lie inside traced query executions, and layers whose
# spans come from the fixed set of direct calls at set-up and in the probes.
EXEC_LAYERS = ("spark", "mpt", "sim")
PROBE_LAYERS = ("mpt", "core", "meta", "workload")
SIM_KINDS = ("Plain", "Join", "LimitNoPred", "LimitPred", "TopKOrderBy", "TopKGroupKey", "TopKGroupAgg")
PER_LAYER = {
    **LATENCY_DETAIL,
    "mpt.manifest_read_ms": "ms",
    "mpt.plan_ms": "ms",
    "mpt.push_filters_ns_per_partition": "ns",
    "mpt.topn_build_ms": "ms",
    "mpt.read_rows_per_s": "rows/s",
    "mpt.row_filter_ns_per_row": "ns",
    "mpt.reader_busy_ms_per_query": "ms",
    "mpt.files_opened_per_query": "count",
    "mpt.runtime_skipped_per_query": "count",
    "mpt.bytes_opened_per_query": "bytes",
    "mpt.write_ms": "ms",
    "mpt.stored_bytes_per_row": "bytes",
    "mpt.prune_latency_rank_corr": "ratio",
    "spark.other_ms": "ms",
    "spark.start_s": "s",
    **{f"ref.parquet_{t}_p50_ms": "ms" for t in TECHNIQUES},
    "core.classify_ns_per_partition": "ns",
    "core.adaptive_ns_per_partition": "ns",
    "core.fully_matching_frac": "ratio",
    "core.limit_prune_us": "us",
    "core.topk_run_us": "us",
    "core.topk_upfront_us": "us",
    "core.join_summarize_us": "us",
    "core.join_probe_ns_per_partition": "ns",
    **{f"sim.execute_us.{k}": "us" for k in SIM_KINDS},
    "sim.rows_scanned_per_query": "count",
    "workload.catalog_build_ms": "ms",
    "workload.generate_ms": "ms",
    "meta.stats_fold_ms": "ms",
    **{f"self.{layer}_ms": "ms" for layer in EXEC_LAYERS},
    "spans.mpt_per_query": "count",
    **{f"probe.{layer}_ms": "ms" for layer in PROBE_LAYERS},
    "trace.overhead_p50_pct": "%",
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


# ---- build ---------------------------------------------------------------

SOURCES = ("build.sbt", "project/build.properties", "src/main", "jobs",
           "perfbench/build.sbt", "perfbench/project/build.properties", "perfbench/src")


def source_stamp():
    h = hashlib.sha256()
    for rel in SOURCES:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Dsbt.server.autostart=false", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.isfile(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    return env


def classpath():
    """Build if the sources changed since the last build; return the class path."""
    build = os.path.join(HERE, ".build")
    cp_file, stamp_file = os.path.join(build, "classpath.txt"), os.path.join(build, "stamp")
    stamp = source_stamp()
    if os.path.isfile(cp_file) and os.path.isfile(stamp_file):
        with open(stamp_file) as f:
            if f.read() == stamp:
                with open(cp_file) as g:
                    return g.read()
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           "perfbench/compile", "export perfbench/Runtime/fullClasspath"]
    p = run_child(cmd, cwd=HERE, env=sbt_env(), timeout=BUILD_LIMIT_S, capture=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:])
        fail("build failed")
    lines = [ln for ln in p.stdout.splitlines() if ln and not ln.startswith("[")]
    if not lines:
        fail("build printed no class path")
    os.makedirs(build, exist_ok=True)
    with open(cp_file, "w") as f:
        f.write(lines[-1])
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return lines[-1]


def run_child(cmd, cwd, env, timeout, capture=False):
    """Run a child in its own process group; kill the group on timeout."""
    p = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True,
                         stdout=subprocess.PIPE if capture else sys.stderr,
                         stderr=subprocess.STDOUT if capture else None, text=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{cmd[0]} did not finish within {timeout:.0f} s")
    p.stdout = out
    return p


# ---- metrics -------------------------------------------------------------

def samples_ms(raw, key):
    s = raw.get(key) or {"tech": [], "ns": [], "query": []}
    return list(zip(s["query"], s["tech"], [ns / 1e6 for ns in s["ns"]]))


def client_metrics(raw):
    """End-to-end and latency-detail metrics from the untraced samples."""
    m = {"setup_s": stats.median(raw["setup_s"]), "heap_used_mb": raw["heap_used_mb"]}
    if "pruned_frac" in raw:
        m["pruned_frac"] = raw["pruned_frac"]
    elif raw["pruned"]["total"]:
        m["pruned_frac"] = 1.0 - raw["pruned"]["planned"] / raw["pruned"]["total"]
    samples = samples_ms(raw, "samples")
    lat = [ms for _, _, ms in samples]
    if not lat:
        return m, ["no successful query: no latency"]
    ref = samples_ms(raw, "ref_samples")
    if ref:
        m["latency_vs_ref"] = latency_vs_ref(raw["workload"], samples, ref)
    tail = TAIL[raw["workload"]]
    m["queries_per_s"] = len(lat) / (sum(lat) / 1e3)
    m["latency_p50_ms"] = stats.percentile(lat, 50)
    if tail is None:
        notes = ["latency_tail_ms: this workload has no tail percentile"]
    elif stats.supported(len(lat), tail):
        m["latency_tail_ms"] = stats.percentile(lat, tail)
        notes = [f"latency_tail_ms is p{tail:g} of {len(lat)} samples, "
                 f"{stats.samples_beyond(len(lat), tail)} beyond it"]
    else:
        notes = [f"latency_tail_ms: fewer than {stats.MIN_BEYOND} of {len(lat)} samples "
                 f"beyond p{tail:g}, not reported"]
    for t in TECHNIQUES:
        xs = [ms for _, tech, ms in samples if tech == t]
        if xs:
            m[f"{t}_p50_ms"] = stats.percentile(xs, 50)
        else:
            notes.append(f"no {t} samples")
    return m, notes


def latency_vs_ref(workload, samples, ref):
    """Query time over a reference timed in the same closed loop, so that a
    change in the machine's speed cancels out. On the DSv2 workloads the
    reference is the same query on the Parquet copy, and the result is the
    geometric mean over queries of the ratio of their median latencies. On
    the simulator it is a fixed kernel in the harness, run between blocks of
    queries, and the result is the geometric mean of the query latencies over
    the kernel's mean time. The geometric mean, not the mean: the simulator's
    top-k queries run at one of two speeds, about 105 or 170 us at the median,
    depending on the JVM, and they would move a mean by a sixth from run to
    run.
    """
    if workload == "sim_workload":
        kernel = [ms for _, _, ms in ref]
        return stats.geomean([ms for _, _, ms in samples]) / (sum(kernel) / len(kernel))
    mine, theirs = {}, {}
    for q, _, ms in samples:
        mine.setdefault(q, []).append(ms)
    for q, _, ms in ref:
        theirs.setdefault(q, []).append(ms)
    return stats.geomean([stats.median(mine[q]) / stats.median(theirs[q]) for q in mine if q in theirs])


def spearman(xs, ys):
    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        r = [0.0] * len(v)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and v[order[j + 1]] == v[order[i]]:
                j += 1
            for k in range(i, j + 1):
                r[order[k]] = (i + j) / 2.0
            i = j + 1
        return r
    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx) ** 0.5
    vy = sum((b - my) ** 2 for b in ry) ** 0.5
    return cov / (vx * vy) if vx and vy else 0.0


def per_query_lines(raw):
    """Each DSv2 query's plan-time partition counts and pruned fraction next
    to its untraced p50 latency, to set the pruning ratio against wall time
    (paper §8, Fig. 9)."""
    pq = raw.get("per_query") or []
    if not pq:
        return []
    ref = {}
    for q, _, ms in samples_ms(raw, "ref_samples"):
        ref.setdefault(q, []).append(ms)
    lines = ["per query: plan-time pruned fraction vs untraced p50 latency, and the p50 on the "
             "Parquet copy; counts per table are total/after filter/fully matching/after LIMIT/after top-k"]
    for r in pq:
        parquet = f"  parquet {stats.median(ref[r['id']]):9.2f} ms" if r["id"] in ref else ""
        lines.append(f"  q{r['id']:<3} {r['tech']:<7} pruned {r['pruned_frac']:.4f}  "
                     f"p50 {r['p50_ms']:9.2f} ms{parquet}  counts {r['counts']}")
    return lines


def per_layer(raw, client, report):
    m = dict(raw.get("layer", {}))
    m.update({n: client[n] for n in LATENCY_DETAIL if n in client})
    plain = [ms for _, _, ms in samples_ms(raw, "samples")]
    traced = [ms for _, _, ms in samples_ms(raw, "traced_samples")]
    if plain and traced:
        m["trace.overhead_p50_pct"] = 100.0 * (stats.median(traced) / stats.median(plain) - 1.0)
    if raw.get("spans_file"):
        spans = stats.read_spans(raw["spans_file"])
        # Spans of traced executions, per execution: a change that makes
        # queries faster completes more of them in a run, so totals would
        # rise with it.
        in_exec = [s for s in spans if s["query"] != -1]
        n_exec = len({s["query"] for s in in_exec})
        if n_exec:
            totals = stats.layer_totals(in_exec)
            for layer in EXEC_LAYERS:
                t, _ = totals.get(layer, (0, 0))
                m[f"self.{layer}_ms"] = t / 1e6 / n_exec
            if "mpt" in totals:
                m["spans.mpt_per_query"] = totals["mpt"][1] / n_exec
            selft = stats.self_times(in_exec)
            q = [selft[s["id"]] / 1e6 for s in in_exec if s["name"] == "spark.query"]
            if q:
                m["spark.other_ms"] = stats.median(q)
        # Set-up and probe spans: the same calls on every run.
        totals = stats.layer_totals([s for s in spans if s["query"] == -1])
        for layer in PROBE_LAYERS:
            if layer in totals:
                m[f"probe.{layer}_ms"] = totals[layer][0] / 1e6
    pq = raw.get("per_query")
    if pq:
        m["mpt.prune_latency_rank_corr"] = spearman([r["pruned_frac"] for r in pq], [r["p50_ms"] for r in pq])
    out = {}
    for name in PER_LAYER:
        if name not in m:
            report.append(f"{name}: not on this workload's path, reported as 0")
        out[name] = float(m.get(name, 0.0))
    return out


# ---- main ----------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    for rel in ("build.sbt", "src/main/scala", "perfbench/build.sbt"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail(f"{rel} not found: run from the root of a checkout of the repository")
    cp = classpath()
    started = time.monotonic()

    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    try:
        raw_path = os.path.join(work, "raw.json")
        cmd = ["java", f"-Xms{JVM_HEAP}", f"-Xmx{JVM_HEAP}", f"-Djava.io.tmpdir={work}/tmp",
               "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
               *JVM_OPENS, "-cp", cp, "perfbench.Main",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", work, "--out", raw_path]
        left = RUN_LIMIT_S - (time.monotonic() - started)
        p = run_child(cmd, cwd=ROOT, env=dict(os.environ), timeout=left)
        if p.returncode != 0 or not os.path.isfile(raw_path):
            fail(f"benchmark JVM exited with code {p.returncode}")
        with open(raw_path) as f:
            raw = json.load(f)
        report = per_query_lines(raw)
        client, notes = client_metrics(raw)
        report += notes
        if args.trace:
            metrics = per_layer(raw, client, report)
            units = PER_LAYER
        else:
            report += [f"  {n:<40} {client.get(n, 0.0):>16.6f} {u} (not guarded)"
                       for n, u in LATENCY_DETAIL.items()]
            metrics = client
            units = END_TO_END
            missing = [n for n in END_TO_END if n not in metrics]
            if missing:
                raw["errors"].append(f"metrics not measured: {missing}")
                raw["failed"] += 1
        print_report(args, raw, metrics, units, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = raw["attempted"], raw["failed"]
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {n: {"value": metrics.get(n, 0.0), "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))


def print_report(args, raw, metrics, units, report):
    env = raw.get("env", {})
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    n = len((raw.get("samples") or {}).get("ns", []))
    print(f"samples: {n} untraced"
          + (f", {len(raw['traced_samples']['ns'])} traced" if raw.get("traced_samples") else ""))
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"checked operations: {attempted}  failed: {failed}  failed_frac: {failed / max(1, attempted):.6f}")
    phases = raw.get("phases_s", {})
    print("phases: " + "  ".join(f"{k} {v:.2f} s" for k, v in phases.items()))
    for e in raw.get("errors", []):
        print(f"  error: {e}")
    for line in report:
        print(line)
    for name, unit in units.items():
        print(f"  {name:<40} {metrics.get(name, 0.0):>16.6f} {unit}")


JVM_OPENS = [f"--add-opens={p}=ALL-UNNAMED" for p in (
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar")] + ["-Djdk.reflect.useDirectMethodHandle=false"]


if __name__ == "__main__":
    main()
