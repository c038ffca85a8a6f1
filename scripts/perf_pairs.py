#!/usr/bin/env python3
"""Alternating parent/change pairs of one perfbench workload.

    python3 scripts/perf_pairs.py --base <rev> [--change <rev>|WORKTREE] \
        --workload <name> [--pairs 10] [--seed0 1001] [--seconds 10] [--trace 0]

Each side is `git archive <rev>` unpacked into its own temporary directory,
so that both build from their committed sources alone (a built checkout's
target/ carries sbt's incremental state). `--change WORKTREE` archives the
working tree's tracked files as they are now, staged or not (`git stash
create`); add new files to the index first. Pair i runs
`python3 perfbench/run.py` at seed `seed0 + i` on both sides, the parent
first in even pairs and the change first in odd ones.

For each metric the script prints each side's median and quartiles, how many
pairs the change wins (ties count for neither side) and whether a gain can be
claimed: at least ten pairs ran, the change wins at least nine tenths of them
and its median differs from the parent's by more than the parent's
interquartile range. For the end-to-end metrics of BENCHMARK.json it also
says whether the change's median is worse than the parent's by more than the
metric's bound. Under `--trace 0` it also reports the per-technique
latencies that run.py prints as "(not guarded)" (`filter_p50_ms`,
`join_p50_ms`, ...), labelled unguarded, so that a pair shows which query
class moved. Any run that is not `correct` or has failed operations is
flagged, and the exit status is then 1. The script writes nothing into the
checkout; `--workdir` keeps the unpacked sides, builds included, for later
sets of pairs over the same trees.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A report line of run.py for a metric it does not guard: name, value, unit.
UNGUARDED = re.compile(r"^\s+(\S+)\s+(\S+) \S+ \(not guarded\)$")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def resolve(rev):
    """The commit to archive for `rev`; WORKTREE is the working tree's tracked files."""
    if rev == "WORKTREE":
        return git("stash", "create") or git("rev-parse", "HEAD")
    return git("rev-parse", "--verify", rev + "^{commit}")


def unpack(commit, dest):
    """Unpack `commit` into `dest`; a `dest` unpacked from the same tree before is reused with its build."""
    tree = git("rev-parse", commit + "^{tree}")
    stamp = os.path.join(dest, ".perf_pairs_tree")
    if os.path.isdir(dest):
        if os.path.isfile(stamp):
            with open(stamp) as f:
                if f.read() == tree:
                    return
        sys.exit(f"{dest} exists and holds another tree")
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"git archive {commit} failed")
    with open(stamp, "w") as f:
        f.write(tree)


def run_once(checkout, args, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [ln for ln in p.stdout.splitlines() if ln.startswith("{")]
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-3000:])
        return {"correct": False, "failed": None, "metrics": {}, "error": f"exit {p.returncode}"}
    result = json.loads(lines[-1])
    # Each metric is {"value": v, "unit": u}; keep the values.
    result["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
    result["unguarded"] = {m.group(1): float(m.group(2))
                           for m in map(UNGUARDED.match, p.stdout.splitlines()) if m}
    return result


def quartiles(xs):
    """Median and quartiles, each the median of its half (Tukey's hinges)."""
    s = sorted(xs)
    n = len(s)

    def med(v):
        m = len(v)
        return v[m // 2] if m % 2 else (v[m // 2 - 1] + v[m // 2]) / 2.0

    half = n // 2
    lower, upper = s[:half + (n % 2)], s[half:]
    return med(lower), med(s), med(upper)


def directions():
    """metric -> (better, bound or None), from the repository's BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    out = {m["name"]: (m["better"], m.get("bound")) for m in bench.get("per_layer", [])}
    out.update({m["name"]: (m["better"], m.get("bound")) for m in bench["end_to_end"]})
    return out, [m["name"] for m in bench["end_to_end"]]


def report(pairs, only_end_to_end):
    """One line per metric: the end-to-end ones and then those run.py does not
    guard if `only_end_to_end`, else every metric of the runs."""
    dirs, end_to_end = directions()
    if only_end_to_end:
        unguarded = list(dict.fromkeys(k for b, c in pairs for k in b.get("unguarded", {})))
        rows = [(n, "metrics") for n in end_to_end] + [(n, "unguarded") for n in unguarded]
    else:
        rows = [(n, "metrics") for n in sorted({k for b, c in pairs for k in b["metrics"]})]
    print(f"{'metric':<40} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} {'change %':>9} "
          f"{'wins':>6}  verdict")
    for name, field in rows:
        got = [(b[field][name], c[field][name]) for b, c in pairs
               if name in b.get(field, {}) and name in c.get(field, {})]
        if not got or not any(got_pair != (0, 0) for got_pair in got):
            continue  # not measured on this workload
        base, change = [x for x, _ in got], [y for _, y in got]
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        better, bound = dirs.get(name, (None, None))
        rel = (cmed - bmed) / bmed * 100 if bmed else 0.0
        if better is None:
            wins, verdict = "-", "no direction"
        else:
            sign = -1 if better == "lower" else 1
            won = sum(1 for x, y in got if sign * (y - x) > 0)
            wins = f"{won}/{len(got)}"
            gain = won >= 0.9 * len(got) and sign * (cmed - bmed) > (bq3 - bq1)
            verdict = "too few pairs" if len(got) < 10 else "gain" if gain else "no gain shown"
            if bound is not None and bmed and sign * (cmed - bmed) < 0 and abs(cmed - bmed) / abs(bmed) > bound:
                verdict += f"; WORSE BEYOND BOUND {bound}"
        label = f"{name} (unguarded)" if field == "unguarded" else name
        print(f"{label:<40} {f'{bmed:.6g} [{bq1:.6g}, {bq3:.6g}]':>36} {f'{cmed:.6g} [{cq1:.6g}, {cq3:.6g}]':>36} "
              f"{rel:>+8.2f}% {wins:>6}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="the parent revision")
    ap.add_argument("--change", default="HEAD", help="the changed revision, or WORKTREE")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1001)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workdir", help="where to unpack the two sides and keep them, builds included, "
                                      "for later sets (default: a temporary directory, removed after)")
    args = ap.parse_args()

    work = args.workdir or tempfile.mkdtemp(prefix="perf_pairs.")
    sides = {"parent": os.path.join(work, "parent"), "change": os.path.join(work, "change")}
    try:
        for side, rev in (("parent", args.base), ("change", args.change)):
            commit = resolve(rev)
            print(f"{side}: {rev} = {commit}", flush=True)
            unpack(commit, sides[side])
        pairs, flagged = [], []
        # A traced run reports per-layer metrics only, no end-to-end ones.
        progress = directions()[1] if args.trace == 0 else ("queries_per_s", "latency_p50_ms")
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            res = {}
            for side in order:
                res[side] = r = run_once(sides[side], args, seed)
                if not r.get("correct") or r.get("failed"):
                    flagged.append(f"pair {i} seed {seed} {side}: correct={r.get('correct')} "
                                   f"failed={r.get('failed')} {r.get('error', '')}".rstrip())
            pairs.append((res["parent"], res["change"]))
            shown = "  ".join(f"{k}={res['parent']['metrics'].get(k, float('nan')):.6g}->"
                              f"{res['change']['metrics'].get(k, float('nan')):.6g}"
                              for k in progress)
            print(f"pair {i} seed {seed} ({order[0]} first): {shown}", flush=True)
        print()
        report(pairs, only_end_to_end=args.trace == 0)
        for line in flagged:
            print("FLAGGED " + line)
        sys.exit(1 if flagged else 0)
    finally:
        if not args.workdir:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
