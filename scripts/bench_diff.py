#!/usr/bin/env python3
"""The output of the `bench/` suites at two revisions, compared line by line.

    python3 scripts/bench_diff.py --base <rev> [--change <rev>|WORKTREE]

Each side is unpacked into its own temporary directory by `perf_pairs.py`'s
`resolve` and `unpack` (WORKTREE is the working tree's tracked files, staged
or not; add new files to the index first), and runs
`sbt --batch "bench/test"` there with the environment this script was given
(sbt's offline settings, `SPARK_DRIVER_MEM`, ...). From each side's output
the script keeps the suites' own lines: it drops sbt's log lines and Spark's,
and every timing (scalatest's "(123 milliseconds)", "Run completed in ...",
sbt's "Total time"). It prints a unified diff of what is left and exits 1 if
the two sides differ or either run failed, else 0.
"""

import argparse
import difflib
import os
import re
import shutil
import subprocess
import sys
import tempfile

from perf_pairs import resolve, unpack

# sbt's own lines, whatever follows its level tag.
SBT = re.compile(r"^\[(info|warn|error|success)\] (welcome to sbt|loading |set current project|compiling |"
                 r"done compiling|Fetching |Updating|Resolved |Resolving |Run completed in |"
                 r"Total time: |No tests |Passed: Total |Tests: succeeded|Suites: completed|"
                 r"All tests passed|Total number of tests run|Reading |.*\bwarning\b.*found)")
# Spark's log4j lines, as its default layout and the JVM's stderr give them.
SPARK = re.compile(r"^(\[\w+\] )?(\d\d/\d\d/\d\d )?\d\d:\d\d:\d\d(\.\d+)? (TRACE|DEBUG|INFO|WARN|ERROR) |"
                   r"^(\[\w+\] )?(Using Spark's default log4j profile|Setting default log level|"
                   r"To adjust logging level|WARNING: )")
TIMING = re.compile(r" \(\d+(\.\d+)? (milliseconds?|seconds?|minutes?)[^)]*\)")


def bench_output(checkout):
    """The suites' lines of one `bench/test` run in `checkout`, and whether it passed."""
    p = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "bench/test"], cwd=checkout,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    kept = [TIMING.sub("", ln).rstrip() for ln in p.stdout.splitlines()
            if not SBT.match(ln) and not SPARK.match(ln)]
    return [ln for ln in kept if ln.strip() not in ("", "[info]")], p.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="the parent revision")
    ap.add_argument("--change", default="HEAD", help="the changed revision, or WORKTREE")
    args = ap.parse_args()

    work = tempfile.mkdtemp(prefix="bench_diff.")
    try:
        out, ok = {}, True
        for side, rev in (("parent", args.base), ("change", args.change)):
            commit = resolve(rev)
            print(f"{side}: {rev} = {commit}", flush=True)
            unpack(commit, os.path.join(work, side))
            out[side], passed = bench_output(os.path.join(work, side))
            if not passed:
                print(f"{side}: bench/test failed", flush=True)
                ok = False
        diff = list(difflib.unified_diff(out["parent"], out["change"], "parent", "change", lineterm=""))
        print("\n".join(diff) if diff else f"no difference in {len(out['change'])} lines")
        sys.exit(0 if ok and not diff else 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
