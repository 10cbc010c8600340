#!/usr/bin/env python3
"""The segdb benchmark command.

Run from the root of a segdb source tree:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. Builds perfbench/segbench.exe with dune,
      runs it, and passes its output through: a human-readable report,
      then one JSON line {"correct", "attempted", "failed", "metrics"}.
      --trace 0 gives the end-to-end metrics, --trace 1 the per-layer
      metrics of a traced run.

  python3 perfbench/run.py --all [--seed N] [--seconds S]
      Every workload under seed N and under the held-out seed, then one
      traced run of each; prints every end-to-end metric with its unit
      and fails if any answer check fails.

  python3 perfbench/run.py --spread K [--workload W] [--seconds S]
      K untraced runs per workload on seeds 1..K; prints each
      end-to-end metric's quartile spread as a share of its median next
      to its bound from BENCHMARK.json.

Workloads, metrics and bounds are listed in BENCHMARK.json. Scratch
files (Unix sockets, the churn_wal WAL and snapshot, span dumps) go to
.perfbench/ under the current directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ["embedded_cold", "serve_hot", "churn_wal"]
# Never used while tuning: later claims must also hold on it.
HELD_OUT_SEED = 7_340_033
EXE = os.path.join("_build", "default", "perfbench", "segbench.exe")
SCRATCH = ".perfbench"


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found")


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "segbench.ml")):
        if not os.path.exists(need):
            fail("run from the root of a segdb source tree (missing %s)" % need)
    # The shared dune cache lives outside the tree; keep the build inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune() + ["build", "--root", ".", "--display", "quiet", "./perfbench/segbench.exe"]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def source_rev():
    """The git commit, or a digest of the sources when the tree is not a
    git checkout of its own."""
    if os.path.exists(".git"):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
            if r.returncode == 0:
                return r.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        for d, dirs, files in os.walk(top) if os.path.isdir(top) else [(".", [], [top])]:
            dirs.sort()
            for f in sorted(files):
                p = os.path.normpath(os.path.join(d, f))
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def run_once(workload, seed, seconds, trace, rev, echo):
    """Runs segbench; returns (exit code, result or None, issue metrics, provenance)."""
    os.makedirs(SCRATCH, exist_ok=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--dir", SCRATCH, "--source", rev]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    last, issue, prov = None, {}, {}
    for line in p.stdout:
        if echo:
            sys.stdout.write(line)
            sys.stdout.flush()
        if line.startswith("issue_metrics "):
            issue = json.loads(line[len("issue_metrics "):])
        if line.startswith("provenance "):
            prov = json.loads(line[len("provenance "):])
        if line.strip():
            last = line
    code = p.wait()
    result = None
    if last is not None:
        try:
            result = json.loads(last)
        except ValueError:
            result = None
    return code, result, issue, prov


def fmt(v):
    return "%.4g" % v


def all_mode(args, rev):
    ok = True
    for w in WORKLOADS:
        for seed in (args.seed, HELD_OUT_SEED):
            code, res, issue, _ = run_once(w, seed, args.seconds, 0, rev, echo=False)
            if code != 0 or res is None or not res["correct"]:
                ok = False
            ms = dict(res["metrics"]) if res else {}
            ms.update(issue)
            print("%-14s seed %-8d %s" % (w, seed, "  ".join(
                "%s=%s %s" % (k, fmt(v["value"]), v["unit"]) for k, v in ms.items())), flush=True)
    for w in WORKLOADS:
        code, res, _, _ = run_once(w, args.seed, args.seconds, 1, rev, echo=True)
        if code != 0 or res is None or not res["correct"]:
            ok = False
    print("all workloads: %s" % ("answers correct" if ok else "FAILED"))
    return 0 if ok else 1


def spread_mode(args, rev):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [args.workload] if args.workload else WORKLOADS
    ok = True
    for w in workloads:
        values, calib = {}, []
        for seed in range(1, args.spread + 1):
            code, res, _, prov = run_once(w, seed, args.seconds, 0, rev, echo=False)
            if code != 0 or res is None or not res["correct"]:
                print("%s seed %d: FAILED" % (w, seed))
                ok = False
                continue
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            calib.append("%.1f/%.1fms steal %.1fs" % (*prov.get("calib_ms", [0, 0]), prov.get("steal_s", 0)))
        print("%-14s machine: %s" % (w, ", ".join(calib)), flush=True)
        for k, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / med if med else float("inf")
            b = bounds.get(k)
            verdict = "" if b is None else ("ok" if share < b / 3 else "WIDE")
            print("%-14s %-18s median %-12s spread %6.3f  bound %-5s %s  [%s]" % (
                w, k, fmt(med), share, b, verdict, " ".join(fmt(v) for v in vs)), flush=True)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--spread", type=int, default=0)
    args = ap.parse_args()
    build()
    rev = source_rev()
    if args.all:
        return all_mode(args, rev)
    if args.spread:
        return spread_mode(args, rev)
    if not args.workload:
        fail("--workload, --all or --spread is required")
    code, _, _, _ = run_once(args.workload, args.seed, args.seconds, args.trace, rev, echo=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
