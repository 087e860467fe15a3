#!/usr/bin/env python3
"""Builds and runs the S4 end-to-end benchmark, or compares two results.

Run from the repository root:

  python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --compare .bench_out/a.json .bench_out/b.json
  python3 perfbench/run.py --selftest

A run builds the library and the benchmark binary from source into
.bench_build/perfbench (Release), then runs one workload. The last line of
standard output is the result object {"correct", "attempted", "failed",
"metrics"}; the full result, with provenance, goes to
.bench_out/<workload>-seed<n>-trace<t>.json. Workloads and metrics are
described in BENCHMARK.json.

--compare diffs two result files of the same workload. Deterministic work
counts (exec.* and strategy.* with unit "count") must match exactly when
the seeds match; end-to-end metrics may not get worse by more than their
bound in BENCHMARK.json. Exit status 1 marks a mismatch or regression.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(targets):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    *targets], stdout=sys.stderr, check=True)


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True)
        if os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--", "src", "perfbench"],
                               capture_output=True, text=True, check=True)
        return head.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """sha256 over the sources the benchmark builds, so a checkout without
    git history still names the code it measured."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def run(args):
    build(["perfbench"])
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode


def load_result(path):
    """A result file, or any file whose last line is the result object."""
    with open(path) as f:
        text = f.read().strip()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = json.loads(text.splitlines()[-1])
    if "result" in doc:
        return doc["result"], doc.get("provenance", {})
    return doc, {}


def compare(path_a, path_b):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    a, prov_a = load_result(path_a)
    b, prov_b = load_result(path_b)
    same_inputs = (prov_a.get("workload") == prov_b.get("workload") and
                   prov_a.get("seed") == prov_b.get("seed"))
    bad = []
    if not (a.get("correct") and b.get("correct")):
        bad.append(f"correct: {a.get('correct')} -> {b.get('correct')}")
    print(f"{'metric':32} {'A':>16} {'B':>16} {'change':>9}  verdict")
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            bad.append(f"{name}: missing in B")
            continue
        va, vb = ma["value"], mb["value"]
        change = (vb - va) / va if va else 0.0
        verdict = ""
        layer = name.split(".")[0]
        if ma["unit"] == "count" and layer in ("exec", "strategy"):
            if same_inputs:
                verdict = "exact ok" if va == vb else "MISMATCH"
            else:
                verdict = "not compared (different inputs)"
        elif name in bounds:
            m = bounds[name]
            worse = change if m["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            verdict += f" (bound {m['bound']:.0%})"
        if verdict.startswith(("MISMATCH", "REGRESSION")):
            bad.append(f"{name}: {va} -> {vb}")
        print(f"{name:32} {va:16.6g} {vb:16.6g} {change:+9.2%}  {verdict}")
    for line in bad:
        print("FAIL", line)
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's unit test")
    args = p.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        if args.selftest:
            build(["perfbench_test"])
            return subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode
        if not args.workload:
            p.error("--workload is required")
        return run(args)
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
