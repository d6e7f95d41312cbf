#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark and prints its result.

From the root of a checkout of the repository:

  python3 e2ebench/run.py --workload shortest_path --seed 1 --seconds 20 --trace 0
  python3 e2ebench/run.py --self-check

The first call configures and builds the benchmark (CMake, Release) into
.bench_build/e2ebench; later calls only rebuild what changed.  The
workload runs in a child process.  Its full record (every metric with
its sample count, the failures and the host record) is appended to
.bench_out/results.jsonl, and the last line printed here is the result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with exactly the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1).  A child that dies or hangs fails every
operation it had attempted.  Without the repository's engine sources the
build fails and this exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
BINARY = BUILD / "e2ebench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("shortest_path", "pvwatts", "telemetry_stream")
BUILD_JOBS = "3"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; False when either fails."""
    # Keep the compiler's scratch files inside the checkout too.
    tmp = BUILD.parent / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    command = ["cmake", "--build", str(BUILD), "-j", BUILD_JOBS]
    return subprocess.run(command, stdout=sys.stderr, env=env).returncode == 0


def source_digest():
    """SHA-256 over the engine sources and this benchmark: names the code
    measured even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    if r.returncode != 0:
        return None
    return r.stdout.strip() or None


def metric_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_child(workload, seed, seconds, trace):
    """Runs the binary; returns (record or None, attempted-so-far)."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--out-dir", str(OUT)]
    try:
        child = subprocess.run(command, capture_output=True, text=True,
                               timeout=60 + 3 * seconds)
    except subprocess.TimeoutExpired as e:
        log(f"{workload}: timed out after {e.timeout:.0f} s")
        stderr = e.stderr.decode() if isinstance(e.stderr, bytes) else (e.stderr or "")
        return None, attempted_so_far(stderr)
    sys.stderr.write("".join(line + "\n" for line in child.stderr.splitlines()
                             if not line.startswith("progress ")))
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        log(f"{workload}: exited with {child.returncode}")
        return None, attempted_so_far(child.stderr)
    return json.loads(lines[-1]), None


def attempted_so_far(stderr):
    counts = re.findall(r"^progress attempted=(\d+)", stderr, re.MULTILINE)
    return max(1, int(counts[-1]) if counts else 1)


def record(workload, seed, seconds, trace, full):
    full["host"]["git_sha"] = git_sha()
    full["host"]["source_sha256"] = source_digest()
    OUT.mkdir(exist_ok=True)
    entry = {"workload": workload, "seed": seed, "seconds": seconds,
             "trace": int(trace), **full}
    with open(OUT / "results.jsonl", "a") as f:
        f.write(json.dumps(entry) + "\n")


def result_line(full, names):
    """The benchmark's result: the named metrics only, value and unit."""
    missing = [n for n in names if n not in full["metrics"]]
    if missing:
        raise KeyError("metrics missing from the run: " + ", ".join(missing))
    return {"correct": full["correct"], "attempted": full["attempted"],
            "failed": full["failed"],
            "metrics": {n: full["metrics"][n] for n in names}}


def run(args):
    if not build():
        log("build failed")
        return 2
    full, attempted = run_child(args.workload, args.seed, args.seconds,
                                args.trace)
    if full is None:
        # The process died or hung: every operation it attempted failed.
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 1
    record(args.workload, args.seed, args.seconds, args.trace, full)
    for reason in full["failures"]:
        log(f"{args.workload}: FAILED {reason}")
    print(json.dumps(result_line(full, metric_names(args.trace))))
    return 0


def self_check():
    """Each workload for one second, untraced and traced; fails on a
    reference mismatch or a missing named metric."""
    if not build():
        log("build failed")
        return 2
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            full, _ = run_child(workload, 1, 1, trace)
            if full is None:
                log(f"self-check {workload} trace={int(trace)}: run died")
                ok = False
                continue
            problems = list(full["failures"])
            if not full["correct"] and not problems:
                problems.append("not correct")
            try:
                result_line(full, metric_names(trace))
            except KeyError as e:
                problems.append(str(e))
            status = "ok" if not problems else "FAILED " + "; ".join(problems)
            log(f"self-check {workload} trace={int(trace)}: "
                f"{full['attempted']} operations, {status}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
