#!/usr/bin/env python3
"""Summarises end-to-end benchmark results the way the acceptance rule
reads them.

  python3 e2ebench/compare.py .bench_out/results.jsonl
  python3 e2ebench/compare.py BASE.jsonl NEW.jsonl

With one file: for each workload and end-to-end metric, the median of the
untraced runs, their quartiles (statistics.quantiles, n=4) and the
spread, (Q3 - Q1) / median, against the metric's bound in BENCHMARK.json.
With two files: also how far NEW's median moved from BASE's, as a share of
BASE's median, with the worse direction positive, against the bound.

Results are compared only when their host records agree: cores, SIMD
dispatch level, the JSTAR_MORSELS / JSTAR_EMIT switches and build type.
Mixed records are refused (exit 2).
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())
HOST_KEYS = ("nproc", "simd", "morsels", "emit", "build_type")


def load(path):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]
    return [r for r in runs if r["trace"] == 0]


def host_key(run):
    return tuple(run["host"].get(k) for k in HOST_KEYS)


def summarise(runs):
    """{(workload, metric): (median, q1, q3, count)} over correct runs."""
    values = {}
    for r in runs:
        if not r["correct"]:
            continue
        for m in SPEC["end_to_end"]:
            v = r["metrics"][m["name"]]["value"]
            values.setdefault((r["workload"], m["name"]), []).append(v)
    out = {}
    for key, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        out[key] = (statistics.median(v), q1, q3, len(v))
    return out


def main(paths):
    sets = [load(p) for p in paths]
    keys = {host_key(r) for runs in sets for r in runs}
    if len(keys) > 1:
        print("refusing to compare results with different host records:")
        for k in sorted(keys, key=str):
            print("  " + ", ".join(f"{n}={v}" for n, v in zip(HOST_KEYS, k)))
        return 2
    for runs, path in zip(sets, paths):
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{path}: {len(runs)} untraced runs, {failed} of {attempted} "
              f"operations failed")
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    base = summarise(sets[0])
    new = summarise(sets[-1]) if len(sets) > 1 else None
    ok = True
    for (workload, name), (med, q1, q3, n) in sorted(base.items()):
        bound = bounds[name]["bound"]
        spread = (q3 - q1) / med if med else float("inf")
        line = (f"{workload:17} {name:20} median {med:<12.6g} n={n:<3} "
                f"spread {spread:6.3f} (bound {bound}")
        flag = "" if spread <= bound / 3 or name == "setup_s" else " WIDE"
        line += ")" + flag
        if new is not None and (workload, name) in new:
            new_med = new[(workload, name)][0]
            moved = (new_med - med) / med if med else 0.0
            if bounds[name]["better"] == "higher":
                moved = -moved
            verdict = "ok" if moved <= bound else "WORSE"
            ok = ok and verdict == "ok"
            line += f"  new median {new_med:.6g} worse by {moved:+.3f} {verdict}"
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    if not 1 <= len(sys.argv) - 1 <= 2:
        print(__doc__)
        sys.exit(2)
    sys.exit(main(sys.argv[1:]))
