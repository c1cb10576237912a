#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

Run from the repository root:

    python3 perfbench/sweep.py --seeds 1-10
    python3 perfbench/sweep.py --workloads cold_distinct --seeds 1-5 --trace 1
    python3 perfbench/sweep.py --seeds 1-10 --write perfbench/RESULTS.json

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json. Runs are interleaved: each seed runs
every workload before the next seed starts, in an order that rotates
from seed to seed, so a drift in machine speed spreads over all
workloads and seeds instead of lining up with one. ``--write`` records
the summary with the git revision (``git describe --always --dirty``), a
SHA-256 of the benchmark's code, the seeds, run count and the
benchmark's shape.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    return result, wall


def code_sha256():
    """SHA-256 over the files that decide what a run measures (path and
    content): the benchmark's sources, manifest, lock file and run.sh. A
    record names the benchmark version it measured even when the tree it
    ran in was not committed."""
    digest = hashlib.sha256()
    here = ROOT / "perfbench"
    files = sorted(here.glob("src/**/*.rs")) + [here / n for n in ("Cargo.toml", "Cargo.lock", "run.sh")]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--write", help="write the summary to this JSON file")
    args = parser.parse_args()

    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    per_metric = {w: {} for w in workloads}
    units = {}
    walls = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        k = i % len(workloads)
        for workload in workloads[k:] + workloads[:k]:
            result, wall = run_once(workload, seed, args.seconds, args.trace)
            walls[workload].append(wall)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: output check failed: {result}")
            for name, m in result["metrics"].items():
                per_metric[workload].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: {wall:.1f} s", file=sys.stderr)
    summary = {}
    for workload in workloads:
        rows = {}
        for name, values in per_metric[workload].items():
            row = summarise(values) if len(values) >= 2 else {"values": values}
            row["unit"] = units[name]
            rows[name] = row
            bound = bounds.get(name)
            if "spread" in row:
                flag = ""
                if bound is not None:
                    flag = "ok" if row["spread"] < bound / 3 else (
                        "within bound" if row["spread"] <= bound else "TOO WIDE")
                print(f"{workload:14} {name:26} median {row['median']:12.4f} {units[name]:6} "
                      f"q1 {row['q1']:12.4f} q3 {row['q3']:12.4f} spread {row['spread']:.3f} "
                      f"bound {bound} {flag}")
        w = walls[workload]
        summary[workload] = {"runs": len(seeds), "run_wall_s": summarise(w) if len(w) >= 2 else w,
                             "metrics": rows}

    if args.write:
        rev = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip() or "unknown"
        shape = json.loads(subprocess.run(["bash", "perfbench/run.sh", "--describe"], cwd=ROOT,
                                          capture_output=True, text=True,
                                          check=True).stdout.strip().splitlines()[-1])
        out = {"git_rev": rev, "perfbench_code_sha256": code_sha256(), "seeds": seeds,
               "order": "interleaved: per seed, every workload, rotating",
               "seconds": args.seconds, "trace": args.trace, "shape": shape,
               "workloads": summary}
        Path(args.write).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
