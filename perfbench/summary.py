"""Run a set of benchmark runs and print every metric per workload.

    python3 perfbench/summary.py [--runs 10] [--seed-start 1] [--trace 0|1]

Each workload in BENCHMARK.json runs --runs times, each with its own seed
and BENCHMARK.json's run_seconds.  One row per workload lists, for every
metric, its unit, median, first and third quartiles (statistics.quantiles,
n=4), the sample count and the quartile spread as a share of the median.  The set's run record (machine, versions,
commit, seeds, load average before and after) is printed first.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_config():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    record = next((json.loads(ln.split(": ", 1)[1]) for ln in proc.stderr.splitlines()
                   if ln.startswith("run-record: ")), {})
    return json.loads(lines[-1]), record


def describe(values):
    """(median, q1, q3, n, quartile spread over median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, len(values), (q3 - q1) / med if med else 0.0


def main():
    bench = bench_config()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-start", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    seeds = list(range(args.seed_start, args.seed_start + args.runs))
    seconds = bench["run_seconds"]
    results = {}
    load_before = os.getloadavg()
    for workload in (w["name"] for w in bench["workloads"]):
        results[workload] = [one_run(workload, seed, seconds, args.trace) for seed in seeds]
    first_record = next(iter(results.values()))[0][1]
    print(json.dumps({
        "nproc": first_record.get("nproc"), "cpu_model": first_record.get("cpu_model"),
        "python": first_record.get("python"), "numpy": first_record.get("numpy"),
        "git_commit": first_record.get("git_commit"), "seeds": seeds,
        "seconds": seconds, "trace": args.trace,
        "loadavg_before": load_before, "loadavg_after": os.getloadavg()}))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload, runs in results.items():
        failed = sum(out["failed"] for out, _ in runs)
        attempted = sum(out["attempted"] for out, _ in runs)
        cells = []
        for name in runs[0][0]["metrics"]:
            unit = runs[0][0]["metrics"][name]["unit"]
            med, q1, q3, n, spread = describe([out["metrics"][name]["value"] for out, _ in runs])
            bound = f" bound={bounds[name]}" if bounds.get(name) is not None else ""
            cells.append(f"{name}[{unit}] median={med:.6g} q1={q1:.6g} q3={q3:.6g} n={n} "
                         f"spread={spread:.4f}{bound}")
        run_s = statistics.median(rec.get("run_s", 0.0) for _, rec in runs)
        print(f"{workload}: failed={failed}/{attempted} run_s={run_s:.1f} | " + " | ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
