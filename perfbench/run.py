"""bhlab benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each job batch runs back to back in a fresh,
single-threaded worker process (so bhlab's lru_caches start empty, as for a
CLI user), and only one worker runs at a time.  With --trace 0 the workload's
fixed number of batches runs (workloads.BATCHES); S seconds only caps the
run, which stops early if the next batch is not expected to end within S.
wall_s is the sum of each job's least time over the batches, the other
end-to-end metrics are medians over them (metrics.end_to_end).  With
--trace 1 one untraced batch and one traced batch run, and the per-layer
metrics come from the traced one.  Every output is checked after its batch
(checks.py); a job that raises, exits non-zero or fails its check counts in
"failed".

The last stdout line is {"correct", "attempted", "failed", "metrics"}; a run
record (machine, versions, load) goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
WORKER_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402


class WorkerDied(Exception):
    pass


def run_worker(workload, seed, work, *, trace=False):
    """Start one worker, wait for it and return its JSON record."""
    out = work / f"worker-{time.monotonic_ns()}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work), "--out", str(out)]
    cmd += ["--trace"] * trace
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerDied(f"worker timed out after {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.exists():
        raise WorkerDied(f"worker exited {proc.returncode}:\n{proc.stderr}")
    record = json.loads(out.read_text())
    out.unlink()
    return record


def run_record(workload, seed, trace):
    """Machine, versions and commit of a set of runs (loadavg added around it)."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"workload": workload, "seed": seed, "trace": trace, "nproc": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit}


class Run:
    """The batches of one benchmark run and their check results."""

    def __init__(self, workload, seed, work, references):
        self.workload, self.seed, self.work = workload, seed, work
        self.jobs = workloads.jobs_for(workload, seed)
        self.checker = checks.Checker(references)
        self.attempted = self.failed = 0
        self.batch_rates = []

    def batch(self, trace=False):
        record = run_worker(self.workload, self.seed, self.work, trace=trace)
        self.attempted += len(self.jobs)
        rates = []
        for job, rec in zip(self.jobs, record["jobs"]):
            try:
                rate = self.checker.check(job, rec, str(self.work))
            except Exception as exc:  # a failed check is counted and the run goes on
                print(f"job {job.name} failed: {exc!r}", file=sys.stderr)
                self.failed += 1
                continue
            if rate is not None:
                rates.append(rate)
        self.batch_rates.append(statistics.fmean(rates) if rates else 0.0)
        return record


def declared_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "bhlab" / "__init__.py").is_file():
        print(f"error: no bhlab source under {SRC}", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()
    units = layer_units if args.trace else e2e_units
    sys.path.insert(0, str(SRC))
    with open(HERE / "references.json") as fh:
        references = json.load(fh)[args.workload]

    began = time.monotonic()
    record = run_record(args.workload, args.seed, args.trace)
    record["loadavg_before"] = os.getloadavg()
    work = SCRATCH / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, work, references)
    try:
        if args.trace:
            untraced = run.batch()
            traced = run.batch(trace=True)
            outputs = [[(j["stdout"], checks.replayed(j["artifacts"])) for j in b["jobs"]]
                       for b in (untraced, traced)]
            if outputs[0] != outputs[1]:
                run.failed += 1
                print("traced outputs differ from untraced outputs", file=sys.stderr)
            values = metrics.per_layer(untraced, traced, run.failed, run.attempted)
            record["rebound_defaults"] = traced["rebound_defaults"]
        else:
            planned = workloads.BATCHES[args.workload]
            start = time.monotonic()
            batches, durations = [], []
            while len(batches) < planned and (not durations or time.monotonic() - start
                                              + max(durations) <= args.seconds):
                batch_start = time.monotonic()
                batches.append(run.batch())
                durations.append(time.monotonic() - batch_start)
            if len(batches) < planned:
                print(f"warning: --seconds {args.seconds} allowed {len(batches)} of "
                      f"{planned} batches", file=sys.stderr)
            values = metrics.end_to_end(batches, run.batch_rates)
            record["batches"] = len(batches)
            record["batches_planned"] = planned
            record["batch_wall_s"] = [metrics.batch_wall(b) for b in batches]
    except WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["loadavg_after"] = os.getloadavg()
    record["run_s"] = time.monotonic() - began
    print("run-record: " + json.dumps(record), file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
