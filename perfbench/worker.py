"""One fresh worker process: import bhlab, run one workload's job batch back
to back, and write a JSON record of the batch.

    python3 perfbench/worker.py --workload NAME --seed N --work DIR --out FILE
        --spawned-at T [--trace]

`--spawned-at` is the parent's time.monotonic() just before it started this
process, so set-up time covers interpreter start and `import bhlab`.  Job
times cover the call only; digests and byte counts are taken afterwards.
"""

import time
import sys

import bhlab

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def run_job(job, work, state):
    """(seconds, exit code or None, stdout text, error text or None)."""
    out, err = io.StringIO(), io.StringIO()
    argv = [a.replace("{work}", work) for a in job.argv]
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.argv:
                code = bhlab.cli.main(argv)
            else:
                out.write(getattr(workloads, job.call[0])(state, *job.call[1:]))
                code = 0
    except Exception:  # a failed job is recorded and the batch goes on
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), error or (err.getvalue() if code else None)


def run_batch(jobs, work):
    state = {}
    records = []
    for job in jobs:
        seconds, code, stdout, error = run_job(job, work, state)
        artifacts = {}
        written = len(stdout.encode())
        for name in job.artifacts:
            path = os.path.join(work, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
                written += len(data)
                artifacts[name] = _digest(data)
        records.append({"name": job.name, "kind": job.kind, "seconds": seconds,
                        "exit": code, "stdout": stdout, "error": error,
                        "artifacts": artifacts, "bytes_written": written})
    return records


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    result = {"setup_s": IMPORTED - args.spawned_at}
    jobs = workloads.jobs_for(args.workload, args.seed)
    os.makedirs(args.work, exist_ok=True)
    if args.trace:
        rec = tracing.Recorder()
        inst = tracing.install(rec)
        result["rebound_defaults"] = tracing.rebound_defaults(inst)
        try:
            result["jobs"] = run_batch(jobs, args.work)
        finally:
            inst.uninstall()
        result["spans"] = {name: list(v) for name, v in tracing.self_times(rec.spans).items()}
        result["span_count"] = len(rec.spans)
        result["top_level_s"] = tracing.top_level_time(rec.spans)
        result["counters"] = rec.counters
    else:
        result["jobs"] = run_batch(jobs, args.work)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
