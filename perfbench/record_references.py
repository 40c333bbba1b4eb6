"""Write perfbench/references.json from the current bhlab source.

    python3 perfbench/record_references.py

The references hold the stdout and artifact digests of every deterministic
job (explicit, rates) and the population sizes t and t_exact of every
random-coding job.  They were recorded from the seed code; bhlab's outputs
are meant to stay byte-identical, so re-record only for an intended change of
output, and say so in the change that does it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import checks
import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    references = {}
    work = run.SCRATCH / "references"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            record = run.run_worker(workload, 0, work)
            refs = references[workload] = {}
            for job, rec in zip(workloads.jobs_for(workload, 0), record["jobs"]):
                if rec["exit"] != 0:
                    print(f"{job.name}: exit {rec['exit']}\n{rec['error']}", file=sys.stderr)
                    return 1
                if job.kind == "simulate":
                    stats = json.loads((work / job.artifacts[1]).read_text())
                    refs[job.name] = {"t": stats["t"], "t_exact": stats["t_exact"]}
                    continue
                refs[job.name] = {
                    "head": (rec["stdout"].splitlines() or [""])[0][:120],
                    "stdout": hashlib.sha256(rec["stdout"].encode()).hexdigest(),
                    "artifacts": checks.replayed(rec["artifacts"]),
                }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.HERE / "references.json", "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
