"""Output checks, run untimed in the parent after each batch.

Deterministic jobs (explicit, rates) must reproduce the stdout and artifact
digests in references.json, recorded from the seed code.  Random-coding jobs
depend on the seed, so each code must parse, pass its oracle, satisfy
2|C| >= t, match the reference t and t_exact, and be byte-identical across
the batches of one run.  Each check also yields the job's rate in bits per
symbol (the `code_rate` metric) where the job produces one.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

SIMULATE_LINE = re.compile(
    r"t=(\d+) removed=(\d+) size=(\d+) rate=([0-9.]+) attempts=(\d+)\n")
RATE_LINE = re.compile(r".* rate ([0-9.]+)\n")


class JobFailed(Exception):
    pass


def replayed(artifacts):
    """Artifact digests without run manifests, which record a wall time."""
    return {k: v for k, v in artifacts.items() if not k.endswith(".manifest.json")}


def _expect(cond, message):
    if not cond:
        raise JobFailed(message)


def _read(work, name):
    with open(os.path.join(work, name), "rb") as fh:
        return fh.read()


class Checker:
    """Checks the batches of one run; remembers codes already verified."""

    def __init__(self, references):
        self.references = references
        self.digests = {}    # job name -> artifact digests seen first in this run
        self.verified = {}   # code digest -> oracle verdict

    def check(self, job, record, work):
        """Rate produced by the job (or None); raises JobFailed."""
        _expect(record["error"] is None, f"raised or exited non-zero:\n{record['error']}")
        _expect(record["exit"] == 0, f"exit code {record['exit']}")
        ref = self.references[job.name]
        outputs = replayed(record["artifacts"])
        first = self.digests.setdefault(job.name, outputs)
        _expect(outputs == first, "outputs differ between repeats of one seed")
        for name in job.artifacts:
            _expect(name in record["artifacts"], f"{name} was not written")
        if job.kind == "simulate":
            return self._check_simulate(job, record, work, ref)
        stdout = record["stdout"]
        _expect(hashlib.sha256(stdout.encode()).hexdigest() == ref["stdout"],
                f"stdout differs from the reference: {stdout[:200]!r}")
        for name, digest in ref.get("artifacts", {}).items():
            _expect(record["artifacts"].get(name) == digest, f"{name} differs from the reference")
        if job.kind == "construct" and job.artifacts:
            from bhlab import constructions

            return _rate(constructions.code_from_text(_read(work, job.artifacts[0]).decode()))
        if job.kind == "rate":
            match = RATE_LINE.match(stdout)
            _expect(match is not None, f"no rate line in {stdout[:200]!r}")
            return float(match.group(1))
        return None

    def _check_simulate(self, job, record, work, ref):
        from bhlab import constructions, oracle

        match = SIMULATE_LINE.fullmatch(record["stdout"])
        _expect(match is not None, f"unexpected output {record['stdout'][:200]!r}")
        t, _, size = (int(match.group(i)) for i in (1, 2, 3))
        out, stats_name, _ = job.artifacts
        stats = json.loads(_read(work, stats_name))
        _expect(t == ref["t"] and stats["t"] == t, f"t = {t}, reference {ref['t']}")
        _expect(stats["t_exact"] == ref["t_exact"],
                f"t_exact = {stats['t_exact']}, reference {ref['t_exact']}")
        _expect(2 * size >= t, f"2|C| = {2 * size} < t = {t}")
        code = constructions.code_from_text(_read(work, out).decode())
        h, g, n = job.params["h"], job.params["g"], job.params["n"]
        _expect(len(code) == size == stats["final_size"] and code.n == n,
                "code size or length disagrees with the printed stats")
        digest = record["artifacts"][out]
        if digest not in self.verified:
            verdict = (oracle.verify_code_bh(code, h) if g == 1
                       else oracle.verify_code_bhg(code, h, g))
            self.verified[digest] = verdict is None
        _expect(self.verified[digest], "code fails its oracle")
        return _rate(code)


def _rate(code):
    return math.log2(len(code)) / code.n
