"""The three workloads: job lists run back to back in one fresh worker.

Jobs go through the user entry point `bhlab.cli.main(argv)` wherever the CLI
has an equivalent; otherwise they call the library (`Job.call` names a
function below).  "{work}" in an argv is replaced by the batch's scratch
directory.  Only the random-coding jobs take the workload seed.

Why each workload was chosen, which layer metrics it should move, and which
ROADMAP Baseline row it reproduces:

simulate-bulk  `simulate --h 2 --n 40` and `--h 2 --g 2 --n 30`, both clamped
    at t = 10,000: 50M uint64 pair sums per oracle pass and no violations.
    The oracle's generate + sort-dedupe step and memory dominate.  Moves
    oracle.verify / oracle.minimal self time, random_coding.sample_code,
    peak_rss_mb.  Baseline row: construct(2, 40, 42).
explicit  Bose-Chowla and power-map constructions with binary and native
    verification.  The only workload that uses `algebra` (discrete logs) and
    the oracle's tuple-add path.  Moves algebra.*, constructions.*,
    oracle.verify.self_s.  Baseline row: power map verified in its native
    ambient (criterion 5's hot path).
rates  `rate` tables: configuration enumeration does about 80% of the work,
    the p(C) DP most of the rest; no oracle or random-coding code runs.
    Moves configurations.enumerate.self_s, configurations.conf_stats.self_s,
    rates.*.  Baseline row: rate_bhg(4, 3).

A fourth workload, simulate-prune (simulate at t = t_exact, so pruning
really fires), was dropped: its ten-run wall_s spread reached 0.197 against
the 0.25 bound.  Pruning and regrouping still run on simulate-bulk, but on
few violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SIMULATE_BULK = ((2, 1, 40), (2, 2, 30))  # (h, g, n)
BOSE_CHOWLA = ((257, 2), (64, 3), (31, 4))
POWER_MAP = ((13, 10), (11, 10))
RATE_DIST = "1/8,1/8,3/8,3/8"


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # construct | verify | simulate | rate
    argv: tuple = ()
    call: tuple = ()  # (function name in this module, *args) for library jobs
    artifacts: tuple = ()  # files written under the scratch directory
    params: dict = field(default_factory=dict)


def _simulate_jobs(specs, seed):
    jobs = []
    for h, g, n in specs:
        name = f"simulate-h{h}-g{g}-n{n}"
        out = f"{name}.txt"
        argv = ["simulate", "--h", str(h), "--n", str(n), "--seed", str(seed)]
        if g != 1:
            argv += ["--g", str(g)]
        argv += ["--output", "{work}/" + out]
        jobs.append(Job(name, "simulate", tuple(argv),
                        artifacts=(out, out + ".stats.json", out + ".manifest.json"),
                        params={"h": h, "g": g, "n": n}))
    return jobs


def _construct_verify(source, q, h):
    out = f"{source}-{q}-{h}.txt"
    construct = Job(f"construct-{source}-{q}-{h}", "construct",
                    ("construct", source, "--q", str(q), "--h", str(h), "--binary",
                     "--output", "{work}/" + out),
                    artifacts=(out, out + ".manifest.json"))
    verify = Job(f"verify-bh-{source}-{q}-{h}", "verify",
                 ("verify", "bh", "--h", str(h), "--input", "{work}/" + out))
    return [construct, verify]


def _explicit_jobs():
    jobs = []
    for q, h in BOSE_CHOWLA:
        jobs += _construct_verify("bose-chowla", q, h)
    for q, h in POWER_MAP:
        jobs.append(Job(f"native-power-map-{q}-{h}", "construct",
                        call=("native_power_map", q, h)))
        jobs.append(Job(f"native-verify-bh-{q}-{h}", "verify",
                        call=("native_verify_bh", q, h)))
    for q, h in POWER_MAP:
        jobs += _construct_verify("power-map", q, h)
    jobs.append(Job("verify-bhg-bose-chowla-257-2", "verify",
                    ("verify", "bhg", "--h", "2", "--g", "2",
                     "--input", "{work}/bose-chowla-257-2.txt")))
    jobs.append(Job("verify-bhsharp-bose-chowla-64-3", "verify",
                    ("verify", "bhsharp", "--h", "3", "--d", "4",
                     "--input", "{work}/bose-chowla-64-3.txt")))
    return jobs


def _rates_jobs():
    jobs = [Job(f"rate-bhg-h{h}-g{g}", "rate",
                ("rate", "bhg", "--h", str(h), "--g", str(g), "--table"))
            for h, g in ((4, 3), (3, 3), (6, 1))]
    jobs.append(Job("rate-bhsharp-h2-d3", "rate",
                    ("rate", "bhsharp", "--h", "2", "--d", "3", "--table")))
    jobs.append(Job("rate-dist-h4-n02", "rate",
                    ("rate", "dist", "--h", "4", "--n0", "2", "--dist", RATE_DIST)))
    jobs.append(Job("rate-bhg-dist-h3-g2", "rate", call=("rate_bhg_distribution", 3, 2)))
    return jobs


def jobs_for(workload, seed):
    if workload == "simulate-bulk":
        return _simulate_jobs(SIMULATE_BULK, seed)
    if workload == "explicit":
        return _explicit_jobs()
    if workload == "rates":
        return _rates_jobs()
    raise ValueError(f"unknown workload {workload!r}")


# Batches per run, fixed so every commit's wall_s is the least of as many
# samples; chosen from the seed code's batch times to end well within the
# run's --seconds, which only caps a run on an unusually slow machine.
BATCHES = {"simulate-bulk": 2, "explicit": 4, "rates": 5}
WORKLOADS = tuple(BATCHES)


# ---------------------------------------------------------------------------
# library jobs: (state shared by one batch, *args) -> text to check

def native_power_map(state, q, h):
    from bhlab import constructions

    s = constructions.power_map(q, h)
    elements = [tuple(c.to_int() for c in vec) for vec in s.elements]
    state[("power_map", q, h)] = elements
    return "".join(" ".join(map(str, e)) + "\n" for e in elements)


def native_verify_bh(state, q, h):
    from bhlab import oracle

    verdict = oracle.verify_bh(state[("power_map", q, h)], h, add=oracle.vector_mod_add(q))
    return "pass\n" if verdict is None else f"violation {verdict.to_json()}\n"


def rate_bhg_distribution(state, h, g):
    import json

    from bhlab import cli, rates

    report = rates.rate_bhg_distribution(h, g, cli.parse_dist(RATE_DIST, 2))
    return (f"{report.formula} rate {report.rate!r}\n"
            + json.dumps(report.to_json(), sort_keys=True) + "\n")
