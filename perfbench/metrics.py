"""How each metric is computed from worker batch records.

Names and units are declared in BENCHMARK.json; run.py reports the declared
names from the values computed here.  End-to-end metrics come from untraced
batches; per-layer metrics from one traced batch (spans and counters) plus
the untraced batch run beside it.  `<module>.self_s` is the summed self time
of every span of that module.
"""

from __future__ import annotations

import statistics

MODULES = ("algebra", "constructions", "oracle", "configurations", "rates",
           "random_coding", "entropy", "cli")

# per-layer self time: metric -> span names it sums
SELF_TIME = {
    "algebra.discrete_log.self_s": ("algebra.discrete_log",),
    "algebra.element_order.self_s": ("algebra.element_order",),
    "algebra.find_degree_h_primitive.self_s": ("algebra.find_degree_h_primitive",),
    "algebra.make_field.self_s": ("algebra.make_field",),
    "constructions.bose_chowla.self_s": ("constructions.bose_chowla",),
    "constructions.power_map.self_s": ("constructions.power_map",),
    "constructions.embed.self_s": ("constructions.residues_to_binary",
                                   "constructions.field_vectors_to_binary"),
    "constructions.make_binary_code.self_s": ("constructions.make_binary_code",),
    "constructions.code_text.self_s": ("constructions.code_to_text",
                                       "constructions.code_from_text"),
    "oracle.verify.self_s": ("oracle.verify_bh", "oracle.verify_bhg", "oracle.verify_bh_sharp",
                             "oracle.verify_code_bh", "oracle.verify_code_bhg",
                             "oracle.verify_code_bh_sharp"),
    "oracle.minimal.self_s": ("oracle.find_minimal_violations",
                              "oracle.find_minimal_violations_bhg"),
    "oracle.encode.self_s": ("oracle.encode_binary_words",),
    "configurations.enumerate.self_s": ("configurations.enumerate_conf",
                                        "configurations.enumerate_conf_upto",
                                        "configurations.enumerate_sconf",
                                        "configurations.enumerate_conf_sharp"),
    "configurations.conf_stats.self_s": ("configurations.conf_stats",
                                         "configurations.conf_stats_general"),
    "configurations.automorphism_count.self_s": ("configurations.automorphism_count",),
    "rates.optimize_exponent.self_s": ("rates.optimize_exponent",),
    "rates.report.self_s": ("rates._family_report", "rates.rate_bhg",
                            "rates.rate_bhg_distribution", "rates.rate_bh_sharp",
                            "rates.rate_distribution", "rates.rate_dr", "rates.rate_poltyrev"),
    "random_coding.choose_t.self_s": ("random_coding.choose_t",),
    "random_coding.sample_code.self_s": ("random_coding.sample_code",),
    "random_coding.prune.self_s": ("random_coding.prune",),
    "random_coding.construct.self_s": ("random_coding.construct",),
    "entropy.hfold.self_s": ("entropy.hfold", "entropy.convolve"),
    "entropy.renyi.self_s": ("entropy.renyi",),
    "cli.main.self_s": ("cli.main",),
}

# per-layer call counts taken from span counts
SPAN_CALLS = {
    "algebra.discrete_log.calls": ("algebra.discrete_log",),
    "algebra.element_order.calls": ("algebra.element_order",),
    "configurations.canonical.calls": ("configurations.canonical",),
    "configurations.conf_stats.calls": ("configurations.conf_stats",
                                        "configurations.conf_stats_general"),
    "random_coding.expected_violations.calls": ("random_coding.expected_violations",),
}

# counters kept by the tracing hooks, reported as they are
COUNTERS = ("constructions.words", "oracle.verify.calls", "oracle.minimal.calls",
            "oracle.multisets", "oracle.violations", "oracle.failed_verdicts",
            "configurations.enumerate.calls", "configurations.classes",
            "rates.table_rows", "random_coding.removed", "random_coding.retries",
            "cli.nonzero_exits")

JOB_KINDS = ("construct", "verify", "simulate", "rate")


def batch_wall(batch):
    return sum(job["seconds"] for job in batch["jobs"])


def end_to_end(batches, batch_rates):
    """One run's end-to-end metrics.  wall_s sums each job's least time over
    the run's batches (a fixed number per workload): on a shared VM,
    slowdowns come in bursts of a few seconds that only add time, and the
    least time filters them out.  The others are medians over the batches."""
    per_job = zip(*([job["seconds"] for job in b["jobs"]] for b in batches))
    return {
        "wall_s": sum(min(times) for times in per_job),
        "setup_s": statistics.median(b["setup_s"] for b in batches),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
        "code_rate": statistics.median(batch_rates),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(untraced, traced, failed, attempted):
    spans = traced["spans"]  # name -> [calls, duration, self time]
    counters = traced["counters"]

    def self_of(names):
        return sum(spans[n][2] for n in names if n in spans)

    def calls_of(names):
        return sum(spans[n][0] for n in names if n in spans)

    out = {f"{m}.self_s": sum(v[2] for n, v in spans.items() if n.startswith(m + "."))
           for m in MODULES}
    out.update({name: self_of(names) for name, names in SELF_TIME.items()})
    out.update({name: calls_of(names) for name, names in SPAN_CALLS.items()})
    out.update({name: counters.get(name, 0) for name in COUNTERS})
    oracle_s = out["oracle.verify.self_s"] + out["oracle.minimal.self_s"]
    constructs = counters.get("random_coding.constructs", 0)
    traced_wall = batch_wall(traced)
    untraced_wall = batch_wall(untraced)
    out.update({
        "oracle.multisets_per_s": _ratio(out["oracle.multisets"], oracle_s),
        "configurations.classes_per_canonical": _ratio(
            out["configurations.classes"], out["configurations.canonical.calls"]),
        "random_coding.t_over_t_exact": _ratio(
            counters.get("random_coding.t_over_t_exact_sum", 0), constructs),
        "random_coding.kept_frac": _ratio(
            counters.get("random_coding.kept_frac_sum", 0), constructs),
        "entropy.calls": sum(v[0] for n, v in spans.items() if n.startswith("entropy.")),
        "cli.bytes_written": sum(job["bytes_written"] for job in traced["jobs"]),
        "jobs.failed_frac": _ratio(failed, attempted),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.outside_span_s": traced_wall - traced["top_level_s"],
        "trace.spans": traced["span_count"],
    })
    for kind in JOB_KINDS:
        out[f"jobs.{kind}_s"] = sum(j["seconds"] for j in untraced["jobs"] if j["kind"] == kind)
    return out
