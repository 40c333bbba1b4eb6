"""Self-tests of the benchmark harness (no workload is run).

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bench():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_self_time_arithmetic():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]; d [11, 12] is a second root
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 5.0, 9.0, 0],
             ["c", 6.0, 7.0, 2], ["d", 11.0, 12.0, -1], ["a", 11.5, 11.75, 4]]
    times = tracing.self_times(spans)
    assert times["root"] == (1, 10.0, 3.0)
    assert times["a"] == (2, 3.25, 3.25)
    assert times["b"] == (1, 4.0, 3.0)
    assert times["c"] == (1, 1.0, 1.0)
    assert times["d"] == (1, 1.0, 0.75)
    assert sum(v[2] for v in times.values()) == tracing.top_level_time(spans) == 11.0


def _bindings():
    mods = tracing._bhlab_modules()
    names = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    defaults = {(m.__name__, k): (v.__defaults__, v.__kwdefaults__)
                for m in mods for k, v in vars(m).items() if hasattr(v, "__defaults__")}
    return names, defaults


def test_install_uninstall_restores_every_binding():
    import bhlab
    from bhlab import configurations, oracle, random_coding, rates

    before_names, before_defaults = _bindings()
    original = oracle.find_minimal_violations
    rec = tracing.Recorder()
    inst = tracing.install(rec)
    try:
        assert random_coding.find_minimal_violations is not original
        assert random_coding.find_minimal_violations is oracle.find_minimal_violations
        assert rates.conf_stats is configurations.conf_stats
        assert rates.optimize_exponent.__wrapped__.__defaults__[-1] is configurations.conf_stats
        assert tracing.rebound_defaults(inst) == ["bhlab.rates._family_report",
                                                  "bhlab.rates.optimize_exponent"]
        report = bhlab.rates.rate_bhg(2, 1)
        random_coding.prune([(0, 1), (1, 0), (1, 1), (0, 0)], 2)
    finally:
        inst.uninstall()
    calls = {name: v[0] for name, v in tracing.self_times(rec.spans).items()}
    # conf_stats reached through the default argument is counted, once per class
    assert calls["configurations.conf_stats"] == 2 * len(report.table)
    assert calls["rates._family_report"] == 1
    assert calls["oracle.find_minimal_violations"] == 1  # imported by name into random_coding
    assert rec.counters["rates.table_rows"] == len(report.table)
    assert rec.counters["oracle.violations"] > 0
    after_names, after_defaults = _bindings()
    assert before_names.keys() == after_names.keys()
    assert all(after_names[k] is v for k, v in before_names.items())
    assert all(after_defaults[k][0] is v[0] and after_defaults[k][1] is v[1]
               for k, v in before_defaults.items())


def _synthetic_batch(workload, traced=False):
    jobs = [{"name": j.name, "kind": j.kind, "seconds": 1.0, "bytes_written": 10}
            for j in workloads.jobs_for(workload, 0)]
    batch = {"jobs": jobs, "peak_rss_mb": 30.0, "setup_s": 0.2}
    if traced:
        batch.update(spans={"cli.main": [len(jobs), float(len(jobs)), 0.5]}, counters={},
                     span_count=len(jobs), top_level_s=float(len(jobs)))
    return batch


def test_declared_metrics_are_valid_and_emitted_on_every_workload():
    bench = _bench()
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = list(e2e) + list(layer) + [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert e2e["setup_s"] == "s"
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        batches = [_synthetic_batch(workload)] * workloads.BATCHES[workload]
        values = metrics.end_to_end(batches, [0.5] * len(batches))
        assert all(values[name] > 0 for name in e2e)
        values = metrics.per_layer(_synthetic_batch(workload),
                                   _synthetic_batch(workload, traced=True), 0, 10)
        assert all(isinstance(values[name], (int, float)) for name in layer)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
