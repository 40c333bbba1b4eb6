"""Spans around calls into bhlab's modules, recorded from outside the program.

`install(recorder)` replaces every public module-level function of every
loaded `bhlab.*` module (plus `rates._family_report`) with a wrapper that
opens a span named `<module>.<function>`.  The wrapper is bound under every
module-global name that held the original, so functions imported by name
(`random_coding` imports `find_minimal_violations`, `rates` imports
`conf_stats`, ...) are intercepted too.  Default arguments that hold an
original (`rates.optimize_exponent` and `rates._family_report` bind
`stats_fn=conf_stats`) are rebound to the wrapper, so those calls count as
`configurations.conf_stats`, not as `rates` self time.  `uninstall` restores
every binding it changed.

Spans stay in memory as (name, start, end, parent) rows; `self_times` turns
them into per-name self time (duration minus the part covered by direct
children).  Counters derived from call arguments and results are kept by
`Recorder.count` hooks listed in `HOOKS`.
"""

from __future__ import annotations

import functools
import sys
import types
from math import comb
from time import perf_counter

# private functions that are layer boundaries in their own right
EXTRA_WRAPPED = {"bhlab.rates": ("_family_report",)}


class Recorder:
    """In-memory span list plus named counters for one traced batch."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = {}

    def open(self, name):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount


def self_times(spans):
    """dict name -> (calls, summed duration, summed self time)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (end - start), own + (end - start) - child_time[i])
    return out


def top_level_time(spans):
    return sum(end - start for _, start, end, parent in spans if parent < 0)


# ---------------------------------------------------------------------------
# counters computed from arguments and results (labelled "computed" where the
# value is derived, not observed)

def _multisets(m, ks):
    return sum(comb(m + k - 1, k) for k in ks)


def _count_verify(rec, args, kwargs, result):
    rec.count("oracle.verify.calls")
    elements, h = args[0], args[1]
    rec.count("oracle.multisets", _multisets(len(elements), (h,)))
    if result is not None:
        rec.count("oracle.failed_verdicts")
        rec.count("oracle.violations")


def _count_minimal(rec, args, kwargs, result):
    rec.count("oracle.minimal.calls")
    elements, h = args[0], args[1]
    rec.count("oracle.multisets", _multisets(len(elements), range(1, h + 1)))
    rec.count("oracle.violations", len(result))


def _count_enumerate(rec, args, kwargs, result):
    rec.count("configurations.enumerate.calls")
    rec.count("configurations.classes", len(result))


def _count_report(rec, args, kwargs, result):
    rec.count("rates.table_rows", len(result.table))


def _count_construct(rec, args, kwargs, result):
    code, stats = result
    rec.count("random_coding.constructs")
    rec.count("random_coding.t_over_t_exact_sum", stats.t / stats.t_exact)
    rec.count("random_coding.kept_frac_sum", stats.final_size / stats.t)
    rec.count("random_coding.removed", stats.removed)
    rec.count("random_coding.retries", stats.attempts - 1)


def _count_words(rec, args, kwargs, result):
    rec.count("constructions.words", len(result))


def _count_cli(rec, args, kwargs, result):
    if result != 0:
        rec.count("cli.nonzero_exits")


HOOKS = {
    "bhlab.oracle.verify_bh": _count_verify,
    "bhlab.oracle.verify_bhg": _count_verify,
    "bhlab.oracle.verify_bh_sharp": _count_verify,
    "bhlab.oracle.find_minimal_violations": _count_minimal,
    "bhlab.oracle.find_minimal_violations_bhg": _count_minimal,
    "bhlab.configurations.enumerate_conf": _count_enumerate,
    "bhlab.rates._family_report": _count_report,
    "bhlab.random_coding.construct": _count_construct,
    "bhlab.constructions.make_binary_code": _count_words,
    "bhlab.cli.main": _count_cli,
}


# ---------------------------------------------------------------------------
# install / uninstall

def _bhlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bhlab" or name.startswith("bhlab."))]


def _targets(modules):
    """Original callables to wrap, keyed by id: (qualified name, callable)."""
    out = {}
    for module in modules:
        extra = EXTRA_WRAPPED.get(module.__name__, ())
        for name, value in vars(module).items():
            if isinstance(value, type) or not callable(value):
                continue
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if name.startswith("_") and name not in extra:
                continue
            out[id(value)] = (f"{module.__name__}.{name}", value)
    return out


def _wrap(qualname, fn, rec):
    span = qualname[len("bhlab."):]
    hook = HOOKS.get(qualname)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return wrapper


class Installation:
    """Every binding changed by `install`, so `uninstall` can put it back."""

    def __init__(self):
        self.globals = []   # (module, name, original)
        self.defaults = []  # (function, attribute, original value)

    def uninstall(self):
        for module, name, original in reversed(self.globals):
            setattr(module, name, original)
        for fn, attr, original in reversed(self.defaults):
            setattr(fn, attr, original)
        self.globals.clear()
        self.defaults.clear()


def install(rec) -> Installation:
    modules = _bhlab_modules()
    targets = _targets(modules)
    wrappers = {key: _wrap(qualname, fn, rec) for key, (qualname, fn) in targets.items()}
    inst = Installation()
    functions = []
    for module in modules:
        for name, value in list(vars(module).items()):
            if id(value) in wrappers:
                inst.globals.append((module, name, value))
                setattr(module, name, wrappers[id(value)])
            if isinstance(value, types.FunctionType):
                functions.append(value)
    for fn in functions:
        if fn.__defaults__ and any(id(d) in wrappers for d in fn.__defaults__):
            inst.defaults.append((fn, "__defaults__", fn.__defaults__))
            fn.__defaults__ = tuple(wrappers.get(id(d), d) for d in fn.__defaults__)
        if fn.__kwdefaults__ and any(id(d) in wrappers for d in fn.__kwdefaults__.values()):
            inst.defaults.append((fn, "__kwdefaults__", fn.__kwdefaults__))
            fn.__kwdefaults__ = {k: wrappers.get(id(d), d) for k, d in fn.__kwdefaults__.items()}
    return inst


def rebound_defaults(inst):
    """Names of functions whose default arguments now point at wrappers."""
    return sorted(f"{fn.__module__}.{fn.__name__}" for fn, _, _ in inst.defaults)
