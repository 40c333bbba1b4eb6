"""Every enumeration limit is one module constant, read at each call: no public
function takes it as a parameter, and one `setattr` moves every check on it."""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import bhlab
from bhlab import (algebra, cli, configurations, constructions, oracle,
                   random_coding)
from bhlab.errors import CapExceeded

LIMIT_PARAMETERS = {"cap", "size_cap", "ceiling", "tol", "factors"}


def _public_functions():
    """(qualified name, callable) for the public functions and public methods
    of every bhlab module (`__main__` would run the command on import)."""
    for module_name in bhlab.__all__:
        module = getattr(bhlab, module_name, None)
        if not inspect.ismodule(module):
            continue
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                yield from ((f"{module.__name__}.{name}.{m}", f) for m, f in vars(value).items()
                            if inspect.isfunction(f) and not m.startswith("_"))
            elif callable(value):
                yield f"{module.__name__}.{name}", value


def test_no_public_function_takes_a_limit_parameter():
    functions = dict(_public_functions())
    assert "bhlab.algebra.make_field" in functions and len(functions) > 80
    taking = sorted(f"{name}({p})" for name, fn in functions.items()
                    for p in inspect.signature(fn).parameters if p in LIMIT_PARAMETERS)
    assert taking == []
    # these stay: tests run at t_exact through max_t, attempts is a CLI option, and the
    # B_h^#[d] family bounds its shapes through max_vectors
    assert {"max_t", "attempts"} <= set(inspect.signature(random_coding.construct).parameters)
    assert "max_vectors" in inspect.signature(configurations.enumerate_conf).parameters


def test_one_enum_cap_bounds_the_population_clamp_and_the_oracle(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_ENUM_CAP", oracle.multiset_count(50, 2))
    assert random_coding.max_verifiable_t(2) == 50
    assert oracle.verify_bh(list(range(50)), 2) is not None  # enumerated: 0 + 3 = 1 + 2
    with pytest.raises(CapExceeded, match="exceeds cap 1275"):
        oracle.verify_bh(list(range(51)), 2)
    with pytest.raises(CapExceeded):
        random_coding.prune(np.eye(51, dtype=np.uint8), 2)
    code, stats = random_coding.construct(2, 30, 1)
    assert stats.t == 50 < stats.t_exact
    assert oracle.verify_code_bh(code, 2) is None


def test_a_field_cached_under_a_raised_cap_obeys_a_lowered_one(monkeypatch, capsys):
    q = 2**21
    monkeypatch.setattr(algebra, "DEFAULT_SIZE_CAP", q)
    field = algebra.make_field(q)
    assert algebra.make_field(q) is field  # cached
    monkeypatch.setattr(algebra, "DEFAULT_SIZE_CAP", q - 1)
    with pytest.raises(CapExceeded, match=f"field order {q} exceeds cap {q - 1}"):
        algebra.make_field(q)
    # the constructions and the command read the same constant
    monkeypatch.setattr(algebra, "DEFAULT_SIZE_CAP", 24)
    with pytest.raises(CapExceeded):
        constructions.bose_chowla(5, 2)
    with pytest.raises(CapExceeded):
        constructions.power_map(25, 2)
    assert cli.main(["construct", "bose-chowla", "--q", "5", "--h", "2"]) == 2
    assert capsys.readouterr().err == "error: field order 25 exceeds cap 24\n"


def test_the_readme_cites_exactly_the_limits_the_modules_hold():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [paragraph] = [p for p in readme.split("\n\n") if p.startswith("Limits are module constants")]
    cited = set(re.findall(r"`(\w+)\.(DEFAULT_\w+)`", paragraph))
    modules = {name: getattr(bhlab, name) for name in bhlab.__all__
               if inspect.ismodule(getattr(bhlab, name, None))}
    caps = {(name, constant) for name, module in modules.items() for constant in vars(module)
            if re.fullmatch(r"DEFAULT_\w+_CAP", constant)}
    assert cited == caps | {("random_coding", "DEFAULT_MAX_T")}
    assert all(hasattr(modules[name], constant) for name, constant in cited)
