"""The test settings in pyproject.toml keep a failing run reporting."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_OTHERS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_plain_fails():
    assert False


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # every warning is an error, and hypothesis's plugin raised one while it
    # reported a failing example: pytest printed INTERNALERROR, "1 failed",
    # and the tests after it never ran
    pytest.importorskip("hypothesis")
    (tmp_path / "test_three.py").write_text(FAILING_PROPERTY_THEN_OTHERS)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_three.py"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert done.returncode == 1
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "2 failed, 1 passed" in done.stdout, done.stdout
