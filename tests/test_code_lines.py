"""tools/code_lines.py: its rule on a sample of known count, and its table of src/bhlab."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"

# 8 code lines: the import, the def, both lines of y's statement, both lines
# of the returned string, the class and z; docstrings, comments and blank
# lines do not count
SAMPLE = '''"""Module docstring,
on two lines."""

import os  # a comment after code


# a comment on its own line
def f(x):
    """A function docstring."""
    y = (x +
         1)
    return """a string,
not a docstring"""


class C:
    """A class docstring."""

    z = 1
'''


def _table(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, str(TOOL), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, check=True)
    return [line.rsplit(None, 1) for line in done.stdout.splitlines()]


def test_a_sample_counts_its_code_lines_only(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    assert _table(tmp_path / "sample.py", cwd=tmp_path) == [["sample.py", "8"], ["total", "8"]]
    assert _table(".", cwd=tmp_path) == [["empty.py", "0"], ["sample.py", "8"], ["total", "8"]]


def test_the_default_table_has_a_row_per_module_of_src_bhlab_and_their_total():
    rows = _table()
    modules = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src" / "bhlab").glob("*.py"))
    assert [name for name, _ in rows[:-1]] == modules
    assert rows[-1] == ["total", str(sum(int(n) for _, n in rows[:-1]))]
    assert all(int(n) > 0 for _, n in rows[:-1])
