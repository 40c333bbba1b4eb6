"""tools/code_lines.py: its rule on a sample of known count, and its table of src/bhlab."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_against_a_revision_prints_before_after_and_change(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args], cwd=tmp_path, capture_output=True,
                       check=True)

    git("init", "-q")
    (tmp_path / "kept.py").write_text("a = 1\n")
    (tmp_path / "gone.py").write_text("b = 2\n")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    (tmp_path / "kept.py").write_text(SAMPLE)
    (tmp_path / "gone.py").unlink()
    (tmp_path / "new.py").write_text("c = 3\nd = 4\n")
    git("add", "-A")
    git("commit", "-q", "-m", "second")
    done = subprocess.run([sys.executable, str(TOOL), "--against", "HEAD^", "."], cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    # a file only in the working tree reads 0 at the revision; one deleted there has no row
    assert [line.split() for line in done.stdout.splitlines()] == [
        ["kept.py", "1", "8", "+7"], ["new.py", "0", "2", "+2"], ["total", "1", "10", "+9"]]
    assert _table(".", cwd=tmp_path) == [["kept.py", "8"], ["new.py", "2"], ["total", "10"]]
    unknown = subprocess.run([sys.executable, str(TOOL), "--against", "HEAD~2", "."], cwd=tmp_path,
                             capture_output=True, text=True)
    assert unknown.returncode == 2 and "no git revision 'HEAD~2'" in unknown.stderr
