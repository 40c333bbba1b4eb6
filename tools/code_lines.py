"""Count the code lines of Python modules.

A code line holds at least one token that is not a comment, a line break or
an indent: blank lines, comment-only lines and docstrings (the leading string
of a module, class or function) do not count, and a statement or string that
spans several lines counts each of them.  Prints one row per module and the
total, for the files and directories given (default: src/bhlab).  With
--against REV, each row reads the module's code lines at the git revision
REV (0 where the file is missing there), the working tree's, and the change.

    python tools/code_lines.py [--against REV] [PATH ...]
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
            lines.difference_update(range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines)


def code_lines_at(rev, path):
    """The code lines of the file `path` at git revision `rev`, 0 where it is missing."""
    done = subprocess.run(["git", "-C", str(path.parent), "show", f"{rev}:./{path.name}"],
                          capture_output=True, text=True, encoding="utf-8")
    return code_lines(done.stdout) if done.returncode == 0 else 0


def main():
    parser = argparse.ArgumentParser(description="Count the code lines of Python modules.")
    parser.add_argument("paths", nargs="*", type=Path,
                        default=[Path(__file__).resolve().parents[1] / "src" / "bhlab"])
    parser.add_argument("--against", metavar="REV", help="also count at this git revision")
    args = parser.parse_args()
    files = sorted({f for p in args.paths for f in ([p] if p.is_file() else p.rglob("*.py"))})
    columns = [[code_lines(f.read_text(encoding="utf-8")) for f in files]]
    formats = [">6"]
    if args.against:  # before, after, change
        known = subprocess.run(["git", "-C", str(files[0].parent if files else "."), "rev-parse",
                                "-q", "--verify", f"{args.against}^{{commit}}"], capture_output=True)
        if known.returncode:  # else every file would read as missing there
            parser.error(f"no git revision {args.against!r}")
        before = [code_lines_at(args.against, f) for f in files]
        columns = [before, columns[0], [a - b for a, b in zip(columns[0], before)]]
        formats = [">6", ">6", ">+6"]
    names = [os.path.relpath(f) for f in files]
    width = max(map(len, names), default=5)
    for name, *row in [*zip(names, *columns), ("total", *map(sum, columns))]:
        print(f"{name:<{width}}" + "".join(f"  {n:{spec}}" for n, spec in zip(row, formats)))


if __name__ == "__main__":
    main()
