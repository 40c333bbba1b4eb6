"""Count the code lines of Python modules.

A code line holds at least one token that is not a comment, a line break or
an indent: blank lines, comment-only lines and docstrings (the leading string
of a module, class or function) do not count, and a statement or string that
spans several lines counts each of them.  Prints one row per module and the
total, for the files and directories given (default: src/bhlab).

    python tools/code_lines.py [PATH ...]
"""

from __future__ import annotations

import ast
import io
import os
import sys
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


def main():
    paths = map(Path, sys.argv[1:] or [Path(__file__).resolve().parents[1] / "src" / "bhlab"])
    files = sorted({f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py"))})
    counts = {os.path.relpath(f): code_lines(f.read_text(encoding="utf-8")) for f in files}
    width = max(map(len, counts), default=5)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>6}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6}")


if __name__ == "__main__":
    main()
