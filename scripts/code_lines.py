#!/usr/bin/env python3
"""Count the code lines of a package's modules.

    python3 scripts/code_lines.py [DIR]

A module's code lines are the non-blank lines of `ast.unparse` of its
syntax tree with every docstring removed (module, class and function),
so comments, blank lines, docstrings and line wrapping do not count. A
body that held only a docstring counts as one `pass`. Prints one line
per `*.py` file directly in DIR (default: `src/anonsearch` of this
checkout), sorted by name, then `total`.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def code_lines(source: str) -> int:
    """The non-blank lines of `source` unparsed without docstrings."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            node.body = node.body[1:] or [ast.Pass()]
    return sum(1 for line in ast.unparse(tree).splitlines() if line.strip())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", nargs="?", type=Path,
                    default=ROOT / "src" / "anonsearch",
                    help="package directory (default: src/anonsearch)")
    args = ap.parse_args(argv)
    files = sorted(args.dir.glob("*.py"))
    if not files:
        ap.error(f"{args.dir} holds no .py files")
    total = 0
    for path in files:
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name} {n}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
