"""Count code, docstring, comment and blank lines of Python files.

    python3 tools/loc.py [PATH ...]

Each PATH is a file or a directory searched for `*.py` (default: src/hambox).
A docstring is the first string statement of a module, class or function,
found with `ast`; every line it spans is a docstring line. Of the other
lines, an empty one is blank, one that starts with `#` is a comment, and
the rest are code. Prints one row per file and a total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> dict[str, int]:
    """Lines of `source` by kind."""
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        kind = "docstring" if number in doc else "blank" if not text else "comment" if text[0] == "#" else "code"
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or [Path(__file__).resolve().parent.parent / "src" / "hambox"]
    files = sorted(f for p in paths for f in (p.rglob("*.py") if p.is_dir() else [p]))
    total = dict.fromkeys(KINDS, 0)
    print(f"{'code':>6} {'doc':>6} {'comment':>7} {'blank':>6}  file")
    for f in files:
        counts = count(f.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{counts['code']:6d} {counts['docstring']:6d} {counts['comment']:7d} {counts['blank']:6d}  {f}")
    print(f"{total['code']:6d} {total['docstring']:6d} {total['comment']:7d} {total['blank']:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
