"""The public surface: `hambox.__all__` and README's module table agree with the code."""

import importlib
import re
from collections import Counter
from pathlib import Path

import hambox

README = Path(__file__).resolve().parent.parent / "README.md"


def module_table() -> dict[str, list[str]]:
    """Module name -> backticked names in its row of README's "Library at a glance" table."""
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        m = re.match(r"\| `(hambox\.\w+)` \| (.*) \|$", line)
        if m:
            rows[m.group(1)] = re.findall(r"`([A-Za-z_]\w*)`", m.group(2))
    return rows


def test_all_names_resolve():
    missing = [name for name in hambox.__all__ if not hasattr(hambox, name)]
    assert missing == []


def test_all_names_unique():
    assert [name for name, n in Counter(hambox.__all__).items() if n > 1] == []


def test_readme_table_names_exist():
    rows = module_table()
    assert rows, "README has no module table"
    missing = [
        f"{module}.{name}"
        for module, names in rows.items()
        for name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
