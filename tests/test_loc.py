"""`tools/loc.py`'s line kinds on a hand-counted sample."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location("loc", Path(__file__).resolve().parent.parent / "tools" / "loc.py")
loc = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(loc)

SAMPLE = '''"""Module docstring,

on three lines."""
import os  # a trailing comment keeps a code line

# a comment


class A:
    """Class docstring."""

    x = """not a docstring:
    a string that is not first"""

    def f(self):
        """Function docstring."""
        return os.sep

    def g(self):
        return 1
'''


def test_counts_a_hand_counted_sample():
    # Docstrings: lines 1-3, 10 and 16; comment: 6; blank: 5, 7, 8, 11, 14 and 18; the other 8 are code.
    assert loc.count(SAMPLE) == {"code": 8, "docstring": 5, "comment": 1, "blank": 6}


def test_main_prints_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["9", "5", "1", "6", "total"]
