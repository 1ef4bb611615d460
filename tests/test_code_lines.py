"""tools/code_lines.py counts code lines: not blank, not comment-only, and
not inside a module, class or function docstring."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment-only line
import math  # a trailing comment does not hide code


class Box:
    """Class docstring."""

    size = 1

    def area(self):
        """Function docstring,

        with a blank line inside.
        """
        text = """a string that is
not a docstring"""
        return math.pi * self.size


def bare():
    return 0
'''

# import math, class Box:, size = 1, def area, text = """..., not a
# docstring""", return ..., def bare, return 0
FIXTURE_LINES = 9


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_the_fixture():
    assert _tool().code_lines(FIXTURE) == FIXTURE_LINES


def test_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "big.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "small.py").write_text("# only a comment\n\nx = 1\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--src", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"big {FIXTURE_LINES}\nsmall 1\ntotal {FIXTURE_LINES + 1}\n"
