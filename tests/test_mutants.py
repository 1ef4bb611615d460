"""tools/mutants.py, the mutation pass, on a tiny fixture package: it finds
every mutant, kills what the fixture's tests catch, skips the listed
equivalent mutant and reports the one new survivor."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "mutants.py"

MODULE = '''def clip(x, hi):
    if x > hi:
        raise ValueError(x)
    return x


def third(n):
    return n // 3
'''

TESTS = '''import pytest

from fixmod import clip, third


def test_clip():
    assert clip(1, 2) == 1
    with pytest.raises(ValueError):
        clip(3, 2)


def test_third():
    assert third(3) == 1
'''

# clip(2, 2) is never tested, so x >= hi survives; n // 4 is 0, not 1, and
# n // 2 is 1 as well, so only int-1 survives besides it.
IDS = [
    "src/fixmod.py:2:10:Gt->GtE",
    "src/fixmod.py:3:9:raise->pass",
    "src/fixmod.py:8:17:int-1",
    "src/fixmod.py:8:17:int+1",
]


def _tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fixture(root: Path) -> Path:
    (root / "src").mkdir()
    (root / "tests").mkdir()
    (root / "src" / "fixmod.py").write_text(MODULE, encoding="utf-8")
    (root / "tests" / "test_fixmod.py").write_text(TESTS, encoding="utf-8")
    return root / "src" / "fixmod.py"


def test_mutants_and_their_ids(tmp_path):
    path = _fixture(tmp_path)
    found = _tool().mutants(tmp_path, path)
    assert [mutant_id for mutant_id, _, _ in found] == IDS
    assert [line for _, _, line in found] == [
        "if x >= hi:",
        "pass",
        "return n // (2)",
        "return n // (4)",
    ]


def test_bool_operand_drop_and_unicode_columns():
    src = _tool()._Source('s = "é"; ok = s == "é" and (len(s) <= 1 or s)\n')
    edits = sorted(_tool()._edits(src))
    texts = [src.text[:start] + new + src.text[end:] for _, start, end, new, _ in edits]
    assert 's = "é"; ok = s == "é" and ((len(s) <= 1))\n' in texts
    assert 's = "é"; ok = (len(s) <= 1 or s)\n' in texts
    # character columns, not UTF-8 byte columns: the operand s at 15, == at 17
    assert [src.where(at) for at, *_ in edits][:2] == [(1, 15), (1, 17)]


def test_run_reports_only_the_new_survivor(tmp_path):
    path = _fixture(tmp_path)
    listed = tmp_path / "equivalent.txt"
    listed.write_text(
        "# fixture\n"
        "src/fixmod.py:8:17:int-1 | return n // (2) | n // 2 equals n // 3 at the one tested n\n"
        "src/fixmod.py:99:1:raise->pass | if x: pass | a line the module does not have\n",
        encoding="utf-8",
    )
    # The fixture needs no pytest plugin; without them each run starts in
    # about half the time.
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--root", str(tmp_path), "--jobs", "2",
         "--equivalent", str(listed), str(path)],
        env={**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    survived, summary = proc.stdout.splitlines()
    assert survived == "survived src/fixmod.py:2:10:Gt->GtE  if x >= hi:"
    assert summary.startswith("mutants 4: killed 2, survived 1, equivalent 1; wall ")
    assert proc.stderr == "stale equivalent mutant: src/fixmod.py:99:1:raise->pass\n"
    assert path.read_text(encoding="utf-8") == MODULE


def test_entries_are_keyed_by_the_mutated_line(tmp_path):
    # The same line twice: an entry matches by file, operator and mutated
    # line, and its line and column only pick the nearest of equal lines.
    (tmp_path / "src").mkdir()
    path = tmp_path / "src" / "twice.py"
    path.write_text(
        "def f(n):\n    return n // 3\n\n\ndef g(n):\n    return n // 3\n",
        encoding="utf-8",
    )
    tool = _tool()
    found = tool.mutants(tmp_path, path)
    listed = tmp_path / "equivalent.txt"
    listed.write_text(
        "src/twice.py:9:13:int-1 | return n // (2) | moved from line 6\n"
        "src/twice.py:2:17:int-1 | return n // (2) | line 2, as listed\n"
        "src/twice.py:2:17:int+1 | return n // (5) | no such mutant\n"
        "src/other.py:1:1:int-1 | x = (0) | another file, not reported\n",
        encoding="utf-8",
    )
    entries = tool.read_equivalent(listed)
    assert entries[0] == ("src/twice.py:9:13:int-1", "return n // (2)", "moved from line 6")
    assert tool.match_equivalent(entries, found) == (
        {
            "src/twice.py:9:13:int-1": "src/twice.py:6:17:int-1",
            "src/twice.py:2:17:int-1": "src/twice.py:2:17:int-1",
        },
        ["src/twice.py:2:17:int+1"],
    )


def test_an_entry_needs_a_line_and_a_reason(tmp_path):
    listed = tmp_path / "equivalent.txt"
    listed.write_text("src/fixmod.py:8:17:int-1 n // 2 equals n // 3\n", encoding="utf-8")
    with pytest.raises(SystemExit, match="equivalent.txt:1: expected"):
        _tool().read_equivalent(listed)
