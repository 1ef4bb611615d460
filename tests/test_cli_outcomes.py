"""tools/cli_outcomes.py, the byte-identity harness for CLI changes, runs.

With ``--seeds`` and no values it runs only the edge documents and the
fixed argv cases, which need neither numpy nor the benchmark workloads.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_edge_and_fixed_cases_run():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_outcomes.py"), "--src", "src", "--seeds"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # relative paths only: the sha256 is the same from any checkout
    assert [line for line in proc.stdout.splitlines() if str(ROOT) in line] == []
    *runs, summary = [json.loads(line) for line in proc.stdout.splitlines()]
    assert set(summary) == {"runs", "sha256"}
    assert summary["runs"] == len(runs) > 0
    for run in runs:
        assert run["exit"] in (0, 1, 2, 3), run
        stderr = run["stderr"]
        if stderr:
            assert stderr.count("\n") == 1 and stderr.endswith("\n"), run
            json.loads(stderr)
