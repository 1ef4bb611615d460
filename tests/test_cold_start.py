"""A fresh process imports the CLI without the modules it does not need.

``dataclasses`` pulls in ``inspect`` and more, and ``csv`` is loaded only
when a CSV document is parsed or written.  Each check runs a fresh
``python -S`` child, so no site ``.pth`` file imports anything first.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_loads_no_dataclasses_inspect_or_csv():
    out = _run_fresh(
        "import sys, cvdfusion.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))"
    )
    assert out == "[]\n"


def test_csv_documents_work_after_a_fresh_import():
    out = _run_fresh(
        "import sys, cvdfusion.cli\n"
        "from cvdfusion import emit_source_csv, parse_source_file\n"
        "assert 'csv' not in sys.modules\n"
        "s = parse_source_file('name,up_re,up_im,down_re,down_im\\n"
        "s1,0.5,0.3,0.5,-0.3\\ns2,0.6,-0.2,0.4,0.2\\n')\n"
        "print(s.names, s.vectors[1].as_pairs())\n"
        "print(parse_source_file(emit_source_csv(s)) == s)\n"
    )
    assert out == "('s1', 's2') [(0.6, -0.2), (0.4, 0.2)]\nTrue\n"


def test_a_json_document_does_not_load_csv():
    out = _run_fresh(
        "import sys, cvdfusion.cli\n"
        "from cvdfusion import parse_source_file\n"
        "parse_source_file('{\"space\": [\"a\"], \"sources\": "
        "[{\"name\": \"s\", \"values\": [[1.0, 0.0]]}]}')\n"
        "print('csv' in sys.modules)\n"
    )
    assert out == "False\n"
