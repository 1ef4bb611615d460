"""Time one fresh process's set-up: ``import cvdfusion.cli`` and one document.

Usage (from the repository root, with PYTHONPATH=src):

    python bench/setup_probe.py <cvdfusion arguments...>

Prints the seconds from just before the import to the return of the
document, then the document's exit code.
"""

import io
import sys
import time

start = time.perf_counter()
import cvdfusion.cli  # noqa: E402

stdout, stderr = sys.stdout, sys.stderr
sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
code = cvdfusion.cli.main(sys.argv[1:])
elapsed = time.perf_counter() - start
sys.stdout, sys.stderr = stdout, stderr
print(repr(elapsed), code)
