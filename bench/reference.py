"""A fixed reference task that the benchmark times between documents.

The CPU this benchmark runs on may be shared: on a 2-vCPU virtual machine
the same document took from 130 to 230 ms in different 10-second windows,
and a fixed pure-Python loop slowed by the same factor at the same moments.
Time metrics are therefore reported in units of this task's median time,
measured in the same run, interleaved with the documents.  The task uses
only the standard library, so no change to the program can move it, and it
does the kinds of work the program does: complex inner products in pure
Python, float formatting, JSON encoding and decoding, and small allocations.
"""

from __future__ import annotations

import json
import math
from time import perf_counter

_N = 16
_ROWS = tuple(
    tuple(complex(math.cos(0.37 * k + 0.11 * j) / _N, math.sin(0.23 * k * j) / _N) for j in range(_N))
    for k in range(24)
)
_TEXT = json.dumps({"sources": [{"name": f"s{k}", "values": [[z.real, z.imag] for z in row]}
                                for k, row in enumerate(_ROWS)]})


def _inner(a, b) -> complex:
    total = 0j
    for x, y in zip(a, b):
        total += x * y.conjugate()
    return total


def reference_task() -> float:
    """One run of the reference work; returns a checksum so nothing is skipped."""
    table = [[_inner(a, b).real for b in _ROWS] for a in _ROWS]
    rounded = [[float(f"{v:.12g}") for v in row] for row in table]
    decoded = json.loads(_TEXT)
    pairs = [tuple(p) for s in decoded["sources"] for p in s["values"]]
    text = json.dumps({"matrix": rounded, "n": len(pairs)})
    return sum(map(sum, rounded)) + len(text)


def time_reference() -> float:
    """Seconds taken by one reference task."""
    t0 = perf_counter()
    reference_task()
    return perf_counter() - t0
