"""Seeded document generators for the three benchmark workloads.

A document is one source file plus one command.  Document ``i`` of a
workload is a pure function of (workload, seed, i): its numbers come from
``numpy.random.default_rng([seed, workload id, i])`` through
``tests/oracles.py::random_named_raws`` (ingest-bulk draws its sources from
a pool made the same way from ``[seed, workload id]``), and its command,
sizes and format come from a fixed cycle, so every pass of
``PASS_SIZE[workload]`` documents has the same mix whatever the seed.  One
document in five is real-only.

Sizes step through a grid inside each workload's range rather than taking a
few values, so that document costs spread evenly: the median and the 90th
percentile of a run then fall among many documents of nearly the same cost,
not on the gap between two clusters, where they would jump from run to run.

Documents are serialized here, not by the program's own emitters, so the
program parses text it did not write.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from oracles import random_named_raws

WORKLOADS = ("measure-wide", "select-search", "ingest-bulk")

# Documents per timed pass: one full cycle of each workload's command mix.
PASS_SIZE = {"measure-wide": 26, "select-search": 42, "ingest-bulk": 16}

# Input files of the running process; one directory per process, so two
# runs in one checkout never share files.
WORK_DIR = f".bench_out/work-{os.getpid()}"

# measure-wide: measure and fuse alternate over 13 r from 48 to 96, spaced
# so that r^2, and so the cost, grows in equal steps.
_WIDE_R = tuple(round(math.sqrt(48**2 + k * (96**2 - 48**2) / 12)) for k in range(13))

# ingest-bulk cycle: half JSON, half CSV; one in eight invalid; one in four
# goes through the library emit-then-parse path instead of the CLI; one each
# of malformed JSON (exit 1), a usage error (exit 3) and a missing file
# (exit 2).  r steps through 360..440 on a cycle of 17, so every kind of
# document meets every size.
_INGEST_CYCLE = (
    ("validate", "json"),
    ("validate", "csv"),
    ("roundtrip", "json"),
    ("validate", "csv"),
    ("invalid", "json"),
    ("validate", "json"),
    ("roundtrip", "csv"),
    ("malformed", "json"),
    ("validate", "csv"),
    ("validate", "json"),
    ("roundtrip", "json"),
    ("usage", "csv"),
    ("invalid", "csv"),
    ("validate", "csv"),
    ("roundtrip", "csv"),
    ("missing", "json"),
)
_PLANTS = ("NegativeRealPart", "ModulusExceedsOne", "SumNotUnity")


@dataclass
class Doc:
    """One generated document and the outcome the program must produce."""

    index: int
    command: str  # validate | measure | fuse | select | roundtrip | usage | missing | malformed
    fmt: str  # json | csv
    argv: list[str]  # CLI arguments; empty for the library round-trip path
    path: str  # where ``data`` is written before the document runs
    data: bytes
    labels: list[str] = field(default_factory=list)
    raws: list = field(default_factory=list)  # [(name, [(re, im), ...]), ...]
    real_only: bool = False
    strategy: str = ""
    min_size: int = 0
    planted: tuple[int, str] | None = None  # (source index, expected error code)
    exit_code: int = 0
    error: str | None = None  # expected stderr error code


def _json_values(pairs) -> str:
    return json.dumps([list(p) for p in pairs])


def _csv_values(pairs) -> str:
    return ",".join(repr(x) for pair in pairs for x in pair)


ENCODE = {"json": _json_values, "csv": _csv_values}


def serialize(fmt: str, labels, names, values) -> bytes:
    """A source file from each source's already serialized values."""
    if fmt == "json":
        sources = ", ".join(f'{{"name": {json.dumps(n)}, "values": {v}}}' for n, v in zip(names, values))
        return f'{{"space": {json.dumps(labels)}, "sources": [{sources}]}}'.encode()
    header = ",".join(["name"] + [f"{lb}_{part}" for lb in labels for part in ("re", "im")])
    return "".join([header + "\n"] + [f"{n},{v}\n" for n, v in zip(names, values)]).encode()


@lru_cache(maxsize=1)
def _ingest_pool(seed: int):
    """Sources that ingest-bulk documents draw 360 to 440 of, serialized once per run.

    Serializing 1 MB per document would cost about as much as the
    program's own work on it; drawing a different subset and order from a
    pool of 800 keeps documents distinct for a fraction of that.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index("ingest-bulk")])
    pool = {}
    for real_only in (False, True):
        raws = [pairs for _, pairs in random_named_raws(rng, 800, 64, real_only=real_only)]
        pool[real_only] = (raws, {fmt: [enc(p) for p in raws] for fmt, enc in ENCODE.items()})
    return pool


def _plant(rng, raws, kind: str) -> int:
    """Break one source so that validation fails with error ``kind`` first."""
    k = int(rng.integers(len(raws)))
    pairs = list(raws[k][1])
    j = int(rng.integers(len(pairs)))
    if kind == "NegativeRealPart":
        pairs[j] = (-0.01, pairs[j][1])
    elif kind == "ModulusExceedsOne":
        pairs[j] = (0.9, 0.9)
    else:  # SumNotUnity: raise the real part of the smallest entry
        j = min(range(len(pairs)), key=lambda i: math.hypot(*pairs[i]))
        pairs[j] = (pairs[j][0] + 0.01, pairs[j][1])
    raws[k] = (raws[k][0], pairs)
    return k


def make_doc(workload: str, seed: int, i: int) -> Doc:
    """Document ``i`` of ``workload`` for ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), i])
    kind, fmt, strategy, min_size = "", "json", "", 0
    if workload == "measure-wide":
        command = ("measure", "fuse")[i % 2]
        r, n = _WIDE_R[(i // 2) % len(_WIDE_R)], 16
    elif workload == "select-search":
        # Exhaustive documents meet every (r, n) pair once per pass.
        command, j = "select", (i // 2) % 21
        if i % 2 == 0:
            r, n, strategy, min_size = 10 + j % 3, 6 + j % 7, "exhaustive", 1 + j // 7
        else:
            r, n, strategy, min_size = 80, 16, "greedy", 5 + j % 10
    else:
        kind, fmt = _INGEST_CYCLE[i % len(_INGEST_CYCLE)]
        command = "validate" if kind == "invalid" else kind
        r, n = 360 + 5 * (i % 17), 64

    doc = Doc(i, command, fmt, [], f"{WORK_DIR}/d{i % PASS_SIZE[workload]}.{fmt}", b"",
              labels=[f"o{j + 1}" for j in range(n)], real_only=i % 5 == 0,
              strategy=strategy, min_size=min_size)
    if workload == "ingest-bulk":
        pool_raws, pool_values = _ingest_pool(seed)[doc.real_only]
        pick = rng.choice(len(pool_raws), r, replace=False)
        doc.raws = [(f"s{k + 1}", pool_raws[j]) for k, j in enumerate(pick)]
        values = [pool_values[fmt][j] for j in pick]
        if kind == "invalid":
            code = _PLANTS[(i // len(_INGEST_CYCLE)) % len(_PLANTS)]
            k = _plant(rng, doc.raws, code)
            values[k] = ENCODE[fmt](doc.raws[k][1])
            doc.planted = (k, code)
            doc.exit_code, doc.error = 1, "ValidationFailed"
    else:
        doc.raws = random_named_raws(rng, r, n, real_only=doc.real_only)
        values = [ENCODE[fmt](pairs) for _, pairs in doc.raws]
    doc.data = serialize(fmt, doc.labels, [name for name, _ in doc.raws], values)

    if command == "usage":
        doc.argv = ["select", "--input", doc.path, "--strategy", "best"]
        doc.exit_code, doc.error = 3, "Usage"
    elif command == "missing":
        doc.path = f"{WORK_DIR}/absent-{i}.json"
        doc.data = b""
        doc.argv = ["measure", "--input", doc.path]
        doc.exit_code, doc.error = 2, "IOError"
    elif command == "malformed":
        doc.data = doc.data[: len(doc.data) // 2]
        doc.argv = ["measure", "--input", doc.path]
        doc.exit_code, doc.error = 1, "MalformedSyntax"
    elif command != "roundtrip":
        doc.argv = [command, "--input", doc.path]
        if strategy:
            doc.argv += ["--strategy", strategy, "--min-size", str(min_size)]
    return doc
