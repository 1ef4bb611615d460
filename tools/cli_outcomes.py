"""Record what the CLI prints on a fixed corpus, to compare two source trees.

    python3 tools/cli_outcomes.py --src path/to/tree/src --seeds 1 2 > a.jsonl

runs ``cvdfusion.cli.main`` in-process, imported from ``--src``, on

- every CLI document of one pass of each benchmark workload
  (``bench/workloads.py``, read-only) for each seed, in compact and
  ``--pretty`` mode,
- fixed edge documents through every command, in both modes, so that every
  branch of the report writer runs: duplicated sources (off-diagonal 1.0
  and 0.0), near-identical sources (conflict near 1e-13, an exponent
  form), disjoint supports (compatibility 0.0), one source over one
  outcome, names with non-ASCII characters, quotes and backslashes,
  ``fuse --weights``, and near-duplicate sources an ulp or two of mass
  apart, through greedy and exhaustive ``select`` at several
  ``--min-size`` values, and
- a fixed list of help, usage and I/O argv cases.

It prints one JSON line per run (argv, exit code, stdout length and sha256,
stderr in full) and a final line with the sha256 of all run lines.  Two
trees behave the same on the corpus exactly when their outputs are equal:
``diff a.jsonl b.jsonl``.  Every input file is written under one fixed
directory of this checkout (``.cli_outcomes/``), so paths inside error
messages match across trees.
``--seeds`` with no values runs only the edge documents and the fixed argv
cases, which need neither numpy nor the workloads, so they run under any
interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".cli_outcomes"  # emptied at the start and removed at the end

PAIR_JSON = (
    '{"space": ["up", "down"],'
    ' "sources": [{"name": "s1", "values": [[0.5, 0.3], [0.5, -0.3]]},'
    '             {"name": "s2", "values": [[0.6, -0.2], [0.4, 0.2]]}]}'
)

_COMPLEX_A = [[0.5, 0.1], [0.3, -0.05], [0.2, -0.05]]
_COMPLEX_B = [[0.45, 0.05], [0.35, 0.0], [0.2, -0.05]]

EDGE_DOCS = {
    "duplicated": {
        "space": ["up", "down"],
        "sources": [
            {"name": "s1", "values": [[0.5, 0.3], [0.5, -0.3]]},
            {"name": "s2", "values": [[0.5, 0.3], [0.5, -0.3]]},
            {"name": "s3", "values": [[0.6, -0.2], [0.4, 0.2]]},
        ],
    },
    "near-identical": {
        "space": ["up", "down"],
        "sources": [
            {"name": "s1", "values": [[0.5, 0.0], [0.5, 0.0]]},
            {"name": "s2", "values": [[0.5000003, 0.0], [0.4999997, 0.0]]},
        ],
    },
    "disjoint": {
        "space": ["up", "down", "flat"],
        "sources": [
            {"name": "s1", "values": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
            {"name": "s2", "values": [[0.0, 0.0], [0.5, 0.25], [0.5, -0.25]]},
        ],
    },
    "single": {"space": ["only"], "sources": [{"name": "s", "values": [[1.0, 0.0]]}]},
    # A sharp source and three near-duplicates, an ulp or two of mass apart:
    # after (0, 2), s1 and s3 score within an ulp of each other, so the order
    # in which subset qualities are summed decides which comes next.
    "near-duplicates": {
        "space": ["up", "down"],
        "sources": [
            {"name": "s0", "values": [[0.9000000000000002, 0.0], [0.09999999999999978, 0.0]]},
            {"name": "s1", "values": [[0.7999999999999999, 0.0], [0.20000000000000007, 0.0]]},
            {"name": "s2", "values": [[0.8000000000000002, 0.0], [0.19999999999999984, 0.0]]},
            {"name": "s3", "values": [[0.7999999999999998, 0.0], [0.20000000000000015, 0.0]]},
        ],
    },
    # Exact and near copies of two complex sources, 1-3e-16 of mass moved
    # between the real parts of the first two entries.
    "near-duplicates-complex": {
        "space": ["a", "b", "c"],
        "sources": [
            {"name": f"s{k}", "values": [[re + shift, im], [re2 - shift, im2], rest]}
            for k, ([[re, im], [re2, im2], rest], shift) in enumerate([
                (_COMPLEX_A, 0.0), (_COMPLEX_A, 1e-16), (_COMPLEX_B, 0.0),
                (_COMPLEX_A, -2e-16), (_COMPLEX_B, 3e-16), (_COMPLEX_A, 0.0),
                (_COMPLEX_B, -1e-16), (_COMPLEX_B, 2e-16),
            ])
        ],
    },
    "names": {
        "space": ["caf\u00e9", 'say "hi"', "back\\slash"],
        "sources": [
            {"name": "na\u00efve \u2603", "values": [[0.5, 0.1], [0.25, 0], [0.25, -0.1]]},
            {"name": '"quoted"', "values": [[0.2, 0], [0.3, 0.2], [0.5, -0.2]]},
            {"name": "C:\\dir\\s", "values": [[0.4, 0], [0.4, 0], [0.2, 0]]},
        ],
    },
}

# More select runs on the near-duplicate documents, greedy and exhaustive.
EDGE_SELECTS = {
    "near-duplicates": (
        ["--min-size", "4"],
        ["--strategy", "exhaustive", "--min-size", "2"],
        ["--strategy", "exhaustive", "--min-size", "3"],
    ),
    "near-duplicates-complex": (
        ["--min-size", "3"],
        ["--min-size", "8"],
        ["--strategy", "exhaustive", "--min-size", "2"],
        ["--strategy", "exhaustive", "--min-size", "5"],
    ),
}


def edge_cases() -> list[tuple[str, list[str]]]:
    """Every command on each of EDGE_DOCS, written under WORK_DIR."""
    cases = []
    for name, doc in EDGE_DOCS.items():
        path = WORK_DIR / f"edge-{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("validate", "measure", "fuse", "select"):
            cases.append((f"edge-{name}-{command}", [command, "--input", str(path)]))
        if name == "duplicated":
            argv = ["fuse", "--input", str(path), "--weights", "0.25,0.5,0.25"]
            cases.append((f"edge-{name}-fuse-weights", argv))
        for options in EDGE_SELECTS.get(name, ()):
            cases.append((f"edge-{name}-select {' '.join(options)}",
                          ["select", "--input", str(path), *options]))
    return cases


def fixed_cases(pair: str, missing: str, directory: str) -> list[tuple[str, list[str]]]:
    """Help, usage and I/O argv cases, named."""
    cases = [("help", ["--help"]), ("help-short", ["-h"]), ("no-argv", [])]
    cases += [(f"help-{c}", [c, "--help"]) for c in ("validate", "measure", "fuse", "select")]
    cases += [
        ("unknown-command", ["frobnicate"]),
        ("missing-input-flag", ["measure"]),
        ("weights-unparseable", ["fuse", "--input", pair, "--weights", "a,b"]),
        ("weights-nan", ["fuse", "--input", pair, "--weights", "nan,1"]),
        ("weights-count", ["fuse", "--input", pair, "--weights", "1,2,3"]),
        ("min-size-word", ["select", "--input", pair, "--min-size", "two"]),
        ("min-size-too-big", ["select", "--input", pair, "--min-size", "3"]),
        ("tol-word", ["measure", "--input", pair, "--tol", "nope"]),
        ("tol-negative", ["measure", "--input", pair, "--tol", "-1"]),
        ("tol-inf", ["measure", "--input", pair, "--tol", "inf"]),
        ("strategy-unknown", ["select", "--input", pair, "--strategy", "magic"]),
        ("missing-file", ["measure", "--input", missing]),
        ("nul-in-path", ["measure", "--input", "pair\0.json"]),
        ("directory", ["measure", "--input", directory]),
    ]
    cases += [(f"pair-{c}", [c, "--input", pair]) for c in ("validate", "measure", "fuse", "select")]
    return cases


def workload_cases(seeds: list[int]) -> list[tuple[str, list[str]]]:
    """Every CLI document of one pass of each workload, written under WORK_DIR."""
    if not seeds:
        return []
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "bench")]
    import workloads

    cases = []
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for i in range(workloads.PASS_SIZE[workload]):
                doc = workloads.make_doc(workload, seed, i)
                if not doc.argv:  # the library round-trip path, not the CLI
                    continue
                path = WORK_DIR / f"{workload}-{seed}-{i}.{doc.fmt}"
                if doc.command == "missing":
                    path = WORK_DIR / f"absent-{workload}-{seed}-{i}.json"
                else:
                    path.write_bytes(doc.data)
                argv = [str(path) if arg == doc.path else arg for arg in doc.argv]
                cases.append((f"{workload}/{seed}/{i}", argv))
    return cases


def run(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    stdout = out.getvalue().encode()
    return {
        "exit": code,
        "stdout_bytes": len(stdout),
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "stderr": err.getvalue(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the src/ directory to import cvdfusion from")
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2], help="workload seeds (default 1 2)")
    args = parser.parse_args()

    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal width
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import cvdfusion.cli

    if not Path(cvdfusion.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"cvdfusion was imported from {cvdfusion.cli.__file__}, not from {src}")

    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)
    pair = WORK_DIR / "pair.json"
    pair.write_text(PAIR_JSON, encoding="utf-8")
    documents = workload_cases(args.seeds) + edge_cases()
    cases = [(name, argv, "compact") for name, argv in documents]
    cases += [(name, argv + ["--pretty"], "pretty") for name, argv, _ in cases]
    cases += [(name, argv, "fixed") for name, argv in
              fixed_cases(str(pair), str(WORK_DIR / "absent.json"), str(WORK_DIR))]

    digest = hashlib.sha256()
    for name, argv, mode in cases:
        record = {"case": name, "mode": mode, "argv": argv, **run(cvdfusion.cli.main, argv)}
        line = json.dumps(record)
        digest.update(line.encode() + b"\n")
        print(line)
    print(json.dumps({"runs": len(cases), "sha256": digest.hexdigest()}))
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
