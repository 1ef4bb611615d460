"""Mutation pass: does the test suite notice small changes at the boundaries?

    python3 tools/mutants.py src/cvdfusion/measures.py src/cvdfusion/core.py

Each mutant changes one spot of one file:

- a comparison flips between ``<`` and ``<=``, ``>`` and ``>=``, or ``==``
  and ``!=``;
- one operand of an ``and`` or ``or`` is dropped;
- a ``raise`` statement becomes ``pass``;
- an int constant moves by +1 or -1.

Its id is ``path:line:column:operator``: the file relative to ``--root``
and the 1-based line and character column of the flipped operator, the
dropped operand, the ``raise`` or the constant.  Ids are stable while the
file's text is.

For each mutant the tool copies ``--root`` into a temporary directory,
writes the mutated file there and runs ``python -m pytest -x -q`` in the
copy, with the copy's ``src/`` first on PYTHONPATH.  The checkout itself is
never written.  The mutant is killed when pytest fails or runs past
TIMEOUT_S (a mutant can loop forever), and survives when it passes.  One unmutated run comes first;
if it fails, the tool stops with exit status 2.

``--equivalent`` names a list of mutants that no test can kill because they
do not change behaviour, one ``<id> <reason>`` per line (``#`` starts a
comment line).  Those mutants are not run.  The tool prints each new
survivor with its mutated line, then one summary line with the killed,
survived and equivalent counts and the wall time, and exits 1 if any new
survivor is left.  A listed id of one of the given files that matches no
mutant is reported on stderr as stale.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = ROOT / "tools" / "mutants_equivalent.txt"
TIMEOUT_S = 600  # tier-1 passes in about 30 s

# Left out of every copy: version control, caches, and build and run outputs.
_NOT_COPIED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out",
    ".bench_build", ".benchmarks", ".cli_outcomes", "*.egg-info",
)

# comparison -> (its token, the flipped token, the flipped comparison's name)
_FLIPS = {
    ast.Lt: ("<", "<=", "LtE"),
    ast.LtE: ("<=", "<", "Lt"),
    ast.Gt: (">", ">=", "GtE"),
    ast.GtE: (">=", ">", "Gt"),
    ast.Eq: ("==", "!=", "NotEq"),
    ast.NotEq: ("!=", "==", "Eq"),
}


class _Source:
    """A file's text, and ast positions (UTF-8 byte columns) as offsets into it."""

    def __init__(self, text: str):
        self.text = text
        self.lines = text.splitlines(keepends=True)
        self.starts = [0]
        for line in self.lines:
            self.starts.append(self.starts[-1] + len(line))

    def offset(self, lineno: int, byte_col: int) -> int:
        return self.starts[lineno - 1] + len(
            self.lines[lineno - 1].encode()[:byte_col].decode()
        )

    def span(self, node: ast.AST) -> tuple[int, int]:
        return (
            self.offset(node.lineno, node.col_offset),
            self.offset(node.end_lineno, node.end_col_offset),
        )

    def where(self, offset: int) -> tuple[int, int]:
        """The 1-based (line, column) of an offset."""
        lineno = bisect.bisect_right(self.starts, offset)
        return lineno, offset - self.starts[lineno - 1] + 1


def _edits(src: _Source):
    """(offset named by the id, start, end, replacement, operator) per mutant.

    Nodes inside f-strings are skipped: their positions are unreliable
    before Python 3.12.
    """
    tree = ast.parse(src.text)
    tokens = [
        (src.starts[tok.start[0] - 1] + tok.start[1], tok.string)
        for tok in tokenize.generate_tokens(io.StringIO(src.text).readline)
        if tok.type == tokenize.OP
    ]
    in_fstrings = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.JoinedStr)
        for inner in ast.walk(node)
    }
    for node in ast.walk(tree):
        if id(node) in in_fstrings:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if type(op) not in _FLIPS:
                    continue
                old, new, name = _FLIPS[type(op)]
                after, before = src.span(operands[i])[1], src.span(operands[i + 1])[0]
                [at] = [at for at, s in tokens if s == old and after <= at < before]
                yield at, at, at + len(old), new, f"{type(op).__name__}->{name}"
        elif isinstance(node, ast.BoolOp):
            word = "and" if isinstance(node.op, ast.And) else "or"
            start, end = src.span(node)
            for dropped in node.values:
                kept = [
                    "(" + src.text[slice(*src.span(v))] + ")"
                    for v in node.values
                    if v is not dropped
                ]
                text = kept[0] if len(kept) == 1 else "(" + f" {word} ".join(kept) + ")"
                yield src.span(dropped)[0], start, end, text, f"drop-{word}-operand"
        elif isinstance(node, ast.Raise):
            start, end = src.span(node)
            yield start, start, end, "pass", "raise->pass"
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            start, end = src.span(node)
            for step in (1, -1):
                yield start, start, end, f"({node.value + step})", f"int{step:+d}"


def mutants(root: Path, path: Path) -> list[tuple[str, str, str]]:
    """(id, mutated text, first mutated line) for every mutant of one file,
    in file order.  A mutant that does not compile is left out."""
    rel = path.resolve().relative_to(root.resolve()).as_posix()
    src = _Source(path.read_text(encoding="utf-8"))
    found = []
    for at, start, end, replacement, operator in sorted(_edits(src)):
        text = src.text[:start] + replacement + src.text[end:]
        try:
            compile(text, rel, "exec")
        except SyntaxError:
            continue
        lineno, column = src.where(at)
        first = src.where(start)[0]
        line = text.splitlines()[first - 1].strip()
        found.append((f"{rel}:{lineno}:{column}:{operator}", text, line))
    ids = [mutant_id for mutant_id, _, _ in found]
    assert len(set(ids)) == len(ids), "mutant ids must be unique"
    return found


def _file_of(mutant_id: str) -> str:
    return mutant_id.rsplit(":", 3)[0]


def read_equivalent(path: Path) -> dict[str, str]:
    """{id: reason} from a list of equivalent mutants."""
    listed = {}
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        mutant_id, _, reason = line.strip().partition(" ")
        if not reason.strip():
            raise SystemExit(f"{path}:{number}: {mutant_id} needs a one-line reason")
        listed[mutant_id] = reason.strip()
    return listed


def run_tests(root: Path, rel: str | None, text: str | None) -> bool:
    """True if pytest -x passes on a temporary copy of root, with the file
    rel replaced by text (no replacement when rel is None)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=_NOT_COPIED)
        if rel is not None:
            (tree / rel).write_text(text, encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(tree / "src"), env.get("PYTHONPATH")])
        )
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                cwd=tree,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return False
        return proc.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path, help="files to mutate, under --root")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="project to copy and test (default: this checkout)")
    parser.add_argument("--equivalent", type=Path, default=EQUIVALENT,
                        help="list of equivalent mutants (default: %(default)s)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="mutants tested at once (default: 1)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    root = args.root.resolve()
    files = [path if path.is_absolute() else root / path for path in args.files]
    everything = [mutant for path in files for mutant in mutants(root, path)]
    listed = read_equivalent(args.equivalent) if args.equivalent.exists() else {}
    ids = {mutant_id for mutant_id, _, _ in everything}
    targets = {path.resolve().relative_to(root).as_posix() for path in files}
    for mutant_id in sorted(listed):
        if _file_of(mutant_id) in targets and mutant_id not in ids:
            print(f"stale equivalent mutant: {mutant_id}", file=sys.stderr)

    started = time.perf_counter()
    if not run_tests(root, None, None):
        print("the unmutated tests fail; no mutant was run", file=sys.stderr)
        return 2
    to_run = [m for m in everything if m[0] not in listed]
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        passed = list(
            pool.map(lambda m: run_tests(root, _file_of(m[0]), m[1]), to_run)
        )
    survivors = [m for m, ok in zip(to_run, passed) if ok]
    for mutant_id, _, line in survivors:
        print(f"survived {mutant_id}  {line}")
    print(
        f"mutants {len(everything)}: killed {len(to_run) - len(survivors)}, "
        f"survived {len(survivors)}, equivalent {len(everything) - len(to_run)}; "
        f"wall {time.perf_counter() - started:.0f} s"
    )
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
