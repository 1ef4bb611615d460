"""Count code lines per module: the figure CHANGES.md and ROADMAP.md report.

    python3 tools/code_lines.py [--src path/to/tree/src/cvdfusion]

A code line is a line that is not blank, not a comment-only line and not
part of a module, class or function docstring.  Prints one ``name lines``
row per module, largest first (ties by name), and a final ``total`` row.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cvdfusion"

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that module, class and function docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in the Python source ``text``."""
    skipped = docstring_lines(ast.parse(text))
    return len(
        [
            number
            for number, line in enumerate(text.splitlines(), 1)
            if line.strip()
            and not line.lstrip().startswith("#")
            and number not in skipped
        ]
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=PACKAGE,
                        help="package directory to count (default: this checkout's)")
    args = parser.parse_args(argv)
    counts = {
        path.stem: code_lines(path.read_text(encoding="utf-8"))
        for path in args.src.glob("*.py")
    }
    for name, lines in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name} {lines}")
    print(f"total {sum(counts.values())}")


if __name__ == "__main__":
    main()
