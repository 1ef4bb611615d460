"""The README's CLI examples print what the CLI prints, byte for byte."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cvdfusion

ROOT = Path(__file__).resolve().parent.parent


def _console_examples() -> list[tuple[str, str]]:
    """(command, output) for each '$ ' line of the README's console block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```console\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines(keepends=True):
        if line.startswith("$ "):
            examples.append([line[2:].rstrip("\n"), ""])
        else:
            examples[-1][1] += line
    # a blank line separates one example's output from the next command
    return [(command, output.rstrip("\n") + "\n") for command, output in examples]


EXAMPLES = _console_examples()
PAIR_JSON = dict(EXAMPLES)["cat pair.json"]
CLI_EXAMPLES = [
    (command, output)
    for command, output in EXAMPLES
    if command.startswith("cvdfusion ") and "..." not in output
]


def test_the_examples_are_found():
    commands = [command.split()[1] for command, _ in CLI_EXAMPLES]
    assert commands == ["validate", "measure", "select"]


@pytest.mark.parametrize("command, expected", CLI_EXAMPLES, ids=[c for c, _ in CLI_EXAMPLES])
def test_example_output(tmp_path, command, expected):
    (tmp_path / "pair.json").write_text(PAIR_JSON, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    argv = shlex.split(command)[1:]
    proc = subprocess.run(
        [sys.executable, "-m", "cvdfusion", *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected.encode("utf-8")


# codes only the CLI writes: no CvdError class carries them
CLI_ONLY_CODES = ["ValidationFailed", "IOError", "MemoryExhausted", "Usage"]


def test_every_error_code_is_listed():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    codes = [
        error.code
        for error in map(vars(cvdfusion).get, cvdfusion.__all__)
        if isinstance(error, type) and issubclass(error, cvdfusion.CvdError)
    ]
    assert len(codes) == 15
    assert [c for c in codes + CLI_ONLY_CODES if f"`{c}`" not in readme] == []
