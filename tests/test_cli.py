"""CLI behavior: subcommands, report contracts, exit codes, stderr records."""

import ast
import errno
import io
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvdfusion.cli
import cvdfusion.measures
from cvdfusion.cli import main

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"

TWO_SOURCE_JSON = (
    '{"space": ["up", "down"],'
    ' "sources": [{"name": "s1", "values": [[0.5, 0.3], [0.5, -0.3]]},'
    '             {"name": "s2", "values": [[0.6, -0.2], [0.4, 0.2]]}]}'
)

ORTHOGONAL_JSON = (
    '{"space": ["up", "down"],'
    ' "sources": [{"name": "s1", "values": [[1, 0], [0, 0]]},'
    '             {"name": "s2", "values": [[0, 0], [1, 0]]}]}'
)

TWO_SOURCE_CSV = (
    "name,up_re,up_im,down_re,down_im\ns1,0.5,0.3,0.5,-0.3\ns2,0.6,-0.2,0.4,0.2\n"
)

# one valid source and one whose entries sum to 1.2
MIXED_VALIDITY_JSON = (
    '{"space": ["a", "b"],'
    ' "sources": [{"name": "good", "values": [[0.5, 0], [0.5, 0]]},'
    '             {"name": "bad", "values": [[0.6, 0], [0.6, 0]]}]}'
)

FOUR_SOURCE_JSON = json.dumps(
    {
        "space": ["a", "b", "c", "d"],
        "sources": [
            {"name": "sharp1", "values": [[0.90, 0], [0.05, 0], [0.03, 0], [0.02, 0]]},
            {"name": "sharp2", "values": [[0.88, 0], [0.06, 0], [0.04, 0], [0.02, 0]]},
            {"name": "sharp3", "values": [[0.89, 0], [0.05, 0], [0.04, 0], [0.02, 0]]},
            {"name": "uniform", "values": [[0.25, 0], [0.25, 0], [0.25, 0], [0.25, 0]]},
        ],
    }
)


@pytest.fixture
def two_source_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(TWO_SOURCE_JSON, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(argv, **kwargs):
    """subprocess.run in a fresh process that imports cvdfusion from src/.

    stdout and stderr are captured unless the caller passes its own.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run(argv, env=env, **kwargs)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestMeasure:
    def test_orthogonal_pair_aggregate(self, capsys, tmp_path):
        path = write(tmp_path, "orth.json", ORTHOGONAL_JSON)
        code, out, err = run_cli(capsys, "measure", "--input", path)
        assert code == 0
        assert err == ""
        report = json.loads(out)
        assert report["aggregate_iq"] == 0.5
        assert report["conflict"][0][1] == 1.0

    def test_stdout_is_exactly_one_json_line(self, capsys, two_source_file):
        code, out, err = run_cli(capsys, "measure", "--input", two_source_file)
        assert code == 0
        assert out.count("\n") == 1 and out.endswith("\n")
        json.loads(out)

    def test_pretty_output(self, capsys, two_source_file):
        _, plain, _ = run_cli(capsys, "measure", "--input", two_source_file)
        _, pretty, _ = run_cli(
            capsys, "measure", "--input", two_source_file, "--pretty"
        )
        assert pretty.count("\n") > plain.count("\n")
        assert json.loads(pretty) == json.loads(plain)

    def test_twelve_significant_digits(self, capsys, two_source_file):
        _, out, _ = run_cli(capsys, "measure", "--input", two_source_file)
        report = json.loads(out)
        assert report["compatibility"][0][1] == 0.594913076531

    def test_stdin_input(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(TWO_SOURCE_JSON.encode("utf-8")))
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, _ = run_cli(capsys, "measure", "--input", "-")
        assert code == 0
        assert json.loads(out)["aggregate_iq"] == 0.51

    def test_csv_input(self, capsys, tmp_path):
        path = write(tmp_path, "pair.csv", TWO_SOURCE_CSV)
        _, out_csv, _ = run_cli(capsys, "measure", "--input", path)
        json_path = write(tmp_path, "pair.json", TWO_SOURCE_JSON)
        _, out_json, _ = run_cli(capsys, "measure", "--input", json_path)
        assert json.loads(out_csv) == json.loads(out_json)

    def test_csv_with_a_quoted_header_cell(self, capsys, tmp_path):
        plain = write(tmp_path, "pair.csv", TWO_SOURCE_CSV)
        quoted = write(tmp_path, "quoted.csv", '"name"' + TWO_SOURCE_CSV[4:])
        expected = run_cli(capsys, "measure", "--input", plain)
        assert expected[0] == 0
        assert run_cli(capsys, "measure", "--input", quoted) == expected

    @pytest.mark.parametrize(
        "name, text",
        [("pair.json", TWO_SOURCE_JSON), ("pair.csv", TWO_SOURCE_CSV)],
        ids=["json", "csv"],
    )
    def test_utf8_byte_order_mark_is_ignored(self, capsys, tmp_path, name, text):
        plain = write(tmp_path, name, text)
        marked = tmp_path / f"bom-{name}"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        expected = run_cli(capsys, "measure", "--input", plain)
        assert expected[0] == 0
        assert run_cli(capsys, "measure", "--input", str(marked)) == expected


class TestFuse:
    def test_default_credibility_weights(self, capsys, two_source_file):
        code, out, _ = run_cli(capsys, "fuse", "--input", two_source_file)
        assert code == 0
        report = json.loads(out)
        assert report["credibility"] == {"s1": 0.5, "s2": 0.5}
        assert report["fused"] == [[0.55, 0.05], [0.45, -0.05]]
        assert report["fused_iq"] == 0.51

    def test_explicit_weights(self, capsys, two_source_file):
        code, out, _ = run_cli(
            capsys, "fuse", "--input", two_source_file, "--weights", "1,0"
        )
        assert code == 0
        report = json.loads(out)
        assert report["fused"] == [[0.5, 0.3], [0.5, -0.3]]

    def test_invalid_weight_values_are_domain_errors(self, capsys, two_source_file):
        code, out, err = run_cli(
            capsys, "fuse", "--input", two_source_file, "--weights", "0.4,0.4"
        )
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "InvalidWeights"

    def test_weight_length_mismatch(self, capsys, two_source_file):
        code, _, err = run_cli(
            capsys, "fuse", "--input", two_source_file, "--weights", "1,0,0"
        )
        assert code == 1
        assert json.loads(err)["error"] == "WeightLengthMismatch"

    def test_nan_weights_are_domain_errors(self, capsys, two_source_file):
        code, out, err = run_cli(
            capsys, "fuse", "--input", two_source_file, "--weights", "nan,nan"
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert json.loads(err)["error"] == "InvalidWeights"

    def test_unparseable_weights_are_usage_errors(self, capsys, two_source_file):
        code, _, err = run_cli(
            capsys, "fuse", "--input", two_source_file, "--weights", "a,b"
        )
        assert code == 3
        assert json.loads(err)["error"] == "Usage"


class TestSelect:
    def test_exhaustive_excludes_uniform_outlier(self, capsys, tmp_path):
        path = write(tmp_path, "four.json", FOUR_SOURCE_JSON)
        code, out, _ = run_cli(
            capsys, "select", "--input", path, "--strategy", "exhaustive"
        )
        assert code == 0
        selection = json.loads(out)["selection"]
        assert "uniform" not in selection["chosen"]
        assert selection["strategy"] == "exhaustive"

    def test_greedy_is_default(self, capsys, two_source_file):
        _, out, _ = run_cli(capsys, "select", "--input", two_source_file)
        assert json.loads(out)["selection"]["strategy"] == "greedy"

    def test_min_size(self, capsys, two_source_file):
        _, out, _ = run_cli(
            capsys, "select", "--input", two_source_file, "--min-size", "2"
        )
        assert sorted(json.loads(out)["selection"]["chosen"]) == ["s1", "s2"]

    def test_bad_min_size_is_domain_error(self, capsys, two_source_file):
        code, _, err = run_cli(
            capsys, "select", "--input", two_source_file, "--min-size", "0"
        )
        assert code == 1
        assert json.loads(err)["error"] == "BadMinSize"


class TestValidate:
    def test_all_valid(self, capsys, two_source_file):
        code, out, err = run_cli(capsys, "validate", "--input", two_source_file)
        assert code == 0
        assert err == ""
        assert json.loads(out)["valid"] is True

    def test_invalid_source_reports_verdicts_and_exits_one(self, capsys, tmp_path):
        path = write(tmp_path, "mixed.json", MIXED_VALIDITY_JSON)
        code, out, err = run_cli(capsys, "validate", "--input", path)
        assert code == 1
        report = json.loads(out)
        assert report["valid"] is False
        assert report["sources"][0]["valid"] is True
        assert report["sources"][1]["error"]["code"] == "SumNotUnity"
        record = json.loads(err)
        assert record["error"] == "ValidationFailed"
        assert "bad" in record["message"]

    def test_tol_flag(self, capsys, tmp_path):
        doc = (
            '{"space": ["a", "b"],'
            ' "sources": [{"name": "s", "values": [[0.5, 0], [0.50000005, 0]]}]}'
        )
        path = write(tmp_path, "near.json", doc)
        code, _, _ = run_cli(capsys, "validate", "--input", path)
        assert code == 1
        code, _, _ = run_cli(capsys, "validate", "--input", path, "--tol", "1e-6")
        assert code == 0


class TestExitCodes:
    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "measure", "--input", str(tmp_path / "nope.json")
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "IOError"

    def test_empty_input_path_is_a_missing_file(self, capsys, tmp_path, monkeypatch):
        # '' names no file: it must not be read as the current directory
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "measure", "--input", "")
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "IOError",
            "message": f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''",
        }

    def test_domain_error_names_source(self, capsys, tmp_path):
        doc = (
            '{"space": ["a", "b"],'
            ' "sources": [{"name": "hot", "values": [[0.7, 0.8], [0.3, -0.8]]}]}'
        )
        path = write(tmp_path, "hot.json", doc)
        code, _, err = run_cli(capsys, "measure", "--input", path)
        assert code == 1
        record = json.loads(err)
        assert record["error"] == "ModulusExceedsOne"
        assert record["source"] == "hot"

    def test_malformed_json(self, capsys, tmp_path):
        path = write(tmp_path, "broken.json", '{"space": ')
        code, _, err = run_cli(capsys, "measure", "--input", path)
        assert code == 1
        assert json.loads(err)["error"] == "MalformedSyntax"

    def test_schema_violation(self, capsys, tmp_path):
        path = write(tmp_path, "schema.json", '{"space": ["a"]}')
        code, _, err = run_cli(capsys, "measure", "--input", path)
        assert code == 1
        assert json.loads(err)["error"] == "SchemaViolation"

    def test_top_level_array_fails_the_json_schema(self, capsys, tmp_path):
        path = write(tmp_path, "array.json", "[1, 2]")
        code, out, err = run_cli(capsys, "measure", "--input", path)
        assert code == 1
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "SchemaViolation"
        assert record["message"] == "top level must be an object"

    @pytest.mark.parametrize("token", ['"abc"', "1", "-2.5", "null", "true"])
    def test_top_level_scalar_fails_the_json_schema(self, capsys, tmp_path, token):
        path = write(tmp_path, "scalar.json", token + "\n")
        code, out, err = run_cli(capsys, "measure", "--input", path)
        assert code == 1
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "SchemaViolation"
        assert record["message"] == "top level must be an object"

    def test_repeated_key_is_one_schema_violation(self, capsys, tmp_path):
        # decoded with last-key-wins this was valid: space ["x", "y"], one source s2
        doc = (
            '{"space": ["a", "b"], "space": ["x", "y"], "sources":'
            ' [{"name": "s1", "name": "s2", "values": [[0.5, 0], [0.5, 0]]}]}'
        )
        path = write(tmp_path, "repeated.json", doc)
        code, out, err = run_cli(capsys, "validate", "--input", path)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "SchemaViolation"
        # each object is checked as the decoder closes it, so the source first
        assert record["message"] == "duplicate key: 'name'"

    def test_csv_field_over_the_limit_is_malformed(self, capsys, tmp_path):
        cell = "1" * 131_073  # one past csv.field_size_limit()'s default
        path = write(tmp_path, "wide.csv", f"name,a_re,a_im\ns,{cell},0\n")
        code, out, err = run_cli(capsys, "measure", "--input", path)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "MalformedSyntax"

    def test_non_utf8_input(self, capsys, tmp_path):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff\xfe\x00broken")
        code, _, err = run_cli(capsys, "measure", "--input", str(path))
        assert code == 1
        assert json.loads(err)["error"] == "MalformedSyntax"

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 3
        assert json.loads(err)["error"] == "Usage"

    def test_missing_input_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "measure")
        assert code == 3
        assert json.loads(err)["error"] == "Usage"

    def test_bad_strategy_is_usage_error(self, capsys, two_source_file):
        code, _, err = run_cli(
            capsys, "select", "--input", two_source_file, "--strategy", "magic"
        )
        assert code == 3
        assert json.loads(err)["error"] == "Usage"

    @pytest.mark.parametrize("tol", ["-1", "inf"])
    def test_bad_tol_is_usage_error(self, capsys, two_source_file, tol):
        code, _, err = run_cli(
            capsys, "measure", "--input", two_source_file, "--tol", tol
        )
        assert code == 3

    @pytest.mark.parametrize(
        "first, tol",
        [
            # Accepted with these tols, the all-zero or 1e-16 source would
            # have a norm below measures' floor.
            ("[[0, 0], [0, 0]]", "10"),
            ("[[1e-16, 0], [0, 0]]", "0.9999999999999999"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "measure", "fuse", "select"])
    def test_tol_above_the_cap_is_usage_error(
        self, capsys, tmp_path, first, tol, command
    ):
        doc = (
            '{"space": ["a", "b"], "sources": ['
            f'{{"name": "s1", "values": {first}}}, '
            '{"name": "s2", "values": [[0.5, 0], [0.5, 0]]}]}'
        )
        path = write(tmp_path, "zero.json", doc)
        code, out, err = run_cli(capsys, command, "--input", path, "--tol", tol)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "Usage",
            "message": f"argument --tol: tolerance must be at most 0.5, got {float(tol)!r}",
        }

    @pytest.mark.parametrize("digits", [309, 5000])
    def test_long_json_integer_is_non_finite(self, capsys, tmp_path, digits):
        # 309-4300 digits overflowed float(); more hit int()'s digit limit.
        doc = TWO_SOURCE_JSON.replace("[0.6, -0.2]", "[" + "9" * digits + ", 0]")
        path = write(tmp_path, "long.json", doc)
        code, out, err = run_cli(capsys, "measure", "--input", path)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "NonFinite"
        assert record["source"] == "s2"

    def test_deeply_nested_json_is_malformed(self, capsys, tmp_path):
        path = write(tmp_path, "deep.json", '{"space": ' + "[" * 100_000)
        code, out, err = run_cli(capsys, "measure", "--input", path)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "MalformedSyntax"

    def test_stderr_records_are_single_line_json(self, capsys, tmp_path):
        path = write(tmp_path, "broken.json", "{")
        _, _, err = run_cli(capsys, "measure", "--input", path)
        assert err.count("\n") == 1 and err.endswith("\n")
        record = json.loads(err)
        assert set(record) >= {"error", "message"}


# The ``error`` field of the CLI's stderr record for each CvdError class.
ERROR_CODES = {
    "CvdError": "CvdError",
    "LengthMismatchError": "LengthMismatch",
    "NonFiniteError": "NonFinite",
    "NegativeRealPartError": "NegativeRealPart",
    "ModulusExceedsOneError": "ModulusExceedsOne",
    "SumNotUnityError": "SumNotUnity",
    "InvalidOutcomeSpaceError": "InvalidOutcomeSpace",
    "DuplicateNameError": "DuplicateName",
    "SpaceMismatchError": "SpaceMismatch",
    "WeightLengthMismatchError": "WeightLengthMismatch",
    "InvalidWeightsError": "InvalidWeights",
    "TooManySourcesForExhaustiveError": "TooManySourcesForExhaustive",
    "BadMinSizeError": "BadMinSize",
    "MalformedSyntaxError": "MalformedSyntax",
    "SchemaViolationError": "SchemaViolation",
}


@pytest.mark.parametrize(
    "name",
    [
        name
        for name in cvdfusion.__all__
        if isinstance(getattr(cvdfusion, name), type)
        and issubclass(getattr(cvdfusion, name), cvdfusion.CvdError)
    ],
)
def test_error_code_of_each_public_error_class(name):
    assert getattr(cvdfusion, name).code == ERROR_CODES[name]


def _is_print(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    )


def test_cli_writes_only_through_write():
    # The guard in _write (a None stream, a failed write, the fd pointed at
    # the null device) holds only for text that goes through it: --help and
    # error records have each bypassed it before.
    tree = ast.parse((ROOT / "src" / "cvdfusion" / "cli.py").read_text("utf-8"))
    prints = [node for node in ast.walk(tree) if _is_print(node)]
    write = next(
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_write"
    )
    assert len(prints) == 1 and prints[0] in ast.walk(write)
    writes = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("write", "writelines")
    ]
    assert writes == []


class TestEntryPoints:
    def test_python_dash_m(self, tmp_path):
        path = write(tmp_path, "pair.json", TWO_SOURCE_JSON)
        for module in ("cvdfusion", "cvdfusion.cli"):
            proc = run_child(
                [sys.executable, "-m", module, "measure", "--input", path],
                text=True,
            )
            assert proc.returncode == 0, module
            assert json.loads(proc.stdout)["aggregate_iq"] == 0.51

    def test_console_script(self, tmp_path):
        # Without an installed executable, run the [project.scripts] target
        # that pyproject.toml declares, as the generated wrapper would.
        command = shutil.which("cvdfusion")
        if command is not None:
            argv = [command]
        else:
            tomllib = pytest.importorskip("tomllib")
            with open(PYPROJECT, "rb") as f:
                target = tomllib.load(f)["project"]["scripts"]["cvdfusion"]
            module, function = target.split(":")
            argv = [
                sys.executable,
                "-c",
                f"import sys; from {module} import {function}; sys.exit({function}())",
            ]
        path = write(tmp_path, "pair.json", TWO_SOURCE_JSON)
        proc = run_child(argv + ["measure", "--input", path], text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["aggregate_iq"] == 0.51


@contextmanager
def _closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: the first write fails with EPIPE
    try:
        yield write_end
    finally:
        os.close(write_end)


def _full_device():
    if not os.path.exists("/dev/full"):
        pytest.skip("this system has no /dev/full")
    return open("/dev/full", "wb")


def _run_with_closed_fd(fd, argv):
    """Run the CLI in a child that closes fd and then execs Python, so the
    CLI starts with that standard stream set to None."""
    start = (
        f"import os, sys; os.close({fd}); "
        "os.execv(sys.executable, [sys.executable, '-m', 'cvdfusion', *sys.argv[1:]])"
    )
    return run_child([sys.executable, "-c", start, *argv], text=True)


class TestUnwritableReport:
    """A report or help text that cannot be written is one IOError record
    and exit 2; so is an error record that cannot be written, silently.

    Each case runs the child twice: with a buffered stdout (the default),
    where the unwritten bytes stay buffered until the flush at exit, and
    with PYTHONUNBUFFERED set.
    """

    def _run_into(
        self, tmp_path, monkeypatch, open_stream, argv=None, stream="stdout"
    ):
        if argv is None:
            argv = ["measure", "--input", write(tmp_path, "pair.json", TWO_SOURCE_JSON)]
        procs = []
        for unbuffered in (None, "1"):
            if unbuffered is None:
                monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
            else:
                monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
            with open_stream() as target:
                procs.append(
                    run_child(
                        [sys.executable, "-m", "cvdfusion", *argv],
                        text=True,
                        **{stream: target},
                    )
                )
        return procs

    def _assert_one_io_error(self, procs, errno_code, what="report"):
        for proc in procs:
            assert proc.returncode == 2, proc.stderr
            # no traceback, no "Exception ignored" from the flush at exit
            assert proc.stderr.count("\n") == 1, proc.stderr
            record = json.loads(proc.stderr)
            assert record["error"] == "IOError"
            assert record["message"].startswith(f"cannot write the {what}: ")
            assert os.strerror(errno_code) in record["message"]

    def test_closed_pipe(self, tmp_path, monkeypatch):
        procs = self._run_into(tmp_path, monkeypatch, _closed_pipe)
        self._assert_one_io_error(procs, errno.EPIPE)

    def test_full_device(self, tmp_path, monkeypatch):
        procs = self._run_into(tmp_path, monkeypatch, _full_device)
        self._assert_one_io_error(procs, errno.ENOSPC)

    def test_invalid_validate_report_to_full_device(self, tmp_path, monkeypatch):
        # the failed report write is the one record: no ValidationFailed
        # record follows it
        path = write(tmp_path, "mixed.json", MIXED_VALIDITY_JSON)
        argv = ["validate", "--input", path]
        procs = self._run_into(tmp_path, monkeypatch, _full_device, argv)
        self._assert_one_io_error(procs, errno.ENOSPC)

    @pytest.mark.parametrize("argv", [["--help"], ["fuse", "--help"]])
    def test_help_text_to_full_device(self, tmp_path, monkeypatch, argv):
        procs = self._run_into(tmp_path, monkeypatch, _full_device, argv)
        self._assert_one_io_error(procs, errno.ENOSPC, what="help text")

    @pytest.mark.parametrize(
        "open_stderr", [_closed_pipe, _full_device], ids=["closed-pipe", "full-device"]
    )
    def test_unwritable_error_record(self, tmp_path, monkeypatch, open_stderr):
        missing = str(tmp_path / "absent.json")
        argv = ["measure", "--input", missing]
        procs = self._run_into(tmp_path, monkeypatch, open_stderr, argv, "stderr")
        for proc in procs:
            # exit 2, not 1 from an escaping OSError or 120 from the flush at exit
            assert proc.returncode == 2
            assert proc.stdout == ""

    def test_unwritable_error_record_in_process(self, tmp_path):
        class Unwritable(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with redirect_stderr(Unwritable()):
            assert main(["measure", "--input", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("command", ["measure", "validate", "--help"])
    def test_stdout_closed_at_start_up(self, tmp_path, command):
        # print(file=None) writes nothing and raises nothing: the exit code
        # was 0
        if command == "--help":
            argv, what = [command], "help text"
        else:
            argv = [command, "--input", write(tmp_path, "pair.json", TWO_SOURCE_JSON)]
            what = "report"
        proc = _run_with_closed_fd(1, argv)
        self._assert_one_io_error([proc], errno.EBADF, what)

    def test_stdin_closed_at_start_up(self):
        # sys.stdin.buffer on None was an AttributeError traceback, exit 1
        proc = _run_with_closed_fd(0, ["measure", "--input", "-"])
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert json.loads(proc.stderr) == {
            "error": "IOError",
            "message": f"[Errno {errno.EBADF}] {os.strerror(errno.EBADF)}",
        }
        assert proc.stderr.count("\n") == 1

    def test_stderr_closed_at_start_up(self, tmp_path):
        # the missing file's record went to stdout, exit 1
        proc = _run_with_closed_fd(2, ["measure", "--input", str(tmp_path / "absent")])
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_no_stderr_in_process(self, capsys, tmp_path, monkeypatch):
        # as under pythonw: print(file=None) would put the record on stdout
        monkeypatch.setattr(sys, "stderr", None)
        assert main(["measure", "--input", str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().out == ""


class TestOneParserPerProcess:
    def test_repeated_calls_match_fresh_processes(self, capsys, tmp_path, monkeypatch):
        # main reuses one parser: flags given to one call must not leak into
        # the next, so each call prints what a fresh process prints.
        monkeypatch.setenv("COLUMNS", "80")  # same help wrapping in both
        pair = write(tmp_path, "pair.json", TWO_SOURCE_JSON)
        four = write(tmp_path, "four.json", FOUR_SOURCE_JSON)
        calls = [
            ["fuse", "--weights", "0.7,0.3", "--input", pair],
            ["fuse", "--input", pair],
            ["select", "--strategy", "exhaustive", "--min-size", "2", "--input", four],
            ["select", "--input", four],
            ["--help"],
            ["select", "--min-size", "two", "--input", four],
            ["measure", "--input", pair],
            ["select", "--help"],
            ["validate", "--pretty", "--input", four],
            ["validate", "--input", four],
        ]
        results = [run_cli(capsys, *argv) for argv in calls]
        for argv, (code, out, err) in zip(calls, results):
            proc = run_child([sys.executable, "-m", "cvdfusion", *argv], text=True)
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)

        fused_given, fused_credibility = (json.loads(r[1]) for r in results[:2])
        assert fused_given["credibility"] == {"s1": 0.7, "s2": 0.3}
        assert fused_credibility["credibility"] == {"s1": 0.5, "s2": 0.5}
        selection = json.loads(results[3][1])["selection"]
        assert selection["strategy"] == "greedy"
        assert len(selection["chosen"]) == 1
        assert [r[0] for r in results[4:7]] == [0, 3, 0]


def _record_calls(monkeypatch, original, record):
    """Wrap every binding of ``original`` in the cvdfusion modules.

    Returns the list that gets ``record(*args)`` of each call.
    """
    calls = []

    def wrapper(*args):
        calls.append(record(*args))
        return original(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "cvdfusion":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, wrapper)
    return calls


def _sharp_sources_json(r):
    """r real sources on four outcomes, each peaked on a different outcome."""
    sources = []
    for k in range(r):
        weights = [1.0 + (k * 7 + 3 * j) % 11 for j in range(4)]
        weights[k % 4] += 10.0 + k
        total = sum(weights)
        sources.append(
            {"name": f"s{k}", "values": [[w / total, 0.0] for w in weights]}
        )
    return json.dumps({"space": ["a", "b", "c", "d"], "sources": sources})


class TestOneGramPerDocument:
    @pytest.mark.parametrize(
        "argv",
        [
            ["measure"],
            ["fuse"],
            ["fuse", "--weights", "0.25,0.25,0.25,0.25"],
            ["select", "--strategy", "exhaustive"],
        ],
    )
    def test_gram_built_once(self, capsys, tmp_path, monkeypatch, argv):
        built = _record_calls(monkeypatch, cvdfusion.measures.gram, len)
        path = write(tmp_path, "four.json", FOUR_SOURCE_JSON)
        code, _, _ = run_cli(capsys, *argv, "--input", path)
        assert code == 0
        assert built == [4]

    @pytest.mark.parametrize("min_size", [1, 5, 40])
    def test_greedy_computes_only_the_rows_it_reads(
        self, capsys, tmp_path, monkeypatch, min_size
    ):
        # Greedy needs the diagonal (r products), then one Gram row (r
        # products) per chosen source that a later round reads: every chosen
        # source when it stops early, all but the last when it takes all r.
        # No full Gram matrix is built.
        built = _record_calls(monkeypatch, cvdfusion.measures.gram, len)
        products = _record_calls(
            monkeypatch, cvdfusion.measures.row_products, lambda row, rows: len(rows)
        )
        r = 40
        path = write(tmp_path, "wide.json", _sharp_sources_json(r))
        code, out, _ = run_cli(
            capsys, "select", "--strategy", "greedy", "--min-size", str(min_size),
            "--input", path,
        )
        assert code == 0
        chosen = json.loads(out)["selection"]["chosen"]
        assert len(chosen) >= min_size
        assert built == []
        rows_read = len(chosen) if len(chosen) < r else r - 1
        assert sum(products) == r + r * rows_read

    @pytest.mark.parametrize("min_size", [1, 5, 40])
    def test_greedy_never_calls_subset_quality(
        self, capsys, tmp_path, monkeypatch, min_size
    ):
        # Greedy's running sums are subset_quality's bits, so it scores
        # every candidate of every round without calling it.
        scored = _record_calls(
            monkeypatch, cvdfusion.measures.subset_quality, lambda g, indices: indices
        )
        path = write(tmp_path, "wide.json", _sharp_sources_json(40))
        code, out, _ = run_cli(
            capsys, "select", "--strategy", "greedy", "--min-size", str(min_size),
            "--input", path,
        )
        assert code == 0
        assert len(json.loads(out)["selection"]["chosen"]) >= min_size
        assert scored == []


class TestOptimizedInterpreter:
    @pytest.mark.parametrize(
        "argv", [["measure"], ["select", "--strategy", "exhaustive"]]
    )
    def test_python_dash_O_output_is_identical(self, tmp_path, argv):
        path = write(tmp_path, "four.json", FOUR_SOURCE_JSON)
        outputs = []
        for flags in ([], ["-O"]):
            proc = run_child(
                [sys.executable, *flags, "-m", "cvdfusion", *argv, "--input", path]
            )
            assert proc.returncode == 0
            assert proc.stderr == b""
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestMemoryExhausted:
    """Running out of memory is one MemoryExhausted record and exit 2."""

    def test_in_process(self, capsys, monkeypatch, two_source_file):
        def exhausted(s):
            raise MemoryError

        monkeypatch.setattr(cvdfusion.cli, "build_measure_report", exhausted)
        code, out, err = run_cli(capsys, "measure", "--input", two_source_file)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "MemoryExhausted",
            "message": "out of memory",
        }

    def test_child_under_an_address_space_limit(self, tmp_path):
        # 3,000 sources over 2 outcomes: the Gram matrix fits in 400 MB, the
        # matrices after it do not.  The child lowers only its own limit.
        resource = pytest.importorskip("resource")
        limit = 400 * 2**20

        def lower_limit():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        doc = {
            "space": ["a", "b"],
            "sources": [
                {"name": f"s{k}", "values": [[0.5, 0.1], [0.5, -0.1]]}
                for k in range(3000)
            ],
        }
        path = write(tmp_path, "wide.json", json.dumps(doc))
        proc = run_child(
            [sys.executable, "-m", "cvdfusion", "measure", "--input", path],
            preexec_fn=lower_limit,
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"Traceback" not in proc.stderr
        lines = proc.stderr.decode("utf-8").splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "MemoryExhausted",
            "message": "out of memory",
        }


# --- CLI fuzzing: any input bytes give a report or one JSON error line ---

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_VALID_DOCUMENTS = (TWO_SOURCE_JSON, FOUR_SOURCE_JSON, TWO_SOURCE_CSV)


@st.composite
def _mutated_document(draw):
    text = draw(st.sampled_from(_VALID_DOCUMENTS))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["bom", "number", "nest", "truncate"]))
        if kind == "bom":
            text = "\ufeff" + text
        elif kind == "number":
            spans = [m.span() for m in _NUMBER.finditer(text)]
            if spans:
                lo, hi = draw(st.sampled_from(spans))
                replacement = draw(
                    st.sampled_from(["NaN", "Infinity", "-Infinity", "nan", "inf"])
                    | st.integers(300, 5000).map(lambda d: "9" * d)
                )
                text = text[:lo] + replacement + text[hi:]
        elif kind == "nest":
            at = draw(st.integers(0, len(text)))
            depth = draw(st.sampled_from([1, 50, 5000, 100_000]))
            text = text[:at] + "[" * depth + text[at:]
        else:
            text = text[: draw(st.integers(0, len(text)))]
    return text.encode("utf-8")


def _run_on_stdin(argv, data):
    stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(data))
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--input", "-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _assert_report_or_one_error_line(data):
    for argv in (["validate"], ["measure"], ["fuse"], ["select"]):
        code, _, err = _run_on_stdin(argv, data)
        assert code in (0, 1, 2, 3)
        assert (code == 0) == (err == "")
        if err:
            assert err.count("\n") == 1 and err.endswith("\n")
            assert "error" in json.loads(err)


_ARGV_TOKENS = (
    "validate", "measure", "fuse", "select",
    "--input", "--tol", "--pretty", "--weights", "--strategy", "--min-size",
    "-h", "--help", "--in", "--strategy=greedy",
    "exhaustive", "greedy", "0", "1", "2", "5", "-1", "1e-9", "1e-320", "nan",
    "inf", "0.25,0.25,0.25,0.25", "0.5,0.5", "nan,nan", "", "-", "INPUT",
)  # fmt: skip
_INPUTS = ("VALID", "MISSING", "-")


@st.composite
def _argv(draw):
    token = st.sampled_from(_ARGV_TOKENS) | st.text(max_size=10)
    argv = draw(st.lists(token, max_size=7))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = ["--input", "INPUT"]
    where = draw(st.sampled_from(_INPUTS))
    return argv, where


@pytest.fixture(scope="module")
def input_paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("argv")
    valid = directory / "four.json"
    valid.write_text(FOUR_SOURCE_JSON, encoding="utf-8")
    return {"VALID": str(valid), "MISSING": str(directory / "absent.json"), "-": "-"}


class TestFuzz:
    @settings(max_examples=100, deadline=None)
    @given(_argv())
    def test_arbitrary_argv(self, input_paths, drawn):
        argv, where = drawn
        argv = [input_paths[where] if a == "INPUT" else a for a in argv]
        stdin = sys.stdin
        sys.stdin = io.TextIOWrapper(io.BytesIO(FOUR_SOURCE_JSON.encode("utf-8")))
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except SystemExit as exit_:
            pytest.fail(f"SystemExit({exit_.code}) escaped main({argv!r})")
        finally:
            sys.stdin = stdin
        assert code in (0, 1, 2, 3)
        err = err.getvalue()
        if code == 0:
            assert err == ""
        else:
            assert err.count("\n") == 1 and err.endswith("\n")
            assert "error" in json.loads(err)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, data):
        _assert_report_or_one_error_line(data)

    @settings(max_examples=80, deadline=None)
    @given(_mutated_document())
    def test_mutated_documents(self, data):
        _assert_report_or_one_error_line(data)
