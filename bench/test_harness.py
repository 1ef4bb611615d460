"""Tests of the benchmark harness itself.

Run from the repository root with:

    python -m pytest bench/test_harness.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests"), str(ROOT / "src")]

import cvdfusion.cli  # noqa: E402
import cvdfusion.measures  # noqa: E402
from check import check_cli  # noqa: E402
from run import MIN_P90_SAMPLES, p90  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402
import workloads  # noqa: E402
from workloads import PASS_SIZE, WORKLOADS, make_doc  # noqa: E402


def test_p90_refuses_fewer_than_min_samples():
    with pytest.raises(ValueError):
        p90([1.0] * (MIN_P90_SAMPLES - 1))
    assert p90([float(k) for k in range(1, MIN_P90_SAMPLES + 1)]) == pytest.approx(90.1)


def test_self_time_subtracts_union_of_children():
    t = Tracer()
    root = t.add("cli.main", 0, 100, -1, 0)
    first = t.add("formats.parse_source_file", 10, 30, root, 0)
    t.add("core.make_cvd", 12, 18, first, 0)
    t.add("formats.render_report", 20, 50, root, 0)  # overlaps the first child
    t.add("formats.round_sig", 90, 120, root, 0)  # runs past its parent's end
    assert self_times(t) == [100 - 40 - 10, 20 - 6, 6, 30, 30]


def test_min_size_share_counts_subsets_under_select():
    t = Tracer()
    sel = t.add("fusion.select_sources", 0, 100, -1, 0, arg=2)
    for size in (2, 2, 3, 4):
        t.add("measures.aggregate_quality", 1, 2, sel, 0, arg=size)
    t.add("measures.aggregate_quality", 200, 201, -1, 1, arg=2)  # outside select
    metrics = layer_metrics(t, docs=2)
    assert metrics["fusion.select.min_size_share"] == 0.5
    assert metrics["fusion.select.subsets_evaluated"] == 2.0
    assert metrics["measures.aggregate_quality.calls"] == 2.5


def test_install_wraps_every_binding_and_uninstall_restores():
    original = cvdfusion.measures.pairwise_matrix
    t = Tracer()
    t.install()
    try:
        assert cvdfusion.measures.pairwise_matrix is not original
        assert cvdfusion.formats.pairwise_matrix is cvdfusion.measures.pairwise_matrix
        assert cvdfusion.fusion.pairwise_matrix is cvdfusion.measures.pairwise_matrix
    finally:
        t.uninstall()
    assert cvdfusion.formats.pairwise_matrix is original


def _run(doc, tmp_path):
    path = tmp_path / Path(doc.path).name
    path.write_bytes(doc.data)
    argv = [str(path) if a == doc.path else a for a in doc.argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cvdfusion.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "workload, index", [("measure-wide", 0), ("measure-wide", 1), ("select-search", 0), ("select-search", 1)]
)  # measure, fuse, select exhaustive and greedy
def test_checker_flags_corrupted_report_and_wrong_exit_code(workload, index, tmp_path):
    doc = make_doc(workload, 7, index)
    code, stdout, stderr = _run(doc, tmp_path)
    assert check_cli(doc, code, stdout, stderr) is None

    report = json.loads(stdout)
    if "selection" in report:
        report["selection"]["quality"] += 1e-6
    else:
        report["aggregate_iq"] += 1e-6
    assert "oracle" in check_cli(doc, code, json.dumps(report), stderr)
    assert "exit code" in check_cli(doc, 1, stdout, stderr)


def test_checker_accepts_planted_error_and_flags_a_clean_pass(tmp_path):
    doc = make_doc("ingest-bulk", 3, 4)
    assert doc.planted is not None
    assert check_cli(doc, *_run(doc, tmp_path)) is None
    assert check_cli(doc, 0, "", "") is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_corpus(workload):
    def corpus(seed):
        workloads._ingest_pool.cache_clear()
        return [(d.argv, d.data) for d in (make_doc(workload, seed, i) for i in range(PASS_SIZE[workload]))]

    first = corpus(5)
    assert first == corpus(5)
    assert first != corpus(6)
