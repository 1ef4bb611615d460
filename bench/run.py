"""cvdfusion benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload measure-wide --seed 1 --seconds 10 --trace 0

Every workload is a closed loop with one client: each document (one source
file plus one command) starts after the previous one has returned.  The
workloads call ``cvdfusion.cli.main(argv)`` in-process (or, for round-trips,
``formats.emit_source_*`` then ``formats.parse_source_file``).  Documents
run in passes of one full command-mix cycle; every outcome is checked
against the numpy oracles after its pass, outside the timed region.

``--trace 0`` measures untraced passes for ``--seconds`` (and at least
``MIN_P90_SAMPLES`` documents) and reports the ``end_to_end`` metrics named
in BENCHMARK.json; their times are in ``ref``, multiples of a fixed
reference task timed next to each document (see reference.py), and
``setup_s`` in seconds.  ``--trace 1`` alternates an untraced and a traced pass
over the same first pass of documents and reports the ``per_layer`` metrics
(per document), with ``trace.overhead_ratio`` = traced / untraced wall time.
The last stdout line is the JSON result; the lines before it, starting with
``#``, give the run context, the workload mix and every metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import re
import resource
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One thread: numpy's BLAS would otherwise start a thread per core.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]
try:
    import cvdfusion
    import cvdfusion.cli
    import cvdfusion.formats
    from check import check_cli, check_roundtrip
    from reference import time_reference
    from spans import Tracer, layer_metrics
    from workloads import PASS_SIZE, WORK_DIR, WORKLOADS, make_doc
except ModuleNotFoundError as err:
    sys.exit(f"bench: {err}; run from a checkout with src/ and tests/oracles.py")

OUT_DIR = ".bench_out"
MIN_P90_SAMPLES = 100
MAX_TIMED_S = 120  # a run that needs longer for MIN_P90_SAMPLES documents fails
SETUP_PROBES = 5  # at the start; ``--trace 0`` adds one per SETUP_EVERY_S
SETUP_EVERY_S = 3.0
STARTUP_PROBES = 5
CHILD_TIMEOUT_S = 60
REF_WINDOW = 4
ERROR_CODES = ("ValidationFailed", "Usage", "IOError", "MalformedSyntax")


def p90(values) -> float:
    """90th percentile; refused below MIN_P90_SAMPLES so >= 10 samples lie beyond it."""
    if len(values) < MIN_P90_SAMPLES:
        raise ValueError(f"p90 needs at least {MIN_P90_SAMPLES} samples, got {len(values)}")
    return quantiles(values, n=10, method="inclusive")[8]


def run_child(argv, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], env=dict(os.environ, PYTHONPATH="src"), cwd=ROOT, stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, **kwargs,
    )


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def interp_startup_ms() -> float:
    times = []
    for _ in range(STARTUP_PROBES):
        t0 = perf_counter()
        run_child(["-c", "pass"], check=True)
        times.append((perf_counter() - t0) * 1e3)
    return median(times)


def cli_import_ms() -> float:
    """Cumulative ``cvdfusion.cli`` import time reported by ``-X importtime``."""
    times = []
    for _ in range(3):
        err = run_child(["-X", "importtime", "-c", "import cvdfusion.cli"], check=True).stderr
        match = re.search(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*cvdfusion\.cli$", err, re.M)
        if match is None:
            raise RuntimeError("no cvdfusion.cli line in -X importtime output")
        times.append(int(match.group(1)) / 1e3)
    return median(times)


def write_inputs(docs) -> None:
    for doc in docs:
        if doc.command != "missing":
            Path(doc.path).write_bytes(doc.data)


def setup_probe(doc) -> float:
    """Seconds a fresh process takes to import cvdfusion.cli and run one warm-up document."""
    out = run_child([str(HERE / "setup_probe.py"), *doc.argv], check=True).stdout.split()
    if int(out[1]) != doc.exit_code:
        raise RuntimeError(f"warm-up document exited {out[1]}, expected {doc.exit_code}")
    return float(out[0])


class Runner:
    """Runs documents of one workload and checks their outcomes."""

    def __init__(self):
        self.failures: list[str] = []

    def prepare(self, docs) -> list:
        """Write input files and build round-trip SourceSets (untimed)."""
        write_inputs(docs)
        return [
            cvdfusion.make_source_set(cvdfusion.OutcomeSpace(tuple(d.labels)), d.raws)
            if d.command == "roundtrip" else None
            for d in docs
        ]

    def run_pass(self, docs, prepared, tracer=None, refs=None):
        """Run the documents back to back; return (wall seconds, latencies, outcomes).

        With a ``refs`` list, time one reference task before each document
        and append its seconds there.
        """
        latencies, outcomes = [], []
        # Freeze the harness's own objects (corpus, earlier outcomes) out of
        # the collector, so the program's collections cost what they would
        # in a process of its own.  The collector stays on.
        gc.collect()
        gc.freeze()
        start = perf_counter()
        for doc, source_set in zip(docs, prepared):
            if tracer is not None:
                tracer.doc_id = doc.index
            if refs is not None:
                refs.append(time_reference())
            if doc.command == "roundtrip":
                emit = cvdfusion.formats.emit_source_json if doc.fmt == "json" else cvdfusion.formats.emit_source_csv
                t0 = perf_counter()
                try:
                    outcome = cvdfusion.formats.parse_source_file(emit(source_set))
                except Exception as err:  # a failed document, not a failed run
                    outcome = err
                latencies.append(perf_counter() - t0)
            else:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    t0 = perf_counter()
                    try:
                        code = cvdfusion.cli.main(doc.argv)
                    except Exception as exc:  # a failed document, not a failed run
                        code = f"raised {type(exc).__name__}: {exc}"
                    latencies.append(perf_counter() - t0)
                outcome = (code, out.getvalue(), err.getvalue())
            outcomes.append(outcome)
        wall = perf_counter() - start
        gc.unfreeze()
        return wall, latencies, outcomes

    def check(self, docs, outcomes) -> tuple[int, dict[str, int]]:
        """Check every outcome; return the number failed and the error records seen."""
        failed = 0
        errors = dict.fromkeys(ERROR_CODES + ("other",), 0)
        for doc, outcome in zip(docs, outcomes):
            if doc.command == "roundtrip":
                reason = (
                    f"round-trip raised {type(outcome).__name__}: {outcome}"
                    if isinstance(outcome, Exception) else check_roundtrip(doc, outcome)
                )
            else:
                code, stdout, stderr = outcome
                for line in stderr.splitlines():
                    try:
                        error = json.loads(line).get("error")
                    except (ValueError, AttributeError):
                        error = None
                    errors[error if error in errors else "other"] += 1
                reason = check_cli(doc, code, stdout, stderr)
            if reason is not None:
                failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"doc {doc.index} ({doc.command}): {reason}")
        return failed, errors


def summary(doc) -> tuple:
    """What ``describe`` needs of a document, without holding its data."""
    key = doc.command + (f"-{doc.strategy}" if doc.strategy else "")
    return (key, len(doc.raws), len(doc.labels), doc.real_only, doc.exit_code != 0,
            doc.fmt == "csv", len(doc.data))


def describe(rows) -> dict:
    """The mix actually run: commands, sizes, shares and input bytes."""
    keys, rs, ns, real_only, invalid, csv, sizes = zip(*rows)
    return {
        "documents": len(rows),
        "mix": {key: keys.count(key) for key in dict.fromkeys(keys)},
        "r": [min(rs), max(rs)],
        "n": [min(ns), max(ns)],
        "real_only_share": sum(real_only) / len(rows),
        "invalid_share": sum(invalid) / len(rows),
        "csv_share": sum(csv) / len(rows),
        "input_bytes": sum(sizes),
    }


def measure(runner, workload, seed, seconds, warm, setup):
    """Timed passes for ``seconds``, with a set-up probe after the pass that
    ends each ``SETUP_EVERY_S`` of timed time.

    A document's latency in ``ref`` is its seconds divided by the median
    time of the reference tasks run next to it: up to ``REF_WINDOW`` on
    each side within its pass, so it follows the CPU's speed from second
    to second (see reference.py).
    """
    size = PASS_SIZE[workload]
    latencies, scaled, all_refs, rows = [], [], [], []
    attempted = failed = 0
    timed = 0.0
    while (timed < seconds or len(latencies) < MIN_P90_SAMPLES) and timed < MAX_TIMED_S:
        docs = [make_doc(workload, seed, i) for i in range(len(rows), len(rows) + size)]
        refs = []
        wall, lat, outcomes = runner.run_pass(docs, runner.prepare(docs), refs=refs)
        timed += wall
        latencies += lat
        scaled += [t / median(refs[max(0, k - REF_WINDOW):k + REF_WINDOW + 1]) for k, t in enumerate(lat)]
        all_refs += refs
        attempted += len(docs)
        failed += runner.check(docs, outcomes)[0]
        rows += [summary(d) for d in docs]
        if timed >= SETUP_EVERY_S * (len(setup) - SETUP_PROBES + 1):
            setup.append(setup_probe(warm))
    metrics = {
        "docs_per_kref": 1e3 * len(scaled) / sum(scaled),
        "latency_p50_ref": median(scaled),
        "latency_p90_ref": p90(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "latency_samples": len(latencies),
        "passes": len(latencies) // size,
        "timed_s": timed,
        "ref_ms": median(all_refs) * 1e3,
        "docs_per_s": len(latencies) / sum(latencies),
        "latency_ms_p50": median(latencies) * 1e3,
        "latency_ms_p90": p90(latencies) * 1e3,
        "setup_probes": len(setup),
        "failed_ratio": failed / attempted,
    }
    return metrics, notes, attempted, failed, rows


def trace(runner, workload, seed, seconds):
    docs = [make_doc(workload, seed, i) for i in range(PASS_SIZE[workload])]
    tracer = Tracer()
    ratios = []
    errors = dict.fromkeys(ERROR_CODES + ("other",), 0)
    attempted = failed = traced_docs = 0
    timed = 0.0
    prepared = runner.prepare(docs)
    while timed < seconds or not ratios:
        plain, _, outcomes = runner.run_pass(docs, prepared)
        failed += runner.check(docs, outcomes)[0]
        tracer.install()
        try:
            traced, _, outcomes = runner.run_pass(docs, prepared, tracer)
        finally:
            tracer.uninstall()
        traced_failed, traced_errors = runner.check(docs, outcomes)
        failed += traced_failed
        for code, count in traced_errors.items():
            errors[code] += count
        attempted += 2 * len(docs)
        traced_docs += len(docs)
        timed += plain + traced
        ratios.append(traced / plain)
    tracer.dump(str(Path(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")))
    metrics = layer_metrics(tracer, traced_docs)
    for code, count in errors.items():
        metrics[f"errors.{code}.count"] = count / traced_docs
    metrics["trace.overhead_ratio"] = median(ratios)
    metrics["cli.import_ms"] = cli_import_ms()
    notes = {"traced_documents": traced_docs, "pairs": len(ratios), "spans": len(tracer)}
    return metrics, notes, attempted, failed, [summary(d) for d in docs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    os.chdir(ROOT)
    Path(WORK_DIR).mkdir(parents=True)
    try:
        return run(args, wanted)
    finally:
        shutil.rmtree(WORK_DIR)


def run(args, wanted) -> int:
    context = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "loadavg_1m": os.getloadavg()[0],
        "interp.startup_ms": interp_startup_ms(),
    }
    warm = make_doc(args.workload, args.seed, 0)
    path = f"{WORK_DIR}/warm.{warm.fmt}"
    warm.argv = [path if a == warm.path else a for a in warm.argv]
    warm.path = path
    write_inputs([warm])
    setup = [setup_probe(warm) for _ in range(SETUP_PROBES)]

    runner = Runner()
    warm_outcome = runner.run_pass([warm], runner.prepare([warm]))[2]
    warm_failed = runner.check([warm], warm_outcome)[0]

    if args.trace:
        metrics, notes, attempted, failed, rows = trace(runner, args.workload, args.seed, args.seconds)
    else:
        metrics, notes, attempted, failed, rows = measure(
            runner, args.workload, args.seed, args.seconds, warm, setup)
    failed += warm_failed
    attempted += 1
    metrics["setup_s"] = median(setup)
    metrics["interp.startup_ms"] = context["interp.startup_ms"]

    print("# context " + json.dumps(context))
    print("# workload " + json.dumps({"name": args.workload, "seed": args.seed, **describe(rows)}))
    print("# notes " + json.dumps(notes))
    for reason in runner.failures:
        print("# failed " + reason)
    result = {}
    for m in wanted:
        result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        samples = f" ({notes['latency_samples']} samples)" if m["name"] == "latency_p90_ref" else ""
        print(f"# {m['name']} = {metrics[m['name']]!r} {m['unit']}{samples}")
    if not args.trace:
        print(f"# failed_ratio = {notes['failed_ratio']!r} 1")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
