"""Tracing from outside the program: wrappers, spans and self time.

``Tracer.install`` replaces each public function named in ``SPANS`` and
``COUNTS`` at every ``cvdfusion`` module binding it (the defining module and
each module that imported it by name), so callers reach the wrapper through
the same lookups they use today.  A function that no longer exists is
skipped and reports 0.  ``uninstall`` restores the originals.

A span is (name, start, end, parent span, document, arg), stored in
``array`` columns so that a traced run with ~10^5 spans stays small; the
spans are written to a file once, at the end.  Functions in ``COUNTS`` run
so often (r^2 per document) that only their calls are counted.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns

SPANS = (
    "cli.main",
    "formats.parse_source_file",
    "formats.parse_raw_document",
    "formats.build_validate_report",
    "formats.build_measure_report",
    "formats.build_fuse_report",
    "formats.build_select_report",
    "formats.render_report",
    "formats.emit_source_json",
    "formats.emit_source_csv",
    "core.make_source_set",
    "core.make_cvd",
    "measures.pairwise_matrix",
    "measures.aggregate_quality",
    "fusion.credibility_weights",
    "fusion.fuse",
    "fusion.select_sources",
)
COUNTS = ("measures.inner_product", "measures.information_quality", "formats.round_sig")


def _arg(name, args, kwargs) -> int:
    """The one argument a span keeps: subset size, or the requested min_size."""
    if name == "measures.aggregate_quality":
        return len(args[0]) if args else -1
    if name == "fusion.select_sources":
        return kwargs.get("min_size", args[2] if len(args) > 2 else 1)
    return -1


class Tracer:
    def __init__(self):
        self.names: list[str] = list(SPANS)
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.doc = array("q")
        self.arg = array("q")
        self.counts: dict[str, int] = dict.fromkeys(
            COUNTS + ("formats.bytes_in", "formats.bytes_out"), 0
        )
        self.current = -1
        self.doc_id = -1
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def add(self, name: str, start: int, end: int, parent: int, doc: int, arg: int = -1) -> int:
        if name not in self.names:
            self.names.append(name)
        self.name.append(self.names.index(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.doc.append(doc)
        self.arg.append(arg)
        return len(self.name) - 1

    # --- wrapping ---

    def _span_wrapper(self, name, fn):
        name_id = self.names.index(name)
        keep_arg = name in ("measures.aggregate_quality", "fusion.select_sources")
        counts = self.counts
        bytes_key = {
            "formats.parse_raw_document": "formats.bytes_in",
            "formats.render_report": "formats.bytes_out",
            "formats.emit_source_json": "formats.bytes_out",
            "formats.emit_source_csv": "formats.bytes_out",
        }.get(name)

        def wrapper(*args, **kwargs):
            parent = self.current
            idx = len(self.name)
            self.name.append(name_id)
            self.start.append(perf_counter_ns())
            self.end.append(0)
            self.parent.append(parent)
            self.doc.append(self.doc_id)
            self.arg.append(_arg(name, args, kwargs) if keep_arg else -1)
            self.current = idx
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self.current = parent
            if bytes_key == "formats.bytes_in":
                counts[bytes_key] += len(args[0] if args else kwargs["text"])
            elif bytes_key is not None:
                counts[bytes_key] += len(result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "cvdfusion"]
        for name in SPANS + COUNTS:
            module, attr = name.split(".")
            home = sys.modules.get(f"cvdfusion.{module}")
            original = getattr(home, attr, None)
            if not callable(original):
                continue
            make = self._span_wrapper if name in SPANS else self._count_wrapper
            wrapper = make(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    # --- output ---

    def dump(self, path: str) -> None:
        """Write the names and counts as a header line, then one line per span."""
        with open(path, "w") as f:
            f.write(json.dumps({"names": self.names, "counts": self.counts}) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.doc, self.arg):
                f.write(json.dumps(list(row)) + "\n")


def self_times(tracer: Tracer) -> list[int]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for idx, parent in enumerate(tracer.parent):
        if parent >= 0:
            children.setdefault(parent, []).append((tracer.start[idx], tracer.end[idx]))
    result = []
    for idx in range(len(tracer)):
        lo, hi = tracer.start[idx], tracer.end[idx]
        covered = 0
        reach = lo
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, reach), min(e, hi)
            if e > s:
                covered += e - s
                reach = e
        result.append(hi - lo - covered)
    return result


def layer_metrics(tracer: Tracer, docs: int) -> dict[str, float]:
    """Calls and self time per document for every traced name, plus
    ``fusion.select.min_size_share`` and its base count."""
    own = self_times(tracer)
    calls = dict.fromkeys(tracer.names, 0)
    self_ns = dict.fromkeys(tracer.names, 0)
    for idx, name_id in enumerate(tracer.name):
        name = tracer.names[name_id]
        calls[name] += 1
        self_ns[name] += own[idx]
    out: dict[str, float] = {}
    for name in tracer.names:
        out[f"{name}.calls"] = calls[name] / docs
        out[f"{name}.self_ms"] = self_ns[name] / 1e6 / docs
    for name, value in tracer.counts.items():
        out[name if name.startswith("formats.bytes") else f"{name}.calls"] = value / docs

    # Subsets scored inside a select_sources span, and how many of them have
    # exactly the requested min_size.
    agg = tracer.names.index("measures.aggregate_quality")
    sel = tracer.names.index("fusion.select_sources")
    evaluated = at_min = 0
    for idx, name_id in enumerate(tracer.name):
        if name_id != agg:
            continue
        up = tracer.parent[idx]
        while up >= 0 and tracer.name[up] != sel:
            up = tracer.parent[up]
        if up >= 0:
            evaluated += 1
            at_min += tracer.arg[idx] == tracer.arg[up]
    out["fusion.select.subsets_evaluated"] = evaluated / docs
    out["fusion.select.min_size_share"] = at_min / evaluated if evaluated else 0.0
    return out
