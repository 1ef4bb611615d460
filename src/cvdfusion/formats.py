"""Source-file parsing (JSON/CSV), emission, and report assembly.

JSON source files look like::

    {"space": ["l1", "l2"],
     "sources": [{"name": "s1", "values": [[0.5, 0.3], [0.5, -0.3]]}]}

The CSV form carries the outcome labels in the header, one source per row::

    name,l1_re,l1_im,l2_re,l2_im
    s1,0.5,0.3,0.5,-0.3

Complex entries are always two-element [re, im] arrays, never strings.
Both parsers produce identical SourceSets from equivalent data.  Emitters
serialize floats at full precision (shortest round-tripping repr, up to 17
significant digits), so parse(emit(s)) reproduces s bit-for-bit.  Reports
round every number to 12 significant digits.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence

from .core import DEFAULT_TOL, OutcomeSpace, SourceSet, _validate_each, make_source_set
from .errors import CvdError, MalformedSyntaxError, SchemaViolationError
from .fusion import (
    CredibilityWeights,
    SelectionResult,
    fuse,
    weights_from_compatibility,
)
from .measures import (
    PairwiseMatrix,
    gram,
    information_quality,
    matrix_from_gram,
    subset_quality,
)

REPORT_DIGITS = 12

NamedRaws = list[tuple[str, Sequence[Sequence[float]]]]
RawDocument = tuple[OutcomeSpace, NamedRaws]


def detect_format(text: str) -> str:
    """Guess json vs csv from the content.

    An object or an array means JSON, and so does any other document that
    parses as JSON, so a top-level array or scalar fails the JSON schema
    instead of the CSV header check.  Everything else is CSV; a CSV
    document stops the JSON decoder within its first cell.
    """
    stripped = text.lstrip()
    if not stripped:
        raise MalformedSyntaxError("empty input")
    if stripped[0] in "{[":
        return "json"
    try:
        json.loads(stripped, parse_int=float)
    except ValueError:
        return "csv"
    return "json"


def _parse_json_document(text: str) -> RawDocument:
    # Integers decode straight to float: one with more than 308 digits
    # becomes inf (rejected as NonFinite, like the literal 1e400) instead of
    # overflowing float() or hitting int()'s 4300-digit limit.
    try:
        doc = json.loads(text, parse_int=float)
    except json.JSONDecodeError as err:
        raise MalformedSyntaxError(
            f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    except RecursionError:
        raise MalformedSyntaxError("invalid JSON: nested too deeply") from None

    if not isinstance(doc, dict):
        raise SchemaViolationError("top level must be an object")
    unknown = set(doc) - {"space", "sources"}
    if unknown:
        raise SchemaViolationError(f"unknown top-level keys: {sorted(unknown)}")
    if "space" not in doc or "sources" not in doc:
        raise SchemaViolationError("top level needs 'space' and 'sources'")

    labels = doc["space"]
    if not isinstance(labels, list) or not labels:
        raise SchemaViolationError("'space' must be a non-empty array of labels")
    for j, label in enumerate(labels):
        if not isinstance(label, str):
            raise SchemaViolationError(f"space[{j}] must be a string")
    space = OutcomeSpace(tuple(labels))

    raw_sources = doc["sources"]
    if not isinstance(raw_sources, list) or not raw_sources:
        raise SchemaViolationError("'sources' must be a non-empty array")
    named_raws: NamedRaws = []
    for i, item in enumerate(raw_sources):
        where = f"sources[{i}]"
        if not isinstance(item, dict):
            raise SchemaViolationError(f"{where} must be an object")
        unknown = set(item) - {"name", "values"}
        if unknown:
            raise SchemaViolationError(f"{where} has unknown keys: {sorted(unknown)}")
        name = item.get("name")
        if not isinstance(name, str) or not name:
            raise SchemaViolationError(f"{where}.name must be a non-empty string")
        values = item.get("values")
        if not isinstance(values, list):
            raise SchemaViolationError(f"{where}.values must be an array")
        for j, pair in enumerate(values):
            # Every JSON number decodes to float (parse_int=float), so the
            # type test alone rejects bools, strings and null.
            if not (
                type(pair) is list
                and len(pair) == 2
                and type(pair[0]) is float
                and type(pair[1]) is float
            ):
                raise SchemaViolationError(
                    f"{where}.values[{j}] must be a [re, im] pair of numbers"
                )
        named_raws.append((name, values))
    return space, named_raws


def _parse_csv_header(header: list[str]) -> OutcomeSpace:
    if len(header) < 3 or len(header) % 2 == 0 or header[0] != "name":
        raise SchemaViolationError(
            "CSV header must be: name,<label1>_re,<label1>_im,..."
        )
    labels: list[str] = []
    for j in range((len(header) - 1) // 2):
        h_re, h_im = header[1 + 2 * j], header[2 + 2 * j]
        if not h_re.endswith("_re") or not h_im.endswith("_im"):
            raise SchemaViolationError(
                f"header must pair <label>_re,<label>_im columns, "
                f"got {h_re!r},{h_im!r}"
            )
        label = h_re[:-3]
        if not label or h_im[:-3] != label:
            raise SchemaViolationError(
                f"header labels disagree: {h_re!r} vs {h_im!r}"
            )
        labels.append(label)
    return OutcomeSpace(tuple(labels))


def _parse_csv_document(text: str) -> RawDocument:
    try:
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
    except csv.Error as err:
        raise MalformedSyntaxError(f"invalid CSV: {err}") from err
    if not rows:
        raise SchemaViolationError("CSV input has no rows")

    space = _parse_csv_header(rows[0])
    n = space.size
    if len(rows) < 2:
        raise SchemaViolationError("CSV input has a header but no source rows")

    named_raws: NamedRaws = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 1 + 2 * n:
            raise SchemaViolationError(
                f"row {i}: expected {1 + 2 * n} cells, got {len(row)}"
            )
        name = row[0]
        if not name:
            raise SchemaViolationError(f"row {i}: empty source name")
        pairs: list[tuple[float, float]] = []
        for j in range(n):
            cells = row[1 + 2 * j], row[2 + 2 * j]
            try:
                pairs.append((float(cells[0]), float(cells[1])))
            except ValueError:
                raise SchemaViolationError(
                    f"row {i}, outcome {space.labels[j]!r}: "
                    f"not a number: {cells[0]!r},{cells[1]!r}"
                ) from None
        named_raws.append((name, pairs))
    return space, named_raws


def parse_raw_document(text: str | bytes, fmt: str = "auto") -> RawDocument:
    """Parse to (space, named raw pairs) without CvD validation.

    Bytes are decoded as UTF-8 first; one leading byte-order mark (U+FEFF)
    is dropped.  Raises MalformedSyntaxError for undecodable or unparseable
    input and SchemaViolationError when the structure does not match the
    schema.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as err:
            raise MalformedSyntaxError(f"input is not valid UTF-8: {err}") from err
    text = text.removeprefix("\ufeff")
    if fmt == "auto":
        fmt = detect_format(text)
    if fmt == "json":
        return _parse_json_document(text)
    if fmt == "csv":
        return _parse_csv_document(text)
    raise ValueError(f"unknown format {fmt!r}, expected auto|json|csv")


def parse_source_file(
    data: str | bytes, fmt: str = "auto", tol: float = DEFAULT_TOL
) -> SourceSet:
    """Parse and fully validate a source file into a SourceSet."""
    space, named_raws = parse_raw_document(data, fmt=fmt)
    return make_source_set(space, named_raws, tol=tol)


def emit_source_json(s: SourceSet, pretty: bool = False) -> str:
    doc = {
        "space": list(s.space.labels),
        "sources": [
            {"name": name, "values": [[c.real, c.imag] for c in dist.entries]}
            for name, dist in s.sources
        ],
    }
    return json.dumps(doc, indent=2 if pretty else None)


def emit_source_csv(s: SourceSet) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = ["name"]
    for label in s.space.labels:
        header += [f"{label}_re", f"{label}_im"]
    writer.writerow(header)
    for name, dist in s.sources:
        row: list[str] = [name]
        for c in dist.entries:
            row += [repr(c.real), repr(c.imag)]
        writer.writerow(row)
    return out.getvalue()


# --- reports ---


def round_sig(x: float) -> float:
    """Round to REPORT_DIGITS significant digits."""
    return float(f"{x:.{REPORT_DIGITS}g}")


def build_validate_report(
    space: OutcomeSpace,
    named_raws: NamedRaws,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Per-source validation verdicts; 'valid' is the overall conjunction.

    The verdicts come from core._validate_each, the route make_source_set
    takes, so 'valid' is true exactly when make_source_set succeeds and the
    first invalid verdict carries its error.  Like make_source_set, this
    raises CvdError for an empty source list or a tol that is not finite
    and positive.
    """
    verdicts = []
    for name, outcome in _validate_each(space, named_raws, tol):
        error = None
        if isinstance(outcome, CvdError):
            error = {"code": outcome.code, "message": outcome.message}
        verdicts.append({"name": name, "valid": error is None, "error": error})
    return {
        "space": list(space.labels),
        "sources": verdicts,
        "valid": all(v["valid"] for v in verdicts),
    }


def _measure(s: SourceSet) -> tuple[dict, PairwiseMatrix]:
    """The measure report and the unrounded compatibility matrix behind it,
    all read off one Gram matrix."""
    g = gram(s)
    r = len(g)
    compat = matrix_from_gram(g, "compatibility")
    # conflict = 1 - compatibility, exactly as conflict() computes it; each
    # unordered pair is rounded once and mirrored.
    compat_rounded = [[1.0] * r for _ in range(r)]
    conflict_rounded = [[0.0] * r for _ in range(r)]
    for k, row in enumerate(compat.values):
        for h in range(k + 1, r):
            c = row[h]
            compat_rounded[k][h] = compat_rounded[h][k] = round_sig(c)
            conflict_rounded[k][h] = conflict_rounded[h][k] = round_sig(1.0 - c)
    report = {
        "sources": list(s.names),
        "per_source_iq": {name: round_sig(g[k][k]) for k, name in enumerate(s.names)},
        "compatibility": compat_rounded,
        "conflict": conflict_rounded,
        "aggregate_iq": round_sig(subset_quality(g, range(r))),
    }
    return report, compat


def build_measure_report(s: SourceSet) -> dict:
    return _measure(s)[0]


def build_fuse_report(s: SourceSet, weights: CredibilityWeights | None = None) -> dict:
    """The measure report plus credibility, the fused vector and its quality.

    ``weights=None`` means credibility_weights(s), read off the report's own
    compatibility matrix.
    """
    report, compat = _measure(s)
    if weights is None:
        weights = weights_from_compatibility(compat)
    fused = fuse(s, weights)
    report["credibility"] = {
        name: round_sig(w) for name, w in zip(s.names, weights.values)
    }
    report["fused"] = [[round_sig(c.real), round_sig(c.imag)] for c in fused.entries]
    report["fused_iq"] = round_sig(information_quality(fused))
    return report


def build_select_report(s: SourceSet, result: SelectionResult) -> dict:
    return {
        "selection": {
            "chosen": [s.names[i] for i in result.chosen],
            "quality": round_sig(result.achieved_quality),
            "strategy": result.strategy,
        }
    }


def render_report(report: dict, pretty: bool = False) -> str:
    # allow_nan=False: a NaN or infinity raises instead of printing invalid JSON.
    return json.dumps(report, indent=2 if pretty else None, allow_nan=False)
