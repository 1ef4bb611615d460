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
hold exact values; render_report rounds every number to 12 significant
digits as it writes the report.
"""

from __future__ import annotations

import io
import json
import math
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii

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
    conflict_matrix,
    gram,
    information_quality,
    matrix_from_gram,
    subset_quality,
    symmetric_rows,
)

__all__ = [
    "parse_source_file",
    "emit_source_json",
    "emit_source_csv",
]

REPORT_DIGITS = 12
_REPORT_FORMAT = f".{REPORT_DIGITS}g"

NamedRaws = list[tuple[str, Sequence[Sequence[float]]]]
RawDocument = tuple[OutcomeSpace, NamedRaws]


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object; a repeated key is refused, not overwritten."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise SchemaViolationError(f"duplicate key: {key!r}")
        doc[key] = value
    return doc


def _parse_json_document(doc: object) -> RawDocument:
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
    import csv  # here, not at the top: a JSON document never needs it

    try:
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
    except csv.Error as err:
        raise MalformedSyntaxError(f"invalid CSV: {err}") from err
    # Never empty: parse_raw_document refused blank text; any other text yields a row.
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


def parse_raw_document(text: str | bytes) -> RawDocument:
    """Parse to (space, named raw pairs) without CvD validation.

    Bytes are decoded as UTF-8 first; one leading byte-order mark (U+FEFF)
    is dropped.  One JSON decode chooses the format: text it decodes is
    JSON, so a top-level array or scalar fails the JSON schema; text it
    cannot decode is CSV unless its first non-space character is '{' or
    '[', and then it is invalid JSON.  Raises MalformedSyntaxError for
    blank, undecodable or unparseable input and SchemaViolationError when
    the structure does not match the schema, a JSON object repeats a key
    included.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as err:
            raise MalformedSyntaxError(f"input is not valid UTF-8: {err}") from err
    text = text.removeprefix("\ufeff")
    stripped = text.lstrip()
    if not stripped:
        raise MalformedSyntaxError("empty input")
    # Integers decode straight to float: one with more than 308 digits
    # becomes inf (rejected as NonFinite, like the literal 1e400) instead of
    # overflowing float() or hitting int()'s 4300-digit limit.
    try:
        doc = json.loads(text, parse_int=float, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        if stripped[0] not in "{[":
            return _parse_csv_document(text)
        raise MalformedSyntaxError(
            f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    except RecursionError:
        raise MalformedSyntaxError("invalid JSON: nested too deeply") from None
    return _parse_json_document(doc)


def parse_source_file(data: str | bytes, *, tol: float = DEFAULT_TOL) -> SourceSet:
    """Parse and fully validate a source file into a SourceSet."""
    space, named_raws = parse_raw_document(data)
    return make_source_set(space, named_raws, tol=tol)


def emit_source_json(s: SourceSet) -> str:
    doc = {
        "space": list(s.space.labels),
        "sources": [
            {"name": name, "values": [[c.real, c.imag] for c in dist.entries]}
            for name, dist in s.sources
        ],
    }
    return json.dumps(doc)


def emit_source_csv(s: SourceSet) -> str:
    import csv

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
#
# The build_*_report functions return exact values: unrounded floats, and the
# compatibility and conflict matrices as PairwiseMatrix.  render_report is the
# one writer; it rounds each number as it formats it.


def round_sig(x: float) -> float:
    """Round to REPORT_DIGITS significant digits."""
    return float(f"{x:.{REPORT_DIGITS}g}")


def _num(x: float) -> str:
    """The JSON text of round_sig(x), formatted once where that is exact.

    A decimal of at most REPORT_DIGITS (below DBL_DIG = 15) significant
    digits maps to a unique double, and no shorter decimal maps to it, so
    a .12g text that has repr's fixed-point layout (a '.' and no exponent)
    is repr(round_sig(x)) already.  Integer-valued and exponent forms take
    the round_sig route.  NaN and infinity raise ValueError, as json.dumps
    does with allow_nan=False.
    """
    text = format(x, _REPORT_FORMAT)
    if "." in text and "e" not in text:
        return text
    if not math.isfinite(x):
        raise ValueError(f"report numbers must be finite, got {x!r}")
    return repr(round_sig(x))


def _matrix_texts(m: PairwiseMatrix) -> list[list[str]]:
    """The rows of m as number texts, each unordered pair formatted once.

    Only the upper triangle is read and mirrored: the writer assumes that
    m is symmetric, as every PairwiseMatrix the measures build is.
    """
    return symmetric_rows([_num(x) for x in row[k:]] for k, row in enumerate(m.values))


def _join(items: list[str], brackets: str, pretty: bool, level: int) -> str:
    """Items in brackets, laid out as json.dumps does (indent=2 when pretty)."""
    if not items:
        return brackets
    if not pretty:
        return brackets[0] + ", ".join(items) + brackets[1]
    inner = "\n" + "  " * (level + 1)
    outer = "\n" + "  " * level
    return brackets[0] + inner + ("," + inner).join(items) + outer + brackets[1]


def _render(value, pretty: bool, level: int) -> str:
    """value as JSON text at nesting depth level (see render_report)."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        return _num(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        items = [
            f"{encode_basestring_ascii(key)}: {_render(item, pretty, level + 1)}"
            for key, item in value.items()
        ]
        return _join(items, "{}", pretty, level)
    if isinstance(value, PairwiseMatrix):
        rows = [_join(row, "[]", pretty, level + 1) for row in _matrix_texts(value)]
        return _join(rows, "[]", pretty, level)
    if isinstance(value, list):
        items = [_render(item, pretty, level + 1) for item in value]
        return _join(items, "[]", pretty, level)
    raise TypeError(f"cannot write a {type(value).__name__} in a report")


def build_validate_report(
    space: OutcomeSpace,
    named_raws: NamedRaws,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Per-source validation verdicts; 'valid' is the overall conjunction.

    The verdicts come from core._validate_each, the route make_source_set
    takes, so 'valid' is true exactly when make_source_set succeeds and the
    first invalid verdict carries its error.  Like make_source_set, this
    raises CvdError for an empty source list or a tol that is not finite,
    positive and at most MAX_TOL.
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


def build_measure_report(s: SourceSet) -> dict:
    """Per-source and aggregate quality and the pairwise matrices, exact.

    Everything is read off one Gram matrix; the conflict matrix is
    conflict_matrix of the compatibility matrix, as conflict() is.
    """
    g = gram(s)
    compat = matrix_from_gram(g, "compatibility")
    return {
        "sources": list(s.names),
        "per_source_iq": {name: g[k][k] for k, name in enumerate(s.names)},
        "compatibility": compat,
        "conflict": conflict_matrix(compat),
        "aggregate_iq": subset_quality(g, range(len(g))),
    }


def build_fuse_report(s: SourceSet, weights: CredibilityWeights | None = None) -> dict:
    """The measure report plus credibility, the fused vector and its quality.

    ``weights=None`` means credibility_weights(s), read off the report's own
    compatibility matrix.  Values are exact, like build_measure_report's.
    """
    report = build_measure_report(s)
    if weights is None:
        weights = weights_from_compatibility(report["compatibility"])
    fused = fuse(s, weights)
    report["credibility"] = dict(zip(s.names, weights.values))
    report["fused"] = [[c.real, c.imag] for c in fused.entries]
    report["fused_iq"] = information_quality(fused)
    return report


def build_select_report(s: SourceSet, result: SelectionResult) -> dict:
    """The chosen names, the exact achieved quality and the strategy."""
    return {
        "selection": {
            "chosen": [s.names[i] for i in result.chosen],
            "quality": result.achieved_quality,
            "strategy": result.strategy,
        }
    }


def render_report(report: dict, pretty: bool = False) -> str:
    """Write a report as JSON, each number rounded to REPORT_DIGITS digits.

    The text is json.dumps(report, indent=2 if pretty else None,
    allow_nan=False) with every float passed through round_sig and every
    PairwiseMatrix as nested lists, but each number is formatted once.  A
    NaN or infinity raises ValueError instead of printing invalid JSON.
    """
    return _render(report, pretty, 0)
