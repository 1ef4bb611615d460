"""Source-file parsing/emission, round-trips, and report assembly."""

import csv
import json
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvdfusion import (
    CvdError,
    InvalidOutcomeSpaceError,
    MalformedSyntaxError,
    OutcomeSpace,
    SchemaViolationError,
    SumNotUnityError,
    emit_source_csv,
    emit_source_json,
    make_cvd,
    make_source_set,
    parse_source_file,
)
from cvdfusion.formats import (
    _num,
    build_fuse_report,
    build_measure_report,
    build_select_report,
    build_validate_report,
    parse_raw_document,
    render_report,
    round_sig,
)
from cvdfusion.fusion import credibility_weights, select_sources
from cvdfusion.measures import PairwiseMatrix

from oracles import random_disjoint_raw_pair, random_named_raws, random_raw

TWO_SOURCE_JSON = """
{"space": ["up", "down"],
 "sources": [{"name": "s1", "values": [[0.5, 0.3], [0.5, -0.3]]},
             {"name": "s2", "values": [[0.6, -0.2], [0.4, 0.2]]}]}
"""

TWO_SOURCE_CSV = """\
name,up_re,up_im,down_re,down_im
s1,0.5,0.3,0.5,-0.3
s2,0.6,-0.2,0.4,0.2
"""


def _random_set(seed=42, r=3, n=4):
    rng = np.random.default_rng(seed)
    space = OutcomeSpace(tuple(f"o{j}" for j in range(n)))
    return make_source_set(space, random_named_raws(rng, r, n))


class TestParsing:
    def test_json_two_sources(self):
        s = parse_source_file(TWO_SOURCE_JSON)
        assert len(s) == 2
        assert s.names == ("s1", "s2")
        assert s.space.labels == ("up", "down")
        assert s.vectors[0].entries == (0.5 + 0.3j, 0.5 - 0.3j)

    def test_csv_matches_json(self):
        assert parse_source_file(TWO_SOURCE_CSV) == parse_source_file(
            TWO_SOURCE_JSON
        )

    def test_format_detection(self):
        # text the JSON decoder accepts is JSON, so arrays and scalars fail
        # the JSON schema instead of the CSV header check
        assert parse_raw_document(TWO_SOURCE_JSON)[0].labels == ("up", "down")
        for token in (" [1, 2]", '"abc"', "1", "-2.5", "null", " true\n"):
            with pytest.raises(SchemaViolationError, match="top level must be an object"):
                parse_raw_document(token)
        # text it rejects is CSV, a quoted "name" header cell included
        for text in (TWO_SOURCE_CSV, '"name"' + TWO_SOURCE_CSV[4:]):
            space, named_raws = parse_raw_document(text)
            assert space.labels == ("up", "down")
            assert [name for name, _ in named_raws] == ["s1", "s2"]
            assert named_raws[0][1] == [(0.5, 0.3), (0.5, -0.3)]
        with pytest.raises(MalformedSyntaxError, match="empty input"):
            parse_raw_document("   \n ")

    @pytest.mark.parametrize(
        "text", [TWO_SOURCE_JSON, '"abc"', "1", "null", TWO_SOURCE_CSV]
    )
    def test_one_decode_per_document(self, monkeypatch, text):
        calls = []
        real_loads = json.loads

        def counting_loads(*args, **kwargs):
            calls.append(args)
            return real_loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        try:
            parse_raw_document(text)
        except SchemaViolationError:
            pass  # the scalars fail the schema after their one decode
        assert len(calls) == 1

    def test_repeated_top_level_key_is_refused(self):
        doc = (
            '{"space": ["a", "b"], "space": ["x", "y"],'
            ' "sources": [{"name": "s1", "values": [[0.5, 0], [0.5, 0]]}]}'
        )
        with pytest.raises(SchemaViolationError) as exc:
            parse_raw_document(doc)
        assert str(exc.value) == "duplicate key: 'space'"

    def test_repeated_key_in_a_source_is_refused(self):
        doc = (
            '{"space": ["a", "b"],'
            ' "sources": [{"name": "s1", "name": "s2", "values": [[0.5, 0], [0.5, 0]]}]}'
        )
        with pytest.raises(SchemaViolationError) as exc:
            parse_raw_document(doc)
        assert str(exc.value) == "duplicate key: 'name'"

    def test_top_level_array_is_json(self):
        with pytest.raises(SchemaViolationError, match="top level must be an object"):
            parse_source_file("[1, 2]")
        with pytest.raises(MalformedSyntaxError):
            parse_source_file("[1,")

    def test_tol_is_keyword_only(self):
        # a stale positional format argument fails at the call
        with pytest.raises(TypeError):
            parse_source_file(TWO_SOURCE_CSV, "csv")

    def test_bytes_input(self):
        s = parse_source_file(TWO_SOURCE_JSON.encode("utf-8"))
        assert len(s) == 2

    def test_invalid_utf8(self):
        with pytest.raises(MalformedSyntaxError):
            parse_source_file(b"\xff\xfe{}")

    def test_validation_error_carries_source_name(self):
        doc = json.dumps(
            {
                "space": ["a", "b"],
                "sources": [{"name": "low", "values": [[0.5, 0.0], [0.4, 0.0]]}],
            }
        )
        with pytest.raises(SumNotUnityError) as exc:
            parse_source_file(doc)
        assert exc.value.source == "low"

    def test_tol_forwarded(self):
        doc = json.dumps(
            {
                "space": ["a", "b"],
                "sources": [
                    {"name": "s", "values": [[0.5, 0.0], [0.5 + 5e-8, 0.0]]}
                ],
            }
        )
        with pytest.raises(SumNotUnityError):
            parse_source_file(doc)
        s = parse_source_file(doc, tol=1e-6)
        # stored exactly as given, never renormalized
        assert s.vectors[0].entries[1].real == 0.5 + 5e-8


class TestJsonSchemaErrors:
    def test_malformed_json_reports_position(self):
        with pytest.raises(MalformedSyntaxError) as exc:
            parse_source_file('{"space": ["a"],')
        assert "line" in str(exc.value)

    @pytest.mark.parametrize(
        "doc",
        [
            "[]",
            '{"space": ["a", "b"]}',
            '{"sources": []}',
            '{"space": ["a", "b"], "sources": [], "extra": 1}',
            '{"space": [], "sources": [{"name": "s", "values": []}]}',
            '{"space": ["a", 2], "sources": [{"name": "s", "values": []}]}',
            '{"space": ["a"], "sources": []}',
            '{"space": ["a"], "sources": [{"values": [[1, 0]]}]}',
            '{"space": ["a"], "sources": [{"name": "", "values": [[1, 0]]}]}',
            '{"space": ["a"], "sources": [{"name": "s", "values": [[1, 0]], "x": 1}]}',
            '{"space": ["a"], "sources": [{"name": "s", "values": [[1]]}]}',
            '{"space": ["a"], "sources": [{"name": "s", "values": [["1", "0"]]}]}',
            '{"space": ["a"], "sources": [{"name": "s", "values": [[true, 0]]}]}',
            '{"space": ["a"], "sources": [{"name": "s", "values": 3}]}',
        ],
    )
    def test_schema_violations(self, doc):
        with pytest.raises(SchemaViolationError):
            parse_source_file(doc)

    @pytest.mark.parametrize(
        "pair", ["[true, 0]", "[0, false]", '["1", 0]', "[0, null]", "[1, 0, 0]", "{}"]
    )
    def test_non_number_pair_message(self, pair):
        doc = f'{{"space": ["a"], "sources": [{{"name": "s", "values": [{pair}]}}]}}'
        with pytest.raises(SchemaViolationError) as exc:
            parse_source_file(doc)
        message = "sources[0].values[0] must be a [re, im] pair of numbers"
        assert str(exc.value) == message

    def test_source_must_be_object(self):
        with pytest.raises(SchemaViolationError) as exc:
            parse_source_file('{"space": ["a"], "sources": [[1, 0]]}')
        assert str(exc.value) == "sources[0] must be an object"

    def test_duplicate_labels_rejected(self):
        doc = '{"space": ["a", "a"], "sources": [{"name": "s", "values": []}]}'
        with pytest.raises(InvalidOutcomeSpaceError):
            parse_source_file(doc)


class TestCsvSchemaErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "name\ns1\n",
            "label,up_re,up_im\ns1,1,0\n",
            "name,up_re,down_im\ns1,1,0\n",
            "name,up_x,up_im\ns1,1,0\n",
            "name,up_re,up_im,down_re\ns1,1,0,0\n",
            "name,up_re,up_im\ns1,1\n",
            "name,up_re,up_im\ns1,one,0\n",
            "name,up_re,up_im\n,1,0\n",
            "name,_re,_im\ns1,1,0\n",
        ],
    )
    def test_schema_violations(self, text):
        with pytest.raises(SchemaViolationError):
            parse_source_file(text)

    def test_header_only(self):
        with pytest.raises(SchemaViolationError):
            parse_source_file("name,up_re,up_im\n")

    def test_field_over_the_csv_limit_is_malformed(self):
        limit = csv.field_size_limit()
        text = "name,up_re,up_im\ns1," + "1" * (limit + 1) + ",0\n"
        with pytest.raises(MalformedSyntaxError) as exc:
            parse_source_file(text)
        assert str(exc.value) == (
            f"invalid CSV: field larger than field limit ({limit})"
        )

    def test_empty_lines_skipped(self):
        text = "name,up_re,up_im\n\ns1,1,0\n\n"
        s = parse_source_file(text)
        assert s.names == ("s1",)

    def test_error_reports_row(self):
        text = "name,up_re,up_im,down_re,down_im\ns1,0.5,0,0.5,0\ns2,0.5,0,oops,0\n"
        with pytest.raises(SchemaViolationError) as exc:
            parse_source_file(text)
        assert "row 3" in str(exc.value)


class TestRoundTrip:
    def test_json_bit_exact(self):
        s = _random_set()
        assert parse_source_file(emit_source_json(s)) == s

    def test_csv_bit_exact(self):
        s = _random_set(seed=43)
        assert parse_source_file(emit_source_csv(s)) == s

    def test_cross_format_equivalence(self):
        s = _random_set(seed=44, r=4, n=5)
        from_json = parse_source_file(emit_source_json(s))
        from_csv = parse_source_file(emit_source_csv(s))
        assert from_json == from_csv == s

    def test_many_random_sets(self):
        rng = np.random.default_rng(45)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            r = int(rng.integers(1, 6))
            space = OutcomeSpace(tuple(f"o{j}" for j in range(n)))
            s = make_source_set(space, random_named_raws(rng, r, n))
            assert parse_source_file(emit_source_json(s)) == s
            assert parse_source_file(emit_source_csv(s)) == s


class TestReports:
    def test_round_sig(self):
        assert round_sig(0.5949130765308921) == 0.594913076531
        assert round_sig(0.51) == 0.51
        assert round_sig(1.0) == 1.0
        assert round_sig(1.2345678901234567e-07) == 1.23456789012e-07

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_render_refuses_non_finite_numbers(self, value):
        with pytest.raises(ValueError):
            _num(value)
        with pytest.raises(ValueError):
            render_report({"aggregate_iq": value})

    def test_measure_report_shape(self):
        s = parse_source_file(TWO_SOURCE_JSON)
        report = json.loads(render_report(build_measure_report(s)))
        assert report["sources"] == ["s1", "s2"]
        assert report["per_source_iq"] == {"s1": 0.68, "s2": 0.6}
        assert report["aggregate_iq"] == 0.51
        for key in ("compatibility", "conflict"):
            grid = report[key]
            assert len(grid) == 2 and all(len(row) == 2 for row in grid)
            assert grid[0][1] == grid[1][0]
        assert report["compatibility"][0][0] == 1.0
        assert report["conflict"][0][0] == 0.0

    def test_fuse_report_fused_revalidates(self):
        s = parse_source_file(TWO_SOURCE_JSON)
        report = build_fuse_report(s, credibility_weights(s))
        report = json.loads(render_report(report))
        assert report["credibility"] == {"s1": 0.5, "s2": 0.5}
        assert report["fused"] == [[0.55, 0.05], [0.45, -0.05]]
        assert report["fused_iq"] == 0.51
        make_cvd(s.space, report["fused"])  # raises if invalid

    def test_fuse_report_rounded_fused_revalidates_randomly(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            r = int(rng.integers(1, 6))
            space = OutcomeSpace(tuple(f"o{j}" for j in range(n)))
            s = make_source_set(space, random_named_raws(rng, r, n))
            text = render_report(build_fuse_report(s, credibility_weights(s)))
            make_cvd(s.space, json.loads(text)["fused"])  # the rounded vector
            # weights=None: same credibility
            assert render_report(build_fuse_report(s)) == text

    def test_select_report(self):
        s = parse_source_file(TWO_SOURCE_JSON)
        result = select_sources(s, "exhaustive")
        report = json.loads(render_report(build_select_report(s, result)))
        assert report == {
            "selection": {"chosen": ["s1"], "quality": 0.68, "strategy": "exhaustive"}
        }

    def test_validate_report_mixed(self):
        space, named_raws = parse_raw_document(
            json.dumps(
                {
                    "space": ["a", "b"],
                    "sources": [
                        {"name": "ok", "values": [[0.5, 0.0], [0.5, 0.0]]},
                        {"name": "low", "values": [[0.5, 0.0], [0.4, 0.0]]},
                        {"name": "ok", "values": [[0.5, 0.0], [0.5, 0.0]]},
                    ],
                }
            )
        )
        report = build_validate_report(space, named_raws)
        assert report["valid"] is False
        verdicts = {v["name"]: v for v in report["sources"]}
        assert len(report["sources"]) == 3
        assert verdicts["low"]["error"]["code"] == "SumNotUnity"
        # second "ok" occurrence is the duplicate
        assert report["sources"][0]["valid"] is True
        assert report["sources"][2]["valid"] is False
        assert report["sources"][2]["error"]["code"] == "DuplicateName"

    def test_validate_report_all_valid(self):
        space, named_raws = parse_raw_document(TWO_SOURCE_JSON)
        report = build_validate_report(space, named_raws)
        assert report["valid"] is True
        assert all(v["error"] is None for v in report["sources"])


# --- the report writer against the reference route: round_sig, then json.dumps ---


def _rounded(value):
    """The report with round_sig on every float and matrices as lists."""
    if isinstance(value, float):
        return round_sig(value)
    if isinstance(value, PairwiseMatrix):
        return [[round_sig(x) for x in row] for row in value.values]
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


def _edge_named_raws(rng, kind, r, n):
    """r named raws over n outcomes (r, n >= 2), the first two of one kind."""
    if kind == "duplicated":  # compatibility 1.0, or an ulp below it
        raw = random_raw(rng, n)
        pair = [raw, raw]
    elif kind == "near-identical":  # conflict about 1e-13
        raw = random_raw(rng, n, real_only=True)
        pair = [raw, [((1 - 1e-6) * x + 1e-6 / n, 0.0) for x, _ in raw]]
    elif kind == "disjoint":  # compatibility exactly 0
        pair = list(random_disjoint_raw_pair(rng, n))
    elif kind == "near-disjoint":  # compatibility about 1e-13
        zeros = [(0.0, 0.0)] * (n - 2)
        pair = [
            [(1.0, 0.0), (0.0, 0.0)] + zeros,
            [(1e-13, 0.0), (1 - 1e-13, 0.0)] + zeros,
        ]
    else:
        pair = [random_raw(rng, n, real_only=kind == "real-only") for _ in range(2)]
    return [("a", pair[0]), ("b", pair[1])] + random_named_raws(rng, r - 2, n)


# Doubles from uniform bit patterns: every exponent is equally likely.
_BITS = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
)


class TestReportWriter:
    @settings(max_examples=1000, deadline=None)
    @given(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            _BITS.filter(math.isfinite),
            st.floats(1e12, 1e16, exclude_max=True),
            st.floats(-1e16, -1e12, exclude_min=True),
            st.floats(-2.3e-308, 2.3e-308),  # subnormals and the smallest normals
        )
    )
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(1e-4)
    @example(9.99999999999995e-05)
    @example(999999999999.5)
    @example(1e12)
    @example(sys.float_info.max)
    def test_num_is_repr_of_round_sig(self, x):
        assert _num(x) == repr(round_sig(x))

    @pytest.mark.parametrize("pretty", [False, True])
    def test_render_matches_round_sig_then_json_dumps(self, pretty):
        rng = np.random.default_rng(47)
        kinds = (
            "random",
            "real-only",
            "duplicated",
            "near-identical",
            "disjoint",
            "near-disjoint",
        )
        for i in range(48):
            kind = kinds[i % len(kinds)]
            n = int(rng.integers(1, 7))
            r = int(rng.integers(1, 7))
            space = OutcomeSpace(tuple(f"o{j}" for j in range(n)))
            if r == 1 or n == 1:
                named_raws = random_named_raws(rng, r, n)
            else:
                named_raws = _edge_named_raws(rng, kind, r, n)
            s = make_source_set(space, named_raws)
            reports = [
                build_validate_report(space, named_raws),
                build_measure_report(s),
                build_fuse_report(s),
                build_select_report(s, select_sources(s, "exhaustive")),
            ]
            for report in reports:
                expected = json.dumps(
                    _rounded(report), indent=2 if pretty else None, allow_nan=False
                )
                assert render_report(report, pretty) == expected

    def test_render_escapes_strings_like_json_dumps(self):
        report = {"space": ["caf\u00e9", 'say "hi"', "back\\slash", "\u2603\n"]}
        for pretty in (False, True):
            expected = json.dumps(report, indent=2 if pretty else None)
            assert render_report(report, pretty) == expected


# --- one validation route: the validate report and make_source_set agree ---

_FAULTS = ("none", "negative", "modulus", "sum", "nan", "short")


@st.composite
def _named_raws_with_faults(draw):
    """(space, named raws, tol) with planted faults and repeated names."""
    n = draw(st.integers(1, 5))
    space = OutcomeSpace(tuple(f"o{j}" for j in range(n)))
    named_raws = []
    for _ in range(draw(st.integers(1, 6))):
        name = draw(st.sampled_from("abcd"))
        xs = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
        raw = [[x / sum(xs), 0.0] for x in xs]
        if n >= 2:
            im = draw(st.floats(-0.5, 0.5))
            raw[0][1], raw[1][1] = im, -im
        fault = draw(st.sampled_from(_FAULTS))
        j = draw(st.integers(0, n - 1))
        if fault == "negative":
            raw[j][0] = -draw(st.floats(1e-6, 1.0))
        elif fault == "modulus":
            raw[j][1] = draw(st.floats(1.01, 10.0))
        elif fault == "sum":
            raw[j][0] += draw(st.floats(1e-3, 0.5))
        elif fault == "nan":
            raw[j][draw(st.integers(0, 1))] = math.nan
        elif fault == "short":
            raw.pop()
        named_raws.append((name, [tuple(pair) for pair in raw]))
    tol = draw(st.sampled_from([1e-9, 1e-3]))
    return space, named_raws, tol


class TestOneValidationRoute:
    @settings(max_examples=300, deadline=None)
    @given(_named_raws_with_faults())
    def test_report_agrees_with_make_source_set(self, case):
        space, named_raws, tol = case
        report = build_validate_report(space, named_raws, tol=tol)
        assert [v["name"] for v in report["sources"]] == [n for n, _ in named_raws]
        first_bad = next((v for v in report["sources"] if not v["valid"]), None)
        try:
            s = make_source_set(space, named_raws, tol=tol)
        except CvdError as err:
            assert report["valid"] is False
            assert {"code": err.code, "message": err.message} == first_bad["error"]
            duplicate = err.code == "DuplicateName"
            assert err.source == (None if duplicate else first_bad["name"])
        else:
            assert report["valid"] is True and first_bad is None
            assert s.names == tuple(n for n, _ in named_raws)

    @pytest.mark.parametrize(
        "named_raws, tol",
        [
            ([], 1e-9),
            ([("s", [(1.0, 0.0)])], math.nan),
            ([("s", [(1.0, 0.0)])], math.inf),
            ([("s", [(1.0, 0.0)])], 0.0),
        ],
        ids=["empty", "nan", "inf", "zero"],
    )
    def test_set_level_errors_raise(self, named_raws, tol):
        space = OutcomeSpace(("only",))
        with pytest.raises(CvdError) as expected:
            make_source_set(space, named_raws, tol=tol)
        with pytest.raises(CvdError) as raised:
            build_validate_report(space, named_raws, tol=tol)
        assert type(raised.value) is type(expected.value)
        assert raised.value.message == expected.value.message
