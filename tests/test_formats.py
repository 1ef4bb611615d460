"""Source-file parsing/emission, round-trips, and report assembly."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    build_fuse_report,
    build_measure_report,
    build_select_report,
    build_validate_report,
    detect_format,
    parse_raw_document,
    render_report,
    round_sig,
)
from cvdfusion.fusion import credibility_weights, select_sources

from oracles import random_named_raws

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
        assert detect_format(TWO_SOURCE_JSON) == "json"
        assert detect_format(" [1, 2]") == "json"
        for token in ('"abc"', "1", "-2.5", "null", " true\n"):
            assert detect_format(token) == "json"
        assert detect_format(TWO_SOURCE_CSV) == "csv"
        assert detect_format('"name"' + TWO_SOURCE_CSV[4:]) == "csv"
        with pytest.raises(MalformedSyntaxError):
            detect_format("   \n ")

    def test_top_level_array_is_json(self):
        with pytest.raises(SchemaViolationError, match="top level must be an object"):
            parse_source_file("[1, 2]")
        with pytest.raises(MalformedSyntaxError):
            parse_source_file("[1,")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            parse_raw_document(TWO_SOURCE_JSON, fmt="xml")

    def test_explicit_format_wins(self):
        with pytest.raises(MalformedSyntaxError):
            parse_source_file(TWO_SOURCE_CSV, fmt="json")

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
            parse_source_file(text, fmt="csv")

    def test_header_only(self):
        with pytest.raises(SchemaViolationError):
            parse_source_file("name,up_re,up_im\n", fmt="csv")

    def test_no_rows(self):
        with pytest.raises(SchemaViolationError) as exc:
            parse_source_file("", fmt="csv")
        assert str(exc.value) == "CSV input has no rows"

    def test_field_over_the_csv_limit_is_malformed(self):
        limit = csv.field_size_limit()
        text = "name,up_re,up_im\ns1," + "1" * (limit + 1) + ",0\n"
        with pytest.raises(MalformedSyntaxError) as exc:
            parse_source_file(text, fmt="csv")
        assert str(exc.value) == (
            f"invalid CSV: field larger than field limit ({limit})"
        )

    def test_empty_lines_skipped(self):
        text = "name,up_re,up_im\n\ns1,1,0\n\n"
        s = parse_source_file(text, fmt="csv")
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
        assert parse_source_file(emit_source_json(s, pretty=True)) == s

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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_render_refuses_non_finite_numbers(self, value):
        with pytest.raises(ValueError):
            render_report({"aggregate_iq": value})

    def test_measure_report_shape(self):
        s = parse_source_file(TWO_SOURCE_JSON)
        report = build_measure_report(s)
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
            report = build_fuse_report(s, credibility_weights(s))
            make_cvd(s.space, report["fused"])
            assert build_fuse_report(s) == report  # weights=None: same credibility

    def test_select_report(self):
        s = parse_source_file(TWO_SOURCE_JSON)
        result = select_sources(s, "exhaustive")
        report = build_select_report(s, result)
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
