"""Scalar measures against hand-derived fixtures and the numpy reference."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cvdfusion import (
    CvdVector,
    OutcomeSpace,
    SourceSet,
    SpaceMismatchError,
    aggregate_quality,
    compatibility,
    conflict,
    cosine_angle,
    information_quality,
    inner_product,
    make_cvd,
    make_source_set,
    norm,
    pairwise_matrix,
)

from oracles import (
    random_named_raws,
    ref_aggregate,
    ref_compatibility,
    ref_cosine,
    ref_inner,
    ref_norm,
)

SPACE2 = OutcomeSpace(("up", "down"))

# the worked two-source example reused throughout: <a,b> = 0.38 + 0.06i,
# ||a||^2 = 0.68, ||b||^2 = 0.60
RAW_A = [(0.5, 0.3), (0.5, -0.3)]
RAW_B = [(0.6, -0.2), (0.4, 0.2)]


@pytest.fixture
def pair():
    return make_cvd(SPACE2, RAW_A), make_cvd(SPACE2, RAW_B)


def _real_pair(pa, pb, labels=("up", "down")):
    space = OutcomeSpace(labels)
    a = make_cvd(space, [(p, 0.0) for p in pa])
    b = make_cvd(space, [(p, 0.0) for p in pb])
    return a, b


class TestInnerProduct:
    def test_disjoint_real_supports(self):
        a, b = _real_pair([1.0, 0.0], [0.0, 1.0])
        assert inner_product(a, b) == 0j

    def test_self_product_is_squared_moduli_sum(self):
        v = make_cvd(SPACE2, RAW_A)
        assert inner_product(v, v) == pytest.approx(0.68 + 0j, abs=1e-12)

    def test_worked_example(self, pair):
        a, b = pair
        ip = inner_product(a, b)
        assert ip.real == pytest.approx(0.38, abs=1e-9)
        assert ip.imag == pytest.approx(0.06, abs=1e-9)

    def test_matches_reference(self, pair):
        a, b = pair
        assert inner_product(a, b) == pytest.approx(ref_inner(a, b), abs=1e-15)

    def test_space_mismatch(self):
        a = make_cvd(SPACE2, RAW_A)
        other = make_cvd(OutcomeSpace(("x", "y")), RAW_B)
        with pytest.raises(SpaceMismatchError):
            inner_product(a, other)

    def test_equal_spaces_from_different_instances(self):
        a = make_cvd(OutcomeSpace(("up", "down")), RAW_A)
        b = make_cvd(OutcomeSpace(("up", "down")), RAW_B)
        assert inner_product(a, b) == pytest.approx(0.38 + 0.06j, abs=1e-9)


class TestNorm:
    def test_uniform(self):
        a, _ = _real_pair([0.5, 0.5], [1.0, 0.0])
        assert norm(a) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_degenerate(self):
        a, _ = _real_pair([1.0, 0.0], [0.5, 0.5])
        assert norm(a) == 1.0

    def test_complex_exceeds_one(self):
        v = make_cvd(SPACE2, [(0.5, 0.6), (0.5, -0.6)])
        assert norm(v) == pytest.approx(math.sqrt(1.22), abs=1e-12)

    def test_matches_reference(self, pair):
        a, b = pair
        assert norm(a) == pytest.approx(ref_norm(a), abs=1e-14)
        assert norm(b) == pytest.approx(ref_norm(b), abs=1e-14)


class TestCosineAngle:
    def test_self_angle(self, pair):
        a, b = pair
        assert cosine_angle(a, a) == pytest.approx(1.0, abs=1e-12)
        assert cosine_angle(b, b) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        a, b = _real_pair([1.0, 0.0], [0.0, 1.0])
        assert cosine_angle(a, b) == 0.0

    def test_can_be_negative(self):
        a = make_cvd(SPACE2, [(0.5, 0.6), (0.5, -0.6)])
        b = make_cvd(SPACE2, [(0.5, -0.6), (0.5, 0.6)])
        assert cosine_angle(a, b) == pytest.approx(-0.22 / 1.22, abs=1e-12)

    def test_matches_two_inner_product_reference(self, pair):
        a, b = pair
        assert cosine_angle(a, b) == pytest.approx(ref_cosine(a, b), abs=1e-12)


class TestCompatibility:
    def test_self_compatibility(self, pair):
        a, _ = pair
        assert compatibility(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        a, b = _real_pair([1.0, 0.0], [0.0, 1.0])
        assert compatibility(a, b) == 0.0

    def test_worked_example(self, pair):
        a, b = pair
        expected = 0.38 / math.sqrt(0.68 * 0.60)
        assert compatibility(a, b) == pytest.approx(expected, abs=1e-12)
        assert compatibility(a, b) == pytest.approx(0.594913076530892, abs=1e-9)

    def test_matches_two_inner_product_reference(self, pair):
        a, b = pair
        assert compatibility(a, b) == pytest.approx(
            ref_compatibility(a, b), abs=1e-12
        )

    def test_full_overlap_can_still_be_zero(self):
        # complex entries can cancel the real cross term even with full
        # support overlap, so zero compatibility does not imply disjointness
        a = make_cvd(SPACE2, [(0.5, 0.5), (0.5, -0.5)])
        b = make_cvd(SPACE2, [(0.5, -0.5), (0.5, 0.5)])
        assert all(c != 0 for c in a.entries + b.entries)
        assert compatibility(a, b) == pytest.approx(0.0, abs=1e-12)


class TestConflict:
    def test_self_conflict(self, pair):
        a, _ = pair
        assert conflict(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_total_conflict(self):
        a, b = _real_pair([1.0, 0.0], [0.0, 1.0])
        assert conflict(a, b) == 1.0

    def test_worked_example(self, pair):
        a, b = pair
        assert conflict(a, b) == pytest.approx(
            1.0 - 0.38 / math.sqrt(0.68 * 0.60), abs=1e-12
        )
        assert conflict(a, b) == pytest.approx(0.405086923469108, abs=1e-9)

    def test_complement_is_exact(self, pair):
        a, b = pair
        assert conflict(a, b) + compatibility(a, b) == 1.0


class TestInformationQuality:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_uniform_is_reciprocal_n(self, n):
        space = OutcomeSpace(tuple(f"o{j}" for j in range(n)))
        v = make_cvd(space, [(1.0 / n, 0.0)] * n)
        assert information_quality(v) == pytest.approx(1.0 / n, abs=1e-12)

    def test_degenerate_real_is_one(self):
        space = OutcomeSpace(tuple(f"o{j}" for j in range(5)))
        v = make_cvd(space, [(1.0, 0.0)] + [(0.0, 0.0)] * 4)
        assert information_quality(v) == 1.0

    def test_complex_can_exceed_one(self):
        v = make_cvd(SPACE2, [(0.5, 0.6), (0.5, -0.6)])
        assert information_quality(v) == pytest.approx(1.22, abs=1e-12)

    def test_equals_squared_norm(self, pair):
        a, b = pair
        for v in (a, b):
            assert information_quality(v) == pytest.approx(norm(v) ** 2, abs=1e-12)


class TestAggregateQuality:
    def test_single_source_collapses(self, pair):
        a, _ = pair
        s = make_source_set(SPACE2, [("s1", RAW_A)])
        assert aggregate_quality(s) == pytest.approx(
            information_quality(a), abs=1e-15
        )

    def test_orthogonal_real_pair(self):
        space = SPACE2
        s = make_source_set(
            space,
            [("s1", [(1.0, 0.0), (0.0, 0.0)]), ("s2", [(0.0, 0.0), (1.0, 0.0)])],
        )
        assert aggregate_quality(s) == 0.5

    def test_worked_example(self):
        s = make_source_set(SPACE2, [("s1", RAW_A), ("s2", RAW_B)])
        assert aggregate_quality(s) == pytest.approx(0.51, abs=1e-9)
        # (1/4)(0.68 + 0.60 + 2 * 0.38)
        assert aggregate_quality(s) == pytest.approx(
            (0.68 + 0.60 + 2 * 0.38) / 4.0, abs=1e-12
        )

    def test_matches_literal_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            r = int(rng.integers(1, 7))
            space = OutcomeSpace(tuple(f"o{j}" for j in range(n)))
            s = make_source_set(space, random_named_raws(rng, r, n))
            assert aggregate_quality(s) == pytest.approx(
                ref_aggregate(s.vectors), abs=1e-12
            )


class TestPairwiseMatrix:
    def test_single_source_compatibility(self):
        s = make_source_set(SPACE2, [("s1", RAW_A)])
        m = pairwise_matrix(s, "compatibility")
        assert m.values == ((1.0,),)
        assert m.size == 1

    def test_orthogonal_conflict(self):
        s = make_source_set(
            SPACE2,
            [("s1", [(1.0, 0.0), (0.0, 0.0)]), ("s2", [(0.0, 0.0), (1.0, 0.0)])],
        )
        m = pairwise_matrix(s, "conflict")
        assert m.values == ((0.0, 1.0), (1.0, 0.0))

    @pytest.mark.parametrize(
        "kind,diagonal", [("compatibility", 1.0), ("conflict", 0.0), ("cosine", 1.0)]
    )
    def test_random_matrix_structure(self, kind, diagonal):
        rng = np.random.default_rng(33)
        space = OutcomeSpace(("a", "b", "c"))
        s = make_source_set(space, random_named_raws(rng, 3, 3))
        m = pairwise_matrix(s, kind)
        ops = {
            "compatibility": compatibility,
            "conflict": conflict,
            "cosine": cosine_angle,
        }
        for k in range(3):
            assert m.values[k][k] == diagonal
            for h in range(3):
                assert m.values[k][h] == m.values[h][k]  # bit-exact symmetry
                if k != h:
                    assert m.values[k][h] == ops[kind](s.vectors[k], s.vectors[h])
        bounds = (-1.0, 1.0) if kind == "cosine" else (0.0, 1.0)
        assert all(bounds[0] <= v <= bounds[1] for row in m.values for v in row)

    def test_unknown_kind(self):
        s = make_source_set(SPACE2, [("s1", RAW_A)])
        with pytest.raises(ValueError):
            pairwise_matrix(s, "distance")

    def test_unknown_kind_message_lists_every_kind(self):
        s = make_source_set(SPACE2, [("s1", RAW_A)])
        with pytest.raises(ValueError) as info:
            pairwise_matrix(s, "bogus")
        assert str(info.value) == (
            "unknown matrix kind 'bogus', "
            "expected one of ['compatibility', 'conflict', 'cosine']"
        )


class TestNormFloor:
    """matrix_from_gram checks every norm, so an invalid vector that
    escaped construction fails loudly in every measure that divides by one."""

    VALID = make_cvd(SPACE2, RAW_A)
    ZERO = CvdVector(SPACE2, (0j, 0j))
    NAN = CvdVector(SPACE2, (complex(math.nan, 0.0), 1 + 0j))

    @pytest.mark.parametrize("measure", [cosine_angle, compatibility, conflict])
    @pytest.mark.parametrize("order", ["zero-first", "nan-second"])
    def test_scalar_measures_raise(self, measure, order):
        pairs = {"zero-first": (self.ZERO, self.VALID), "nan-second": (self.VALID, self.NAN)}
        a, b = pairs[order]
        with pytest.raises(AssertionError, match="^norm underflow"):
            measure(a, b)

    @pytest.mark.parametrize("kind", ["compatibility", "conflict", "cosine"])
    @pytest.mark.parametrize("bad", ["zero", "nan"])
    def test_matrices_raise_with_the_invalid_source_second(self, kind, bad):
        s = SourceSet(
            SPACE2, (("ok", self.VALID), ("bad", getattr(self, bad.upper())))
        )
        with pytest.raises(AssertionError, match="^norm underflow"):
            pairwise_matrix(s, kind)

    def test_the_floor_itself_is_refused(self):
        # a norm of exactly 1e-15 is refused; the next float above it is not
        for x, refused in ((1e-15, True), (math.nextafter(1e-15, 1.0), False)):
            edge = CvdVector(SPACE2, (complex(x, 0.0), 0j))
            assert math.sqrt(information_quality(edge)) == x
            s = SourceSet(SPACE2, (("ok", self.VALID), ("edge", edge)))
            if refused:
                with pytest.raises(AssertionError, match="^norm underflow"):
                    pairwise_matrix(s, "compatibility")
            else:
                assert pairwise_matrix(s, "compatibility").values[0][0] == 1.0

    def test_check_survives_python_dash_O(self):
        code = (
            "from cvdfusion import CvdVector, OutcomeSpace, conflict\n"
            "space = OutcomeSpace(('up', 'down'))\n"
            "v = CvdVector(space, (0j, 0j))\n"
            "try:\n"
            "    conflict(v, v)\n"
            "except AssertionError as err:\n"
            "    print(err)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert proc.stdout.startswith("norm underflow")


def test_no_function_in_src_calls_inner_product():
    # Every real-valued measure comes from row_products; inner_product is
    # the public complex route and the tests' independent check on it.
    package = Path(__file__).resolve().parent.parent / "src" / "cvdfusion"
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "inner_product"
        in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert calls == []
