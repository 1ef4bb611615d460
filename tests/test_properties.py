"""Property-based invariants for the measures and fusion operations.

Valid vectors are generated by construction: Dirichlet-style normalized real
parts, and imaginary parts built from negated pairs so their sum cancels
exactly in floating point. Each magnitude is capped by sqrt(1 - x^2) so
moduli never exceed 1.
"""

import json
import math
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cvdfusion import (
    CredibilityWeights,
    OutcomeSpace,
    SelectionResult,
    aggregate_quality,
    compatibility,
    conflict,
    cosine_angle,
    credibility_weights,
    fuse,
    information_quality,
    inner_product,
    make_cvd,
    make_source_set,
    mean_aggregate,
    norm,
    pairwise_matrix,
    select_sources,
)

from cvdfusion.core import MAX_TOL
from cvdfusion.errors import CvdError
from cvdfusion.formats import (
    build_fuse_report,
    build_measure_report,
    build_select_report,
    build_validate_report,
    parse_raw_document,
    parse_source_file,
    render_report,
)
from cvdfusion.measures import gram, subset_quality

from oracles import ref_gini, ref_real_aggregate

TOL = 1e-9
TIGHT = 1e-12

_fraction = st.floats(
    min_value=1e-3, max_value=1.0, allow_nan=False, allow_infinity=False
)
_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def _space(n: int) -> OutcomeSpace:
    return OutcomeSpace(tuple(f"o{j}" for j in range(n)))


@st.composite
def raw_vectors(draw, n: int, real_only: bool = False):
    """Valid (re, im) pairs on n outcomes."""
    xs = draw(st.lists(_fraction, min_size=n, max_size=n))
    total = sum(xs)
    x = [v / total for v in xs]
    y = [0.0] * n
    if not real_only and n >= 2:
        for a, b in zip(range(0, n - 1, 2), range(1, n, 2)):
            cap = min(
                math.sqrt(max(0.0, 1.0 - x[a] * x[a])),
                math.sqrt(max(0.0, 1.0 - x[b] * x[b])),
            )
            magnitude = draw(_unit) * cap
            if draw(st.booleans()):
                magnitude = -magnitude
            y[a] = magnitude
            y[b] = -magnitude  # exact cancellation keeps the sum at 0i
    return list(zip(x, y))


@st.composite
def vectors(draw, min_n=1, max_n=12, real_only=False):
    n = draw(st.integers(min_n, max_n))
    space = _space(n)
    return make_cvd(space, draw(raw_vectors(n, real_only=real_only)))


@st.composite
def vector_pairs(draw, min_n=1, max_n=12):
    n = draw(st.integers(min_n, max_n))
    space = _space(n)
    a = make_cvd(space, draw(raw_vectors(n)))
    b = make_cvd(space, draw(raw_vectors(n)))
    return a, b


@st.composite
def disjoint_pairs(draw, max_n=12):
    """Pairs whose supports never overlap (entry-wise product is zero)."""
    n = draw(st.integers(2, max_n))
    space = _space(n)
    split = draw(st.integers(1, n - 1))
    indices = draw(st.permutations(range(n)))

    def scatter(owned):
        sub = draw(raw_vectors(len(owned)))
        raw = [(0.0, 0.0)] * n
        for idx, pair in zip(owned, sub):
            raw[idx] = pair
        return make_cvd(space, raw)

    return scatter(indices[:split]), scatter(indices[split:])


@st.composite
def source_sets(draw, max_r=8, max_n=10, min_r=1, real_only=False):
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(min_r, max_r))
    space = _space(n)
    named = [
        (f"s{k}", draw(raw_vectors(n, real_only=real_only))) for k in range(r)
    ]
    return make_source_set(space, named)


@st.composite
def sets_with_copies(draw, max_r=7, max_n=6):
    """Source sets where sources often repeat, bit for bit, any number of times."""
    distinct = draw(source_sets(max_r=max_r, max_n=max_n))
    picks = draw(
        st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=max_r)
    )
    named = [(f"c{k}", distinct.vectors[i].as_pairs()) for k, i in enumerate(picks)]
    return make_source_set(distinct.space, named)


@st.composite
def weight_tuples(draw, r: int):
    ws = draw(st.lists(_unit, min_size=r, max_size=r))
    total = sum(ws)
    assume(total > 1e-6)
    return tuple(w / total for w in ws)


@st.composite
def sets_with_weights(draw, max_r=6, max_n=8):
    s = draw(source_sets(max_r=max_r, max_n=max_n))
    return s, CredibilityWeights(draw(weight_tuples(len(s))))


class TestInnerProductProperties:
    @given(vector_pairs())
    def test_hermitian_symmetry(self, pair):
        a, b = pair
        assert inner_product(a, b) == inner_product(b, a).conjugate()

    @given(vectors())
    def test_self_product_real_nonnegative(self, a):
        ip = inner_product(a, a)
        assert abs(ip.imag) <= TIGHT
        assert ip.real >= 0.0

    @given(vector_pairs())
    def test_cauchy_schwarz(self, pair):
        a, b = pair
        assert abs(inner_product(a, b)) <= norm(a) * norm(b) + TOL

    @given(vectors())
    def test_norm_squared_is_quality(self, a):
        assert abs(norm(a) ** 2 - information_quality(a)) <= TIGHT

    @given(vectors())
    def test_norm_lower_bound(self, a):
        assert norm(a) >= 1.0 / math.sqrt(a.n) - TOL


class TestCompatibilityProperties:
    @given(vector_pairs())
    def test_symmetry_is_bit_exact(self, pair):
        a, b = pair
        assert compatibility(a, b) == compatibility(b, a)

    @given(vector_pairs())
    def test_boundedness(self, pair):
        a, b = pair
        assert 0.0 <= compatibility(a, b) <= 1.0
        assert -1.0 <= cosine_angle(a, b) <= 1.0
        assert 0.0 <= conflict(a, b) <= 1.0

    @given(vectors())
    def test_self_compatibility(self, a):
        assert abs(compatibility(a, a) - 1.0) <= TIGHT

    @given(vector_pairs())
    def test_distinct_vectors_not_fully_compatible(self, pair):
        a, b = pair
        distance = max(abs(x - y) for x, y in zip(a.entries, b.entries))
        assume(distance > 0.01)
        assert compatibility(a, b) < 1.0

    @given(disjoint_pairs())
    def test_disjoint_support_has_zero_compatibility(self, pair):
        a, b = pair
        assert all(x * y == 0 for x, y in zip(a.entries, b.entries))
        assert abs(compatibility(a, b)) <= TIGHT

    @given(vector_pairs())
    def test_conflict_complement_exact(self, pair):
        a, b = pair
        assert conflict(a, b) + compatibility(a, b) == 1.0

    @given(vector_pairs())
    def test_compatibility_is_abs_cosine(self, pair):
        a, b = pair
        assert abs(compatibility(a, b) - abs(cosine_angle(a, b))) <= TIGHT

    @given(vector_pairs())
    def test_matches_literal_two_inner_product_form(self, pair):
        a, b = pair
        numerator = inner_product(a, b) + inner_product(b, a)
        denominator = 2.0 * norm(a) * norm(b)
        assert abs(cosine_angle(a, b) - numerator.real / denominator) <= TIGHT
        assert abs(compatibility(a, b) - abs(numerator) / denominator) <= TIGHT


class TestQualityProperties:
    @given(vectors())
    def test_quality_lower_bound(self, a):
        assert information_quality(a) >= 1.0 / a.n - TOL

    @given(vectors(real_only=True))
    def test_real_quality_upper_bound(self, a):
        assert information_quality(a) <= 1.0 + TOL

    @given(vectors())
    def test_complex_quality_upper_bound(self, a):
        assert information_quality(a) <= a.n + TOL

    @given(vectors(real_only=True))
    def test_real_quality_is_one_minus_gini(self, a):
        p = [c.real for c in a.entries]
        assert abs(information_quality(a) - (1.0 - ref_gini(p))) <= TIGHT


class TestAggregateProperties:
    @given(source_sets())
    def test_matches_quality_of_mean(self, s):
        assert abs(
            aggregate_quality(s) - information_quality(mean_aggregate(s))
        ) <= TIGHT

    @given(source_sets(max_r=6, max_n=8), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, s, rnd):
        order = list(range(len(s)))
        rnd.shuffle(order)
        assert abs(aggregate_quality(s) - aggregate_quality(s.subset(order))) <= TIGHT

    @given(source_sets(max_r=5, max_n=6))
    def test_matches_literal_cross_term_form(self, s):
        vs = s.vectors
        r = len(vs)
        total = sum(information_quality(v) for v in vs)
        cross = 0.0
        for k in range(r):
            for h in range(k + 1, r):
                pair_sum = inner_product(vs[k], vs[h]) + inner_product(vs[h], vs[k])
                cross += (pair_sum / 2.0).real
        assert abs(aggregate_quality(s) - (total + 2.0 * cross) / (r * r)) <= TIGHT

    @given(source_sets(real_only=True))
    def test_real_degeneration(self, s):
        ps = [[c.real for c in v.entries] for v in s.vectors]
        assert abs(aggregate_quality(s) - ref_real_aggregate(ps)) <= TIGHT


class TestGramProperties:
    @given(
        st.one_of(
            source_sets(max_r=6, max_n=8), source_sets(max_r=6, max_n=8, real_only=True)
        )
    )
    def test_entries_are_exact_inner_products(self, s):
        g = gram(s)
        vs = s.vectors
        for k, a in enumerate(vs):
            assert g[k][k] == information_quality(a)
            for h, b in enumerate(vs):
                assert g[k][h] == inner_product(a, b).real


class TestMatrixProperties:
    @given(source_sets(max_r=5, max_n=6), st.sampled_from(["compatibility", "conflict", "cosine"]))
    def test_matrix_invariants(self, s, kind):
        m = pairwise_matrix(s, kind)
        op = {
            "compatibility": compatibility,
            "conflict": conflict,
            "cosine": cosine_angle,
        }[kind]
        vs = s.vectors
        r = len(s)
        diagonal = 0.0 if kind == "conflict" else 1.0
        low, high = (-1.0, 1.0) if kind == "cosine" else (0.0, 1.0)
        for k in range(r):
            assert m.values[k][k] == diagonal
            for h in range(r):
                assert m.values[k][h] == m.values[h][k]
                assert low <= m.values[k][h] <= high
                if h != k:
                    assert m.values[k][h] == op(vs[k], vs[h])


class TestFusionProperties:
    @given(sets_with_weights())
    def test_fused_revalidates(self, pair):
        s, w = pair
        fused = fuse(s, w)
        again = make_cvd(s.space, fused.as_pairs())
        assert again.entries == fused.entries

    @given(source_sets(max_r=6, max_n=8))
    def test_credibility_invariants(self, s):
        w = credibility_weights(s)
        assert len(w) == len(s)
        assert all(v >= 0.0 for v in w)
        assert abs(sum(w.values) - 1.0) <= TOL

    @given(source_sets(max_r=6, max_n=8))
    def test_mean_revalidates(self, s):
        m = mean_aggregate(s)
        make_cvd(s.space, m.as_pairs())


class TestSelectionProperties:
    @settings(deadline=None)
    @given(source_sets(max_r=5, max_n=6), st.integers(1, 3))
    def test_exhaustive_is_optimal(self, s, min_size):
        min_size = min(min_size, len(s))
        result = select_sources(s, "exhaustive", min_size=min_size)
        for size in range(min_size, len(s) + 1):
            for subset in combinations(range(len(s)), size):
                assert (
                    aggregate_quality(s.subset(subset))
                    <= result.achieved_quality + TIGHT
                )

    @settings(deadline=None)
    @given(source_sets(max_r=5, max_n=6), st.integers(1, 3))
    def test_greedy_bounded_by_exhaustive(self, s, min_size):
        min_size = min(min_size, len(s))
        exhaustive = select_sources(s, "exhaustive", min_size=min_size)
        greedy = select_sources(s, "greedy", min_size=min_size)
        assert greedy.achieved_quality <= exhaustive.achieved_quality + TIGHT
        assert len(greedy.chosen) >= min_size
        assert abs(
            greedy.achieved_quality - aggregate_quality(s.subset(greedy.chosen))
        ) <= TIGHT


    @settings(deadline=None)
    @given(st.one_of(sets_with_copies(), source_sets(max_r=7, max_n=6)), st.data())
    def test_exhaustive_picks_exactly_min_size(self, s, data):
        min_size = data.draw(st.integers(1, len(s)))
        result = select_sources(s, "exhaustive", min_size=min_size)
        assert len(result.chosen) == min_size

    @settings(deadline=None)
    @given(st.one_of(sets_with_copies(), source_sets(max_r=8, max_n=6)), st.data())
    def test_greedy_matches_full_gram_reference(self, s, data):
        min_size = data.draw(st.integers(1, len(s)))
        result = select_sources(s, "greedy", min_size=min_size)
        expected = _greedy_on_full_gram(s, min_size)
        assert result == expected
        assert result.achieved_quality.hex() == expected.achieved_quality.hex()


def _greedy_on_full_gram(s, min_size):
    """Greedy selection scored from the whole Gram matrix, built up front."""
    g = gram(s)
    r = len(s)
    chosen = [max(range(r), key=lambda k: g[k][k])]
    remaining = [k for k in range(r) if k != chosen[0]]
    prefixes = [(subset_quality(g, chosen), tuple(chosen))]
    while remaining:
        quality, candidate = max(
            ((subset_quality(g, chosen + [k]), k) for k in remaining),
            key=lambda item: item[0],
        )
        if len(chosen) >= min_size and not quality > prefixes[-1][0]:
            break
        chosen.append(candidate)
        remaining.remove(candidate)
        prefixes.append((quality, tuple(chosen)))
    quality, best = max(prefixes[min_size - 1 :], key=lambda item: item[0])
    return SelectionResult(best, quality, "greedy")


# --- the tolerance cannot void the stated ranges (README's measure table) ---

_EDGES = ("valid", "sum-high", "sum-low", "negative", "modulus", "imaginary", "zero", "tiny")

# tol log-uniform over [5e-324, MAX_TOL], both ends included
_TOLS = st.sampled_from([5e-324, MAX_TOL]) | st.floats(
    math.log(5e-324), math.log(MAX_TOL)
).map(lambda x: min(MAX_TOL, max(5e-324, math.exp(x))))


@st.composite
def _edge_raw(draw, n, tol):
    """(re, im) pairs on n outcomes at one validation check's edge, or an ulp past it."""
    kind = draw(st.sampled_from(_EDGES))
    past = draw(st.booleans())

    def edge(x, outward):
        return math.nextafter(x, outward) if past else x

    pairs = draw(raw_vectors(n))
    zeros = [(0.0, 0.0)] * (n - 1)
    if kind == "sum-high":
        pairs[0] = (edge(pairs[0][0] + tol, math.inf), pairs[0][1])
    elif kind == "sum-low":
        pairs[0] = (edge(pairs[0][0] - tol, -math.inf), pairs[0][1])
    elif kind == "negative":  # a real part at -tol before a valid vector
        rest = draw(raw_vectors(n - 1)) if n > 1 else []
        pairs = [(edge(-tol, -math.inf), 0.0)] + rest
    elif kind == "modulus":  # modulus and sum both at 1 + tol
        pairs = [(edge(1.0 + tol, math.inf), 0.0)] + zeros
    elif kind == "imaginary" and n >= 2:  # two moduli at 1 + tol, sum 1 + 0i
        y = edge(math.sqrt((1.0 + tol) ** 2 - 0.25), math.inf)
        pairs = [(0.5, y), (0.5, -y)] + zeros[1:]
    elif kind == "zero":
        pairs = [(0.0, 0.0)] + zeros
    elif kind == "tiny":  # a norm below matrix_from_gram's 1e-15 floor
        pairs = [(1e-16, 0.0)] + zeros
    return pairs


class TestToleranceEdges:
    """Documents at each check's edge: every command gives a report or one
    CvdError, and every accepted vector's norm lies in the stated range."""

    @settings(max_examples=150, deadline=None)
    @given(_TOLS, st.data())
    def test_report_or_one_cvd_error(self, tol, data):
        n = data.draw(st.integers(1, 5))
        r = data.draw(st.integers(1, 4))
        raws = [data.draw(_edge_raw(n, tol)) for _ in range(r)]
        text = json.dumps(
            {
                "space": [f"o{j}" for j in range(n)],
                "sources": [{"name": f"s{k}", "values": raw} for k, raw in enumerate(raws)],
            }
        )
        min_size = data.draw(st.integers(1, r))

        def select(strategy):
            s = parse_source_file(text, tol=tol)
            return build_select_report(s, select_sources(s, strategy, min_size))

        commands = {
            "validate": lambda: build_validate_report(*parse_raw_document(text), tol=tol),
            "measure": lambda: build_measure_report(parse_source_file(text, tol=tol)),
            "fuse": lambda: build_fuse_report(parse_source_file(text, tol=tol)),
            "exhaustive": lambda: select("exhaustive"),
            "greedy": lambda: select("greedy"),
        }
        outcomes = {}
        for name, command in commands.items():
            try:  # any other exception fails the property
                outcomes[name] = ("report", render_report(command()))
            except CvdError as err:
                outcomes[name] = ("error", err.code)
        kind, validate = outcomes.pop("validate")
        assert kind == "report"
        if not json.loads(validate)["valid"]:
            # the first invalid source's error, from every other command
            assert len(set(outcomes.values())) == 1
            assert next(iter(outcomes.values()))[0] == "error"
            return
        assert {kind for kind, _ in outcomes.values()} == {"report"}
        for v in parse_source_file(text, tol=tol).vectors:
            assert (1.0 - tol) / math.sqrt(n) * (1.0 - 1e-12) <= norm(v)
            assert norm(v) <= (1.0 + tol) * math.sqrt(n) * (1.0 + 1e-12)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
