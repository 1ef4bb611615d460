"""Aggregation, credibility weighting, fusion, and source selection."""

from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import add, itemgetter

import numpy as np
import pytest

from cvdfusion import (
    BadMinSizeError,
    CredibilityWeights,
    InvalidWeightsError,
    OutcomeSpace,
    TooManySourcesForExhaustiveError,
    WeightLengthMismatchError,
    aggregate_quality,
    credibility_weights,
    fuse,
    information_quality,
    make_cvd,
    make_source_set,
    mean_aggregate,
    pairwise_matrix,
    select_sources,
)
from cvdfusion.measures import float_rows, gram, row_products, subset_quality

from exact import (
    exact_argmax,
    exact_gram,
    exact_quality,
    magnitude_gram,
    quality_error_bound,
)
from oracles import (
    random_named_raws,
    ref_aggregate,
    ref_best_subset,
    ref_compatibility,
    to_array,
)

SPACE2 = OutcomeSpace(("up", "down"))
RAW_A = [(0.5, 0.3), (0.5, -0.3)]
RAW_B = [(0.6, -0.2), (0.4, 0.2)]


def _set(named_raws, labels=("up", "down")):
    return make_source_set(OutcomeSpace(labels), named_raws)


# four sources: three near-identical sharp ones plus a uniform outlier
SHARP_PLUS_UNIFORM = [
    ("sharp1", [(0.90, 0.0), (0.05, 0.0), (0.03, 0.0), (0.02, 0.0)]),
    ("sharp2", [(0.88, 0.0), (0.06, 0.0), (0.04, 0.0), (0.02, 0.0)]),
    ("sharp3", [(0.89, 0.0), (0.05, 0.0), (0.04, 0.0), (0.02, 0.0)]),
    ("uniform", [(0.25, 0.0)] * 4),
]
LABELS4 = ("a", "b", "c", "d")


class TestMeanAggregate:
    def test_single_source_unchanged(self):
        s = _set([("s1", RAW_A)])
        assert mean_aggregate(s).entries == s.vectors[0].entries

    def test_real_midpoint(self):
        s = _set([("s1", [(1.0, 0.0), (0.0, 0.0)]), ("s2", [(0.0, 0.0), (1.0, 0.0)])])
        assert mean_aggregate(s).entries == (0.5 + 0j, 0.5 + 0j)

    def test_worked_example(self):
        s = _set([("s1", RAW_A), ("s2", RAW_B)])
        m = mean_aggregate(s)
        assert m.entries[0] == pytest.approx(0.55 + 0.05j, abs=1e-15)
        assert m.entries[1] == pytest.approx(0.45 - 0.05j, abs=1e-15)
        assert information_quality(m) == pytest.approx(0.51, abs=1e-9)

    def test_quality_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            r = int(rng.integers(1, 9))
            space = OutcomeSpace(tuple(f"o{j}" for j in range(n)))
            s = make_source_set(space, random_named_raws(rng, r, n))
            assert information_quality(mean_aggregate(s)) == pytest.approx(
                aggregate_quality(s), abs=1e-12
            )


class TestCredibilityWeights:
    def test_single_source(self):
        assert credibility_weights(_set([("s1", RAW_A)])).values == (1.0,)

    def test_pair_is_always_even(self):
        # the only support signal for two sources is the one symmetric
        # compatibility value, so both get 0.5
        s = _set([("s1", RAW_A), ("s2", RAW_B)])
        assert credibility_weights(s).values == (0.5, 0.5)

    def test_outlier_downweighted(self):
        s = _set(
            [
                ("t1", [(0.7, 0.0), (0.3, 0.0)]),
                ("t2", [(0.7, 0.0), (0.3, 0.0)]),
                ("t3", [(0.1, 0.0), (0.9, 0.0)]),
            ]
        )
        w = credibility_weights(s).values

        # independent route: compatibility matrix -> mean support -> normalize
        vs = [to_array(v) for v in s.vectors]
        supports = [
            sum(ref_compatibility(vs[k], vs[h]) for h in range(3) if h != k) / 2.0
            for k in range(3)
        ]
        expected = tuple(sp / sum(supports) for sp in supports)
        assert w == pytest.approx(expected, abs=1e-12)
        assert w[0] == w[1] > w[2]
        assert w == pytest.approx(
            (0.3758795744656562, 0.3758795744656562, 0.2482408510686876), abs=1e-9
        )

    def test_orthogonal_fallback_uniform(self):
        space = OutcomeSpace(("a", "b", "c"))
        s = make_source_set(
            space,
            [
                ("s1", [(1.0, 0.0), (0.0, 0.0), (0.0, 0.0)]),
                ("s2", [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)]),
                ("s3", [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)]),
            ],
        )
        assert credibility_weights(s).values == pytest.approx(
            (1 / 3, 1 / 3, 1 / 3), abs=1e-15
        )

    def test_invariants_on_random_sets(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            r = int(rng.integers(1, 9))
            space = OutcomeSpace(tuple(f"o{j}" for j in range(n)))
            s = make_source_set(space, random_named_raws(rng, r, n))
            w = credibility_weights(s).values
            assert all(v >= 0.0 for v in w)
            assert sum(w) == pytest.approx(1.0, abs=1e-9)

    def test_weights_are_the_mean_support_bit_for_bit(self):
        # support k is row k of the compatibility matrix without its diagonal,
        # summed left to right and divided by r - 1; the weights divide each
        # support by their left-to-right total.  A divisor of r instead of
        # r - 1 cancels in the normalization except for rounding.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            s = _set(random_named_raws(rng, 3, 2))
            rows = pairwise_matrix(s, "compatibility").values
            supports = [
                reduce(add, row[:k] + row[k + 1 :], 0.0) / (3 - 1)
                for k, row in enumerate(rows)
            ]
            total = reduce(add, supports, 0.0)
            expected = tuple(sp / total for sp in supports)
            assert credibility_weights(s).values == expected

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            r = int(rng.integers(2, 7))
            space = OutcomeSpace(tuple(f"o{j}" for j in range(n)))
            named = random_named_raws(rng, r, n)
            s = make_source_set(space, named)
            perm = [int(i) for i in rng.permutation(r)]
            s_perm = make_source_set(space, [named[i] for i in perm])
            w = credibility_weights(s).values
            w_perm = credibility_weights(s_perm).values
            assert w_perm == pytest.approx(
                tuple(w[i] for i in perm), abs=1e-12
            )


class TestFuse:
    def test_uniform_weights_equal_mean_bitwise(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            r = int(rng.integers(1, 7))
            space = OutcomeSpace(tuple(f"o{j}" for j in range(n)))
            s = make_source_set(space, random_named_raws(rng, r, n))
            w = CredibilityWeights((1.0 / r,) * r)
            assert fuse(s, w).entries == mean_aggregate(s).entries

    def test_degenerate_weights_pick_one_source(self):
        s = _set([("s1", RAW_A), ("s2", RAW_B)])
        assert fuse(s, CredibilityWeights((1.0, 0.0))).entries == s.vectors[0].entries
        assert fuse(s, CredibilityWeights((0.0, 1.0))).entries == s.vectors[1].entries

    def test_credibility_fused_revalidates(self):
        s = _set(
            [
                ("t1", [(0.7, 0.0), (0.3, 0.0)]),
                ("t2", [(0.7, 0.0), (0.3, 0.0)]),
                ("t3", [(0.1, 0.0), (0.9, 0.0)]),
            ]
        )
        w = credibility_weights(s)
        fused = fuse(s, w)
        make_cvd(s.space, fused.as_pairs())  # raises if invalid

        expected = sum(
            wk * to_array(v) for wk, v in zip(w.values, s.vectors)
        )
        assert fused.entries == pytest.approx(tuple(expected), abs=1e-15)

    def test_length_mismatch(self):
        s = _set([("s1", RAW_A), ("s2", RAW_B)])
        with pytest.raises(WeightLengthMismatchError):
            fuse(s, CredibilityWeights((1.0,)))

    def test_negative_weight(self):
        s = _set([("s1", RAW_A), ("s2", RAW_B)])
        with pytest.raises(InvalidWeightsError):
            fuse(s, CredibilityWeights((1.5, -0.5)))

    @pytest.mark.parametrize("weights", [(float("nan"),) * 2, (float("inf"), 0.0)])
    def test_non_finite_weights(self, weights):
        s = _set([("s1", RAW_A), ("s2", RAW_B)])
        with pytest.raises(InvalidWeightsError):
            fuse(s, CredibilityWeights(weights))

    @pytest.mark.parametrize(
        "weights", [(10**400, 0), (1, -(10**400))], ids=["positive", "negative"]
    )
    def test_int_weight_past_the_float_range(self, weights):
        # math.isfinite(10**400) raises OverflowError
        s = _set([("s1", RAW_A), ("s2", RAW_B)])
        with pytest.raises(InvalidWeightsError):
            fuse(s, CredibilityWeights(weights))

    def test_sum_not_one(self):
        s = _set([("s1", RAW_A), ("s2", RAW_B)])
        with pytest.raises(InvalidWeightsError):
            fuse(s, CredibilityWeights((0.6, 0.6)))


class TestSelectSources:
    def test_single_source(self):
        s = _set([("s1", RAW_A)])
        for strategy in ("exhaustive", "greedy"):
            result = select_sources(s, strategy)
            assert result.chosen == (0,)
            assert result.achieved_quality == pytest.approx(
                information_quality(s.vectors[0]), abs=1e-12
            )
            assert result.strategy == strategy

    def test_identical_pair_tie_breaks_to_first_singleton(self):
        s = _set([("s1", RAW_A), ("s2", RAW_A)])
        for strategy in ("exhaustive", "greedy"):
            result = select_sources(s, strategy)
            assert result.chosen == (0,)

    def test_sharp_sources_beat_uniform_outlier(self):
        s = _set(SHARP_PLUS_UNIFORM, labels=LABELS4)
        exhaustive = select_sources(s, "exhaustive")
        uniform_index = 3
        assert uniform_index not in exhaustive.chosen

        oracle_subset, oracle_quality = ref_best_subset(s.vectors)
        assert exhaustive.chosen == oracle_subset
        assert exhaustive.achieved_quality == pytest.approx(
            oracle_quality, abs=1e-12
        )

        greedy = select_sources(s, "greedy")
        assert tuple(sorted(greedy.chosen)) == exhaustive.chosen
        assert greedy.achieved_quality == pytest.approx(
            exhaustive.achieved_quality, abs=1e-12
        )

    def test_copies_of_the_best_source_pick_exactly_min_size(self):
        # The mean of three copies sums to one ulp above the copies' own
        # quality; exhaustive search must not let that rounding pick them all.
        raw = [(0.03, 0.0), (0.97, 0.0)]
        s = _set([("s1", raw), ("s2", raw), ("s3", raw)])
        single = information_quality(s.vectors[0])
        assert aggregate_quality(s) > single
        for min_size in (1, 2, 3):
            result = select_sources(s, "exhaustive", min_size=min_size)
            assert result.chosen == tuple(range(min_size))
        assert select_sources(s, "exhaustive").achieved_quality == single

    def test_min_size_forces_larger_subsets(self):
        s = _set(SHARP_PLUS_UNIFORM, labels=LABELS4)
        result = select_sources(s, "exhaustive", min_size=4)
        assert result.chosen == (0, 1, 2, 3)
        greedy = select_sources(s, "greedy", min_size=4)
        assert tuple(sorted(greedy.chosen)) == (0, 1, 2, 3)

    def test_greedy_grows_past_min_size_while_quality_improves(self):
        # Rounds after the min_size forced ones still add a source when it
        # strictly improves quality: here the sixth source does.
        xs = (0.4096, 0.5581, 0.4231, 0.8646, 0.1766, 0.3296)
        s = _set([(f"s{k}", [(x, 0.0), (1 - x, 0.0)]) for k, x in enumerate(xs)])
        result = select_sources(s, "greedy", 5)
        assert result.chosen == (3, 1, 2, 0, 5, 4)
        assert result.achieved_quality == aggregate_quality(s.subset(result.chosen))

    def test_achieved_quality_matches_subset(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            r = int(rng.integers(1, 7))
            space = OutcomeSpace(tuple(f"o{j}" for j in range(n)))
            s = make_source_set(space, random_named_raws(rng, r, n))
            for strategy in ("exhaustive", "greedy"):
                result = select_sources(s, strategy)
                assert result.achieved_quality == aggregate_quality(
                    s.subset(result.chosen)
                )

    def test_greedy_never_beats_exhaustive(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            r = int(rng.integers(1, 7))
            min_size = int(rng.integers(1, r + 1))
            space = OutcomeSpace(tuple(f"o{j}" for j in range(n)))
            s = make_source_set(space, random_named_raws(rng, r, n))
            ex = select_sources(s, "exhaustive", min_size=min_size)
            gr = select_sources(s, "greedy", min_size=min_size)
            assert gr.achieved_quality <= ex.achieved_quality + 1e-12
            assert len(gr.chosen) >= min_size

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        space = OutcomeSpace(tuple(f"o{j}" for j in range(4)))
        s = make_source_set(space, random_named_raws(rng, 5, 4))
        for strategy in ("exhaustive", "greedy"):
            first = select_sources(s, strategy)
            second = select_sources(s, strategy)
            assert first == second

    def test_bad_min_size(self):
        s = _set([("s1", RAW_A)])
        with pytest.raises(BadMinSizeError):
            select_sources(s, "greedy", min_size=0)
        with pytest.raises(BadMinSizeError):
            select_sources(s, "exhaustive", min_size=2)

    def test_exhaustive_source_cap(self):
        raws = random_named_raws(np.random.default_rng(18), 16, 2)
        # r = 15 is the largest set exhaustive accepts: at min_size 7 it
        # scores all C(15, 7) = 6435 subsets, the most it ever scores.
        at_cap = select_sources(_set(raws[:15]), "exhaustive", min_size=7)
        vectors = [to_array(raw) for _, raw in raws[:15]]
        qualities = {
            c: ref_aggregate([vectors[k] for k in c])
            for c in combinations(range(15), 7)
        }
        oracle_subset = max(qualities, key=qualities.get)
        assert at_cap.chosen == oracle_subset
        assert at_cap.achieved_quality == pytest.approx(
            qualities[oracle_subset], abs=1e-12
        )
        s = _set(raws)
        with pytest.raises(TooManySourcesForExhaustiveError):
            select_sources(s, "exhaustive")
        # greedy has no cap
        select_sources(s, "greedy")

    def test_unknown_strategy(self):
        s = _set([("s1", RAW_A)])
        with pytest.raises(ValueError):
            select_sources(s, "simulated-annealing")


class TestArgumentTypes:
    """A numeric argument of the wrong type or size gets its typed error."""

    @pytest.mark.parametrize(
        "weights", [("1", "0"), (None, 1.0), (1j, 0.0)], ids=["str", "none", "complex"]
    )
    def test_weights_that_are_not_real_numbers(self, weights):
        s = _set([("s1", RAW_A), ("s2", RAW_B)])
        with pytest.raises(InvalidWeightsError):
            fuse(s, CredibilityWeights(weights))

    @pytest.mark.parametrize("strategy", ["exhaustive", "greedy"])
    @pytest.mark.parametrize("min_size", [1.5, 2.0, "1", None])
    def test_min_size_that_is_not_an_int(self, strategy, min_size):
        s = _set([("s1", RAW_A), ("s2", RAW_B), ("s3", RAW_A)])
        with pytest.raises(BadMinSizeError) as info:
            select_sources(s, strategy, min_size)
        assert info.value.message == f"min_size must be in 1..3, got {min_size!r}"

    @pytest.mark.parametrize("strategy", ["exhaustive", "greedy"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_min_size_past_the_int_string_limit(self, strategy, sign):
        s = _set([("s1", RAW_A), ("s2", RAW_B)])
        with pytest.raises(BadMinSizeError) as info:
            select_sources(s, strategy, sign * 10**5000)
        assert info.value.message == "min_size must be in 1..2, got an int of 16610 bits"

    @pytest.mark.parametrize("strategy", ["exhaustive", "greedy"])
    def test_integer_like_min_size_stays_accepted(self, strategy):
        s = _set([("s1", RAW_A), ("s2", RAW_B), ("s3", RAW_A)])
        expected = select_sources(s, strategy, 2)
        assert select_sources(s, strategy, np.int64(2)) == expected


def _every_candidate_greedy(s, min_size):
    """Greedy selection that scores every remaining candidate with
    subset_quality in every round: the reference for greedy's running sums."""
    rows = float_rows(s.vectors)
    g = [{k: row_products(row, (row,))[0]} for k, row in enumerate(rows)]
    chosen, quality = (), 0.0
    remaining = list(range(len(rows)))
    while remaining:
        if chosen:
            g[chosen[-1]] = row_products(rows[chosen[-1]], rows)
        next_quality, candidate = max(
            ((subset_quality(g, chosen + (k,)), chosen + (k,)) for k in remaining),
            key=itemgetter(0),
        )
        if len(chosen) >= min_size and not next_quality > quality:
            break
        chosen, quality = candidate, next_quality
        remaining.remove(chosen[-1])
    return quality, chosen


def _approximate_scores(g, chosen, remaining):
    """Greedy's O(r) score (D + G[k][k] + 2 (X + colsum[k])) / m^2 of
    chosen + (k,) for each k in remaining, with its running sums
    accumulated in the order greedy chose the sources."""
    diagonal_sum = cross_sum = 0.0
    colsum = [0.0] * len(g)
    for c in chosen:
        diagonal_sum += g[c][c]
        cross_sum += colsum[c]
        colsum = list(map(add, colsum, g[c]))
    m = len(chosen) + 1
    return [
        (diagonal_sum + g[k][k] + 2.0 * (cross_sum + colsum[k])) / (m * m)
        for k in remaining
    ]


def _near_duplicates(rng, r, n):
    """r sources drawn from about r/2 distinct ones: each an exact copy, or a
    copy with 1-3e-16 of mass moved between the real parts of two entries."""
    distinct = random_named_raws(rng, max(1, r // 2), n)
    named_raws = []
    for k in range(r):
        raw = list(distinct[int(rng.integers(len(distinct)))][1])
        if n > 1 and rng.integers(3):
            i, j = (int(x) for x in rng.choice(n, 2, replace=False))
            shift = float(rng.choice([1e-16, 2e-16, 3e-16, -1e-16, -2e-16, -3e-16]))
            if raw[i][0] + shift >= 0.0 and raw[j][0] - shift >= 0.0:
                raw[i] = (raw[i][0] + shift, raw[i][1])
                raw[j] = (raw[j][0] - shift, raw[j][1])
        named_raws.append((f"s{k}", raw))
    return named_raws


# A sharp source and three near-duplicates of a flatter one, each an ulp or
# two of mass apart.  After (0, 2), sources 1 and 3 score within an ulp of
# each other, and summing the cross terms row by row instead of source by
# source ranks them the other way round.
ULP_APART = [
    ("s0", [(0.9000000000000002, 0.0), (0.09999999999999978, 0.0)]),
    ("s1", [(0.7999999999999999, 0.0), (0.20000000000000007, 0.0)]),
    ("s2", [(0.8000000000000002, 0.0), (0.19999999999999984, 0.0)]),
    ("s3", [(0.7999999999999998, 0.0), (0.20000000000000015, 0.0)]),
]


class TestGreedyFilter:
    """Greedy scores each round's candidates in O(r) from running sums; they
    must be subset_quality's bits, so greedy picks and reports exactly what
    scoring every candidate with subset_quality does."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_picks_and_bits_as_scoring_every_candidate(self, seed):
        rng = np.random.default_rng([19, seed])
        for case in range(500):
            r = max(1, int(61 ** rng.random()))  # r 1-60, log-uniform
            n = int(rng.integers(1, 17))
            make = _near_duplicates if case % 2 else random_named_raws
            s = make_source_set(
                OutcomeSpace(tuple(f"o{j}" for j in range(n))), make(rng, r, n)
            )
            min_size = max(1, int(r ** rng.random()))
            quality, chosen = _every_candidate_greedy(s, min_size)
            result = select_sources(s, "greedy", min_size)
            assert result.chosen == chosen, (seed, case)
            assert result.achieved_quality.hex() == quality.hex(), (seed, case)

    def test_sixty_near_duplicates_taken_in_full(self):
        s = _set(_near_duplicates(np.random.default_rng(20), 60, 16),
                 labels=tuple(f"o{j}" for j in range(16)))
        quality, chosen = _every_candidate_greedy(s, 60)
        result = select_sources(s, "greedy", 60)
        assert (result.chosen, result.achieved_quality.hex()) == (chosen, quality.hex())

    @pytest.mark.parametrize("seed", range(3))
    def test_running_sums_are_subset_quality(self, seed):
        # For every prefix of greedy's picks, each candidate's running-sum
        # score has the bits of subset_quality of the prefix plus it.
        rng = np.random.default_rng([26, seed])
        labels = tuple(f"o{j}" for j in range(6))
        sets = [_set(ULP_APART)] + [
            _set(_near_duplicates(rng, int(rng.integers(2, 13)), 6), labels)
            for _ in range(10)
        ]
        for s in sets:
            g = gram(s)
            chosen = select_sources(s, "greedy", len(s)).chosen
            for i in range(len(s)):
                prefix = chosen[:i]
                remaining = [k for k in range(len(s)) if k not in prefix]
                scores = _approximate_scores(g, prefix, remaining)
                assert [a.hex() for a in scores] == [
                    subset_quality(g, prefix + (k,)).hex() for k in remaining
                ]

    def test_ties_go_to_the_lowest_index(self):
        # Sources 1 and 2 are copies: greedy's first round takes 1, and
        # exhaustive's single best is 1 too.
        duplicates = _set([("s0", RAW_B), ("s1", RAW_A), ("s2", RAW_A)])
        assert select_sources(duplicates, "greedy", 2).chosen == (1, 2)
        assert select_sources(duplicates, "exhaustive", 1).chosen == (1,)


class TestExactOracle:
    """Float qualities and picks against the exact rational oracle."""

    def test_qualities_within_their_bound_and_picks_exact_up_to_float_ties(self):
        # Every subset_quality lies within quality_error_bound of the exact
        # quality; an exhaustive pick that is not the exact argmax is a
        # float tie: the exact gap is within the two subsets' bounds.  Of
        # these 80 sets, 13 picks are such ties.
        rng = np.random.default_rng(14)
        ties = 0
        for case in range(80):
            r, n = int(rng.integers(2, 9)), int(rng.integers(1, 7))
            make = _near_duplicates if case % 4 else random_named_raws
            s = _set(make(rng, r, n), labels=tuple(f"o{j}" for j in range(n)))
            g, exact, magnitudes = gram(s), exact_gram(s), magnitude_gram(s)
            min_size = int(rng.integers(1, r + 1))
            subsets = list(combinations(range(r), min_size))
            greedy = select_sources(s, "greedy", min_size).chosen
            for c in subsets + [greedy]:
                error = abs(Fraction(subset_quality(g, c)) - exact_quality(exact, c))
                assert error <= quality_error_bound(magnitudes, c, n), (case, c)
            pick = select_sources(s, "exhaustive", min_size).chosen
            best, best_quality = exact_argmax(exact, subsets)
            if pick != best:
                ties += 1
                gap = best_quality - exact_quality(exact, pick)
                assert gap <= quality_error_bound(
                    magnitudes, pick, n
                ) + quality_error_bound(magnitudes, best, n), case
        assert ties > 0
