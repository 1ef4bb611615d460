"""Aggregation, credibility weighting, weighted fusion and source selection.

The aggregate of r sources is their unweighted entrywise mean; its squared
norm expands to exactly the aggregate_quality sum, which is what makes the
mean the natural combination.  Credibility weights are derived from the
sources' average pairwise compatibility (the only inter-source signal the
measures define), normalized to sum to 1, with a uniform fallback when all
sources are mutually orthogonal.  Selection searches for the subset of
sources whose aggregate quality is highest, either exhaustively or greedily.
Each greedy round scores every candidate in O(r) from running sums over the
chosen sources; subset_quality sums source by source in the same order, so
these scores are subset_quality's bits, not an estimate of them.

Convex combinations preserve all CvD constraints (nonnegative real parts,
moduli bounded by 1 via the triangle inequality, complex sum 1 + 0i), so
fusion outputs are valid vectors without renormalization.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import combinations
from operator import add, itemgetter, mul

from .core import (
    CvdVector,
    SourceSet,
    _Frozen,
    _isfinite,
    _ordered_sum,
    _setattr,
    _shown,
)
from .errors import (
    BadMinSizeError,
    InvalidWeightsError,
    TooManySourcesForExhaustiveError,
    WeightLengthMismatchError,
)
from .measures import (
    PairwiseMatrix,
    float_rows,
    gram,
    pairwise_matrix,
    row_products,
    subset_quality,
)

__all__ = [
    "mean_aggregate",
    "CredibilityWeights",
    "credibility_weights",
    "fuse",
    "SelectionResult",
    "select_sources",
]

WEIGHT_SUM_TOL = 1e-9

# At most C(15, 7) = 6435 subsets of size min_size, each scored from one
# Gram matrix: exhaustive selection at r = 15 takes 0.2-1 ms at min_size 1
# and about 23 ms at min_size 7, for n = 8 and n = 64 alike (Python 3.11,
# 2-vCPU Xeon virtual machine).
EXHAUSTIVE_MAX_SOURCES = 15

_first = itemgetter(0)


class CredibilityWeights(_Frozen):
    """Per-source convex weights, aligned with the source-set order."""

    __match_args__ = ("values",)

    def __init__(self, values: tuple[float, ...]):
        _setattr(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


class SelectionResult(_Frozen):
    """Outcome of a source-selection search."""

    __match_args__ = ("chosen", "achieved_quality", "strategy")

    def __init__(self, chosen: tuple[int, ...], achieved_quality: float, strategy: str):
        _setattr(self, "chosen", chosen)
        _setattr(self, "achieved_quality", achieved_quality)
        _setattr(self, "strategy", strategy)


def _weighted_entry_sum(
    vectors: Sequence[CvdVector], weights: Sequence[float]
) -> tuple[complex, ...]:
    # Ascending source order per entry; mean_aggregate and fuse share this
    # path so uniform-weight fusion is bit-identical to the mean.
    return tuple(
        _ordered_sum(map(mul, weights, column), 0j)
        for column in zip(*(v.entries for v in vectors))
    )


def mean_aggregate(s: SourceSet) -> CvdVector:
    """Entrywise mean of the r sources: entry j is (1/r) sum_k c_kj.

    information_quality of the result equals aggregate_quality(s) up to
    rounding (the squared norm of the mean expands into exactly that sum).
    """
    r = len(s)
    return CvdVector(s.space, _weighted_entry_sum(s.vectors, (1.0 / r,) * r))


def credibility_weights(s: SourceSet) -> CredibilityWeights:
    """Support-based weights from average pairwise compatibility.

    support(k) is the mean compatibility of source k with every other
    source; weights are supports normalized to sum to 1.  A single source
    gets weight 1; mutually orthogonal sources (all supports zero) fall
    back to uniform weights.
    """
    return weights_from_compatibility(pairwise_matrix(s, "compatibility"))


def weights_from_compatibility(matrix: PairwiseMatrix) -> CredibilityWeights:
    """credibility_weights read off an existing compatibility matrix.

    Each support sums row k in ascending h, and the total sums the supports
    in ascending k.
    """
    r = matrix.size
    if r == 1:
        return CredibilityWeights((1.0,))

    supports = [
        _ordered_sum(row[:k] + row[k + 1 :]) / (r - 1)
        for k, row in enumerate(matrix.values)
    ]
    total = _ordered_sum(supports)
    if total > 0.0:
        return CredibilityWeights(tuple(sp / total for sp in supports))
    return CredibilityWeights((1.0 / r,) * r)


def fuse(s: SourceSet, w: CredibilityWeights) -> CvdVector:
    """Convex combination of the sources: entry j is sum_k w_k * c_kj.

    Weights must align with the source order, be finite and nonnegative,
    and sum to 1 within 1e-9; raises WeightLengthMismatchError or
    InvalidWeightsError otherwise.  With uniform weights this equals mean_aggregate(s)
    bit-for-bit.
    """
    values = tuple(w.values)
    if len(values) != len(s):
        raise WeightLengthMismatchError(
            f"got {len(values)} weights for {len(s)} sources"
        )
    if not all(_isfinite(v) and v >= 0.0 for v in values):
        raise InvalidWeightsError("weights must be finite and nonnegative")
    total = _ordered_sum(values)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidWeightsError(f"weights sum to {total!r}, expected 1")

    return CvdVector(s.space, _weighted_entry_sum(s.vectors, values))


def _best(
    g: Sequence[Sequence[float]], subsets: Iterable[tuple[int, ...]]
) -> tuple[float, tuple[int, ...]]:
    """The highest-quality subset and its quality, scored from g.

    max keeps the first of equal qualities, so ties resolve to the subset
    that comes first in the given order.
    """
    return max(((subset_quality(g, c), c) for c in subsets), key=_first)


def _select_greedy(s: SourceSet, min_size: int) -> tuple[float, tuple[int, ...]]:
    """Greedy selection, each round scored in O(r) from running sums.

    Over the chosen sources, in the order they were chosen, D sums their
    diagonal entries, X sums each one's column sum over the sources chosen
    before it, and colsum[k] sums G[c][k].  subset_quality(g, chosen + (k,))
    adds the same terms in the same order, so (D + G[k][k] + 2 (X +
    colsum[k])) / m^2 is its value bit for bit.  max keeps the first of
    equal scores, and remaining stays in ascending order, so ties go to the
    lowest index.
    """
    rows = float_rows(s.vectors)
    diagonal = [row_products(row, (row,))[0] for row in rows]
    colsum = [0.0] * len(rows)
    diagonal_sum = cross_sum = 0.0
    chosen, quality = (), 0.0
    remaining = list(range(len(rows)))
    while remaining:
        if chosen:
            # A chosen source's Gram row, first read by the round after it.
            c = chosen[-1]
            diagonal_sum += diagonal[c]
            cross_sum += colsum[c]
            colsum = list(map(add, colsum, row_products(rows[c], rows)))
        m = len(chosen) + 1
        scores = [
            (diagonal_sum + diagonal[k] + 2.0 * (cross_sum + colsum[k])) / (m * m)
            for k in remaining
        ]
        next_quality = max(scores)
        # Below min_size additions are forced; past it, only strict
        # improvements, so the last set is the best one of size >= min_size.
        if len(chosen) >= min_size and not next_quality > quality:
            break
        chosen += (remaining.pop(scores.index(next_quality)),)
        quality = next_quality
    return quality, chosen


def select_sources(
    s: SourceSet, strategy: str = "greedy", min_size: int = 1
) -> SelectionResult:
    """Pick the subset of sources maximizing aggregate quality.

    ``exhaustive`` evaluates every subset of size min_size (r <= 15): a
    larger subset's mean averages its leave-one-out means, so by Jensen's
    inequality it never scores higher;
    ``greedy`` keeps adding the source with the largest quality gain, so its
    first round picks the best single source: the first min_size sources
    are forced, and it stops at the first later round that does not
    strictly improve quality.  All ties break to the lowest source index, so
    identical inputs always yield identical results.
    """
    r = len(s)
    # Int-likes (bool, numpy ints) have __index__; 1.5, 2.0, "1" and None do not.
    if not (hasattr(min_size, "__index__") and 1 <= min_size <= r):
        raise BadMinSizeError(f"min_size must be in 1..{r}, got {_shown(min_size)}")
    if strategy == "exhaustive":
        if r > EXHAUSTIVE_MAX_SOURCES:
            raise TooManySourcesForExhaustiveError(
                f"exhaustive selection supports at most {EXHAUSTIVE_MAX_SOURCES} "
                f"sources, got {r}"
            )
        # Only size-min_size subsets: the mean of a larger subset is the
        # average of its leave-one-out means, so by Jensen's inequality on
        # ||.||^2 it never scores higher than the best of them (equal only
        # if all its members are; then summing more copies can only add
        # rounding error, which could otherwise let a larger subset win by
        # an ulp).  Lexicographic enumeration, so ties resolve to the
        # lexicographically lowest subset.
        quality, chosen = _best(gram(s), combinations(range(r), min_size))
    elif strategy == "greedy":
        quality, chosen = _select_greedy(s, min_size)
    else:
        raise ValueError(f"unknown strategy {strategy!r}, expected exhaustive|greedy")
    return SelectionResult(chosen, quality, strategy)
