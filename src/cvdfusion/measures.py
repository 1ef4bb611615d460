"""Measures on complex-valued distribution vectors, all from one kernel.

All operations are pure functions on immutable inputs.  For vectors a, b on
the same outcome space:

    inner_product(a, b)    = sum_j a_j * conj(b_j)        (complex)
    norm(a)                = sqrt(Re inner_product(a, a))
    cosine_angle(a, b)     = Re<a,b> / (||a|| ||b||)      in [-1, 1]
    compatibility(a, b)    = |Re<a,b>| / (||a|| ||b||)    in [0, 1]
    conflict(a, b)         = 1 - compatibility(a, b)
    information_quality(a) = ||a||^2

Every real-valued measure comes from one kernel, ``row_products``.  Each
vector is split once into a tuple of real parts and a tuple of imaginary
parts (``float_rows``), and every product Re<a,b> is the explicit loop

    acc = 0.0
    for p, q, u, v in zip(re_a, im_a, re_b, im_b):
        acc += p*u + q*v

On a source set that gives the real Gram matrix G[k][h] = Re<C_k, C_h>:
``gram`` builds all of it with one row_products call per row, each
unordered pair (k <= h) once and mirrored exactly; greedy selection reads
Gram rows on demand instead, the diagonal plus the row of each source it
adds, and gets the same bits because p*u + q*v is symmetric bit for bit.
``matrix_from_gram`` turns G into any pairwise matrix (one square root per
source).  Cosine and compatibility are each defined once, as a function of
the clamped cosine (``_OF_COSINE``).  Conflict is not an entry of that
table: it is 1 - compatibility, defined once by ``conflict_matrix`` over a
finished compatibility matrix.  Subset qualities sum G source by source,
in the order the subset lists its sources (``subset_quality``): each
source adds its diagonal entry and its column sum over the sources before
it, which is the order of greedy selection's running sums.

The scalar measures are the two-source case of the same route:
cosine_angle and compatibility are the off-diagonal entry of the kind's
matrix over (a, b), conflict(a, b) is 1 - compatibility(a, b), and
information_quality(a) is a's diagonal product.  So a scalar answer and the
matching matrix entry of a report cannot disagree.  Re<a,b> is also the
Hermitian-symmetric average (<a,b> + <b,a>) / 2, so the cosine needs no
complex arithmetic.

Valid vectors have norm >= 1/sqrt(n) > 0, so the divisions cannot
degenerate; matrix_from_gram raises AssertionError (also under python -O)
if any norm is at most 1e-15 or NaN, which would mean an invalid value
escaped construction.

inner_product keeps its own complex route, because it returns the
imaginary part too.  Its real part equals the kernel bit for bit, and the
tests check it as the independent second route: CPython takes the real
part of x * conj(y) as x.re*y.re - x.im*(-y.im), which is exactly
x.re*y.re + x.im*y.im, and inner_product's complex sum (core._ordered_sum
from 0j) adds real parts left to right from 0.0, as the kernel does.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .core import CvdVector, SourceSet, _Frozen, _ordered_sum, _setattr
from .errors import SpaceMismatchError

__all__ = [
    "inner_product",
    "norm",
    "cosine_angle",
    "compatibility",
    "conflict",
    "information_quality",
    "aggregate_quality",
    "PairwiseMatrix",
    "pairwise_matrix",
]

_NORM_FLOOR = 1e-15


def _require_same_space(a: CvdVector, b: CvdVector) -> None:
    if a.space != b.space:
        raise SpaceMismatchError(
            f"operands live on different outcome spaces: "
            f"{a.space.labels} vs {b.space.labels}"
        )


def inner_product(a: CvdVector, b: CvdVector) -> complex:
    """Hermitian inner product sum_j a_j * conj(b_j), ascending j."""
    _require_same_space(a, b)
    products = (x * y.conjugate() for x, y in zip(a.entries, b.entries))
    return _ordered_sum(products, 0j)


def information_quality(a: CvdVector) -> float:
    """Squared norm ||a||^2, the diagonal product row_products gives for a.

    For a real-valued (probability) vector p this is sum_j p_j^2, i.e.
    1 - Gini(p): bounded in [1/n, 1].  Complex entries can push it up to n.
    """
    [row] = float_rows((a,))
    return row_products(row, (row,))[0]


def norm(a: CvdVector) -> float:
    """Vector norm sqrt(<a,a>).  Always >= 1/sqrt(n) for valid vectors."""
    return math.sqrt(information_quality(a))


def _pair_entry(a: CvdVector, b: CvdVector, kind: str) -> float:
    """The (a, b) entry of the kind's matrix over the two sources a and b."""
    _require_same_space(a, b)
    return pairwise_matrix(SourceSet(a.space, (("a", a), ("b", b))), kind).values[0][1]


def cosine_angle(a: CvdVector, b: CvdVector) -> float:
    """Cosine of the angle between a and b, clamped into [-1, 1]."""
    return _pair_entry(a, b, "cosine")


def compatibility(a: CvdVector, b: CvdVector) -> float:
    """Compatibility degree |Re<a,b>| / (||a|| ||b||), clamped into [0, 1].

    1 means the vectors are identical, 0 means (at least) disjoint support.
    Equals abs(cosine_angle(a, b)).
    """
    return _pair_entry(a, b, "compatibility")


def conflict(a: CvdVector, b: CvdVector) -> float:
    """Conflict degree 1 - compatibility(a, b), in [0, 1]."""
    return 1.0 - compatibility(a, b)


FloatRow = tuple[tuple[float, ...], tuple[float, ...]]


def float_rows(vectors: Iterable[CvdVector]) -> list[FloatRow]:
    """Each vector as one (real parts, imaginary parts) pair of float tuples."""
    return [
        (tuple(c.real for c in v.entries), tuple(c.imag for c in v.entries))
        for v in vectors
    ]


def row_products(row: FloatRow, rows: Sequence[FloatRow]) -> list[float]:
    """Re<row, other> for each other in rows: the one Gram kernel.

    Each product is summed in ascending outcome order from 0.0 as p*u + q*v,
    which equals inner_product(...).real bit for bit; p*u + q*v is also
    symmetric bit for bit, so any row equals the matching Gram entries.
    The loop is explicit, in core._ordered_sum's order: it is the hot kernel.
    """
    ar, ai = row
    out = []
    for br, bi in rows:
        acc = 0.0
        for p, q, u, v in zip(ar, ai, br, bi):
            acc += p * u + q * v
        out.append(acc)
    return out


def gram(s: SourceSet) -> list[list[float]]:
    """Real Gram matrix G[k][h] = Re<C_k, C_h>, each unordered pair once.

    Row k's products with sources k..r-1 come from one row_products call
    and are mirrored, so G equals inner_product(C_k, C_h).real bit for bit
    (and information_quality(C_k) on the diagonal).
    """
    rows = float_rows(s.vectors)
    r = len(rows)
    g = [[0.0] * r for _ in range(r)]
    for k in range(r):
        gk = g[k]
        for h, acc in enumerate(row_products(rows[k], rows[k:]), k):
            gk[h] = g[h][k] = acc
    return g


def subset_quality(g: Sequence[Sequence[float]], indices: Sequence[int]) -> float:
    """(1/m^2) [sum_k G[k][k] + 2 sum_{a before k} G[a][k]] over m indices.

    Source by source, in the order of ``indices``: each source k adds
    G[k][k] to the diagonal sum, and its column sum over the sources a
    before it (from 0.0, in order, read from the rows of those sources) to
    the cross sum as one term.  So greedy selection, which keeps exactly
    these running sums, gets the same bits in O(r) per round.  The loops
    are explicit and follow core._ordered_sum's rule: this is the hot
    selection kernel.
    """
    diagonal_sum = cross_sum = 0.0
    rows = []  # the rows of the sources before k
    for k in indices:
        column_sum = 0.0
        for row in rows:
            column_sum += row[k]
        diagonal_sum += g[k][k]
        cross_sum += column_sum
        rows.append(g[k])
    m = len(indices)
    return (diagonal_sum + 2.0 * cross_sum) / (m * m)


def aggregate_quality(s: SourceSet) -> float:
    """Quality of the unweighted combination of the r sources.

    subset_quality(gram(s), range(r)): (1/r^2) [ sum_k ||C_k||^2 +
    2 sum_{h<k} Re<C_h, C_k> ], summed source by source in ascending k,
    each column sum in ascending h.  Equals
    information_quality(mean_aggregate(s)) up to rounding.
    """
    return subset_quality(gram(s), range(len(s)))


class PairwiseMatrix(_Frozen):
    """Symmetric r x r table of a pairwise measure over a source set.

    The diagonal is exactly 1.0 for compatibility/cosine and 0.0 for
    conflict; each off-diagonal unordered pair is computed once and
    mirrored, so symmetry is bit-exact.
    """

    __match_args__ = ("kind", "size", "values")

    def __init__(self, kind: str, size: int, values: tuple[tuple[float, ...], ...]):
        _setattr(self, "kind", kind)
        _setattr(self, "size", size)
        _setattr(self, "values", values)


# Each kind but conflict as a function of the clamped cosine; its value at 1.0
# is the diagonal.  Conflict is 1 - compatibility (conflict_matrix).
_OF_COSINE = {
    "compatibility": abs,
    "cosine": lambda c: c,
}


def conflict_matrix(compat: PairwiseMatrix) -> PairwiseMatrix:
    """The conflict matrix of a compatibility matrix: 1.0 - c, entry by entry.

    This is conflict's one definition; conflict(a, b) = 1.0 -
    compatibility(a, b) is its two-source case.
    """
    rows = tuple(tuple([1.0 - c for c in row]) for row in compat.values)
    return PairwiseMatrix("conflict", compat.size, rows)


def matrix_from_gram(g: Sequence[Sequence[float]], kind: str) -> PairwiseMatrix:
    """Tabulate compatibility, conflict or cosine from a Gram matrix.

    Each source's norm sqrt(G[k][k]) is taken once; each unordered pair is
    computed once and mirrored.
    """
    if kind == "conflict":
        return conflict_matrix(matrix_from_gram(g, "compatibility"))
    try:
        of_cosine = _OF_COSINE[kind]
    except KeyError:
        raise ValueError(
            f"unknown matrix kind {kind!r}, "
            f"expected one of {sorted([*_OF_COSINE, 'conflict'])}"
        ) from None

    r = len(g)
    norms = [math.sqrt(g[k][k]) for k in range(r)]
    # Every norm is checked (min() would skip a NaN past the first), and
    # raised explicitly, not asserted, so that python -O keeps the check.
    if not all(nk > _NORM_FLOOR for nk in norms):
        raise AssertionError("norm underflow: an invalid vector escaped construction")
    grid = [[of_cosine(1.0)] * r for _ in range(r)]
    for k in range(r):
        gk, nk = g[k], norms[k]
        for h in range(k + 1, r):
            cosine = min(1.0, max(-1.0, gk[h] / (nk * norms[h])))
            grid[k][h] = grid[h][k] = of_cosine(cosine)
    return PairwiseMatrix(kind, r, tuple(tuple(row) for row in grid))


def pairwise_matrix(s: SourceSet, kind: str) -> PairwiseMatrix:
    """Tabulate compatibility, conflict or cosine over all source pairs."""
    return matrix_from_gram(gram(s), kind)
