"""Exact rational oracle for the rounding claims, standard library only.

Every float is an exact rational, so ``fractions.Fraction`` gives the true
Gram matrix of a source set and the true quality of each of its subsets,
with no rounding and no numpy.  ``quality_error_bound`` states how far a
float subset quality may lie from the true one (Higham, "The Accuracy of
Floating Point Summation", SIAM J. Sci. Comput. 14(4), 1993).
"""

from fractions import Fraction

UNIT_ROUNDOFF = Fraction(1, 2**53)


def _rational_rows(s):
    return [
        [(Fraction(c.real), Fraction(c.imag)) for c in v.entries] for v in s.vectors
    ]


def exact_gram(s):
    """G[a][k] = Re<C_a, C_k>, exactly."""
    rows = _rational_rows(s)
    return [
        [sum(p * u + q * v for (p, q), (u, v) in zip(a, b)) for b in rows]
        for a in rows
    ]


def magnitude_gram(s):
    """M[a][k] = sum_j |p u| + |q v| over the entries of C_a and C_k.

    M bounds |G[a][k]| and the magnitudes of the terms that make it up; by
    Cauchy-Schwarz M[a][k] <= ||C_a|| ||C_k||.
    """
    rows = _rational_rows(s)
    return [
        [sum(abs(p * u) + abs(q * v) for (p, q), (u, v) in zip(a, b)) for b in rows]
        for a in rows
    ]


def exact_quality(g, indices):
    """(1/m^2) sum_{a, k} G[a][k] over the m indices: the true quality."""
    m = len(indices)
    return sum(g[a][k] for a in indices for k in indices) / (m * m)


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u)."""
    return n * UNIT_ROUNDOFF / (1 - n * UNIT_ROUNDOFF)


def quality_error_bound(magnitudes, indices, n):
    """gamma_N S / m^2: how far subset_quality may lie from exact_quality.

    S = sum_{a, k} M[a][k] over the m indices, at most T = (sum of the
    norms)^2.  Each product p*u or q*v of an entry of G passes through at
    most n + 1 roundings in row_products; each entry of G passes through at
    most 2m further ones in subset_quality (its column sum, the cross or
    diagonal sum, the final addition and the division by m^2; doubling is
    exact).  So N = 2n + 2m + 2 bounds every term's rounding count.
    """
    m = len(indices)
    total = sum(magnitudes[a][k] for a in indices for k in indices)
    return gamma(2 * n + 2 * m + 2) * total / (m * m)


def exact_argmax(g, subsets):
    """The subset of highest exact quality, the first one of equal ones."""
    best, best_quality = None, None
    for c in subsets:
        quality = exact_quality(g, c)
        if best is None or quality > best_quality:
            best, best_quality = c, quality
    return best, best_quality
