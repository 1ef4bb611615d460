"""Core data model: outcome spaces, complex-valued distribution vectors, source sets.

A complex-valued distribution (CvD) over an outcome space of size n is a
vector of n complex entries c_j = x_j + y_j*i with

    x_j >= 0,
    sqrt(x_j^2 + y_j^2) <= 1,
    sum_j c_j = 1 + 0i   (real parts sum to 1, imaginary parts cancel).

``make_cvd`` / ``make_source_set`` are the validating constructors and the
only supported way to build these values; everything downstream assumes the
constraints hold.  All types are immutable after construction and safe to
share across threads.  They are plain classes on ``_Frozen``, not dataclasses:
importing ``dataclasses``, which pulls in ``inspect``, took about a third of
the CLI's import time.

Validation uses a tolerance ``tol`` (default 1e-9) because file inputs are
decimal floats: real parts in [-tol, 0) are clamped to exactly 0, moduli may
exceed 1 by at most tol, and the entry sum may deviate from 1 + 0i by at
most tol per component.  Entries are otherwise stored exactly as given;
nothing is ever renormalized silently.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from functools import reduce

from .errors import (
    CvdError,
    DuplicateNameError,
    InvalidOutcomeSpaceError,
    LengthMismatchError,
    ModulusExceedsOneError,
    NegativeRealPartError,
    NonFiniteError,
    SumNotUnityError,
)

__all__ = [
    "DEFAULT_TOL",
    "OutcomeSpace",
    "CvdVector",
    "SourceSet",
    "make_cvd",
    "make_source_set",
]

DEFAULT_TOL = 1e-9

RawEntry = tuple[float, float]


# How a _Frozen subclass's __init__ sets a field: object.__setattr__, bound
# to a module name once, which made building a CvdVector about 15% cheaper
# than looking it up on each call (Python 3.11).
_setattr = object.__setattr__


class _Frozen:
    """Base of the package's value types: immutable, equal by their fields.

    Each subclass names its fields, in order, in ``__match_args__`` (which
    keeps positional ``case`` patterns working) and sets them in its own
    ``__init__`` through ``_setattr``.  The base gives what
    ``@dataclass(frozen=True)`` gave: ``==`` and ``hash`` of the tuple of
    fields, between instances of the same class only; ``repr`` in the
    dataclass layout; and AttributeError on any assignment or deletion.
    Instances keep a ``__dict__``, so pickle, copy and weakref need no code.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        get = operator.attrgetter(*cls.__match_args__)
        if len(cls.__match_args__) > 1:
            cls._astuple = staticmethod(get)
        else:  # attrgetter of one name returns the value, not a 1-tuple
            cls._astuple = staticmethod(lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            astuple = self._astuple
            return astuple(self) == astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__match_args__, self._astuple(self))
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class OutcomeSpace(_Frozen):
    """Ordered, fixed set of distinct outcome labels.

    Entry j of every vector on this space refers to ``labels[j]``; order is
    significant.  Two spaces compare equal iff their label sequences match.
    Any ordered iterable of labels is accepted; a set or frozenset is
    refused, because its order changes with the hash seed.
    """

    __match_args__ = ("labels",)

    def __init__(self, labels: Iterable[str]):
        if isinstance(labels, str):  # tuple("up") would be ('u', 'p')
            raise InvalidOutcomeSpaceError("labels must be a sequence, not a str")
        if isinstance(labels, (set, frozenset)):  # order varies by hash seed
            raise InvalidOutcomeSpaceError(
                "labels must be an ordered sequence, not a set"
            )
        if not isinstance(labels, Iterable):
            raise InvalidOutcomeSpaceError("labels must be a sequence of strings")
        labels = tuple(labels)
        if len(labels) < 1:
            raise InvalidOutcomeSpaceError("outcome space needs at least one label")
        for j, label in enumerate(labels):
            if not isinstance(label, str) or not label:
                raise InvalidOutcomeSpaceError(
                    f"label at position {j} must be a non-empty string, got {label!r}"
                )
        if len(set(labels)) != len(labels):
            raise InvalidOutcomeSpaceError("outcome labels must be pairwise distinct")
        _setattr(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.labels)


class CvdVector(_Frozen):
    """A validated complex-valued distribution over an outcome space.

    Build through :func:`make_cvd`; the class itself does not re-check
    the constraints.
    """

    __match_args__ = ("space", "entries")

    def __init__(self, space: OutcomeSpace, entries: tuple[complex, ...]):
        _setattr(self, "space", space)
        _setattr(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def as_pairs(self) -> list[RawEntry]:
        """Entries as (re, im) pairs, in outcome order."""
        return [(c.real, c.imag) for c in self.entries]


class SourceSet(_Frozen):
    """Named, ordered collection of CvD vectors sharing one outcome space."""

    __match_args__ = ("space", "sources")

    def __init__(
        self, space: OutcomeSpace, sources: tuple[tuple[str, CvdVector], ...]
    ):
        _setattr(self, "space", space)
        _setattr(self, "sources", sources)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.sources)

    @property
    def vectors(self) -> tuple[CvdVector, ...]:
        return tuple(dist for _, dist in self.sources)

    def __len__(self) -> int:
        return len(self.sources)

    def subset(self, indices: Sequence[int]) -> "SourceSet":
        """Sub-set with the given source indices, preserving the given order."""
        return SourceSet(self.space, tuple(self.sources[i] for i in indices))


def _ordered_sum(values: Iterable, start=0.0):
    """start + v_0 + v_1 + ..., added strictly left to right.

    This is the one summation rule: every sum in the package adds in input
    order from ``start``, either through this helper or, in the hot loops
    of make_cvd, measures.row_products and measures.subset_quality, in the
    same order by hand.  Builtin sum() is not used: from Python 3.12 on it
    compensates float rounding, so verdicts and printed sums near a
    tolerance edge would depend on the interpreter version.
    """
    return reduce(operator.add, values, start)


def _isfinite(x) -> bool:
    """math.isfinite, but False for an int too large for a float and for a
    value that is not a real number (a str, None, a complex)."""
    try:
        return math.isfinite(x)
    except (OverflowError, TypeError):
        return False


def _shown(x) -> str:
    """repr(x) for an error message, or an int's bit length where its repr
    would pass Python's 4,300-digit limit and raise ValueError."""
    try:
        return repr(x)
    except ValueError:
        return f"an int of {x.bit_length()} bits"


def _check_tol(tol: float) -> None:
    if not (_isfinite(tol) and tol > 0.0):
        raise CvdError(f"tolerance must be finite and positive, got {_shown(tol)}")


def make_cvd(
    space: OutcomeSpace,
    raw: Sequence[Sequence[float]],
    tol: float = DEFAULT_TOL,
) -> CvdVector:
    """Validate (re, im) pairs against the CvD constraints and build a vector.

    Checks, in order: entry count equals the space size; every component is
    finite (an int too large for a float is not); real parts are >= -tol
    (values in [-tol, 0) are clamped to 0); every modulus is <= 1 + tol; and
    the post-clamp complex sum is within tol of 1 + 0i in both components.
    Input order is preserved.

    Raises LengthMismatchError, NonFiniteError, NegativeRealPartError,
    ModulusExceedsOneError or SumNotUnityError accordingly, and CvdError if
    tol is not a finite positive number, ``raw`` has no length (None, a
    number, a generator), or an entry is not a (re, im) pair of real numbers
    (numeric strings such as "0.5" count as real numbers).
    The sums follow _ordered_sum's rule, accumulated inside the entry loop.
    """
    _check_tol(tol)
    n = space.size
    try:
        count = len(raw)
    except TypeError:
        raise CvdError(
            f"values must be a sequence of (re, im) pairs, got {type(raw).__name__}"
        ) from None
    if count != n:
        raise LengthMismatchError(
            f"expected {n} entries for the outcome space, got {count}"
        )

    entries: list[complex] = []
    re_sum = im_sum = 0.0
    for j, pair in enumerate(raw):
        try:
            re, im = pair
            re = float(re)
            im = float(im)
        except OverflowError:  # an int past the float range is not finite
            re = im = math.inf
        except (TypeError, ValueError):
            raise CvdError(
                f"entry {j} ({space.labels[j]!r}) must be a (re, im) pair "
                f"of real numbers"
            ) from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise NonFiniteError(f"entry {j} ({space.labels[j]!r}) is not finite")
        if re < -tol:
            raise NegativeRealPartError(
                f"entry {j} ({space.labels[j]!r}) has real part {re!r} < -{tol!r}"
            )
        if re < 0.0:
            re = 0.0
        modulus = math.hypot(re, im)
        if modulus > 1.0 + tol:
            raise ModulusExceedsOneError(
                f"entry {j} ({space.labels[j]!r}) has modulus {modulus!r} > 1"
            )
        entries.append(complex(re, im))
        re_sum += re
        im_sum += im

    if abs(re_sum - 1.0) > tol or abs(im_sum) > tol:
        raise SumNotUnityError(
            f"entry sum is {re_sum!r} + {im_sum!r}i, expected 1 + 0i (tol {tol!r})"
        )

    return CvdVector(space, tuple(entries))


def _validate_each(space: OutcomeSpace, named_raws: Sequence, tol: float):
    """The one validation route behind make_source_set and the validate report.

    Raises CvdError for an empty list, a ``named_raws`` without a length
    (None, a generator) or a tol that is not finite and positive, before
    anything is yielded.  Then yields (name, CvdVector or CvdError) per
    source, in input order: a repeated name gives a DuplicateNameError
    without ``source``; any other error is make_cvd's, with ``source`` set
    to the name.  An item that is not a (name, values) pair, or a name that
    is not a non-empty str, raises CvdError naming the item's index when the
    loop reaches it: the emitters could not write such a name back.
    """
    try:
        count = len(named_raws)
    except TypeError:
        raise CvdError(
            "sources must be a sequence of (name, values) pairs, "
            f"got {type(named_raws).__name__}"
        ) from None
    if count < 1:
        raise CvdError("a source set needs at least one source")
    _check_tol(tol)

    seen: set[str] = set()
    for i, item in enumerate(named_raws):
        try:
            name, raw = item
        except (TypeError, ValueError):
            raise CvdError(f"source {i} must be a (name, values) pair") from None
        if not (isinstance(name, str) and name):
            raise CvdError(f"source {i} name must be a non-empty string")
        if name in seen:
            yield name, DuplicateNameError(f"duplicate source name {name!r}")
            continue
        seen.add(name)
        try:
            outcome = make_cvd(space, raw, tol=tol)
        except CvdError as err:
            err.source = name
            outcome = err
        yield name, outcome


def make_source_set(
    space: OutcomeSpace,
    named_raws: Sequence[tuple[str, Sequence[Sequence[float]]]],
    tol: float = DEFAULT_TOL,
) -> SourceSet:
    """Validate every named raw vector and assemble a SourceSet.

    Names must be pairwise distinct, non-empty strings.  The checks are
    ``_validate_each``, the route formats.build_validate_report reads too:
    this raises CvdError for an empty list, a list without a length or a
    bad tol, then the first per-source error (annotated with the offending
    source name), validating nothing after it.
    """
    sources: list[tuple[str, CvdVector]] = []
    for name, outcome in _validate_each(space, named_raws, tol):
        if isinstance(outcome, CvdError):
            raise outcome
        sources.append((name, outcome))
    return SourceSet(space, tuple(sources))
