"""Exception hierarchy shared by all cvdfusion modules.

Every error carries a stable ``code`` string (used by the CLI for
machine-parsable stderr records) and an optional ``source`` name telling
which input source triggered it.  The code is the class name without its
``Error`` suffix (``NonFiniteError`` is ``NonFinite``), set once for every
subclass by ``CvdError.__init_subclass__``; a subclass of a subclass gets
its own name, not its parent's.  The base class's code is ``CvdError``.
"""

from __future__ import annotations

__all__ = [
    "CvdError",
    "LengthMismatchError",
    "NonFiniteError",
    "NegativeRealPartError",
    "ModulusExceedsOneError",
    "SumNotUnityError",
    "InvalidOutcomeSpaceError",
    "DuplicateNameError",
    "SpaceMismatchError",
    "WeightLengthMismatchError",
    "InvalidWeightsError",
    "TooManySourcesForExhaustiveError",
    "BadMinSizeError",
    "MalformedSyntaxError",
    "SchemaViolationError",
]


class CvdError(ValueError):
    """Base class for all validation and domain errors raised by cvdfusion."""

    code = "CvdError"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__.removesuffix("Error")

    def __init__(self, message: str, *, source: str | None = None):
        super().__init__(message)
        self.message = message
        self.source = source

    def __str__(self) -> str:
        if self.source is not None:
            return f"source {self.source!r}: {self.message}"
        return self.message


# --- construction-time validation (distribution vectors) ---

class LengthMismatchError(CvdError):
    """Entry count differs from the outcome-space size."""


class NonFiniteError(CvdError):
    """An entry contains NaN or infinity, or an int too large for a float."""


class NegativeRealPartError(CvdError):
    """A real part lies below -tol (small negatives within tol are clamped)."""


class ModulusExceedsOneError(CvdError):
    """An entry's modulus sqrt(re^2 + im^2) exceeds 1 + tol."""


class SumNotUnityError(CvdError):
    """The complex entry sum deviates from 1 + 0i by more than tol."""


class InvalidOutcomeSpaceError(CvdError):
    """Outcome labels are empty, non-distinct, or otherwise unusable."""


class DuplicateNameError(CvdError):
    """Two sources in one set share a name."""


# --- operation preconditions ---

class SpaceMismatchError(CvdError):
    """Operands are defined on different outcome spaces."""


class WeightLengthMismatchError(CvdError):
    """Weight vector length differs from the number of sources."""


class InvalidWeightsError(CvdError):
    """Weights are negative, not finite, or do not sum to 1 within tolerance."""


class TooManySourcesForExhaustiveError(CvdError):
    """Exhaustive selection requested for more sources than the subset cap allows."""


class BadMinSizeError(CvdError):
    """Selection min_size is outside 1..r."""


# --- file parsing ---

class MalformedSyntaxError(CvdError):
    """Input bytes are not syntactically valid JSON/CSV (or not UTF-8)."""


class SchemaViolationError(CvdError):
    """Input parses but does not match the source-file schema."""
