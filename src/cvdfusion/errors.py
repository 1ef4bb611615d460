"""Exception hierarchy shared by all cvdfusion modules.

Every error carries a stable ``code`` string (used by the CLI for
machine-parsable stderr records) and an optional ``source`` name telling
which input source triggered it.
"""

from __future__ import annotations


class CvdError(ValueError):
    """Base class for all validation and domain errors raised by cvdfusion."""

    code = "CvdError"

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

    code = "LengthMismatch"


class NonFiniteError(CvdError):
    """An entry contains NaN or infinity."""

    code = "NonFinite"


class NegativeRealPartError(CvdError):
    """A real part lies below -tol (small negatives within tol are clamped)."""

    code = "NegativeRealPart"


class ModulusExceedsOneError(CvdError):
    """An entry's modulus sqrt(re^2 + im^2) exceeds 1 + tol."""

    code = "ModulusExceedsOne"


class SumNotUnityError(CvdError):
    """The complex entry sum deviates from 1 + 0i by more than tol."""

    code = "SumNotUnity"


class InvalidOutcomeSpaceError(CvdError):
    """Outcome labels are empty, non-distinct, or otherwise unusable."""

    code = "InvalidOutcomeSpace"


class DuplicateNameError(CvdError):
    """Two sources in one set share a name."""

    code = "DuplicateName"


# --- operation preconditions ---

class SpaceMismatchError(CvdError):
    """Operands are defined on different outcome spaces."""

    code = "SpaceMismatch"


class WeightLengthMismatchError(CvdError):
    """Weight vector length differs from the number of sources."""

    code = "WeightLengthMismatch"


class InvalidWeightsError(CvdError):
    """Weights are negative, not finite, or do not sum to 1 within tolerance."""

    code = "InvalidWeights"


class TooManySourcesForExhaustiveError(CvdError):
    """Exhaustive selection requested for more sources than the subset cap allows."""

    code = "TooManySourcesForExhaustive"


class BadMinSizeError(CvdError):
    """Selection min_size is outside 1..r."""

    code = "BadMinSize"


# --- file parsing ---

class MalformedSyntaxError(CvdError):
    """Input bytes are not syntactically valid JSON/CSV (or not UTF-8)."""

    code = "MalformedSyntax"


class SchemaViolationError(CvdError):
    """Input parses but does not match the source-file schema."""

    code = "SchemaViolation"
