"""Exception hierarchy and warning categories.

Every error carries a short machine-readable ``code`` that the CLI maps to
exit codes: validation/model errors exit 2, numerical failures exit 3.
"""

from __future__ import annotations


class NullControlError(Exception):
    """Base class for all package errors."""

    code = "ERROR"
    exit_code = 2


class ValidationError(NullControlError):
    """Bad inputs: precondition or schema violations."""

    code = "VALIDATION"
    exit_code = 2


class NumericalError(NullControlError):
    """The computation is well-posed but numerically out of reach."""

    code = "NUMERICAL"
    exit_code = 3


# spectral sequences
class NonPositiveRealPart(ValidationError):
    code = "NON_POSITIVE_REAL_PART"


class DuplicateEntry(ValidationError):
    code = "DUPLICATE_ENTRY"


class TooFewModes(ValidationError):
    code = "TOO_FEW_MODES"


class TailBoundUnachievable(NumericalError):
    code = "TAIL_BOUND_UNACHIEVABLE"


# time biorthogonal families
class IllConditioned(NumericalError):
    code = "ILL_CONDITIONED"


# spatial biorthogonalization
class NotHermitian(ValidationError):
    code = "NOT_HERMITIAN"


class DegenerateFamily(ValidationError):
    code = "DEGENERATE_FAMILY"


# model gallery
class SupportOverlap(ValidationError):
    code = "SUPPORT_OVERLAP"


class SynthesisUnsupported(ValidationError):
    code = "SYNTHESIS_UNSUPPORTED"


class DegenerateB(ValidationError):
    code = "DEGENERATE_B"


# cross-section solver
class GridTooCoarse(NumericalError):
    code = "GRID_TOO_COARSE"


class GridTooFine(NumericalError):
    code = "GRID_TOO_FINE"


# minimal-time profiles
class ObservationUnavailable(ValidationError):
    code = "OBSERVATION_UNAVAILABLE"


class StructuralHypothesisMissing(ValidationError):
    code = "STRUCTURAL_HYPOTHESIS_MISSING"


class NoJordanModes(ValidationError):
    code = "NO_JORDAN_MODES"


class NoProfileAvailable(ValidationError):
    code = "NO_PROFILE_AVAILABLE"


# control synthesis
class UnobservableMode(ValidationError):
    code = "UNOBSERVABLE_MODE"


class ZeroMuUnsupported(ValidationError):
    code = "ZERO_MU_UNSUPPORTED"


class RationalRootWarning(UserWarning):
    """sqrt(d) is suspiciously close to a rational: eigenvalue collision risk."""
