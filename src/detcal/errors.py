"""Exception hierarchy shared across the toolkit.

Every exception carries an ``exit_code`` so the command line front end can
translate failures into stable process exit statuses: 1 for usage errors,
2 for data or validation errors, 3 for numerical failures.
"""

from __future__ import annotations

import numbers


class DetcalError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class UsageError(DetcalError):
    """Invalid arguments or configuration supplied by the caller."""

    exit_code = 1


class UnsupportedOperationError(UsageError):
    """Operation requested on a model or object that cannot provide it."""


class DimensionalityError(UsageError):
    """Attempt to compare calibration results at incompatible dimensionalities.

    A map fitted on K feature dimensions must be scored with a binned
    calibration error over at least those same dimensions; scoring it with a
    lower-dimensional binning hides exactly the structure the map was fitted
    to, so the comparison is refused.
    """


class DataError(DetcalError):
    """Invalid, inconsistent or insufficient input data."""

    exit_code = 2


class ParseError(DataError):
    """Malformed input file; the message includes file and line context."""


class ValidationError(DataError):
    """A record or model violates a schema or value-range constraint."""


class ReferentialIntegrityError(ValidationError):
    """A record references an image or category unknown to the dataset."""


class DegenerateDataError(DataError):
    """Training data contains only one of the two match labels."""


class ScenarioError(DataError):
    """A synthetic scenario produced values outside its declared ranges."""


class EmptyMetricError(DataError):
    """Every bin fell below the occupancy threshold.

    ``bin_histogram`` maps occupancy counts to the number of bins with that
    occupancy, which usually makes it obvious whether the binning is too fine
    or the dataset too small.
    """

    def __init__(self, message: str, bin_histogram: dict[int, int] | None = None):
        super().__init__(message)
        self.bin_histogram = dict(bin_histogram or {})


class NumericalError(DetcalError):
    """Numerical failure during fitting or evaluation."""

    exit_code = 3


class NumericalFailureError(NumericalError):
    """Objective or gradient became non-finite at an accepted iterate."""

    def __init__(self, message: str, iterate=None):
        super().__init__(message)
        self.iterate = iterate


class ConvergenceError(NumericalError):
    """Optimizer exhausted its budget before reaching the tolerance."""

    def __init__(self, message: str, iterate=None, gradient_norm: float | None = None):
        super().__init__(message)
        self.iterate = iterate
        self.gradient_norm = gradient_norm


def check_count(
    name: str, value, minimum: int, error: type[DetcalError] = UsageError, *, message: str | None = None
) -> int:
    """``value`` as an int, if it is a count: an int or numpy integer, not a bool, and at least ``minimum``.

    Anything else raises ``error``; ``message``, when given, replaces the
    default message for a count below ``minimum``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    if value < minimum:
        raise error(message or f"{name} must be >= {minimum}, got {value}")
    return int(value)
