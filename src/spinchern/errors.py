"""Exception types shared across the package."""

from __future__ import annotations


class SpinChernError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionCap(SpinChernError):
    """Requested Hilbert-space dimension exceeds the configured cap."""


class DegenerateGroundState(SpinChernError):
    """Ground state is degenerate at the requested parameter point.

    Degeneracies are the sources of curvature flux, so this marks a
    topology change rather than a numerical failure.
    """


class OutOfRange(SpinChernError, ValueError):
    """Scalar argument lies outside its documented domain.

    Also a ``ValueError``, the builtin type for a bad argument value.
    """


class StepCountTooSmall(SpinChernError):
    """Doubling the step count moved the result by more than the guard."""


class DegenerateCouplings(SpinChernError):
    """Coupling table makes a refocusing timing denominator vanish."""


class UnphysicalDurations(SpinChernError):
    """No sign-pattern assignment yields nonnegative segment durations."""


class TooFewRows(SpinChernError):
    """Not enough converged sweep rows to segment into plateaus."""


class LengthMismatch(SpinChernError):
    """Paired sequences differ in length."""


class VelocityOutOfLinearZone(UserWarning):
    """Quench velocity exceeds the configured linear-response cap."""
