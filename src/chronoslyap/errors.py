"""Exception hierarchy.

Every failure mode that a caller might want to handle programmatically gets
its own class; the CLI maps class names onto machine-readable error reports.
"""

from contextlib import contextmanager


class ChronosLyapError(Exception):
    """Base class for all library errors."""


class NotInTimeScale(ChronosLyapError):
    """A queried instant is not a member of the time-scale window."""


class EmptyWindow(ChronosLyapError):
    """A constructed window contains no points."""


class InvalidParameter(ChronosLyapError):
    """A structural parameter is out of its documented range."""


@contextmanager
def malformed(what: str):
    """Report the KeyError, IndexError, TypeError or ValueError raised while
    parsing outside input (a spec or a flag) as InvalidParameter."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"malformed {what}: {exc!r}") from exc


class WindowExhausted(ChronosLyapError):
    """An operation needs a successor point beyond the window end."""


class ReversedBounds(ChronosLyapError):
    """Integration bounds with a > b."""


class NotRegressive(ChronosLyapError):
    """1 + mu(t)p(t) vanishes (or I + mu(t)A(t) is singular) where an
    invertible evolution step is required."""


class UnstableSpectrum(ChronosLyapError):
    """An eigenvalue lies outside the stability region required for a
    convergent series/integral representation."""


class SpectralRadiusNotLessThanOne(ChronosLyapError):
    """The recursive matrix A + I has spectral radius >= 1."""


class SingularKroneckerSystem(ChronosLyapError):
    """The dense Kronecker system of an algebraic solve is singular."""


class SeriesNotConverged(ChronosLyapError):
    """A truncated series failed to meet its tolerance within the term cap."""


class NonSymmetricM(ChronosLyapError):
    """Cost matrix M is not symmetric within tolerance."""


class NonSymmetricInput(ChronosLyapError):
    """A matrix argument required to be symmetric is not."""


class NonSymmetric(ChronosLyapError):
    """A positive-definiteness query received a non-symmetric matrix."""


class SymmetryDriftExceeded(ChronosLyapError):
    """Accumulated asymmetry of a computed solution exceeds the safe bound."""


class NoDecayDetected(ChronosLyapError):
    """The improper-integral integrand shows no decay on the window."""


class WindowTooShort(ChronosLyapError):
    """The estimated truncation tail exceeds the requested tolerance."""


class PositiveDefinitenessLost(ChronosLyapError):
    """A solution guaranteed positive definite came out numerically
    indefinite (truncation too coarse)."""


class SingularTransition(ChronosLyapError):
    """A transition matrix is singular; regressivity was violated."""


class ZeroRegressivityPoint(ChronosLyapError):
    """1 + mu(t)*lambda = 0 somewhere on the grid; the averaged-logarithm
    integrand is -infinity there."""


class EigenSolverFailure(ChronosLyapError):
    """The dense eigensolver did not converge."""


class GridMismatch(ChronosLyapError):
    """Two grid-indexed objects do not share their grid."""


class SpotCheckFailed(ChronosLyapError):
    """An internal two-path consistency check disagreed beyond tolerance."""
