"""Exception and warning types raised by the numerical pipelines."""


class FKWavesError(Exception):
    """Base class for all fkwaves failures."""


class ResonantVelocity(FKWavesError):
    """Velocity sits on (or too close to) a resonance of the dispersion relation."""


class RootCountMismatch(FKWavesError):
    """Argument-principle zero count disagrees with the roots actually located."""


class NotConverged(FKWavesError):
    """An iterative solve failed to reach its tolerance."""


class QuadratureFail(FKWavesError):
    """Self-check of an adaptive or panel quadrature exceeded its tolerance."""


class NoCandidate(FKWavesError):
    """Determinant scan found no zero of the discretized shape system."""


class NullspaceNotRankOne(FKWavesError):
    """Shape system has an ambiguous (not one dimensional) null space."""


class NoAdmissibleWave(FKWavesError):
    """No candidate wave passed the sign (admissibility) conditions.

    reasons holds one (z, reason) pair per rejected candidate.
    """

    def __init__(self, message: str, reasons: tuple = ()):
        super().__init__(message)
        self.reasons = tuple(reasons)


class ProfileRange(FKWavesError):
    """The wave does not fit between the chain's frozen ends."""


class NumericBlowup(FKWavesError):
    """Simulation state left the trust region (displacement overflow)."""


class NoFront(FKWavesError):
    """Chain state contains no sign change to track."""


class Inconclusive(FKWavesError):
    """Simulation ended before a classification was possible."""


class RegimeMismatch(FKWavesError):
    """Closed-form expression was requested outside its regime of validity."""


class NoSignChange(FKWavesError):
    """A scanned function keeps one sign over its whole window (q(0) in
    threshold_V0), so there is no change to bisect."""


class NoPositiveRoot(FKWavesError):
    """Polynomial solve produced no positive real root."""


class TruncationWarning(UserWarning):
    """Residue-sum truncation error is larger than the advertised bound."""
