"""Exception hierarchy for the toolkit."""


class LogsobError(Exception):
    """Base class for all errors raised by this package; ``index`` is the
    position of the first failed point of a batched solve, if there is one."""

    def __init__(self, *args, index=None):
        super().__init__(*args)
        self.index = index


class NonpositiveWeight(LogsobError):
    """An atom weight is zero or negative."""


class MassNotNormalized(LogsobError):
    """Total mass differs from 1 beyond the configured tolerance."""

    def __init__(self, deviation, tol):
        self.deviation = float(deviation)
        self.tol = float(tol)
        super().__init__(
            "total mass deviates from 1 by %.3e (tolerance %.1e)" % (deviation, tol)
        )


class InvalidDensity(LogsobError):
    """Tabulated density grid or values are malformed."""


class ZeroScale(LogsobError):
    """Affine push-forward with scale factor 0."""


class DomainError(LogsobError):
    """Argument outside the domain of the requested operation."""


class QuadratureFailure(LogsobError):
    """Adaptive refinement exhausted its depth budget before reaching tolerance."""


class BracketFailure(LogsobError):
    """No sign-changing bracket is available at the configured tail cutoff."""


class SupremumNotLocalized(LogsobError):
    """A scanned supremum landed on the scan boundary; widen the window."""


class NonintegrableTestFunction(LogsobError):
    """Windowed integral of a test function failed its tail-error certificate."""


class EmptyFamily(LogsobError):
    """A test-function family with no members."""


class ConfigParseError(LogsobError):
    """Sweep configuration is missing or malformed."""


class MeasureParseError(LogsobError):
    """Measure input file is missing or malformed."""
