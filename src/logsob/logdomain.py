"""Positive quantities tracked by their natural log.

Several of the bounds behave like exp(24 R^2 / delta) and leave double
precision long before they stop being mathematically meaningful, so every
bound in this package is carried as a log-value with a linear view that is
None once exp() would overflow.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError

#: largest x with exp(x) finite in double precision
MAX_EXP_LOG = math.log(sys.float_info.max)


def _as_log(x) -> float:
    """log of a LogValue or of a nonnegative number; NaN is a DomainError."""
    if isinstance(x, LogValue):
        return x.log
    x = float(x)
    if not x >= 0.0:
        raise DomainError("log-domain values must be nonnegative, got %r" % x)
    return math.log(x) if x > 0.0 else float("-inf")


@dataclass(frozen=True)
class LogValue:
    """A nonnegative scalar stored as its natural log (-inf encodes 0)."""

    log: float

    @property
    def value(self):
        """Linear value, or None when it would overflow a double."""
        if self.log > MAX_EXP_LOG:
            return None
        return math.exp(self.log)

    def __mul__(self, other) -> "LogValue":
        return LogValue(self.log + _as_log(other))

    __rmul__ = __mul__

    def __add__(self, other) -> "LogValue":
        a, b = self.log, _as_log(other)
        if a == float("-inf"):
            return LogValue(b)
        if b == float("-inf"):
            return LogValue(a)
        hi, lo = (a, b) if a >= b else (b, a)
        return LogValue(hi + math.log1p(math.exp(lo - hi)))

    __radd__ = __add__

    def to_dict(self) -> dict:
        return {"log_value": self.log, "value": self.value}
