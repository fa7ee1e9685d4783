"""Monotone rearrangement from a source Gaussian onto the smoothed measure.

With F the source CDF and G the smoothed one, the increasing map T with
G(T(x)) = F(x) pushes gamma_delta onto mu * gamma_delta and has derivative
T'(x) = p(x) / q(T(x)).  Its Lipschitz norm turns the Gaussian log-Sobolev
constant into one for the smoothed measure, so this module reports both a
numerical sup of T' over a sweep window and the closed-form slope bound.

Computation runs in the unit-variance normalized frame (push the centered
base through x -> x/sqrt(delta), smooth with variance 1) and maps back
affinely; the conjugation leaves T' and hence the Lipschitz norm unchanged.
T is the quantile solve of the normalized measure,
``SmoothedMeasure._solve_c``, at the source tail of each abscissa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtri_exp

from .errors import BracketFailure, DomainError, LogsobError, QuadratureFailure
from .logdomain import LogValue
from .measures import _check_count, pushforward_affine
from .quadrature import bracketed_newton  # noqa: F401  unused; perfbench/tracer.py wraps it by name
from .quadrature import golden_section_max
from .smoothing import SmoothedMeasure, _check_radius, _reject, log_gaussian_density

LIPSCHITZ_POINTS, LIPSCHITZ_EXTENT = 4001, 8.0  # default Lipschitz sweep
TABLE_POINTS, TABLE_EXTENT = 1001, 8.0  # default transport table


@dataclass(frozen=True)
class LipschitzEstimate(LogValue):
    """Numerical sup of the transport derivative over a sweep window, as a
    LogValue, attained at ``argmax`` among ``grid_points`` in ``window``.

    ``tail_log_bound`` records the analytic slope bound for the unswept
    outer region (log domain); it is reported, not folded into the max,
    because the sweep value is the estimator of record.
    """

    argmax: float
    grid_points: int
    window: tuple
    tail_log_bound: float


def _warm_start(xc, yc, log_slope, x):
    """x plus the cubic Hermite interpolant of T(x) - x through roots ``yc`` at
    ascending, distinct ``xc``, whose slopes are T' - 1 = expm1(``log_slope``).
    A slope or start beyond the doubles is not finite, and Newton starts that
    point from its bracket midpoint instead."""
    j = np.clip(np.searchsorted(xc, x) - 1, 0, xc.size - 2)
    with np.errstate(over="ignore", invalid="ignore"):
        m, d, h = np.expm1(log_slope), yc - xc, xc[j + 1] - xc[j]
        t = (x - xc[j]) / h
        s = 1.0 - t
        left = s * s * ((1.0 + 2.0 * t) * d[j] + t * h * m[j])
        return x + left + t * t * ((1.0 + 2.0 * s) * d[j + 1] - s * h * m[j + 1])


def lipschitz_theoretical_bound(radius_normalized) -> LogValue:
    """Closed-form bound on the transport slope for normalized radius R.

    max(exp(2R^2 + 2R + 1/8), exp(12R^2)): the first branch covers the outer
    regions |x| >= 2R, the second the middle band.
    """
    r = _check_radius(radius_normalized)
    return LogValue(max(2.0 * r * r + 2.0 * r + 0.125, 12.0 * r * r))


class TransportMap:
    """Increasing map pushing gamma_delta onto the smoothed target; no cache, no sweep settings."""

    def __init__(self, target: SmoothedMeasure):
        self.target = target
        self.sigma = target.sigma
        self.center = target.center
        self.radius = target.radius
        unit_base = pushforward_affine(target.centered_base, 1.0 / target.sigma)
        self.unit = SmoothedMeasure(unit_base, 1.0, target.config)
        self.radius_normalized = self.radius / self.sigma

    def _grid(self, points, extent):
        """linspace(-(2R + extent), 2R + extent, points), R the normalized
        radius; DomainError unless points is an integer >= 2 and extent is
        finite and positive."""
        points = _check_count(points, 2, "points")
        if not 0.0 < extent < math.inf:
            raise DomainError("sweep extent must be finite and positive, got %r" % (extent,))
        edge = 2.0 * self.radius_normalized + extent
        return np.linspace(-edge, edge, points)

    # -- unit-frame solve ------------------------------------------------

    def _solve(self, xn, start=None):
        """T in the normalized frame: the unit measure's ``_solve_c`` of
        log G_sf(y) = log F_sf(x) for x >= 0, log G_cdf(y) = log F_cdf(x) below,
        the source side log_ndtr(-|x|), bracketed by the envelope, to root_tol
        in y (sigma * root_tol in original coordinates).  An error names its
        first failed x in original coordinates."""
        try:
            return self.unit._solve_c(xn, log_ndtr(-np.abs(xn)), xn >= 0.0, start)
        except (BracketFailure, QuadratureFailure) as exc:
            exc.args = ("%s; first at x = %r" % (exc, float(self.sigma * xn[exc.index])),)
            raise

    def _eval_unit(self, xn):
        """(y, log T') of :meth:`_solve` on a batch, warm-started: every 8th
        distinct abscissa in ascending order, and the last, is solved from the
        bracket midpoint, the others from :func:`_warm_start` through those
        roots and their log T'.  A solve checks its bracket signs after
        iterating, so a failing pass iterates all its points; the whole batch
        is then solved from midpoints, so that an error counts and names the
        batch's own points."""
        _reject(xn, ~np.isfinite(xn), "transport abscissa must be finite")  # as x: inf or nan
        xu, inverse = np.unique(xn, return_inverse=True)
        coarse = np.arange(xu.size) % 8 == 0
        coarse[-1:] = True
        xc, xf = xu[coarse], xu[~coarse]
        try:
            yc = self._solve(xc)
            lc = self._log_derivative_unit(xc, yc)
            yf = self._solve(xf, _warm_start(xc, yc, lc, xf))
        except LogsobError:
            pass
        else:
            yu, lu = np.empty_like(xu), np.empty_like(xu)
            yu[coarse], yu[~coarse] = yc, yf
            lu[coarse], lu[~coarse] = lc, self._log_derivative_unit(xf, yf)
            return yu[inverse], lu[inverse]
        y = self._solve(xn)
        return y, self._log_derivative_unit(xn, y)

    def _log_derivative_unit(self, xn, yn):
        return log_gaussian_density(xn, 1.0) - self.unit._log_density_c(yn)

    # -- public evaluators (original coordinates) -------------------------

    def eval(self, x):
        """T(x); strictly increasing, with x - R <= T(x) - center <= x + R."""
        arr = np.asarray(x, dtype=float)
        xn = np.atleast_1d(arr).ravel() / self.sigma
        out = self.center + self.sigma * self._eval_unit(xn)[0]
        if arr.ndim == 0:
            return float(out[0])
        return out.reshape(arr.shape)

    def derivative(self, x):
        """T'(x) = p(x) / q(T(x)) > 0."""
        return self.eval_and_derivative(x)[1]

    def eval_and_derivative(self, x):
        arr = np.asarray(x, dtype=float)
        xn = np.atleast_1d(arr).ravel() / self.sigma
        yn, logd = self._eval_unit(xn)
        t = self.center + self.sigma * yn
        d = np.exp(logd)
        if arr.ndim == 0:
            return float(t[0]), float(d[0])
        return t.reshape(arr.shape), d.reshape(arr.shape)

    def envelope(self, x):
        """Hard bounds (T_lo, T_hi) valid for every x."""
        arr = np.asarray(x, dtype=float)
        return arr + self.center - self.radius, arr + self.center + self.radius

    def lipschitz_estimate(
        self, grid_points: int = LIPSCHITZ_POINTS, extent: float = LIPSCHITZ_EXTENT
    ) -> LipschitzEstimate:
        """Max of T' over the image y = T(x) of x in [-2R-extent, 2R+extent]
        (normalized); these arguments are the only sweep settings.

        Only the window ends and T(0) are root solves.  On ``grid_points`` equal
        steps of y, T'(S(y)) = p(S(y)) / q(y) with S = Phi^-1(G) by ndtri_exp of
        G's tail on y's side of T(0), at most 1/2: one fused kernel pass.
        Brent's method in y polishes the max to xtol 1e-8; ``argmax`` is sigma*S
        there.  R = 0 makes T a translation: log T' = 0, first at the left end.
        """
        xs = self._grid(grid_points, extent)
        rn = self.radius_normalized
        window = (self.sigma * float(xs[0]), self.sigma * float(xs[-1]))
        tail = 2.0 * rn * rn + 2.0 * rn + 0.125
        if rn == 0.0:
            return LipschitzEstimate(0.0, window[0], xs.size, window, tail)
        y_lo, y_mid, y_hi = self._solve(np.array([xs[0], 0.0, xs[-1]]))

        def source_and_log_slope(y):
            log_tail, log_q = self.unit._log_tail_density_c(y, y >= y_mid)
            s = np.where(y >= y_mid, -1.0, 1.0) * ndtri_exp(log_tail)
            return s, log_gaussian_density(s, 1.0) - log_q

        ys = np.linspace(y_lo, y_hi, xs.size)
        s, logd = source_and_log_slope(ys)
        i = int(np.argmax(logd))
        lo, hi = ys[max(i - 1, 0)], ys[min(i + 1, ys.size - 1)]
        yr, fr = golden_section_max(lambda y: source_and_log_slope(np.array([y]))[1][0], lo, hi)
        if fr >= logd[i]:
            s[i], logd[i] = source_and_log_slope(np.array([yr]))[0][0], fr
        return LipschitzEstimate(float(logd[i]), float(self.sigma * s[i]), xs.size, window, tail)


def transport_table(tm: TransportMap, points: int = TABLE_POINTS, extent: float = TABLE_EXTENT):
    """Columns for the transport report: x, T, T', and the hard envelope."""
    xs = tm.sigma * tm._grid(points, extent)
    t, d = tm.eval_and_derivative(xs)
    env_lo, env_hi = tm.envelope(xs)
    return {"x": xs, "T": t, "T_prime": d, "envelope_lo": env_lo, "envelope_hi": env_hi}
