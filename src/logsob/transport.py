"""Monotone rearrangement from a source Gaussian onto the smoothed measure.

With F the source CDF and G the smoothed one, the increasing map T with
G(T(x)) = F(x) pushes gamma_delta onto mu * gamma_delta and has derivative
T'(x) = p(x) / q(T(x)).  Its Lipschitz norm turns the Gaussian log-Sobolev
constant into one for the smoothed measure, so this module reports both a
numerical sup of T' over a sweep window and the closed-form slope bound.

Computation runs in the unit-variance normalized frame (push the centered
base through x -> x/sqrt(delta), smooth with variance 1) and maps back
affinely; the conjugation leaves T' and hence the Lipschitz norm unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .errors import BracketFailure, DomainError, LogsobError, QuadratureFailure
from .logdomain import LogValue
from .measures import pushforward_affine
from .quadrature import bracketed_newton, golden_section_max
from .smoothing import SmoothedMeasure, _check_radius, _reject, log_gaussian_density


@dataclass(frozen=True)
class LipschitzEstimate:
    """Numerical sup of the transport derivative over a sweep window.

    ``tail_log_bound`` records the analytic slope bound for the unswept
    outer region (log domain); it is reported, not folded into the max,
    because the sweep value is the estimator of record.
    """

    log_value: float
    argmax: float
    grid_points: int
    window: tuple
    tail_log_bound: float

    @property
    def value(self):
        return LogValue(self.log_value).value


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
        if target.delta == 1.0 and target.center == 0.0:
            self.unit = target
        else:
            base = target.centered_base
            if target.delta != 1.0:
                base = pushforward_affine(base, 1.0 / target.sigma)
            self.unit = SmoothedMeasure(base, 1.0, target.config)
        self.radius_normalized = self.radius / self.sigma

    def _grid(self, points, extent):
        """linspace(-(2R + extent), 2R + extent, points), R the normalized
        radius; DomainError unless points >= 2 and extent is finite and positive."""
        if not points >= 2:
            raise DomainError("sweep needs at least 2 points, got %r" % (points,))
        if not 0.0 < extent < math.inf:
            raise DomainError("sweep extent must be finite and positive, got %r" % (extent,))
        edge = 2.0 * self.radius_normalized + extent
        return np.linspace(-edge, edge, int(points))

    # -- unit-frame solve ------------------------------------------------

    def _solve(self, xn, start=None):
        """Solve G(y) = F(x) in the normalized frame, in the envelope, as
        log F_sf(x) = log G_sf(y) for x >= 0, log G_cdf(y) = log F_cdf(x) below,
        the source side log_ndtr(-|x|); a cell tail of G below the normal
        doubles raises BracketFailure.  An error names its first failed x in
        original coordinates."""
        rn = self.radius_normalized
        pad = 1e-9 + 1e-12 * np.abs(xn)
        g, g_slope = self.unit._tail_residuals(log_ndtr(-np.abs(xn)), xn >= 0.0)
        lo, hi, tol = xn - rn - pad, xn + rn + pad, self.target.config.root_tol
        try:
            return bracketed_newton(g, g_slope, lo, hi, root_tol=tol, start=start)
        except (BracketFailure, QuadratureFailure) as exc:
            exc.args = ("%s; first at x = %r" % (exc, float(self.sigma * xn[exc.index])),)
            raise

    def _eval_unit(self, xn):
        """(y, log T') of :meth:`_solve` on a batch, warm-started: every 8th
        distinct abscissa in ascending order, and the last, is solved from the
        bracket midpoint, the others, if at least two, from :func:`_warm_start`
        through those roots and their log T' (one alone would reach the
        density kernel as one point, whose atom sum takes other bits).  A solve
        checks its bracket signs after iterating, so a failing pass iterates
        all its points; the whole batch is then solved from midpoints, so that
        an error counts and names the batch's own points."""
        _reject(xn, ~np.isfinite(xn), "transport abscissa must be finite")  # as x: inf or nan
        xu, inverse = np.unique(xn, return_inverse=True)
        coarse = np.arange(xu.size) % 8 == 0
        coarse[-1:] = True
        if np.count_nonzero(~coarse) >= 2:
            try:
                xc, xf = xu[coarse], xu[~coarse]
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

    def lipschitz_estimate(self, grid_points: int = 4001, extent: float = 8.0) -> LipschitzEstimate:
        """Sweep max of T' over ``grid_points`` points of [-2R-extent, 2R+extent]
        (normalized), refined; these arguments are the only sweep settings.

        The grid max is polished by golden-section search to 1e-8 between its
        neighboring grid points, each solve starting from :func:`_warm_start`
        through the sweep's roots.  Beyond the window no numerical evaluation
        is attempted; the analytic outer-region bound is reported alongside.
        """
        xs = self._grid(grid_points, extent)
        ys, logd = self._eval_unit(xs)
        i = int(np.argmax(logd))

        def logd_at(x):
            xa = np.array([x])
            ya = self._solve(xa, _warm_start(xs, ys, logd, xa))
            return float(self._log_derivative_unit(xa, ya)[0])

        xr, fr = golden_section_max(logd_at, xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)])
        if fr >= logd[i]:
            best_x, best_log = xr, fr
        else:
            best_x, best_log = float(xs[i]), float(logd[i])
        rn = self.radius_normalized
        return LipschitzEstimate(
            log_value=best_log,
            argmax=self.sigma * best_x,
            grid_points=xs.size,
            window=(self.sigma * float(xs[0]), self.sigma * float(xs[-1])),
            tail_log_bound=2.0 * rn * rn + 2.0 * rn + 0.125,
        )


def transport_table(tm: TransportMap, points: int = 1001, extent: float = 8.0):
    """Columns for the transport report: x, T, T', and the hard envelope."""
    xs = tm.sigma * tm._grid(points, extent)
    t, d = tm.eval_and_derivative(xs)
    env_lo, env_hi = tm.envelope(xs)
    return {"x": xs, "T": t, "T_prime": d, "envelope_lo": env_lo, "envelope_hi": env_hi}
