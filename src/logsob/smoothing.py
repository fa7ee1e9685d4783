"""Gaussian smoothing of a compactly supported measure.

For a base measure mu (support radius R once centered) and variance delta,
the smoothed measure mu * gamma_delta has density

    q(t) = integral of phi_delta(t - s) dmu(s),

which is smooth and strictly positive, so its CDF has a well-defined smooth
inverse.  This module evaluates q, the CDF and survival function, their
logs, the inverse CDF, and the tilted-moment objects (the mgf of mu and the
induced tail shift) that control how far q's tail sits from the source
Gaussian's.

All evaluation happens in coordinates centered on the support midpoint and
is translated back at the interface; translations do not move LSI constants.
For a piecewise-linear density part the convolution and its CDF reduce to
closed forms in phi and Phi, which keeps dense sweeps cheap; the generic
quadrature route stays available through :func:`logsob.measures.integrate`
and is used by the tests as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partialmethod

import numpy as np
from scipy.special import log_ndtr, ndtr

from .errors import BracketFailure, DomainError
from .measures import Measure1D, centered, integrate
from .quadrature import bracketed_newton

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _std_pdf(z):
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def _lse_atoms(a):
    """logsumexp over the leading (atom) axis, shift-stabilized (-inf columns give -inf).

    Sums one row per atom in turn, the order of numpy's row sum below 8 terms.
    """
    m = np.max(a, axis=0)
    safe = np.where(np.isfinite(m), m, 0.0)
    out = safe + np.log(np.sum(np.exp(a - safe), axis=0))
    return np.where(np.isfinite(m), out, m)


def _check_delta(delta) -> float:
    delta = float(delta)
    if not delta > 0.0:
        raise DomainError("variance delta must be positive")
    return delta


def gaussian_density(t, delta=1.0):
    """Density of the centered Gaussian with variance delta."""
    delta = _check_delta(delta)
    t = np.asarray(t, dtype=float)
    return np.exp(-t * t / (2.0 * delta)) / math.sqrt(2.0 * math.pi * delta)


def log_gaussian_density(t, delta=1.0):
    delta = _check_delta(delta)
    t = np.asarray(t, dtype=float)
    return -t * t / (2.0 * delta) - 0.5 * math.log(delta) - _LOG_SQRT_2PI


def gaussian_cdf(x, delta=1.0):
    """CDF of the centered Gaussian with variance delta."""
    delta = _check_delta(delta)
    return ndtr(np.asarray(x, dtype=float) / math.sqrt(delta))


def gaussian_sf(x, delta=1.0):
    delta = _check_delta(delta)
    return ndtr(-np.asarray(x, dtype=float) / math.sqrt(delta))


def log_gaussian_cdf(x, delta=1.0):
    delta = _check_delta(delta)
    return log_ndtr(np.asarray(x, dtype=float) / math.sqrt(delta))


def log_gaussian_sf(x, delta=1.0):
    delta = _check_delta(delta)
    return log_ndtr(-np.asarray(x, dtype=float) / math.sqrt(delta))


@dataclass(frozen=True)
class GaussianParams:
    """Variance of the smoothing Gaussian."""

    delta: float

    def __post_init__(self):
        object.__setattr__(self, "delta", _check_delta(self.delta))


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and truncation for all smoothed-measure evaluations.

    Integrals over the whole line are truncated to the support hull padded by
    ``tail_mult`` standard deviations; the neglected Gaussian mass is below
    ndtr(-tail_mult), which must stay under ``cdf_tol``.
    """

    tail_mult: float = 12.0
    integ_tol: float = 1e-10
    cdf_tol: float = 1e-9
    root_tol: float = 1e-10
    cache_points_per_sigma: int = 50

    def __post_init__(self):
        for name in ("tail_mult", "integ_tol", "cdf_tol", "root_tol"):
            if not float(getattr(self, name)) > 0.0:
                raise DomainError("%s must be positive" % name)
        if ndtr(-float(self.tail_mult)) > float(self.cdf_tol):
            raise DomainError("tail_mult too small for the requested cdf_tol")


def _edge_antiderivatives(z, cdf, pdf):
    """Antiderivatives of Phi and z*Phi at z, given Phi(z) and phi(z).

    The piecewise-linear convolution takes their differences across each
    cell; neighbouring cells share an edge, so each edge is evaluated once.
    """
    return z * cdf + pdf, 0.5 * ((z * z - 1.0) * cdf + z * pdf)


def _cdf_gap(u, upper, lower):
    """Phi(u1) - Phi(u0) per cell via whichever tail avoids cancellation."""
    right = u[:, :-1] + u[:, 1:] > 0.0
    return np.where(right, upper[:, :-1] - upper[:, 1:], lower[:, 1:] - lower[:, :-1])


def _side(sf):
    """Column of +1 where ``sf`` (a flag, or one per point), -1 elsewhere."""
    return np.where(np.reshape(sf, (-1, 1)), 1.0, -1.0)


def _log_tail(v):
    """log of a tail mass; -inf below the normal doubles, where its precision is gone."""
    with np.errstate(divide="ignore"):
        return np.log(np.where(v < np.finfo(float).tiny, 0.0, v))


class SmoothedMeasure:
    """A compactly supported measure convolved with a centered Gaussian.

    Every evaluator is pure, so instances are safe to share across threads.
    The monotone CDF table used for quantile bracketing is built on the first
    quantile request; a race there can only compute the same deterministic
    table twice.  Evaluators accept scalars or arrays in the base measure's
    original coordinates.
    """

    def __init__(self, base: Measure1D, delta=1.0, config: QuadratureConfig | None = None):
        if isinstance(delta, GaussianParams):
            delta = delta.delta
        self.delta = _check_delta(delta)
        self.sigma = math.sqrt(self.delta)
        self.config = config or QuadratureConfig()
        self.base = base
        mu_c, sr = centered(base)
        self.centered_base = mu_c
        self.radius = float(sr.radius)
        self.center = float(sr.center)

        self._aloc = np.array([x for x, _ in mu_c.atoms], dtype=float)
        self._awt = np.array([w for _, w in mu_c.atoms], dtype=float)
        if mu_c.density is not None:
            grid = mu_c.density.grid
            vals = mu_c.density.values
            slope = (vals[1:] - vals[:-1]) / (grid[1:] - grid[:-1])
            self._cells = (grid, vals[:-1] - slope * grid[:-1], slope)
        else:
            self._cells = None

        self.cutoff = self.radius + self.config.tail_mult * self.sigma
        step = self.sigma / self.config.cache_points_per_sigma
        n = max(3, int(round(2.0 * self.cutoff / step)) + 1)
        self._grid = np.linspace(-self.cutoff, self.cutoff, n)

    @cached_property
    def _grid_cdf(self):
        # monotone table for quantile bracketing; enforce monotonicity
        # against last-ulp quadrature noise
        return np.maximum.accumulate(self._cdf_c(self._grid))

    # -- centered-frame evaluators -------------------------------------

    def _density_atoms(self, t):
        z = (t[:, None] - self._aloc) / self.sigma
        return (self._awt * np.exp(-0.5 * z * z)).sum(axis=1) / (self.sigma * _SQRT_2PI)

    def _tail_atoms(self, x, s):
        z = (x[:, None] - self._aloc) / self.sigma
        return (self._awt * ndtr(-s * z)).sum(axis=1)

    def _edge_u(self, t):
        # u = (edge - t)/sigma; Phi(+-u) and phi(u) serve q, cdf (z = -u) and sf (z = u)
        return (self._cells[0] - t[:, None]) / self.sigma

    def _density_edges(self, t, cdf_gap, pdf):
        _, alpha, beta = self._cells
        lin = alpha + beta * t[:, None]
        terms = lin * cdf_gap + beta * self.sigma * (pdf[:, :-1] - pdf[:, 1:])
        return np.maximum(terms.sum(axis=1), 0.0)

    def _tail_edges(self, x, a, b, s):
        """Cell mass above x (s = 1) or below it (s = -1), from the antiderivatives at z = s*u."""
        _, alpha, beta = self._cells
        lin = (alpha + beta * x[:, None]) * s  # -lin * (a1 - a0) == lin * (a0 - a1) bitwise
        terms = lin * (a[:, 1:] - a[:, :-1]) + beta * self.sigma * (b[:, 1:] - b[:, :-1])
        return self.sigma * np.maximum(terms, 0.0).sum(axis=1)

    def _density_cells(self, t):
        u = self._edge_u(t)
        # both tails are freed before the pdf: keeps peak memory down
        return self._density_edges(t, _cdf_gap(u, ndtr(-u), ndtr(u)), _std_pdf(u))

    def _tail_cells(self, x, s):
        z = s * self._edge_u(x)
        a, b = _edge_antiderivatives(z, ndtr(z), _std_pdf(z))
        del z  # not needed by the cell sums: keeps peak memory down
        return self._tail_edges(x, a, b, s)

    def _density_c(self, t):
        out = np.zeros_like(t)
        if self._aloc.size:
            out = out + self._density_atoms(t)
        if self._cells is not None:
            out = out + self._density_cells(t)
        return out

    def _log_density_c(self, t):
        if self._aloc.size:
            z = (t - self._aloc[:, None]) / self.sigma
            la = np.log(self._awt)[:, None] - 0.5 * z * z - math.log(self.sigma) - _LOG_SQRT_2PI
            out = _lse_atoms(la)
        else:
            out = np.full(t.shape, -np.inf)
        if self._cells is not None:
            with np.errstate(divide="ignore"):
                out = np.logaddexp(out, np.log(self._density_cells(t)))
        return out

    def _tail_c(self, x, sf):
        """Mass above x where ``sf`` (a flag, or one per point), below it elsewhere."""
        s = _side(sf)
        out = np.zeros_like(x)
        if self._aloc.size:
            out = out + self._tail_atoms(x, s)
        if self._cells is not None:
            out = out + self._tail_cells(x, s)
        return np.clip(out, 0.0, 1.0)

    _cdf_c = partialmethod(_tail_c, sf=False)
    _sf_c = partialmethod(_tail_c, sf=True)

    def _tail_density_c(self, y, sf):
        """(_tail_c, _density_c) at y, bit for bit, from one pass over the cell edges."""
        s = _side(sf)
        tail, dens = np.zeros_like(y), np.zeros_like(y)
        if self._aloc.size:
            tail = tail + self._tail_atoms(y, s)
            dens = dens + self._density_atoms(y)
        if self._cells is not None:
            u = self._edge_u(y)
            upper, lower = ndtr(-u), ndtr(u)
            gap = _cdf_gap(u, upper, lower)
            cdf = np.where(s > 0.0, lower, upper)
            del upper, lower  # the dels keep peak memory that of _tail_c
            u *= s  # z = s*u, and phi(z) == phi(u) bitwise
            pdf = _std_pdf(u)
            dens = dens + self._density_edges(y, gap, pdf)
            a, b = _edge_antiderivatives(u, cdf, pdf)
            del gap, u, cdf, pdf
            tail = tail + self._tail_edges(y, a, b, s)
        return np.clip(tail, 0.0, 1.0), dens

    def _log_tail_c(self, x, sf):
        if self._aloc.size:
            z = (x - self._aloc[:, None]) / self.sigma
            out = _lse_atoms(np.log(self._awt)[:, None] + log_ndtr(-z if sf else z))
        else:
            out = np.full(x.shape, -np.inf)
        if self._cells is not None:
            with np.errstate(divide="ignore"):
                out = np.logaddexp(out, np.log(self._tail_cells(x, _side(sf))))
        return np.minimum(out, 0.0)

    def _tail_residuals(self, target, upper):
        """``(g, g_slope)`` for :func:`bracketed_newton` in log-tail form.

        Point k solves sf(y) = target[k] where ``upper[k]``, else cdf(y) =
        target[k], as log tail(y) - log target[k], negated on the sf side so
        both increase in y; the slope is q / tail.  Far in the tails Newton
        converges in a few steps where the linear residual crawls.
        """
        log_target = _log_tail(target)

        def residual(tail, k):
            with np.errstate(invalid="ignore"):
                d = _log_tail(tail) - log_target[k]
            return np.where(upper[k], -d, d)

        def g(y, k):
            return residual(self._tail_c(y, upper[k]), k)

        def g_slope(y, k):
            tail, dens = self._tail_density_c(y, upper[k])
            with np.errstate(divide="ignore", invalid="ignore"):
                return residual(tail, k), dens / tail

        return g, g_slope

    # -- public interface (original coordinates) -----------------------

    def _wrap(self, fn, x):
        arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(arr).ravel() - self.center
        out = fn(flat)
        if arr.ndim == 0:
            return float(out[0])
        return out.reshape(arr.shape)

    def density(self, t):
        """Smoothed density q(t); strictly positive for all finite t."""
        return self._wrap(self._density_c, t)

    def log_density(self, t):
        return self._wrap(self._log_density_c, t)

    def cdf(self, x):
        return self._wrap(self._cdf_c, x)

    def sf(self, x):
        """Survival function 1 - cdf, computed directly for tail accuracy."""
        return self._wrap(self._sf_c, x)

    def log_cdf(self, x):
        return self._wrap(lambda v: self._log_tail_c(v, False), x)

    def log_sf(self, x):
        return self._wrap(lambda v: self._log_tail_c(v, True), x)

    def window(self):
        """Interval outside which the smoothed mass is below cdf_tol."""
        return (self.center - self.cutoff, self.center + self.cutoff)

    def inv_cdf(self, u):
        """Quantile: x with |cdf(x) - u| below cdf_tol, root_tol-accurate in x.

        Brackets from the monotone CDF table, built on first use, then runs
        Newton on the log of the nearer tail from the bracket midpoint.  Raises
        BracketFailure when u is more extreme than the mass inside the tail
        cutoff can resolve.
        """
        arr = np.asarray(u, dtype=float)
        flat = np.atleast_1d(arr).ravel()
        if flat.size and (np.any(flat <= 0.0) | np.any(flat >= 1.0)):
            raise DomainError("quantile argument must lie strictly inside (0, 1)")
        gc = self._grid_cdf
        if flat.size and (np.any(flat < gc[0]) or np.any(flat > gc[-1])):
            raise BracketFailure(
                "quantile beyond the tail cutoff; widen tail_mult to resolve it"
            )
        idx = np.clip(np.searchsorted(gc, flat), 1, gc.size - 1)
        lo = self._grid[np.maximum(idx - 2, 0)]
        hi = self._grid[np.minimum(idx + 1, gc.size - 1)]
        upper = flat > 0.5
        g, g_slope = self._tail_residuals(np.where(upper, 1.0 - flat, flat), upper)
        y = bracketed_newton(g, g_slope, lo, hi, root_tol=self.config.root_tol)
        y = y + self.center
        if arr.ndim == 0:
            return float(y[0])
        return y.reshape(arr.shape)

    # -- tilted moments of the centered base measure --------------------

    def _tilted_stats(self, x):
        """(log mgf, tilted mean) of the centered base, overflow-shifted.

        The integrand is rescaled by exp(-x * s_star) with s_star the support
        endpoint favored by the tilt, which pins it inside (0, 1] for every x.
        """
        xa = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
        s_star = np.where(xa >= 0.0, self.radius, -self.radius)
        shift = xa * s_star

        def g(s):
            e = np.exp(np.multiply.outer(s, xa) - shift)
            return np.stack([e, s[:, None] * e], axis=1)

        vals = integrate(self.centered_base, g, rtol=self.config.integ_tol, atol=1e-16)
        vals = np.asarray(vals, dtype=float)
        base = np.maximum(vals[0], np.finfo(float).tiny)
        return shift + np.log(base), vals[1] / base

    def log_mgf(self, x):
        """log of the base measure's moment generating function."""
        arr = np.asarray(x, dtype=float)
        out = self._tilted_stats(arr)[0]
        if arr.ndim == 0:
            return float(out[0])
        return out.reshape(arr.shape)

    def mgf(self, x):
        with np.errstate(over="ignore"):
            return np.exp(self.log_mgf(x))

    def tail_shift(self, x):
        """Shift K with q(x + K(x)) comparable to the source density at x.

        Defined for x != 0; the sandwich bounds hold on |x| >= 2*radius.
        """
        arr = np.asarray(x, dtype=float)
        if np.any(arr == 0.0):
            raise DomainError("tail shift is undefined at 0")
        lm = self._tilted_stats(arr)[0].reshape(arr.shape)
        out = (lm + self.radius) / arr
        return float(out) if arr.ndim == 0 else out

    def tail_shift_deriv(self, x):
        """Derivative of the tail shift; bounded by radius on |x| >= 2*radius."""
        arr = np.asarray(x, dtype=float)
        if np.any(arr == 0.0):
            raise DomainError("tail shift is undefined at 0")
        lm, tm = self._tilted_stats(arr)
        lm = lm.reshape(arr.shape)
        tm = tm.reshape(arr.shape)
        out = tm / arr - lm / (arr * arr) - self.radius / (arr * arr)
        return float(out) if arr.ndim == 0 else out
