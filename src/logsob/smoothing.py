"""Gaussian smoothing of a compactly supported measure.

For a base measure mu (support radius R once centered) and variance delta,
the smoothed measure mu * gamma_delta has density

    q(t) = integral of phi_delta(t - s) dmu(s),

which is smooth and strictly positive, so its CDF has a well-defined smooth
inverse.  This module evaluates q, the CDF and survival function, their
logs, the inverse CDF, and the tilted-moment objects (the mgf of mu and the
induced tail shift) that control how far q's tail sits from the source
Gaussian's.

The evaluators are log-domain only: the atoms' log density and log tails
are log-sum-exps of the Gaussian log density and ``log_ndtr``, finite far
below the smallest double, and the cells' closed-form sums are logged and
added in.  ``density``, ``cdf`` and ``sf`` are their exponentials.

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
from functools import wraps

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .errors import BracketFailure, DomainError, QuadratureFailure
from .measures import Measure1D, centered, integrate
from .quadrature import bracketed_newton

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _std_pdf(z):
    with np.errstate(over="ignore"):  # z*z is inf from |z| of about 1e154, and phi there 0
        return np.exp(-0.5 * z * z) / _SQRT_2PI


def _lse_atoms(a):
    """logsumexp over the leading (atom) axis, shift-stabilized (-inf columns give -inf).

    Sums one row per atom in turn, the order of numpy's row sum below 8 terms.
    """
    m = np.max(a, axis=0)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = safe + np.log(np.sum(np.exp(a - safe), axis=0))
    return np.where(np.isfinite(m), out, m)


def _check_delta(delta) -> float:
    delta = float(delta)
    if not 0.0 < delta < math.inf:
        raise DomainError("variance delta must be finite and positive, got %r" % delta)
    return delta


def _check_radius(radius) -> float:
    radius = float(radius)
    if not 0.0 <= radius < math.inf:
        raise DomainError("radius must be finite and nonnegative, got %r" % radius)
    return radius


def log_gaussian_density(t, delta=1.0):
    """log density of the centered Gaussian with variance delta."""
    delta = _check_delta(delta)
    t = np.asarray(t, dtype=float)
    return -t * t / (2.0 * delta) - 0.5 * math.log(delta) - _LOG_SQRT_2PI


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and truncation for all smoothed-measure evaluations.

    Integrals over the whole line are truncated to the support hull padded by
    ``tail_mult`` standard deviations; the neglected Gaussian mass is below
    ndtr(-tail_mult), which must stay under ``cdf_tol``.  Every field must be
    finite and positive.
    """

    tail_mult: float = 12.0
    integ_tol: float = 1e-10
    cdf_tol: float = 1e-9
    root_tol: float = 1e-10

    def __post_init__(self):
        for name in ("tail_mult", "integ_tol", "cdf_tol", "root_tol"):
            if not 0.0 < float(getattr(self, name)) < math.inf:
                raise DomainError("%s must be finite and positive" % name)
        if ndtr(-float(self.tail_mult)) > float(self.cdf_tol):
            raise DomainError("tail_mult too small for the requested cdf_tol")


def _edge_antiderivatives(z, cdf, pdf):
    """Antiderivatives of Phi and z*Phi at z, given Phi(z) and phi(z).

    The piecewise-linear convolution takes their differences across each
    cell; neighbouring cells share an edge, so each edge is evaluated once.
    """
    return z * cdf + pdf, 0.5 * ((z * z - 1.0) * cdf + z * pdf)


def _cdf_gap(u, w):
    """Phi(u1) - Phi(u0) per cell via whichever tail avoids cancellation, from
    the smaller tail w = Phi(-|u|) at each edge.  Edges before the first cell
    right of t (u0 + u1 > 0), k, have u <= 0 and edges after k u > 0, so w
    serves every cell but one at edge k, which takes its larger tail Phi(|u_k|)."""
    k = np.count_nonzero(u[:, :-1] + u[:, 1:] <= 0.0, axis=1)
    rows = np.arange(u.shape[0])
    uk = u[rows, k]
    near = uk <= 0.0  # w_k is Phi(u_k), so cell k needs Phi(-u_k); else cell k - 1 Phi(u_k)
    c = k - 1 + near
    i = rows[(c >= 0) & (c < u.shape[1] - 1)]
    gap = np.abs(w[:, :-1] - w[:, 1:])  # w0 - w1 right of t, -(w1 - w0) left, bitwise
    gap[i, c[i]] = ndtr(np.abs(uk[i])) - w[i, c[i] + near[i]]
    return gap


def _reject(x, bad, what):
    """Raise DomainError naming the first x where ``bad``, if any."""
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError("%s, got %r at index %d" % (what, float(x[i]), i), index=i)


def _side(sf):
    """Column of +1 where ``sf`` (a flag, or one per point), -1 elsewhere."""
    return np.where(np.reshape(sf, (-1, 1)), 1.0, -1.0)


#: Bytes of one (points x (edges + atoms)) temporary in a blocked evaluator,
#: whose ~40 elementwise passes then stay in cache.  1001 points of 256 cells,
#: 2-vCPU Xeon, median of 30 interleaved, at 32/64/128/256 KB: fused tail +
#: density 21.6/18.1/27.6/28.5 ms, density 14.8/12.5/17.4/18.6 ms; mixture-dense
#: wall_s median 0.925 s at 64 KB against 1.082 s at 128 KB (4 of 4 pairs).
_BLOCK_BYTES = 1 << 16


def _blocked(kernel):
    """Run a centered-frame evaluator over balanced blocks of about
    _BLOCK_BYTES per temporary, slicing per-point ``sf`` flags given by
    position.  No multi-point call makes a 1-point block, whose atom
    log-sum-exp numpy would sum pairwise; every other reduction is per
    point, so the results are bit for bit those of one call."""

    @wraps(kernel)
    def run(self, x, *args, **kwargs):
        n = x.size
        parts = min(-(-n // max(2, _BLOCK_BYTES // (8 * self._width))), max(1, n // 2))
        if parts <= 1:
            return kernel(self, x, *args, **kwargs)
        cuts = np.arange(parts + 1) * n // parts
        outs = [
            kernel(self, x[i:j], *[v[i:j] if np.ndim(v) else v for v in args], **kwargs)
            for i, j in zip(cuts[:-1], cuts[1:])
        ]
        if isinstance(outs[0], tuple):
            return tuple(np.concatenate(col) for col in zip(*outs))
        return np.concatenate(outs)

    return run


def _log_density(v):
    """log of a density value; -inf at 0."""
    with np.errstate(divide="ignore"):
        return np.log(v)


def _log_tail(v):
    """log of a tail mass; -inf below the normal doubles, where its precision is gone."""
    return _log_density(np.where(v < np.finfo(float).tiny, 0.0, v))


class SmoothedMeasure:
    """A compactly supported measure convolved with a centered Gaussian.

    Every evaluator is pure and an instance holds no cache, so instances
    are safe to share across threads.  Evaluators accept scalars or arrays
    in the base measure's original coordinates, and run over cache-sized
    blocks of points with the bits of one pass over all of them.
    """

    def __init__(self, base: Measure1D, delta=1.0, config: QuadratureConfig | None = None):
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
        self._width = self._aloc.size + (0 if self._cells is None else self._cells[0].size)

        self.cutoff = self.radius + self.config.tail_mult * self.sigma

    # -- centered-frame evaluators -------------------------------------

    def _log_density_atoms(self, t):
        if not self._aloc.size:
            return np.full(t.shape, -np.inf)
        with np.errstate(over="ignore"):  # z*z is inf from |t| of about 1e154, and q there 0
            z = (t - self._aloc[:, None]) / self.sigma
            la = np.log(self._awt)[:, None] - 0.5 * z * z - math.log(self.sigma) - _LOG_SQRT_2PI
        return _lse_atoms(la)

    def _log_tail_atoms(self, x, sf):
        if not self._aloc.size:
            return np.full(x.shape, -np.inf)
        with np.errstate(over="ignore"):  # z is +-inf near the largest doubles, its tail 0 or 1
            z = (x - self._aloc[:, None]) / self.sigma
        return _lse_atoms(np.log(self._awt)[:, None] + log_ndtr(np.where(sf, -1.0, 1.0) * z))

    def _edge_u(self, t):
        # u = (edge - t)/sigma (q reads u, cdf z = -u, sf z = u) and lin = alpha + beta*t,
        # t clamped to R + 40 sigma: beyond it every cell tail and phi is below the
        # smallest subnormal, while z*z, beta*t and the antiderivatives overflow
        grid, alpha, beta = self._cells
        lim = self.radius + 40.0 * self.sigma
        t = np.clip(t, -lim, lim)
        return (grid - t[:, None]) / self.sigma, alpha + beta * t[:, None]

    def _density_edges(self, lin, cdf_gap, pdf):
        terms = lin * cdf_gap + self._cells[2] * self.sigma * (pdf[:, :-1] - pdf[:, 1:])
        return np.maximum(terms.sum(axis=1), 0.0)

    def _tail_edges(self, lin, a, b, s):
        """Cell mass above x (s = 1) or below it (s = -1), from lin and Phi's antiderivatives."""
        lin = lin * s  # -lin * (a1 - a0) == lin * (a0 - a1) bitwise
        terms = lin * (a[:, 1:] - a[:, :-1]) + self._cells[2] * self.sigma * (b[:, 1:] - b[:, :-1])
        return self.sigma * np.maximum(terms, 0.0).sum(axis=1)

    def _density_cells(self, t):
        u, lin = self._edge_u(t)
        return self._density_edges(lin, _cdf_gap(u, ndtr(-np.abs(u))), _std_pdf(u))

    def _tail_cells(self, x, s):
        u, lin = self._edge_u(x)
        z = s * u
        a, b = _edge_antiderivatives(z, ndtr(z), _std_pdf(z))
        return self._tail_edges(lin, a, b, s)

    def _tail_density_cells(self, y, s):
        """(_tail_cells, _density_cells) at y, bit for bit, from one pass over the cell edges.

        The tail reads Phi(z) at z = s*u, which is the smaller tail w of the
        gaps where z <= 0, so only edges beyond y on the tail's side add one."""
        u, lin = self._edge_u(y)
        w = ndtr(-np.abs(u))
        gap = _cdf_gap(u, w)
        u *= s  # z = s*u, and phi(z) == phi(u) bitwise
        pdf = _std_pdf(u)
        dens = self._density_edges(lin, gap, pdf)
        up = u > 0.0
        w[up] = ndtr(u[up])
        a, b = _edge_antiderivatives(u, w, pdf)
        return self._tail_edges(lin, a, b, s), dens

    @_blocked
    def _log_density_c(self, t):
        out = self._log_density_atoms(t)
        if self._cells is not None:
            out = np.logaddexp(out, _log_density(self._density_cells(t)))
        return out

    @_blocked
    def _log_tail_c(self, x, sf):
        """log of the mass above x where ``sf`` (a flag, or one per point), below it elsewhere."""
        out = self._log_tail_atoms(x, sf)
        if self._cells is not None:
            out = np.logaddexp(out, _log_tail(self._tail_cells(x, _side(sf))))
        return np.minimum(out, 0.0)

    @_blocked
    def _log_tail_density_c(self, y, sf):
        """(_log_tail_c, _log_density_c) at y, bit for bit, from one pass over the cell edges."""
        tail, dens = self._log_tail_atoms(y, sf), self._log_density_atoms(y)
        if self._cells is not None:
            cell_tail, cell_dens = self._tail_density_cells(y, _side(sf))
            tail = np.logaddexp(tail, _log_tail(cell_tail))
            dens = np.logaddexp(dens, _log_density(cell_dens))
        return np.minimum(tail, 0.0), dens

    def _tail_residuals(self, log_target, upper):
        """``(g, g_slope)`` for :func:`bracketed_newton` in log-tail form.

        Point k solves log sf(y) = log_target[k] where ``upper[k]``, else
        log cdf(y) = log_target[k], as log tail(y) - log_target[k], negated
        on the sf side so both increase in y; the slope is q / tail.  Far in
        the tails Newton converges in a few steps where the linear residual
        crawls.  A cell tail below the normal doubles makes the residual
        -inf, and the solve a BracketFailure.
        """

        def residual(log_tail, k):
            with np.errstate(invalid="ignore"):
                d = log_tail - log_target[k]
            return np.where(upper[k], -d, d)

        def g(y, k):
            return residual(self._log_tail_c(y, upper[k]), k)

        def g_slope(y, k):
            log_tail, log_dens = self._log_tail_density_c(y, upper[k])
            with np.errstate(invalid="ignore", over="ignore"):
                return residual(log_tail, k), np.exp(log_dens - log_tail)

        return g, g_slope

    # -- public interface (original coordinates) -----------------------

    def _wrap(self, fn, x, limits):
        """fn in the centered frame, or ``limits`` (at -inf, at +inf) where x is infinite."""
        arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(arr).ravel() - self.center
        finite = np.isfinite(flat)
        if finite.all():
            out = fn(flat)
        else:
            _reject(flat, np.isnan(flat), "abscissa must not be NaN")
            out = np.where(flat > 0.0, limits[1], limits[0])
            out[finite] = fn(flat[finite])
        if arr.ndim == 0:
            return float(out[0])
        return out.reshape(arr.shape)

    def density(self, t):
        """Smoothed density q(t) = exp(log_density(t))."""
        return self._wrap(lambda v: np.exp(self._log_density_c(v)), t, (0.0, 0.0))

    def log_density(self, t):
        return self._wrap(self._log_density_c, t, (-np.inf, -np.inf))

    def cdf(self, x):
        return self._wrap(lambda v: np.exp(self._log_tail_c(v, False)), x, (0.0, 1.0))

    def sf(self, x):
        """Survival function 1 - cdf, computed directly for tail accuracy."""
        return self._wrap(lambda v: np.exp(self._log_tail_c(v, True)), x, (1.0, 0.0))

    def log_cdf(self, x):
        return self._wrap(lambda v: self._log_tail_c(v, False), x, (-np.inf, 0.0))

    def log_sf(self, x):
        return self._wrap(lambda v: self._log_tail_c(v, True), x, (0.0, -np.inf))

    def window(self):
        """Interval outside which the smoothed mass is below cdf_tol."""
        return (self.center - self.cutoff, self.center + self.cutoff)

    def inv_cdf(self, u):
        """Quantile: x with cdf(x) = u, root_tol-accurate in x.

        The quantile is the transport image T(sigma * Phi^-1(u)), and the
        transport envelope puts it within the support radius of
        sigma * Phi^-1(u): that interval, padded, brackets Newton on the log
        of the nearer tail, log(1 - u) or log u, from its midpoint.  Atoms
        alone reach every u down to the smallest subnormal; raises
        BracketFailure, naming the first such u, when the quantile needs a
        cell tail below the normal doubles.
        """
        arr = np.asarray(u, dtype=float)
        flat = np.atleast_1d(arr).ravel()
        inside = (flat > 0.0) & (flat < 1.0)
        _reject(flat, ~inside, "quantile argument must lie strictly inside (0, 1)")
        x = self.sigma * ndtri(flat)
        reach = self.radius + 1e-9 * self.sigma + 1e-12 * np.abs(x)
        upper = flat > 0.5
        g, g_slope = self._tail_residuals(np.log(np.where(upper, 1.0 - flat, flat)), upper)
        try:
            y = bracketed_newton(g, g_slope, x - reach, x + reach, root_tol=self.config.root_tol)
        except (BracketFailure, QuadratureFailure) as exc:
            exc.args = ("%s; first at u = %r" % (exc, float(flat[exc.index])),)
            raise
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
        _reject(xa, ~np.isfinite(xa), "mgf argument must be finite")
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
