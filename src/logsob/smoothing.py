"""Gaussian smoothing of a compactly supported measure.

For a base measure mu (support radius R once centered) and variance delta,
the smoothed measure mu * gamma_delta has density

    q(t) = integral of phi_delta(t - s) dmu(s),

which is smooth and strictly positive, so its CDF has a well-defined smooth
inverse.  This module evaluates q, the CDF and survival function, their
logs, and the inverse CDF.

The evaluators are log-domain only: the atoms' log density and log tails
are log-sum-exps of the Gaussian log density and ``log_ndtr``, finite far
below the smallest double, and the cells' closed-form sums are logged and
added in.  ``density``, ``cdf`` and ``sf`` are their exponentials.  One
kernel reads every tail, with log q from the same pass over the atoms and
the knots, and one Newton solve on it, ``SmoothedMeasure._solve_c``, gives
both the quantiles and the transport map of :mod:`logsob.transport`.

All evaluation happens in coordinates centered on the support midpoint and
is translated back at the interface; translations do not move LSI constants.
A piecewise-linear density part is held as its knots: a jump at each end
and a kink wherever the slope changes, so the density is
sum_j a_j H(g_j - x) + b_j (g_j - x)_+.  Each knot is read from its own side
of the point t, a knot above t in the mirrored form -a_j H(x - g_j) +
b_j (x - g_j)_+, so its term decays away from the knot; q and the tails are
the base density and its masses below and above t plus sums over the knots
of closed forms in one Phi and one phi value per (knot, point).  Past the
support, and in a gap between groups of cells, the base density is 0 and
every knot term decays, so none cancels another.  No evaluator integrates
numerically: the generic quadrature route,
:func:`logsob.measures.integrate`, is the tests' independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import wraps

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .errors import BracketFailure, DomainError, QuadratureFailure
from .measures import Measure1D, centered
from .quadrature import bracketed_newton

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _std_pdf(z):
    with np.errstate(over="ignore"):  # z*z is inf from |z| of about 1e154, and phi there 0
        return np.exp(-0.5 * z * z) / _SQRT_2PI


def _sum_terms(a):
    """Sum of (terms, points) over its terms in index order, the same bits for any number of
    points: numpy adds the rows of 2+ columns in turn, but sums one column pairwise."""
    return a.sum(axis=0) if a.shape[1] > 1 else np.cumsum(a, axis=0)[-1]


def _lse_atoms(a):
    """logsumexp over the leading (atom) axis, shift-stabilized (-inf columns give -inf)."""
    m = np.max(a, axis=0)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = safe + np.log(_sum_terms(np.exp(a - safe)))
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
    finite and positive.  No computation reads ``integ_tol``: no evaluator
    integrates numerically, so it is only validated and echoed into reports.
    A root solve stops within ``root_tol`` in the frame it runs in: quantiles
    in x; transport values, the Lipschitz window ends and T(0) in x/sigma,
    which is sigma * ``root_tol`` in x.
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


def _knots(density):
    """The knots (g, a, b) of a piecewise-linear density as columns, None if there are
    none, and its table, one row per cell and one for each side of the grid.

    The density is sum_j a_j H(g_j - x) + b_j (g_j - x)_+: jumps a_0 = -v_0 and a_N = v_N,
    kinks b_j = beta_j - beta_(j-1) with beta_(-1) = beta_N = 0; a knot with neither is
    left out.  A row holds the cell's left end, value there and slope, the mass below it
    (cells added in from the left), and its right end, value there and the mass above it
    (added in from the right); the outer rows have no density and all or none of it."""
    grid, vals = density.grid, density.values
    slope = np.diff(vals) / np.diff(grid)
    a = np.zeros(grid.size)
    a[0], a[-1] = -vals[0], vals[-1]
    b = np.diff(slope, prepend=0.0, append=0.0)
    keep = (a != 0.0) | (b != 0.0)
    cell = 0.5 * (vals[:-1] + vals[1:]) * np.diff(grid)
    below, above = (np.concatenate([[0.0], np.cumsum(c)]) for c in (cell, cell[::-1]))
    cols = (grid[:-1], vals[:-1], slope, below[:-1], grid[1:], vals[1:], above[-2::-1])
    ends = ((grid[0], grid[-1]), (0.0, 0.0), (0.0, 0.0), (0.0, below[-1]))
    ends += ((grid[0], grid[-1]), (0.0, 0.0), (above[-1], 0.0))
    table = np.stack([np.concatenate([[lo], c, [hi]]) for c, (lo, hi) in zip(cols, ends)], 1)
    knots = tuple(c[keep, None] for c in (grid, a, b)) if keep.any() else None
    return knots, (grid, table)


def _reject(x, bad, what):
    """Raise DomainError naming the first x where ``bad``, if any."""
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError("%s, got %r at index %d" % (what, float(x[i]), i), index=i)


#: Bytes of one ((knots + atoms) x points) temporary in a blocked evaluator,
#: whose ~25 elementwise passes then stay in cache.  1001 points of 256 cells,
#: 2-vCPU Xeon, median of 30 interleaved, at 32/64/128/256 KB: fused tail +
#: density 10.2/8.2/7.9/12.1 ms, density 7.2/6.6/6.0/9.2 ms.
_BLOCK_BYTES = 1 << 16


def _blocked(kernel):
    """Run a centered-frame evaluator over balanced blocks of about
    _BLOCK_BYTES per temporary, slicing per-point ``sf`` flags given by
    position.  Every sum over terms is :func:`_sum_terms`, in index order
    per point, so the results are bit for bit those of one call."""

    @wraps(kernel)
    def run(self, x, *args, **kwargs):
        n = x.size
        parts = -(-n // max(1, _BLOCK_BYTES // (8 * self._width)))
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
        self.radius = base.radius
        self.center = base.center
        self.centered_base = mu_c = centered(base)

        self._aloc = np.array([x for x, _ in mu_c.atoms], dtype=float)[:, None]
        self._alogw = np.log(np.array([w for _, w in mu_c.atoms], dtype=float))[:, None]
        self._knots, self._table = (None, None) if mu_c.density is None else _knots(mu_c.density)
        self._width = self._aloc.size + (0 if self._knots is None else self._knots[0].size)

        self.cutoff = self.radius + self.config.tail_mult * self.sigma

    # -- centered-frame evaluators -------------------------------------

    def _atom_u(self, t):
        with np.errstate(over="ignore"):  # u is +-inf near the largest doubles, its tail 0 or 1
            return (self._aloc - t) / self.sigma

    def _log_density_atoms(self, u):
        with np.errstate(over="ignore"):  # u*u is inf from |t| of about 1e154, and q there 0
            la = self._alogw - 0.5 * u * u - math.log(self.sigma) - _LOG_SQRT_2PI
        return _lse_atoms(la)

    def _knot_sums(self, t, sf=None):
        """The cells' one pass over (knots, points), at t clamped to R + 40 sigma.  A knot
        at or below t is read as written (s = 1), one above it mirrored to
        -a H(x - g) + b (x - g)_+ (s = -1), both at z = -|g - t|/sigma, so each term
        decays away from its knot.  Returns q = f(t) + sum s*a*Phi(z) + sigma*b*A1(z), or
        given ``sf`` (a flag, or one per point) (tail, q): the cells' mass above t where sf,
        (M - F(t)) + C, and below it elsewhere, F(t) - C, with
        C = sigma * sum a*A1(z) + s*sigma*b*A2(z) - delta f'(t)/2; A1 = z*Phi + phi
        and A2 = ((z^2 + 1)*Phi + z*phi)/2.  f, f', F and the mass M - F above t are
        the base's own, from the table row of t's cell.  Beyond the clamp every term
        is below the smallest subnormal, while z*z and A2 would overflow."""
        g, a, b = self._knots
        lim = self.radius + 40.0 * self.sigma
        t = np.clip(t, -lim, lim)
        u = (g - t) / self.sigma
        up, z = u > 0.0, -np.abs(u)
        cdf, pdf = ndtr(z), _std_pdf(z)
        sb = self.sigma * b
        a1 = z * cdf + pdf
        grid, table = self._table
        g0, v0, slope, below, g1, v1, above = table[np.searchsorted(grid, t, side="right")].T
        f = v0 + slope * (t - g0)
        q = np.maximum(f + _sum_terms(np.where(up, -a, a) * cdf + sb * a1), 0.0)
        if sf is None:
            return q
        a2 = 0.5 * ((z * z + 1.0) * cdf + z * pdf)
        c = self.sigma * _sum_terms(a * a1 + np.where(up, -sb, sb) * a2) - 0.5 * self.delta * slope
        below = below + 0.5 * (t - g0) * (v0 + f)
        above = above + 0.5 * (g1 - t) * (f + v1)
        return np.maximum(np.where(sf, above + c, below - c), 0.0), q

    @_blocked
    def _log_density_c(self, t):
        out = np.full(t.shape, -np.inf)
        if self._aloc.size:
            out = self._log_density_atoms(self._atom_u(t))
        if self._knots is not None:
            out = np.logaddexp(out, _log_density(self._knot_sums(t)))
        return out

    @_blocked
    def _log_tail_density_c(self, y, sf):
        """(log tail, log q) at y from one pass over the atoms and the knots: the mass
        above y where ``sf`` (a flag, or one per point), below it elsewhere, and
        _log_density_c bit for bit.  Every tail of this module is read here."""
        tail = dens = np.full(y.shape, -np.inf)
        if self._aloc.size:
            u = self._atom_u(y)
            tail = _lse_atoms(self._alogw + log_ndtr(np.where(sf, u, -u)))
            dens = self._log_density_atoms(u)
        if self._knots is not None:
            cell_tail, cell_dens = self._knot_sums(y, sf)
            tail = np.logaddexp(tail, _log_tail(cell_tail))
            dens = np.logaddexp(dens, _log_density(cell_dens))
        return np.minimum(tail, 0.0), dens

    def _solve_c(self, x, log_target, upper, start=None):
        """Centered-frame y with log sf(y) = ``log_target`` where ``upper``, else
        log cdf(y) = ``log_target``, by safeguarded Newton to ``root_tol`` in y.

        x is sigma * Phi^-1 of the target mass, within R of the root by the
        transport envelope, which brackets each point as x -+ (R + pad).  The
        residual log tail(y) - log_target, negated on the sf side to increase
        in y, has slope q / tail and converges in a few steps far in the tails.
        A cell tail below the normal doubles makes it -inf, and the solve a
        BracketFailure; errors carry the ``index`` of the first failed point.
        """
        reach = self.radius + 1e-9 * self.sigma + 1e-12 * np.abs(x)

        def g_slope(y, k):
            log_tail, log_dens = self._log_tail_density_c(y, upper[k])
            with np.errstate(invalid="ignore", over="ignore"):
                d = log_tail - log_target[k]
                return np.where(upper[k], -d, d), np.exp(log_dens - log_tail)

        tol = self.config.root_tol
        return bracketed_newton(g_slope, x - reach, x + reach, root_tol=tol, start=start)

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
        return self._wrap(lambda v: np.exp(self._log_tail_density_c(v, False)[0]), x, (0.0, 1.0))

    def sf(self, x):
        """Survival function 1 - cdf, computed directly for tail accuracy."""
        return self._wrap(lambda v: np.exp(self._log_tail_density_c(v, True)[0]), x, (1.0, 0.0))

    def log_cdf(self, x):
        return self._wrap(lambda v: self._log_tail_density_c(v, False)[0], x, (-np.inf, 0.0))

    def log_sf(self, x):
        return self._wrap(lambda v: self._log_tail_density_c(v, True)[0], x, (0.0, -np.inf))

    def window(self):
        """Interval outside which the smoothed mass is below cdf_tol."""
        return (self.center - self.cutoff, self.center + self.cutoff)

    def inv_cdf(self, u):
        """Quantile: x with cdf(x) = u, root_tol-accurate in x.

        The quantile is the transport image T(sigma * Phi^-1(u)), and
        :meth:`_solve_c`, which also gives T, finds it from there on the log
        of the nearer tail, log(1 - u) or log u.  Atoms
        alone reach every u down to the smallest subnormal; raises
        BracketFailure, naming the first such u, when the quantile needs a
        cell tail below the normal doubles.
        """
        arr = np.asarray(u, dtype=float)
        flat = np.atleast_1d(arr).ravel()
        inside = (flat > 0.0) & (flat < 1.0)
        _reject(flat, ~inside, "quantile argument must lie strictly inside (0, 1)")
        upper = flat > 0.5
        log_target = np.log(np.where(upper, 1.0 - flat, flat))
        try:
            y = self._solve_c(self.sigma * ndtri(flat), log_target, upper)
        except (BracketFailure, QuadratureFailure) as exc:
            exc.args = ("%s; first at u = %r" % (exc, float(flat[exc.index])),)
            raise
        y = y + self.center
        if arr.ndim == 0:
            return float(y[0])
        return y.reshape(arr.shape)
