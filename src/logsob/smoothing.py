"""Gaussian smoothing of a compactly supported measure.

For a base measure mu (support radius R once centered) and variance delta,
the smoothed measure mu * gamma_delta has density

    q(t) = integral of phi_delta(t - s) dmu(s),

which is smooth and strictly positive, so its CDF has a well-defined smooth
inverse.  This module evaluates q, the CDF and survival function, their
logs, and the inverse CDF.

All evaluation happens in coordinates centered on the support midpoint and
is translated back at the interface; translations do not move LSI constants.
A piecewise-linear density part is held as its knots, a jump at each end and
a kink wherever the slope changes: sum_j a_j H(g_j - x) + b_j (g_j - x)_+.
One log-domain kernel gives log q and every log tail from one pass over the
atoms and the knots, each read from its own side of the point, so that its
term decays away from it, in units of phi at the nearest of them: no part
underflows while z*z is finite.  ``density``, ``cdf`` and ``sf`` are its
exponentials, and one Newton solve on it, ``SmoothedMeasure._solve_c``, gives
both the quantiles and the transport map of :mod:`logsob.transport`.  No
evaluator integrates numerically: the generic quadrature route,
:func:`logsob.measures.integrate`, is the tests' independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import wraps

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr, ndtri

from .errors import BracketFailure, DomainError, QuadratureFailure
from .measures import Measure1D, centered
from .quadrature import bracketed_newton

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _sum_terms(a):
    """Sum of (terms, points) over its terms in index order, the same bits for any number of
    points: numpy adds the rows of 2+ columns in turn, but sums one column pairwise."""
    return a.sum(axis=0) if a.shape[1] > 1 else np.cumsum(a, axis=0)[-1]


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
    """The knots (g, a, b) of a piecewise-linear density: the density is
    sum_j a_j H(g_j - x) + b_j (g_j - x)_+, with jumps a_0 = -v_0 and a_N = v_N and kinks
    b_j = beta_j - beta_(j-1), beta_(-1) = beta_N = 0; a knot with neither is left out."""
    grid, vals = density.grid, density.values
    a = np.zeros(grid.size)
    a[0], a[-1] = -vals[0], vals[-1]
    b = np.diff(np.diff(vals) / np.diff(grid), prepend=0.0, append=0.0)
    keep = (a != 0.0) | (b != 0.0)
    return grid[keep], a[keep], b[keep]


def _base_table(atoms, density):
    """The breakpoints (atoms and grid nodes) and the table of the base measure, one row per
    interval between them and one for each side: the interval's left end, the density there,
    its slope and the mass at or below the left end (added in from the left), then its right
    end, the density there and the mass at or above it (added in from the right)."""
    loc, w = atoms.T
    pts = np.unique(np.concatenate([loc, [] if density is None else density.grid]))
    at = np.zeros(pts.size)
    np.add.at(at, np.searchsorted(pts, loc), w)
    f0 = f1 = np.zeros(pts.size - 1)
    if density is not None:
        grid, vals = density.grid, density.values
        inside = (pts[:-1] >= grid[0]) & (pts[1:] <= grid[-1])
        f0, f1 = (np.where(inside, np.interp(p, grid, vals), 0.0) for p in (pts[:-1], pts[1:]))
    seq = np.zeros(2 * pts.size - 1)  # each breakpoint's atoms, then the next interval's mass
    seq[0::2], seq[1::2] = at, 0.5 * (f0 + f1) * np.diff(pts)
    below, above = np.cumsum(seq)[0::2], np.cumsum(seq[::-1])[::-1][0::2]
    cols = (pts[:-1], f0, (f1 - f0) / np.diff(pts), below[:-1], pts[1:], f1, above[1:])
    ends = ((pts[0], pts[-1]), (0.0, 0.0), (0.0, 0.0), (0.0, below[-1]))
    ends += ((pts[0], pts[-1]), (0.0, 0.0), (above[0], 0.0))
    return pts, np.stack([np.concatenate([[lo], c, [hi]]) for c, (lo, hi) in zip(cols, ends)], 1)


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
    def run(self, x, *args):
        n = x.size
        parts = -(-n // max(1, _BLOCK_BYTES // (8 * self._gs.size)))
        if parts <= 1:
            return kernel(self, x, *args)
        cuts = np.arange(parts + 1) * n // parts
        cut = lambda v, i, j: v[i:j] if np.ndim(v) else v
        outs = [kernel(self, x[i:j], *[cut(v, i, j) for v in args]) for i, j in zip(cuts, cuts[1:])]
        if isinstance(outs[0], tuple):
            return tuple(np.concatenate(col) for col in zip(*outs))
        return np.concatenate(outs)

    return run


def _mills(z):
    """The Mills ratio M = Phi(z)/phi(z) at z <= 0, finite and positive for every finite z."""
    return math.sqrt(0.5 * math.pi) * erfcx(z * -math.sqrt(0.5))


#: Past |z| = _FAR, z M + 1 and z J1 + M have cancelled to relative errors of eps z^2 and
#: eps z^4 (6e-11 at 30, 1.75 at 1e4), and J1/y and J2 |z|/(2y), y = 1/z^2, are the sums of
#: (-1)^k (2k+1)!! y^k and (-1)^k (k+1) (2k+1)!! y^k, their series, below 5e-15 off there.
_FAR = 30.0
_J1_SERIES = (135135.0, -10395.0, 945.0, -105.0, 15.0, -3.0, 1.0)
_J2_SERIES = (-16216200.0, 945945.0, -62370.0, 4725.0, -420.0, 45.0, -6.0, 1.0)


def _antiderivatives(z, m, second):
    """J1 = A1/phi = z M + 1 and, if ``second``, J2 = 2 A2/phi = z J1 + M at z <= 0, the
    antiderivatives A1 = z Phi + phi of Phi and A2 = ((z^2 + 1) Phi + z phi)/2 of A1."""
    j1 = z * m + 1.0
    j2 = z * j1 + m if second else None
    far = z < -_FAR
    if far.any():
        y = z[far] ** -2.0
        j1[far] = y * np.polyval(_J1_SERIES, y)
        if second:
            j2[far] = -2.0 * y / z[far] * np.polyval(_J2_SERIES, y)
    return j1, j2


class SmoothedMeasure:
    """A compactly supported measure convolved with a centered Gaussian.

    Every evaluator is pure and an instance holds no cache, so instances
    are safe to share across threads.  Evaluators accept scalars or arrays
    in the base measure's original coordinates, and run over cache-sized
    blocks of points with the bits of one pass over all of them.
    """

    def __init__(self, base: Measure1D, delta=1.0, config: QuadratureConfig | None = None):
        self.delta = _check_delta(delta)
        self.sigma = sigma = math.sqrt(self.delta)
        self.config = config or QuadratureConfig()
        self.radius = base.radius
        self.center = base.center
        self.centered_base = mu_c = centered(base)

        # rows, atoms then knots: g and g/sigma, then w/sigma and w of an atom and a, sigma b,
        # sigma^2 b/2 and sigma a of a knot, each 0 on the other kind's rows, None with no rows
        atoms = np.array(mu_c.atoms, dtype=float).reshape(-1, 2)
        g, a, b = np.empty((3, 0)) if mu_c.density is None else _knots(mu_c.density)
        pad = np.zeros(g.size), np.zeros(len(atoms))
        rows = lambda at, kn: np.concatenate([at, kn])[:, None]
        self._g = rows(atoms[:, 0], g)
        self._gs = self._g / sigma
        self._atoms = (rows(atoms[:, 1] / sigma, pad[0]), rows(atoms[:, 1], pad[0])) if atoms.size else None
        knots = (a, sigma * b, 0.5 * self.delta * b, sigma * a)
        self._knots = tuple(rows(pad[1], v) for v in knots) if g.size else None
        self._breaks, self._table = _base_table(atoms, mu_c.density)
        # past it z*z overflows, so every scale below is 0, and t/sigma stays finite
        self._reach = self.radius + 1e155 * sigma

        self.cutoff = self.radius + self.config.tail_mult * sigma

    # -- centered-frame evaluators -------------------------------------

    @np.errstate(over="ignore", divide="ignore")  # z*z is inf past 1e154, and log 0 is -inf
    def _kernel(self, t, sf=None):
        """log q at t from one pass over (rows, points) and, given ``sf`` (a flag, or one per
        point), (log tail, log q): the tail the mass above t where sf, below it elsewhere.

        A row at g is read from t's side at z = -|g - t|/sigma, s = -1 if g > t (a knot there
        as -a H(x - g) + b (x - g)_+), else 1.  An atom adds w phi/sigma to q and s w Phi to
        C, a knot s a Phi + sigma b A1 to q and sigma a A1 + s sigma^2 b A2 to C; q is f(t)
        plus these, a tail the base mass on its side (the table row's, atoms included)
        -+ delta f'(t)/2 +- C.  Terms are in units of phi(z*) at the nearest row,
        e = phi(z)/phi(z*) <= 1; where f, or a tail's base part, is 0, the log of their sum
        is added to log phi(z*), or over M(z*) to log_ndtr(z*): one atom's log tail is
        log_ndtr(z) bit for bit."""
        t = np.minimum(np.maximum(t, -self._reach), self._reach)
        z = -np.abs(self._gs - t / self.sigma)
        if sf is None:
            zn = z.max(axis=0)
        else:
            near, cols = z.argmax(axis=0), np.arange(t.size)
            zn = z[near, cols]
        e = np.exp(0.5 * (zn - z) * (zn + z))
        if self._knots is None:
            q, w = self._atoms
            m = None if sf is None else _mills(z)
            c = None if sf is None else np.where(self._g > t, -w, w) * m
        else:
            (a, sb, sb2, sa), up = self._knots, self._g > t
            m = _mills(z)
            j1, j2 = _antiderivatives(z, m, sf is not None)
            q, c = np.where(up, -a, a) * m + sb * j1, None if sf is None else sb2 * j2
            if self._atoms is not None:  # the atoms' w/sigma and w M, 0 on the knots' rows
                q, c = q + self._atoms[0], None if sf is None else self._atoms[1] * m + c
            c = None if sf is None else np.where(up, -c, c) + sa * j1
        q = _sum_terms(q * e)
        log_phi = -0.5 * zn * zn - _LOG_SQRT_2PI
        if self._knots is None and sf is None:
            return np.log(q) + log_phi
        row = np.searchsorted(self._breaks, t, side="right")
        p0, f0, slope, below, p1, f1, above = self._table[row].T
        f = f0 + slope * (t - p0)
        inner = f != 0.0
        q = np.where(inner, f + np.exp(log_phi) * q, q)
        log_q = np.log(np.maximum(q, 0.0)) + np.where(inner, 0.0, log_phi)
        if sf is None:
            return log_q
        c = _sum_terms(c * e) / m[near, cols]
        half, c = 0.5 * self.delta * slope, np.where(sf, c, -c)
        above, below = above + 0.5 * (p1 - t) * (f + f1), below + 0.5 * (t - p0) * (f0 + f)
        base = np.where(sf, above - half, below + half)
        log_cdf, outer = log_ndtr(zn), base == 0.0
        tail = np.where(outer, c, base + np.exp(log_cdf) * c)
        log_tail = np.log(np.maximum(tail, 0.0)) + np.where(outer, log_cdf, 0.0)
        return np.minimum(log_tail, 0.0), log_q

    _log_density_c = _blocked(_kernel)
    _log_tail_density_c = _blocked(_kernel)

    def _solve_c(self, x, log_target, upper, start=None):
        """Centered-frame y with log sf(y) = ``log_target`` where ``upper``, else
        log cdf(y) = ``log_target``, by safeguarded Newton to ``root_tol`` in y.

        x is sigma * Phi^-1 of the target mass, within R of the root by the
        transport envelope, which brackets each point as x -+ (R + pad).  The
        residual log tail(y) - log_target, negated on the sf side to increase
        in y, has slope q / tail and converges in a few steps far in the tails,
        where every log tail is finite.  Errors carry the ``index`` of the
        first failed point.
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
        of the nearer tail, log(1 - u) or log u, for every u down to the
        smallest subnormal; a failed solve names its first u.
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
