"""Closed-form log-Sobolev constant bounds and the two-sided Hardy estimate.

Everything returns log-domain values (:class:`logsob.logdomain.LogValue`)
because the interesting regime, small variance relative to the squared
support radius, overflows doubles almost immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp as _logsumexp

from .errors import DomainError, SupremumNotLocalized
from .logdomain import LogValue, _as_log
from .measures import Measure1D
from .quadrature import golden_section_max
from .smoothing import QuadratureConfig, SmoothedMeasure, _check_delta, _check_radius
from .transport import LipschitzEstimate, TransportMap, lipschitz_theoretical_bound

# constants of the two-term criterion-route bound
HARDY_COEFF_EXP = 6905.0
HARDY_COEFF_QUAD = 4989.0
HARDY_COEFF_SMALL_DELTA = 7803.0
# constant of the multidimensional formula
MULTIDIM_COEFF = 289.0
# two-sided Hardy-criterion factors
BG_LOWER_DIVISOR = 150.0
BG_UPPER_FACTOR = 468.0
# the unit-variance Gaussian satisfies the inequality with constant 2
GAUSSIAN_LSI_FACTOR = 2.0


def gaussian_lsi_constant(delta) -> float:
    """Optimal constant for the centered Gaussian of variance delta."""
    return GAUSSIAN_LSI_FACTOR * _check_delta(delta)


def bound_hardy(radius, delta):
    """Two-term upper bound via the Hardy-type criterion route.

    Returns (general, small_delta) where the merged small-delta form is only
    available when delta <= radius**2 (None otherwise).  Accepts radius 0 as
    the continuous limit, where the exponential term vanishes.
    """
    r, delta = _check_radius(radius), _check_delta(delta)
    if r > 0.0:
        t_exp = (
            math.log(HARDY_COEFF_EXP)
            + 1.5 * math.log(delta)
            + math.log(r)
            - math.log(4.0 * r * r + delta)
            + 2.0 * r * r / delta
        )
    else:
        t_exp = -math.inf
    t_quad = math.log(HARDY_COEFF_QUAD) + 2.0 * math.log(math.sqrt(delta) + 2.0 * r)
    general = LogValue(np.logaddexp(t_exp, t_quad))
    small = None
    if r > 0.0 and delta <= r * r:
        small = LogValue(
            math.log(HARDY_COEFF_SMALL_DELTA)
            + 1.5 * math.log(delta)
            - math.log(r)
            + 2.0 * r * r / delta
        )
    return general, small


def bound_multidim(radius, delta, n_dim) -> LogValue:
    """Formula evaluator for the n-dimensional bound; requires delta <= radius**2."""
    r, delta = _check_radius(radius), _check_delta(delta)
    if not (float(n_dim).is_integer() and n_dim >= 1):
        raise DomainError("dimension must be a positive integer, got %r" % (n_dim,))
    n = int(n_dim)
    if not delta <= r * r:
        raise DomainError("multidimensional bound needs 0 < delta <= radius**2")
    return LogValue(
        math.log(MULTIDIM_COEFF) + 2.0 * math.log(r) + 20.0 * n + 5.0 * r * r / delta
    )


@dataclass(frozen=True)
class TransportRouteBound:
    """max of the two transport-route branches, with branch bookkeeping."""

    log: float
    log_moderate: float
    log_exponential: float
    branch: str
    simplified_valid: bool

    @property
    def value(self):
        return LogValue(self.log).value

    def as_logvalue(self) -> LogValue:
        return LogValue(self.log)

    def to_dict(self) -> dict:
        return {
            "log_value": self.log,
            "value": self.value,
            "branch": self.branch,
            "simplified_valid": self.simplified_valid,
        }


def bound_transport(radius, delta) -> TransportRouteBound:
    """Upper bound via the Lipschitz transport route.

    max(2*delta*exp(4R^2/d + 4R/sqrt(d) + 1/4), 2*delta*exp(24 R^2/d));
    whenever delta <= 16 R^2 the max is exactly the second (exponential)
    branch.
    """
    r, delta = _check_radius(radius), _check_delta(delta)
    base = math.log(2.0 * delta)
    log_moderate = base + 4.0 * r * r / delta + 4.0 * r / math.sqrt(delta) + 0.25
    log_exponential = base + 24.0 * r * r / delta
    if log_exponential >= log_moderate:
        log, branch = log_exponential, "small_delta"
    else:
        log, branch = log_moderate, "large_delta"
    return TransportRouteBound(
        log=log,
        log_moderate=log_moderate,
        log_exponential=log_exponential,
        branch=branch,
        simplified_valid=delta <= 16.0 * r * r,
    )


def bound_pushforward(c_source, lipschitz_norm) -> LogValue:
    """Constant c * L^2 for the image of a c-measure under an L-Lipschitz map.

    c and L are floats or LogValues, L may also be a LipschitzEstimate."""
    lip = lipschitz_norm
    log_l = lip.log_value if isinstance(lip, LipschitzEstimate) else _as_log(lip)
    c_log = _as_log(c_source)
    if c_log == -math.inf or log_l == -math.inf:
        return LogValue(-math.inf)
    return LogValue(c_log + 2.0 * log_l)


def median(sm: SmoothedMeasure) -> float:
    """The (unique) point where the smoothed CDF crosses 1/2."""
    return float(sm.inv_cdf(0.5))


@dataclass(frozen=True)
class BobkovGoetzeEstimate:
    """Two-sided estimate from the Hardy-type criterion applied to q.

    lower = (d0 + d1) / 150 and upper = 468 * (d0 + d1) sandwich the optimal
    constant of the smoothed measure.
    """

    d0: LogValue
    d1: LogValue
    lower: LogValue
    upper: LogValue
    argmax_below: float
    argmax_above: float
    scan_points: int
    scan_halfwidth: float

    def to_dict(self) -> dict:
        return {
            "d0": self.d0.to_dict(),
            "d1": self.d1.to_dict(),
            "lower": self.lower.to_dict(),
            "upper": self.upper.to_dict(),
            "argmax_below": self.argmax_below,
            "argmax_above": self.argmax_above,
            "scan_points": self.scan_points,
            "scan_halfwidth": self.scan_halfwidth,
        }


def _log_inv_density_segment(sm: SmoothedMeasure, a: float, b: float) -> float:
    """log of the integral of 1/q over [a, b], 9-node composite Simpson."""
    if b <= a:
        return -math.inf
    nodes = np.linspace(a, b, 9)
    lv = -sm.log_density(nodes)
    h = (b - a) / 8.0
    w = h / 3.0 * np.array([1, 4, 2, 4, 2, 4, 2, 4, 1], dtype=float)
    m = float(lv.max())
    return m + math.log(float(np.dot(w, np.exp(lv - m))))


def _bg_side(sm, med, s, n, half):
    """(log sup, argmax) of tail * log(1/tail) * integral of 1/q from the median,
    below it for s = -1 (tail = cdf), above it for s = +1 (tail = sf).

    Scans n points outward to the window edge med + s*half, the last node,
    summing 3-node Simpson cells outward in log domain, and polishes the scan
    max by golden-section search, with a 9-node rule over its partial cell.
    """
    dist = np.linspace(0.0, half, n)
    xs = med + s * dist
    h = np.diff(dist)
    linv_nodes = -sm.log_density(xs)
    linv_mids = -sm.log_density(0.5 * (xs[:-1] + xs[1:]))
    with np.errstate(divide="ignore"):
        cell_log = _logsumexp(
            np.stack(
                [
                    np.log(h / 6.0) + linv_nodes[:-1],
                    np.log(4.0 * h / 6.0) + linv_mids,
                    np.log(h / 6.0) + linv_nodes[1:],
                ]
            ),
            axis=0,
        )
    # log of the integral of 1/q from the median to xs[j]
    log_int = np.concatenate([[-np.inf], np.logaddexp.accumulate(cell_log)])
    log_tail_at = sm.log_sf if s > 0 else sm.log_cdf
    log_tail = log_tail_at(xs)
    # log of tail * log(1/tail) * integral; 0*inf convention -> 0
    with np.errstate(invalid="ignore"):
        log_h = log_tail + np.log(-log_tail) + log_int
    log_h = np.where(np.isneginf(log_tail), -np.inf, log_h)
    i = int(np.argmax(log_h))
    if i == n - 1:
        raise SupremumNotLocalized(
            "criterion supremum sits on the scan boundary; widen the scan window"
        )
    best_log, best_x = float(log_h[i]), float(xs[i])

    def exact(x):
        # x lies in cell k, from xs[k] out to xs[k + 1], its outer node included
        k = int(np.searchsorted(dist, s * (x - med), side="left")) - 1
        k = min(max(k, 0), n - 2)
        lt = float(log_tail_at(x))
        if lt == -math.inf:
            return -math.inf
        seg = _log_inv_density_segment(sm, *sorted((float(xs[k]), x)))
        return lt + math.log(-lt) + float(np.logaddexp(log_int[k], seg))

    # log_h[0] is -inf (integral 0) and log_h[1] is not (tail near 1/2): 0 < i < n - 1
    lo, hi = xs[i - 1], xs[i + 1]
    xr, fr = golden_section_max(exact, lo, hi, xtol=1e-6 * abs(hi - lo))
    if fr > best_log:
        best_log, best_x = float(fr), float(xr)
    return LogValue(best_log), best_x


def bobkov_goetze(
    sm: SmoothedMeasure, scan_points: int = 1201, tail_mult: float = 10.0
) -> BobkovGoetzeEstimate:
    """Two-sided constant estimate for the smoothed measure.

    d0 and d1 are the sups of tail * log(1/tail) * integral(1/q) below and
    above the median, each from :func:`_bg_side` over the window of
    half-width R + tail_mult*sigma on its side.  Raises
    SupremumNotLocalized when a scan max lands on the window edge.
    """
    n = int(scan_points)
    if n < 8:
        raise DomainError("scan needs at least 8 points")
    tail_mult = float(tail_mult)
    if not 0.0 < tail_mult < math.inf:
        raise DomainError("tail_mult must be finite and positive, got %r" % tail_mult)
    med = median(sm)
    half = sm.radius + tail_mult * sm.sigma
    d0, x0 = _bg_side(sm, med, -1.0, n, half)
    d1, x1 = _bg_side(sm, med, 1.0, n, half)
    total = d0 + d1
    return BobkovGoetzeEstimate(
        d0=d0,
        d1=d1,
        lower=LogValue(total.log - math.log(BG_LOWER_DIVISOR)),
        upper=LogValue(total.log + math.log(BG_UPPER_FACTOR)),
        argmax_below=x0,
        argmax_above=x1,
        scan_points=n,
        scan_halfwidth=half,
    )


@dataclass(frozen=True)
class BoundReport:
    """Every bound this package can compute for one (measure, delta) pair."""

    radius: float
    center: float
    delta: float
    n_dim: int
    hardy: LogValue
    hardy_small_delta: LogValue | None
    multidim: LogValue | None
    transport_route: TransportRouteBound
    lipschitz: LipschitzEstimate
    pushforward: LogValue
    bg: BobkovGoetzeEstimate
    checks: dict
    quadrature: dict

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "center": self.center,
            "delta": self.delta,
            "n_dim": self.n_dim,
            "hardy_bound": self.hardy.to_dict(),
            "hardy_small_delta_bound": (
                None if self.hardy_small_delta is None else self.hardy_small_delta.to_dict()
            ),
            "multidim_bound": None if self.multidim is None else self.multidim.to_dict(),
            "transport_bound": self.transport_route.to_dict(),
            "lipschitz": {
                "log_value": self.lipschitz.log_value,
                "value": self.lipschitz.value,
                "argmax": self.lipschitz.argmax,
                "grid_points": self.lipschitz.grid_points,
                "window": list(self.lipschitz.window),
                "tail_log_bound": self.lipschitz.tail_log_bound,
            },
            "pushforward_bound": self.pushforward.to_dict(),
            "bg": self.bg.to_dict(),
            "checks": dict(self.checks),
            "quadrature": dict(self.quadrature),
        }


def compute_bound_report(
    measure: Measure1D,
    delta: float,
    n_dim: int = 1,
    config: QuadratureConfig | None = None,
    lipschitz_points: int = 4001,
    lipschitz_extent: float = 8.0,
    bg_points: int = 1201,
) -> BoundReport:
    """Assemble every bound for one (measure, delta) pair, with sanity checks."""
    sm = SmoothedMeasure(measure, delta, config)
    r = sm.radius
    lip = TransportMap(sm).lipschitz_estimate(lipschitz_points, lipschitz_extent)
    hardy, hardy_small = bound_hardy(r, delta)
    multi = None
    if r > 0.0 and delta <= r * r:
        multi = bound_multidim(r, delta, n_dim)
    troute = bound_transport(r, delta)
    push = bound_pushforward(gaussian_lsi_constant(delta), lip)
    bg = bobkov_goetze(sm, scan_points=bg_points)
    log_slack = 1e-6
    upper_logs = [troute.log, push.log, hardy.log, bg.upper.log]
    checks = {
        "lower_below_all_uppers": bg.lower.log <= min(upper_logs) + log_slack,
        "bg_ordered": bg.lower.log <= bg.upper.log + log_slack,
        "transport_simplified_identity": (not troute.simplified_valid)
        or (troute.log == troute.log_exponential),
        "lipschitz_below_theoretical": lip.log_value
        <= lipschitz_theoretical_bound(r / sm.sigma).log + log_slack,
    }
    return BoundReport(
        radius=r,
        center=sm.center,
        delta=sm.delta,
        n_dim=int(n_dim),
        hardy=hardy,
        hardy_small_delta=hardy_small,
        multidim=multi,
        transport_route=troute,
        lipschitz=lip,
        pushforward=push,
        bg=bg,
        checks=checks,
        quadrature={
            "tail_mult": sm.config.tail_mult,
            "integ_tol": sm.config.integ_tol,
            "cdf_tol": sm.config.cdf_tol,
            "root_tol": sm.config.root_tol,
            "lipschitz_grid_points": lipschitz_points,
            "bg_scan_points": bg_points,
        },
    )
