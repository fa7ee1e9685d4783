"""Closed-form log-Sobolev constant bounds and the two-sided Hardy estimate.

Everything returns log-domain values (:class:`logsob.logdomain.LogValue`,
or a result that is one) because the interesting regime, small variance
relative to the squared support radius, overflows doubles almost immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SupremumNotLocalized
from .logdomain import LogValue, _as_log
from .measures import Measure1D, _check_count
from .quadrature import golden_section_max
from .smoothing import QuadratureConfig, SmoothedMeasure, _check_delta, _check_radius
from .transport import LIPSCHITZ_EXTENT, LIPSCHITZ_POINTS, LipschitzEstimate, TransportMap
from .transport import lipschitz_theoretical_bound

# constants of the two-term criterion-route bound
HARDY_COEFF_EXP = 6905.0
HARDY_COEFF_QUAD = 4989.0
HARDY_COEFF_SMALL_DELTA = 7803.0
# constant of the multidimensional formula
MULTIDIM_COEFF = 289.0
# two-sided Hardy-criterion factors
BG_LOWER_DIVISOR = 150.0
BG_UPPER_FACTOR = 468.0
BG_SCAN_POINTS = 1201  # default scan points of the two-sided estimate
_LOG4 = math.log(4.0)
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
    n = _check_count(n_dim, 1, "dimension")
    if not delta <= r * r:
        raise DomainError("multidimensional bound needs 0 < delta <= radius**2")
    return LogValue(
        math.log(MULTIDIM_COEFF) + 2.0 * math.log(r) + 20.0 * n + 5.0 * r * r / delta
    )


@dataclass(frozen=True)
class TransportRouteBound(LogValue):
    """The max of the two transport-route branches, as a LogValue; ``branch``
    names the one that attains it ("small_delta" is the exponential branch),
    and ``simplified_valid`` says whether delta <= 16 R^2."""

    branch: str
    simplified_valid: bool


def bound_transport(radius, delta) -> TransportRouteBound:
    """Upper bound via the Lipschitz transport route.

    max(2*delta*exp(4R^2/d + 4R/sqrt(d) + 1/4), 2*delta*exp(24 R^2/d));
    whenever delta <= 16 R^2 the max is exactly the second (exponential)
    branch.
    """
    r, delta = _check_radius(radius), _check_delta(delta)
    base = math.log(2.0 * delta)
    moderate = base + 4.0 * r * r / delta + 4.0 * r / math.sqrt(delta) + 0.25
    exponential = base + 24.0 * r * r / delta
    if exponential >= moderate:
        log, branch = exponential, "small_delta"
    else:
        log, branch = moderate, "large_delta"
    return TransportRouteBound(log, branch, simplified_valid=delta <= 16.0 * r * r)


def bound_pushforward(c_source, lipschitz_norm) -> LogValue:
    """Constant c * L^2 for the image of a c-measure under an L-Lipschitz map.

    c and L are floats or LogValues, such as a LipschitzEstimate."""
    log_l, c_log = _as_log(lipschitz_norm), _as_log(c_source)
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


def _bg_scan(sm, med, dist):
    """Per side, below then above the median: (log tail, log 1/q) at the nodes
    med -+ dist, from one fused pass (cdf below, sf above), and log 1/q at their
    cell midpoints, from one more; bit for bit the public evaluators' values."""
    xs = med + np.array([[-1.0], [1.0]]) * dist
    upper = np.repeat([False, True], dist.size)
    log_tail, log_q = sm._log_tail_density_c(xs.ravel() - sm.center, upper)
    log_q_mid = sm._log_density_c((0.5 * (xs[:, :-1] + xs[:, 1:])).ravel() - sm.center)
    return zip(log_tail.reshape(2, -1), -log_q.reshape(2, -1), -log_q_mid.reshape(2, -1))


def _log_simpson(width, log_lo, log_mid, log_hi):
    """log of the Simpson cells width/6 * (f(lo) + 4 f(mid) + f(hi)) from log f
    at each cell's ends and midpoint; a cell of width 0 gives -inf."""
    with np.errstate(divide="ignore"):
        return np.log(width / 6.0) + np.logaddexp(np.logaddexp(log_lo, log_hi), _LOG4 + log_mid)


def _bg_side(sm, med, s, dist, log_tail, linv_nodes, linv_mids):
    """(log sup, argmax) of tail * log(1/tail) * integral of 1/q from the median,
    below it for s = -1 (tail = cdf), above it for s = +1 (tail = sf), from
    that side's slices of :func:`_bg_scan`.

    Scans the nodes med + s*dist outward to the window edge, the last node,
    summing :func:`_log_simpson` cells outward, and polishes the scan max by
    Brent's method, each step one fused kernel call over the 9 nodes of x's
    partial cell, 4 Simpson cells whose end node at x gives the tail at x.
    """
    n = dist.size
    xs = med + s * dist
    cell_log = _log_simpson(np.diff(dist), linv_nodes[:-1], linv_mids, linv_nodes[1:])
    # log of the integral of 1/q from the median to xs[j]
    log_int = np.concatenate([[-np.inf], np.logaddexp.accumulate(cell_log)])
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
        a, b = sorted((float(xs[k]), x))
        tail, log_q = sm._log_tail_density_c(np.linspace(a, b, 9) - sm.center, s > 0)
        lt = float(tail[-1] if b == x else tail[0])
        if lt == -math.inf:
            return -math.inf
        seg = _log_simpson((b - a) / 4.0, -log_q[0:-1:2], -log_q[1::2], -log_q[2::2])
        return lt + math.log(-lt) + float(np.logaddexp.reduce(seg, initial=log_int[k]))

    # log_h[0] is -inf (integral 0) and log_h[1] is not (tail near 1/2): 0 < i < n - 1
    lo, hi = xs[i - 1], xs[i + 1]
    xr, fr = golden_section_max(exact, lo, hi, xtol=1e-6 * abs(hi - lo))
    if fr > best_log:
        best_log, best_x = float(fr), float(xr)
    return LogValue(best_log), best_x


def bobkov_goetze(
    sm: SmoothedMeasure, scan_points: int = BG_SCAN_POINTS, tail_mult: float = 10.0
) -> BobkovGoetzeEstimate:
    """Two-sided constant estimate for the smoothed measure.

    d0 and d1 are the sups of tail * log(1/tail) * integral(1/q) below and
    above the median, each from :func:`_bg_side` over the window of
    half-width R + tail_mult*sigma on its side, both from one :func:`_bg_scan`.
    Raises SupremumNotLocalized when a scan max lands on the window edge.
    """
    n = _check_count(scan_points, 8, "scan points")
    tail_mult = float(tail_mult)
    if not 0.0 < tail_mult < math.inf:
        raise DomainError("tail_mult must be finite and positive, got %r" % tail_mult)
    med = median(sm)
    half = sm.radius + tail_mult * sm.sigma
    dist = np.linspace(0.0, half, n)
    (d0, x0), (d1, x1) = (
        _bg_side(sm, med, s, dist, *side) for s, side in zip((-1.0, 1.0), _bg_scan(sm, med, dist))
    )
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
    """Every bound this package can compute for one (measure, delta) pair.

    Each field is named by its key in the report record
    (:func:`logsob.logdomain.record`), so a new reported value is one field.
    """

    radius: float
    center: float
    delta: float
    n_dim: int
    hardy_bound: LogValue
    hardy_small_delta_bound: LogValue | None
    multidim_bound: LogValue | None
    transport_bound: TransportRouteBound
    lipschitz: LipschitzEstimate
    pushforward_bound: LogValue
    bg: BobkovGoetzeEstimate
    checks: dict
    quadrature: dict


def compute_bound_report(
    measure: Measure1D,
    delta: float,
    n_dim: int = 1,
    config: QuadratureConfig | None = None,
    lipschitz_points: int = LIPSCHITZ_POINTS,
    lipschitz_extent: float = LIPSCHITZ_EXTENT,
    bg_points: int = BG_SCAN_POINTS,
) -> BoundReport:
    """Assemble every bound for one (measure, delta) pair, with sanity checks."""
    n_dim = _check_count(n_dim, 1, "dimension")
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
    if multi is not None:
        upper_logs.append(multi.log)
    checks = {
        "lower_below_all_uppers": bg.lower.log <= min(upper_logs) + log_slack,
        "bg_ordered": bg.lower.log <= bg.upper.log + log_slack,
        "transport_simplified_identity": (not troute.simplified_valid)
        or troute.branch == "small_delta",
        "lipschitz_below_theoretical": lip.log
        <= lipschitz_theoretical_bound(r / sm.sigma).log + log_slack,
    }
    return BoundReport(
        radius=r,
        center=sm.center,
        delta=sm.delta,
        n_dim=n_dim,
        hardy_bound=hardy,
        hardy_small_delta_bound=hardy_small,
        multidim_bound=multi,
        transport_bound=troute,
        lipschitz=lip,
        pushforward_bound=push,
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
