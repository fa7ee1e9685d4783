import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import logsob as L
import logsob.bounds as bounds
from logsob.errors import DomainError, SupremumNotLocalized
from logsob.logdomain import record

from conftest import dense_quantile_oracle


def mp_hardy(r, delta):
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        d = mpmath.mpf(delta)
        general = 6905 * d**1.5 * r / (4 * r**2 + d) * mpmath.exp(2 * r**2 / d)
        general += 4989 * (mpmath.sqrt(d) + 2 * r) ** 2
        small = 7803 * d**1.5 / r * mpmath.exp(2 * r**2 / d)
        return float(general), float(small)


def test_hardy_unit_values():
    general, small = L.bound_hardy(1.0, 1.0)
    want_g, want_s = mp_hardy(1.0, 1.0)
    assert general.value == pytest.approx(want_g, rel=1e-12)
    assert small.value == pytest.approx(want_s, rel=1e-12)
    assert general.value == pytest.approx(55105.3, rel=1e-4)


def test_hardy_small_delta_guard():
    general, small = L.bound_hardy(1.0, 2.0)
    assert small is None
    assert general.value > 0


def test_hardy_accepts_zero_radius():
    general, small = L.bound_hardy(0.0, 1.0)
    assert small is None
    assert general.value == pytest.approx(4989.0, rel=1e-12)


def test_hardy_log_domain_survives_overflow():
    general, small = L.bound_hardy(1.0, 1e-3)
    assert general.value is None and small.value is None
    assert general.log == pytest.approx(small.log, rel=1e-3)


def test_multidim_unit_value():
    with mpmath.workdps(40):
        want = float(mpmath.log(289) + 25)
    assert L.bound_multidim(1.0, 1.0, 1).log == pytest.approx(want, rel=1e-14)


def test_multidim_dimension_step():
    a = L.bound_multidim(1.0, 1.0, 1)
    b = L.bound_multidim(1.0, 1.0, 2)
    assert b.log - a.log == pytest.approx(20.0)


def test_multidim_boundary_continuity():
    # delta -> radius^2 from below approaches 289 R^2 exp(20n + 5)
    val = L.bound_multidim(1.0, 1.0 - 1e-12, 1)
    want = math.log(289) + 20 + 5
    assert val.log == pytest.approx(want, abs=1e-9)


def test_multidim_rejects_large_delta():
    with pytest.raises(DomainError):
        L.bound_multidim(1.0, 1.5, 1)
    with pytest.raises(DomainError):
        L.bound_multidim(1.0, 1.0, 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call, what",
    [
        (lambda mu: L.SmoothedMeasure(mu, math.inf), "delta"),
        (lambda mu: L.gaussian_lsi_constant(math.nan), "delta"),
        (lambda mu: L.bound_transport(1.0, math.nan), "delta"),
        (lambda mu: L.bound_transport(math.inf, 1.0), "radius"),
        (lambda mu: L.bound_hardy(1.0, math.nan), "delta"),
        (lambda mu: L.bound_hardy(math.nan, 1.0), "radius"),
        (lambda mu: L.lipschitz_theoretical_bound(math.nan), "radius"),
        (lambda mu: L.lipschitz_theoretical_bound(-1.0), "radius"),
        (lambda mu: L.bound_multidim(1.0, 0.5, math.nan), "dimension"),
        (lambda mu: L.bound_multidim(1.0, 0.5, 2.5), "dimension"),
        (lambda mu: L.bobkov_goetze(L.SmoothedMeasure(mu, 0.25), tail_mult=math.inf), "tail_mult"),
        (lambda mu: L.bobkov_goetze(L.SmoothedMeasure(mu, 0.25), tail_mult=-1.0), "tail_mult"),
    ],
    ids=["sm-inf-delta", "gaussian-nan", "transport-nan-delta", "transport-inf-radius",
         "hardy-nan-delta", "hardy-nan-radius", "lipschitz-nan", "lipschitz-negative",
         "multidim-nan-dim", "multidim-fractional-dim", "bg-inf-tail", "bg-negative-tail"],
)
def test_nonfinite_closed_form_input_is_a_domain_error(bernoulli, call, what):
    # each used to return NaN, warn, or raise an untyped or misleading error
    with pytest.raises(DomainError, match=what):
        call(bernoulli)


def test_transport_route_unit_value():
    tr = L.bound_transport(1.0, 1.0)
    assert tr.log == pytest.approx(math.log(2.0) + 24.0, abs=1e-12)
    assert tr.branch == "small_delta"
    with mpmath.workdps(40):
        assert tr.value == pytest.approx(float(2 * mpmath.e**24), rel=1e-12)


def test_transport_route_simplified_identity_grid():
    for r in np.linspace(0.3, 3.0, 10):
        for frac in np.linspace(0.05, 1.0, 10):
            delta = frac * 16.0 * r * r
            tr = L.bound_transport(r, delta)
            assert tr.simplified_valid
            assert tr.log == math.log(2.0 * delta) + 24.0 * r * r / delta


def test_transport_route_large_delta_branch():
    tr = L.bound_transport(1.0, 1e6)
    assert tr.branch == "large_delta"
    assert not tr.simplified_valid
    # tends to 2*delta*exp(1/4) as delta grows
    assert tr.log == pytest.approx(math.log(2e6) + 0.25, abs=5e-3)


def test_pushforward_identity_map():
    assert L.bound_pushforward(2.0, 1.0).value == pytest.approx(2.0)


def test_pushforward_matches_transport_route():
    # source constant 2 with the closed-form slope bound reproduces the
    # unit-variance transport-route bound
    val = L.bound_pushforward(2.0, L.lipschitz_theoretical_bound(1.0))
    assert val.log == pytest.approx(L.bound_transport(1.0, 1.0).log, abs=1e-12)


def test_pushforward_degenerate_map():
    assert L.bound_pushforward(2.0, 0.0).value == 0.0


def test_gaussian_constant_scales_linearly():
    assert L.gaussian_lsi_constant(1.0) == 2.0
    assert L.gaussian_lsi_constant(0.25) == 0.5


def test_median_symmetric(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 1.0)
    assert L.median(sm) == pytest.approx(0.0, abs=1e-10)


def test_median_point_mass_translated():
    sm = L.SmoothedMeasure(L.make_discrete([(2.5, 1.0)]), 1.0)
    assert L.median(sm) == pytest.approx(2.5, abs=1e-10)


def test_median_asymmetric_positive(asymmetric):
    sm = L.SmoothedMeasure(asymmetric, 1.0)
    med = L.median(sm)
    assert med > 0
    want = dense_quantile_oracle(sm, 0.5, -6.0, 6.0)
    assert med == pytest.approx(want, abs=1e-8)


def test_bg_gaussian_sandwiches_known_constant(point_mass):
    bg = L.bobkov_goetze(L.SmoothedMeasure(point_mass, 1.0), scan_points=601)
    assert bg.d0.value == pytest.approx(bg.d1.value, rel=1e-6)
    assert bg.upper.value >= 2.0
    assert bg.lower.value <= 2.0


def test_bg_symmetric_two_atoms(bernoulli):
    bg = L.bobkov_goetze(L.SmoothedMeasure(bernoulli, 1.0), scan_points=601)
    assert bg.d0.value == pytest.approx(bg.d1.value, rel=1e-6)
    assert math.isfinite(bg.upper.log)


def test_bg_asymmetric_sides_differ(asymmetric):
    bg = L.bobkov_goetze(L.SmoothedMeasure(asymmetric, 1.0), scan_points=601)
    rel = abs(bg.d0.value - bg.d1.value) / max(bg.d0.value, bg.d1.value)
    assert rel > 1e-3


def test_bg_nonnegative_and_ordered(uniform):
    bg = L.bobkov_goetze(L.SmoothedMeasure(uniform, 0.5), scan_points=601)
    assert bg.d0.log > -math.inf and bg.d1.log > -math.inf
    assert bg.lower.log <= bg.upper.log
    assert bg.upper.log - bg.lower.log == pytest.approx(
        math.log(468) + math.log(150), abs=1e-12
    )


def test_bg_scaling_law(bernoulli):
    lam = 2.0
    a = L.bobkov_goetze(L.SmoothedMeasure(bernoulli, 0.5), scan_points=601)
    b = L.bobkov_goetze(
        L.SmoothedMeasure(L.pushforward_affine(bernoulli, lam), lam * lam * 0.5),
        scan_points=601,
    )
    for x, y in ((a.d0, b.d0), (a.d1, b.d1), (a.lower, b.lower), (a.upper, b.upper)):
        assert y.log - x.log == pytest.approx(2 * math.log(lam), abs=1e-6)


def test_bg_boundary_guard(point_mass):
    # a scan window too narrow to contain the supremum must raise
    with pytest.raises(SupremumNotLocalized):
        L.bobkov_goetze(L.SmoothedMeasure(point_mass, 1.0), scan_points=101, tail_mult=0.5)


def test_bg_boundary_guard_above_the_median(asymmetric):
    # mirrored asymmetric, delta 0.25, tail_mult 1: below the median the functional peaks
    # inside the window, while above it, it still rises at the window edge 0.72 (its sup
    # sits near 0.81); bobkov_goetze must raise for the upper side
    sm = L.SmoothedMeasure(L.pushforward_affine(asymmetric, -1.0), 0.25)
    with pytest.raises(SupremumNotLocalized):
        L.bobkov_goetze(sm, scan_points=201, tail_mult=1.0)
    med, half = L.median(sm), sm.radius + sm.sigma
    assert not _rises_at_the_edge(sm, med, -1.0, half, half / 200)
    assert _rises_at_the_edge(sm, med, 1.0, half, half / 200)
    # the wide default window holds both sups: the one below is the narrow window's peak
    below = _bg_functional(sm, med, -1.0)
    peak = minimize_scalar(lambda v: -below(v), bounds=(med - half, med), method="bounded")
    wide = L.bobkov_goetze(sm, scan_points=801)
    assert wide.d0.log == pytest.approx(-peak.fun, rel=0.0, abs=1e-8)
    assert med + half < wide.argmax_above < med + 2 * half


def _mixed_measure():
    grid = np.array([-0.2, 0.4, 1.0])
    values = np.array([0.2, 0.8, 0.3])
    values *= 0.5 / L.TabulatedDensity(grid, values).mass
    return L.make_measure(
        atoms=[(-1.0, 0.3), (0.4, 0.2)], density=L.TabulatedDensity(grid, values)
    )


@pytest.mark.parametrize("delta", [0.05, 0.25, 1.0])
@pytest.mark.parametrize("name", ["asymmetric", "mixed"])
def test_bg_reflection_swaps_the_sides(name, delta, request):
    # the mirror image x -> -x swaps cdf and sf about the negated median, so
    # one scan routine must give d0 and d1 of either side the same way
    mu = _mixed_measure() if name == "mixed" else request.getfixturevalue(name)
    a = L.bobkov_goetze(L.SmoothedMeasure(mu, delta), scan_points=801)
    b = L.bobkov_goetze(L.SmoothedMeasure(L.pushforward_affine(mu, -1.0), delta), scan_points=801)
    assert b.d0.log == pytest.approx(a.d1.log, rel=1e-12)
    assert b.d1.log == pytest.approx(a.d0.log, rel=1e-12)
    assert b.argmax_below == pytest.approx(-a.argmax_above, abs=1e-6)
    assert b.argmax_above == pytest.approx(-a.argmax_below, abs=1e-6)


def _scan_measure(name):
    if name == "mixed":
        return _mixed_measure()
    if name == "atoms":  # 12 atoms: above the 8 terms from which numpy sums one column pairwise
        x = np.linspace(-1.0, 1.5, 12) + 0.05 * np.sin(np.arange(12.0))
        w = 1.0 + np.cos(np.arange(12.0)) ** 2
        return L.make_discrete(list(zip(x, w / w.sum())))
    grid = np.linspace(-1.0, 1.2, 12)
    values = 0.3 + np.abs(np.sin(3.0 * grid))
    values /= L.TabulatedDensity(grid, values).mass
    return L.make_measure(density=L.TabulatedDensity(grid, values))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _bg_functional(sm, med, s):
    """log of tail * log(1/tail) * integral of 1/q from the median to x, on side
    s, the integral by 16-node Gauss-Legendre on 64 equal panels."""
    log_tail_at = sm.log_sf if s > 0 else sm.log_cdf

    def f(x):
        edges = np.linspace(med, x, 65)
        half = 0.5 * np.diff(edges)
        t = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * _GL_NODES
        integral = abs(float(np.sum(half[:, None] * _GL_WEIGHTS * np.exp(-sm.log_density(t)))))
        lt = float(log_tail_at(x))
        return lt + math.log(-lt) + math.log(integral)

    return f


def _rises_at_the_edge(sm, med, s, half, h):
    """Whether the functional on side s still rises over the last step h of the window."""
    f = _bg_functional(sm, med, s)
    return f(med + s * half) > f(med + s * (half - h))


def _polish_cases():
    """(name, delta, tail_mult, scan_points); the default tail_mult 10 keeps its bare ID."""
    axes = (("atoms", "cells", "mixed"), (0.05, 0.25, 1.0), (10.0, 1.0, 0.5), (101, 401))
    for name, delta, tail_mult, n in itertools.product(*axes):
        tail = "" if tail_mult == 10.0 else "-tail%g" % tail_mult
        yield pytest.param(name, delta, tail_mult, n, id="%s-%r-%d%s" % (name, delta, n, tail))


@pytest.mark.parametrize("name, delta, tail_mult, scan_points", list(_polish_cases()))
def test_bg_polish_reaches_the_supremum_between_scan_nodes(
    name, delta, tail_mult, scan_points, monkeypatch
):
    # the grid max misses the sup by up to 1e-3 in log; the polish leaves only the scan's
    # Simpson error, of order h^4 in the scan step h.  Scan and polish run on the private
    # fused kernels: every public evaluator but the median's inv_cdf is refused meanwhile
    sm = L.SmoothedMeasure(_scan_measure(name), delta)
    with monkeypatch.context() as m:
        for attr in ("density", "log_density", "cdf", "sf", "log_cdf", "log_sf"):
            m.setattr(L.SmoothedMeasure, attr, lambda self, x: pytest.fail("public evaluator called"))
        try:
            bg = L.bobkov_goetze(sm, scan_points=scan_points, tail_mult=tail_mult)
        except SupremumNotLocalized:
            bg = None
    med = L.median(sm)
    half = sm.radius + tail_mult * sm.sigma
    h = half / (scan_points - 1)
    if bg is None:  # raised at delta 1 and tail_mult 0.5 only, on all three measures
        assert any(_rises_at_the_edge(sm, med, s, half, h) for s in (-1.0, 1.0))
        return
    tol = 1e-6 * (100.0 / (scan_points - 1)) ** 4
    for s, d, x in ((-1.0, bg.d0, bg.argmax_below), (1.0, bg.d1, bg.argmax_above)):
        f = _bg_functional(sm, med, s)
        best = minimize_scalar(
            lambda v: -f(v), bounds=(x - 2 * h, x + 2 * h), method="bounded", options={"xatol": 1e-10}
        )
        assert d.log == pytest.approx(-best.fun, rel=0.0, abs=tol)
        assert x == pytest.approx(best.x, abs=0.01 * h)


@pytest.mark.parametrize(
    "name, delta, tail_mult", [(n, d, 10.0) for n in ("atoms", "cells", "mixed") for d in (0.05, 0.25, 1.0)]
)
def test_bg_matches_the_public_evaluator_route(name, delta, tail_mult):
    # the public route: the functional from log_cdf, log_sf and log_density, its sup over the
    # whole default window by an 80-point grid and a bounded minimizer; the polish test checks
    # BG's peak only within two scan steps, this one that the scan chose the global peak
    sm = L.SmoothedMeasure(_scan_measure(name), delta)
    bg = L.bobkov_goetze(sm, scan_points=401, tail_mult=tail_mult)
    med, half = L.median(sm), sm.radius + tail_mult * sm.sigma
    grid = np.linspace(0.0, half, 81)[1:]
    for s, d, x in ((-1.0, bg.d0, bg.argmax_below), (1.0, bg.d1, bg.argmax_above)):
        f = _bg_functional(sm, med, s)
        k = int(np.argmax([f(med + s * r) for r in grid]))
        lo, hi = sorted(med + s * grid[[max(k - 1, 0), min(k + 1, len(grid) - 1)]])
        best = minimize_scalar(
            lambda v: -f(v), bounds=(lo, hi), method="bounded", options={"xatol": 1e-10}
        )
        assert d.log == pytest.approx(-best.fun, rel=0.0, abs=1e-6 * (100.0 / 400) ** 4)
        assert x == pytest.approx(best.x, abs=0.01 * half / 400)


def _oracle_bg_below(mu, delta, tail_mult=10.0, dps=25, nodes=16):
    """(sup, argmax) over the scan window below the median of
    log(cdf * log(1/cdf) * integral of 1/q from x to the median), in mpmath:
    the median by findroot, the integral by quad over ``nodes`` panels of the
    window, and the sup by findroot on the closed-form derivative, bracketed
    by the first panel edge outward where it turns positive."""
    with mpmath.workdps(dps):
        atoms = [(mpmath.mpf(a), mpmath.mpf(w)) for a, w in mu.atoms]
        sigma = mpmath.sqrt(mpmath.mpf(delta))
        lo, hi = min(a for a, _ in atoms), max(a for a, _ in atoms)

        def cdf(x):
            return sum(w * mpmath.ncdf((x - a) / sigma) for a, w in atoms)

        def inv_q(t):
            return 1 / sum(w * mpmath.npdf(t, a, sigma) for a, w in atoms)

        def slope(x, integral):  # d/dx of the log functional
            c = cdf(x)
            return (1 + 1 / mpmath.log(c)) / (c * inv_q(x)) - inv_q(x) / integral

        med = mpmath.findroot(lambda x: cdf(x) - 0.5, (lo, hi), solver="anderson")
        edge = med - (hi - lo) / 2 - tail_mult * sigma
        xs = [med - (med - edge) * k / nodes for k in range(nodes + 1)]
        ints = [mpmath.mpf(0)]
        for a, b in zip(xs[1:], xs[:-1]):
            ints.append(ints[-1] + mpmath.quad(inv_q, [a, b]))
        k = next(j for j in range(2, nodes + 1) if slope(xs[j], ints[j]) > 0)

        def integral(x):
            return ints[k - 1] + mpmath.quad(inv_q, [x, xs[k - 1]])

        x = mpmath.findroot(lambda x: slope(x, integral(x)), (xs[k], xs[k - 1]), solver="anderson")
        c = cdf(x)
        return float(mpmath.log(c) + mpmath.log(-mpmath.log(c)) + mpmath.log(integral(x))), float(x)


@pytest.mark.parametrize(
    "delta, rtol",
    # measured scan errors 9.8e-13, 1.3e-13 and 3.1e-10 relative (1201 points);
    # each bound is about ten times that
    [(0.25, 1e-11), (0.05, 1e-11), (0.002, 3e-9)],
)
def test_bg_d0_matches_mpmath_sup(asymmetric, delta, rtol):
    sm = L.SmoothedMeasure(asymmetric, delta)
    bg = L.bobkov_goetze(sm)
    value, argmax = _oracle_bg_below(asymmetric, delta)
    assert bg.d0.log == pytest.approx(value, rel=rtol)
    med = L.median(sm)
    assert med - bg.scan_halfwidth < bg.argmax_below < med
    if delta >= 0.05:  # at 0.002 the functional is flat to 1e-15 across the gap
        assert bg.argmax_below == pytest.approx(argmax, abs=1e-6)


def _two_atom_bg_asymptote(r, delta):
    """Laplace asymptote of log d0 = log d1 for atoms 1/2 at +-r: 1/q integrates
    to sqrt(2 pi delta) e^{r^2/2delta} (pi/2)(delta/r) across the barrier, and
    sup t log(1/t) is 1/e, so log d = r^2/2delta + 1.5 log delta - log r
    + log(2 pi)/2 + log(pi/2) - 1 + O(delta/r^2)."""
    return (
        r * r / (2.0 * delta)
        + 1.5 * math.log(delta)
        - math.log(r)
        + 0.5 * math.log(2.0 * math.pi)
        + math.log(0.5 * math.pi)
        - 1.0
    )


# measured (log d - A) / (delta/r^2): 1.266 at 0.01 and 1.240 at 0.002 for every r.
# Not at 5e-4: there the median sits on the cancellation plateau and the scan
# resolves the barrier too coarsely (ROADMAP items 1 and 11).
@pytest.mark.parametrize("ratio", [0.01, 0.002])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_bg_two_atoms_match_the_laplace_asymptote(r, ratio):
    delta = ratio * r * r
    bg = L.bobkov_goetze(L.SmoothedMeasure(L.make_discrete([(-r, 0.5), (r, 0.5)]), delta))
    want = _two_atom_bg_asymptote(r, delta)
    assert abs(bg.d0.log - want) <= 1.5 * ratio
    assert abs(bg.d1.log - want) <= 1.5 * ratio


def test_report_assembles_with_checks(bernoulli):
    rep = L.compute_bound_report(bernoulli, 1.0, lipschitz_points=1001, bg_points=401)
    assert all(rep.checks.values())
    assert rep.hardy_small_delta_bound is not None  # delta = R^2 boundary included
    assert rep.multidim_bound is not None
    d = record(rep)
    assert d["transport_bound"]["log_value"] == pytest.approx(math.log(2) + 24, abs=1e-12)
    assert d["pushforward_bound"]["value"] == pytest.approx(
        2.0 * rep.lipschitz.value**2, rel=1e-12
    )


def test_report_point_mass(point_mass):
    rep = L.compute_bound_report(point_mass, 1.0, lipschitz_points=801, bg_points=401)
    assert rep.multidim_bound is None and rep.hardy_small_delta_bound is None
    assert rep.pushforward_bound.value == pytest.approx(2.0, abs=1e-5)
    assert all(rep.checks.values())


def test_multidim_below_the_lower_bound_fails_the_check(bernoulli, monkeypatch):
    # a planted error: multidim_bound is an upper bound, so BG's lower must lie below it
    monkeypatch.setattr(bounds, "bound_multidim", lambda r, delta, n: L.LogValue(-50.0))
    rep = L.compute_bound_report(bernoulli, 1.0, lipschitz_points=1001, bg_points=401)
    assert rep.multidim_bound.log == -50.0
    assert rep.checks["lower_below_all_uppers"] is False
