import math
import re

import mpmath
import numpy as np
import pytest
from scipy.special import ndtri

import logsob as L
import logsob.transport as transport

from conftest import central_difference


def make_map(mu, delta):
    return L.TransportMap(L.SmoothedMeasure(mu, delta))


def test_point_mass_gives_identity(point_mass):
    tm = make_map(point_mass, 1.0)
    xs = np.linspace(-8, 8, 101)
    assert np.max(np.abs(tm.eval(xs) - xs)) <= 1e-9
    assert np.allclose(tm.derivative(xs), 1.0, atol=1e-9)


def test_symmetric_map_is_odd(bernoulli):
    tm = make_map(bernoulli, 1.0)
    assert tm.eval(0.0) == pytest.approx(0.0, abs=1e-10)
    xs = np.linspace(0.5, 6.0, 12)
    assert np.allclose(tm.eval(xs), -tm.eval(-xs), atol=1e-9)


def test_derivative_at_center_closed_form(bernoulli):
    # T'(0) = p(0)/q(0) with q(0) = exp(-1/2) p(0) for atoms at +-1
    tm = make_map(bernoulli, 1.0)
    assert tm.derivative(0.0) == pytest.approx(math.exp(0.5), rel=1e-12)


def test_derivative_matches_finite_difference(asymmetric):
    tm = make_map(asymmetric, 1.0)
    for x in (-3.0, -0.7, 0.0, 1.3, 4.0):
        fd = central_difference(tm.eval, x, 1e-5)
        assert tm.derivative(x) == pytest.approx(fd, rel=1e-5)


def test_map_stays_in_envelope(bernoulli, asymmetric, uniform):
    for mu in (bernoulli, asymmetric, uniform):
        tm = make_map(mu, 1.0)
        xs = np.linspace(-10, 10, 201)
        t = tm.eval(xs)
        lo, hi = tm.envelope(xs)
        assert np.all(t >= lo - 1e-9)
        assert np.all(t <= hi + 1e-9)


def test_outer_region_shift_envelope(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 1.0)
    tm = L.TransportMap(sm)
    r = sm.radius
    xs = np.linspace(2 * r, 2 * r + 8, 60)
    t = tm.eval(xs)
    k = sm.tail_shift(xs)
    assert np.all(t <= xs + k + 1e-9)
    t_neg = tm.eval(-xs)
    k_neg = sm.tail_shift(-xs)
    assert np.all(t_neg >= -xs + k_neg - 1e-9)


def test_example_value_inside_shift_window(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 1.0)
    tm = L.TransportMap(sm)
    t3 = tm.eval(3.0)
    assert 2.0 <= t3 <= 3.0 + sm.tail_shift(3.0)


def test_pushforward_of_quantiles(asymmetric):
    sm = L.SmoothedMeasure(asymmetric, 0.5)
    tm = L.TransportMap(sm)
    rng = np.random.default_rng(7)
    u = rng.uniform(0.001, 0.999, 300)
    x = math.sqrt(0.5) * ndtri(u)
    assert np.max(np.abs(sm.cdf(tm.eval(x)) - u)) <= 10 * sm.config.root_tol


def test_strictly_increasing(uniform):
    tm = make_map(uniform, 0.25)
    xs = np.linspace(-6, 6, 400)
    assert np.all(np.diff(tm.eval(xs)) > 0)


def test_offcenter_target_shifts_map():
    mu = L.make_discrete([(3.0, 0.5), (5.0, 0.5)])
    tm = make_map(mu, 1.0)
    ref = make_map(L.make_discrete([(-1.0, 0.5), (1.0, 0.5)]), 1.0)
    xs = np.linspace(-4, 4, 17)
    assert np.allclose(tm.eval(xs), ref.eval(xs) + 4.0, atol=1e-9)


def test_lipschitz_point_mass_is_one(point_mass):
    lip = make_map(point_mass, 1.0).lipschitz_estimate(grid_points=801)
    assert lip.value == pytest.approx(1.0, abs=1e-6)


def test_lipschitz_finite_and_below_closed_form(bernoulli):
    lip = make_map(bernoulli, 1.0).lipschitz_estimate(grid_points=2001)
    bound = L.lipschitz_theoretical_bound(1.0)
    assert lip.log_value <= bound.log
    assert bound.log == pytest.approx(12.0)


def test_lipschitz_normalized_frame_invariance(bernoulli):
    for delta in (0.25, 4.0):
        direct = make_map(bernoulli, delta).lipschitz_estimate(grid_points=2001)
        unit = make_map(
            L.pushforward_affine(bernoulli, 1.0 / math.sqrt(delta)), 1.0
        ).lipschitz_estimate(grid_points=2001)
        assert direct.log_value == pytest.approx(unit.log_value, abs=1e-6)


def test_theoretical_bound_values():
    assert L.lipschitz_theoretical_bound(0.0).value == pytest.approx(math.exp(0.125))
    assert L.lipschitz_theoretical_bound(1.0).log == pytest.approx(12.0)
    # branch crossover sits exactly at normalized radius 1/4
    assert L.lipschitz_theoretical_bound(0.25).log == pytest.approx(0.75)
    assert 2 * 0.25**2 + 2 * 0.25 + 0.125 == pytest.approx(12 * 0.25**2)


def test_tail_log_bound_reported(bernoulli):
    lip = make_map(bernoulli, 1.0).lipschitz_estimate(grid_points=801)
    assert lip.tail_log_bound == pytest.approx(2 + 2 + 0.125)
    assert lip.grid_points == 801
    assert lip.window[0] < 0 < lip.window[1]


@pytest.mark.parametrize("extent", [-20.0, math.inf, math.nan])
def test_sweep_extent_must_be_finite_and_positive(bernoulli, extent):
    # a negative extent used to report the reversed window [8, -8]
    with pytest.raises(L.DomainError, match="extent"):
        make_map(bernoulli, 0.25).lipschitz_estimate(extent=extent)


def test_sweep_samples_cached(bernoulli):
    tm = make_map(bernoulli, 1.0)
    assert tm.samples is None
    tm.lipschitz_estimate(grid_points=401)
    xs, ts, ds = tm.samples
    assert len(xs) == 401 and np.all(np.diff(ts) > 0) and np.all(ds > 0)


def test_transport_table_columns(bernoulli):
    tm = make_map(bernoulli, 4.0)
    table = L.transport_table(tm, points=101, extent=6.0)
    assert set(table) == {"x", "T", "T_prime", "envelope_lo", "envelope_hi"}
    assert len(table["x"]) == 101
    assert np.all(table["T"] <= table["envelope_hi"] + 1e-9)
    assert np.all(table["T"] >= table["envelope_lo"] - 1e-9)


@pytest.mark.parametrize("delta", [0.05, 0.25, 1.0])
def test_offcenter_point_mass_slope_is_exactly_one(delta):
    # the smoothed measure is the source Gaussian moved by the center: T is
    # a translation, and the midpoint start lands on it bit for bit
    tm = make_map(L.make_discrete([(2.5, 1.0)]), delta)
    lip = tm.lipschitz_estimate(grid_points=801)
    xs, ts, ds = tm.samples
    assert np.all(ds == 1.0)
    assert lip.log_value == 0.0


def _oracle_map(mu, delta, x, dps=40):
    """T(x) from mpmath findroot on log G(y) = log F(x), in the tail nearer x."""
    atoms = [(mpmath.mpf(a), mpmath.mpf(w)) for a, w in mu.atoms]
    with mpmath.workdps(dps):
        scale = mpmath.sqrt(2 * mpmath.mpf(delta))
        xm = mpmath.mpf(x)
        # sf for x >= 0 and cdf below it, as erfc of the distance to each atom
        side = 1 if x >= 0 else -1

        def tail(y):
            return sum(w * mpmath.erfc(side * (y - a) / scale) for a, w in atoms) / 2

        target = mpmath.log(mpmath.erfc(side * xm / scale) / 2)
        radius = max(abs(a) for a, _ in atoms)
        root = mpmath.findroot(
            lambda y: mpmath.log(tail(y)) - target,
            (xm - radius - mpmath.mpf("1e-6"), xm + radius + mpmath.mpf("1e-6")),
            solver="anderson",
        )
        return float(root)


@pytest.mark.parametrize("name", ["bernoulli", "asymmetric"])
def test_map_matches_mpmath_oracle_out_to_the_window_edge(name, request):
    mu = request.getfixturevalue(name)
    tm = make_map(mu, 0.25)
    lo, hi = tm.lipschitz_estimate(grid_points=201).window
    xs = np.concatenate([np.linspace(lo, hi, 25), [lo + 1e-3, hi - 1e-3]])
    ts = tm.eval(xs)
    oracle = np.array([_oracle_map(mu, 0.25, x) for x in xs])
    assert np.max(np.abs(ts - oracle)) <= 10 * tm.sigma * tm.target.config.root_tol


def test_underflowing_tail_is_a_bracket_failure(bernoulli):
    # delta = 0.002: normalized |x| of 44.7 and 50 put the source Gaussian
    # tail below the normal doubles; the parent returned the bracket end
    tm = make_map(bernoulli, 0.002)
    xs = np.array([0.0, 1.0, 2.0, 50.0 * tm.sigma])
    with pytest.raises(L.BracketFailure, match="2 of 4 points have a residual that is not finite"):
        tm.eval(xs)
    t = tm.eval(xs[:2])
    lo, hi = tm.envelope(xs[:2])
    assert np.all((lo <= t) & (t <= hi))


def _counted_sweep(monkeypatch):
    """Solver call counts of the 1001-point sweep of a seeded 256-cell density, delta 0.05."""
    rng = np.random.default_rng(3)
    grid = np.linspace(-1.0, 1.0, 257)
    values = rng.uniform(0.3, 1.3, 257)
    values /= L.TabulatedDensity(grid, values).mass
    mu = L.make_measure(density=L.TabulatedDensity(grid, values))
    counts = {"abscissae": 0, "value": 0, "slope": 0}
    solve = transport.bracketed_newton

    def counted(g, g_slope, lo, hi, **kw):
        counts["abscissae"] += np.size(lo)

        def g_counted(y, k):
            counts["value"] += y.size
            return g(y, k)

        def g_slope_counted(y, k):
            counts["slope"] += y.size
            return g_slope(y, k)

        return solve(g_counted, g_slope_counted, lo, hi, **kw)

    monkeypatch.setattr(transport, "bracketed_newton", counted)
    make_map(mu, 0.05).lipschitz_estimate(grid_points=1001)
    return counts


def test_newton_evaluations_per_abscissa_in_the_sweep(monkeypatch):
    # the log-tail Newton from the bracket midpoint needs no bisection stage:
    # at most 8 fused value+slope calls per abscissa, against 15 value and 3
    # fused calls with one; the sign check runs only at bracket ends that no
    # iterate crossed: 0.47 value calls per abscissa, against 2 at both ends
    counts = _counted_sweep(monkeypatch)
    assert counts["abscissae"] >= 1001
    assert counts["value"] <= 1.0 * counts["abscissae"]
    assert counts["slope"] <= 8 * counts["abscissae"]


def test_warm_start_cuts_fused_evaluations_in_the_sweep(monkeypatch):
    # from midpoints every point takes about 5.9 fused calls; warm-started,
    # the coarse eighth still does, the rest about 2
    counts = _counted_sweep(monkeypatch)
    assert counts["slope"] <= 4.5 * counts["abscissae"]


@pytest.mark.parametrize("name", ["bernoulli", "asymmetric", "uniform"])
def test_warm_start_matches_midpoint_solves_on_unsorted_duplicates(name, request):
    tm = make_map(request.getfixturevalue(name), 0.05)
    rng = np.random.default_rng(11)
    xs = np.concatenate([rng.uniform(-3.0, 3.0, 240), np.linspace(-3.0, 3.0, 41)])
    xs = np.concatenate([xs, xs[:50], [0.0, xs[7]]])
    rng.shuffle(xs)
    warm = tm.eval(xs)
    cold = tm.center + tm.sigma * tm._solve(xs / tm.sigma)
    assert np.max(np.abs(warm - cold)) <= 10 * tm.sigma * tm.target.config.root_tol
    # a duplicate abscissa is solved once
    order = np.argsort(xs, kind="stable")
    same = np.diff(xs[order]) == 0.0
    assert same.sum() >= 52 and np.all(np.diff(warm[order])[same] == 0.0)


def test_warm_start_survives_slopes_beyond_the_doubles():
    # log T' of 1000 or inf must give starts the solver discards, not an
    # error or a RuntimeWarning; a stretch with T(x) = x stays exact
    xn = np.linspace(-2.0, 2.0, 5)
    xs = np.array([-1.5, 0.3, 1.2])
    starts = transport._warm_start(xn, xn, np.array([0.0, 0.0, 1000.0, np.inf, 0.0]), xs)
    assert starts[0] == xs[0]
    assert not np.any(np.isfinite(starts[1:]))


def test_table_takes_one_density_value_per_point(bernoulli, monkeypatch):
    # the coarse points' log T', computed for the warm starts, is reused
    tm = make_map(bernoulli, 0.25)
    sizes = []
    kernel = tm.unit._log_density_c

    def counted(y):
        sizes.append(y.size)
        return kernel(y)

    monkeypatch.setattr(tm.unit, "_log_density_c", counted)
    L.transport_table(tm, points=401)
    assert sum(sizes) == 401 and min(sizes) >= 2


def test_failed_warm_pass_reports_the_whole_batch(bernoulli):
    # the coarse pass fails first; the error must still count the whole sweep
    # (578 of its 2001 source tails underflow) and name its first abscissa
    tm = make_map(bernoulli, 0.002)
    lo = -tm.sigma * (2.0 * tm.radius_normalized + 8.0)
    with pytest.raises(
        L.BracketFailure, match=r"^578 of 2001 points .*; first at x = %s$" % re.escape(repr(lo))
    ):
        tm.lipschitz_estimate(grid_points=2001)
