import math
import re

import mpmath
import numpy as np
import pytest
from scipy.special import ndtri

import logsob as L
import logsob.smoothing as smoothing
import logsob.transport as transport

from conftest import central_difference, tail_shift_oracle


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


@pytest.mark.parametrize("delta", [1.0, 0.05, 0.01, 0.002])
def test_derivative_at_center_closed_form(bernoulli, delta):
    # T'(0) = p(0)/q(0) with q(0) = exp(-1/(2 delta)) p(0) for atoms at +-1,
    # so log T'(0) = R^2/(2 delta), 250 at delta = 0.002; one point alone
    # starts from its symmetric bracket's midpoint, 0, where the residual
    # vanishes, so the plateau between the atoms cannot move it
    tm = make_map(bernoulli, delta)
    t, d = tm.eval_and_derivative(0.0)
    assert abs(t) <= 10 * tm.sigma * tm.target.config.root_tol
    assert math.log(d) == pytest.approx(1.0 / (2.0 * delta), rel=1e-12)


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
    k = tail_shift_oracle(bernoulli, xs)[0]
    assert np.all(t <= xs + k + 1e-9)
    t_neg = tm.eval(-xs)
    k_neg = tail_shift_oracle(bernoulli, -xs)[0]
    assert np.all(t_neg >= -xs + k_neg - 1e-9)


def test_example_value_inside_shift_window(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 1.0)
    tm = L.TransportMap(sm)
    t3 = tm.eval(3.0)
    assert 2.0 <= t3 <= 3.0 + tail_shift_oracle(bernoulli, 3.0)[0]


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
    # T is the identity: the closed form, first reached at the window's left
    # end, as np.argmax reads a flat sweep; a y sweep there reads only rounding
    lip = make_map(point_mass, 1.0).lipschitz_estimate(grid_points=801)
    assert lip.log == 0.0 and lip.value == 1.0
    assert lip.argmax == lip.window[0]


def test_lipschitz_finite_and_below_closed_form(bernoulli):
    lip = make_map(bernoulli, 1.0).lipschitz_estimate(grid_points=2001)
    bound = L.lipschitz_theoretical_bound(1.0)
    assert lip.log <= bound.log
    assert bound.log == pytest.approx(12.0)


def test_lipschitz_normalized_frame_invariance(bernoulli):
    for delta in (0.25, 4.0):
        direct = make_map(bernoulli, delta).lipschitz_estimate(grid_points=2001)
        unit = make_map(
            L.pushforward_affine(bernoulli, 1.0 / math.sqrt(delta)), 1.0
        ).lipschitz_estimate(grid_points=2001)
        assert direct.log == pytest.approx(unit.log, abs=1e-6)


def test_theoretical_bound_values():
    assert L.lipschitz_theoretical_bound(0.0).value == pytest.approx(math.exp(0.125))
    assert L.lipschitz_theoretical_bound(1.0).log == pytest.approx(12.0)
    # branch crossover sits exactly at normalized radius 1/4
    assert L.lipschitz_theoretical_bound(0.25).log == pytest.approx(0.75)
    assert 2 * 0.25**2 + 2 * 0.25 + 0.125 == pytest.approx(12 * 0.25**2)


def _sweep_grid(tm, points, extent=8.0):
    """The sweep's abscissae in original coordinates."""
    return tm.sigma * tm._grid(points, extent)


def test_tail_log_bound_reported(bernoulli):
    tm = make_map(bernoulli, 1.0)
    lip = tm.lipschitz_estimate(grid_points=801)
    assert lip.tail_log_bound == pytest.approx(2 + 2 + 0.125)
    assert lip.grid_points == 801
    xs = _sweep_grid(tm, 801)
    assert lip.window == (xs[0], xs[-1]) and xs[-1] == tm.sigma * (2.0 + 8.0)
    # T increases and T' is positive along the sweep
    ts, ds = tm.eval_and_derivative(xs)
    assert np.all(np.diff(ts) > 0) and np.all(ds > 0)


@pytest.mark.parametrize("extent", [-20.0, math.inf, math.nan])
def test_sweep_extent_must_be_finite_and_positive(bernoulli, extent):
    # a negative extent used to report the reversed window [8, -8]
    with pytest.raises(L.DomainError, match="extent"):
        make_map(bernoulli, 0.25).lipschitz_estimate(extent=extent)


@pytest.mark.parametrize("points", [0, 1, -5])
def test_sweep_needs_two_points(bernoulli, points):
    # 0 used to run the 4001-point default, 1 reported log L = 0.0047 for
    # the closed form 2.0, and -5 raised an untyped ValueError
    with pytest.raises(L.DomainError, match="at least 2 points"):
        make_map(bernoulli, 0.25).lipschitz_estimate(grid_points=points)


@pytest.mark.parametrize("points, extent, what", [(5, -1.0, "extent"), (-3, 8.0, "2 points")])
def test_table_arguments_are_checked(bernoulli, points, extent, what):
    # a negative extent used to shrink the table's window silently
    with pytest.raises(L.DomainError, match=what):
        L.transport_table(make_map(bernoulli, 0.25), points=points, extent=extent)


def test_map_holds_no_state(asymmetric):
    tm = make_map(asymmetric, 0.25)
    before = dict(vars(tm))
    tm.lipschitz_estimate(grid_points=201)
    tm.eval(np.linspace(-3.0, 3.0, 7))
    assert vars(tm) == before


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
    _, ds = tm.eval_and_derivative(_sweep_grid(tm, 801))
    assert np.all(ds == 1.0)
    assert lip.log == 0.0 and lip.argmax == lip.window[0] == _sweep_grid(tm, 801)[0]


@pytest.mark.parametrize("delta", [0.25, 0.05, 0.01, 0.002, 0.0005])
def test_bernoulli_lipschitz_is_the_closed_form(bernoulli, delta):
    # sup T' = T'(0) = exp(R^2/(2 delta)) for atoms at +-1; at delta = 0.0005 the
    # old x sweep read 250.69 on the plateau around x = 0
    lip = make_map(bernoulli, delta).lipschitz_estimate()
    assert lip.log == pytest.approx(1.0 / (2.0 * delta), rel=1e-12)


def _oracle_log_slope_sup(mu, delta, dps=40):
    """sup over y in the support hull of log p(S(y)) - log q(y), S(y) = sigma Phi^-1(G(y)),
    from a 201-point scan and mpmath findroot on the closed-form derivative."""
    with mpmath.workdps(dps):
        atoms = [(mpmath.mpf(a), mpmath.mpf(w)) for a, w in mu.atoms]
        var = mpmath.mpf(delta)
        sigma = mpmath.sqrt(var)

        def parts(y):
            # standardized S(y), q(y), q'(y)
            g = sum(w * mpmath.ncdf((y - a) / sigma) for a, w in atoms)
            q = sum(w * mpmath.npdf(y, a, sigma) for a, w in atoms)
            dq = sum(-w * (y - a) / var * mpmath.npdf(y, a, sigma) for a, w in atoms)
            return mpmath.sqrt(2) * mpmath.erfinv(2 * g - 1), q, dq

        def f(y):
            s, q, _ = parts(y)
            return mpmath.log(mpmath.npdf(s) / sigma) - mpmath.log(q)

        def df(y):
            s, q, dq = parts(y)
            return -s * q / mpmath.npdf(s) - dq / q

        lo, hi = min(a for a, _ in atoms), max(a for a, _ in atoms)
        ys = [lo + (hi - lo) * k / 200 for k in range(201)]
        k = max(range(1, 200), key=lambda j: f(ys[j]))
        root = mpmath.findroot(df, (ys[k - 1], ys[k + 1]), solver="anderson")
        return float(f(root))


@pytest.mark.parametrize("delta", [0.25, 0.05, 0.01, 0.002])
def test_asymmetric_lipschitz_matches_mpmath_sup(asymmetric, delta):
    # the spike at S = sigma Phi^-1(1/4), x-width about 1/L: the old x sweep
    # read 20.47 at delta = 0.01, against 49.92
    lip = make_map(asymmetric, delta).lipschitz_estimate()
    assert lip.log == pytest.approx(_oracle_log_slope_sup(asymmetric, delta), rel=1e-10)


def test_underflowing_window_end_names_the_left_end(uniform, underflowing_tails):
    # the window ends bound every tail the sweep reads, so their solve is the
    # only one that can read a planted non-finite tail; both ends do at delta = 0.002
    tm = make_map(uniform, 0.002)
    lo = float(_sweep_grid(tm, 3)[0])
    with pytest.raises(
        L.BracketFailure, match=r"^2 of 3 points .*; first at x = %s$" % re.escape(repr(lo))
    ):
        tm.lipschitz_estimate()


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


def _sweep_edge(tm):
    """Right end of the Lipschitz sweep window at the default extent 8, in original coordinates."""
    return tm.sigma * (2.0 * tm.radius_normalized + 8.0)


@pytest.mark.parametrize("delta", [0.002, 0.0005])
@pytest.mark.parametrize("name", ["bernoulli", "asymmetric"])
def test_small_delta_map_matches_mpmath_oracle_out_to_the_window_edge(name, delta, request):
    # beyond normalized |x| of about 37 the source tail is below the smallest
    # double, and only its log reaches the solver.  The plateau abscissa
    # sigma * Phi^-1(W), W the base mass left of the gap between the atoms,
    # is left out: there G(y) - W is below rounding across the whole gap
    mu = request.getfixturevalue(name)
    tm = make_map(mu, delta)
    edge = _sweep_edge(tm)
    xs = np.concatenate([np.linspace(-edge, edge, 25), [-edge + 1e-3, edge - 1e-3]])
    w_left = sum(w for a, w in mu.atoms if a < tm.center)
    xs = xs[xs != tm.sigma * ndtri(w_left)]
    ts = tm.eval(xs)
    oracle = np.array([_oracle_map(mu, delta, x) for x in xs])
    assert np.max(np.abs(ts - oracle)) <= 10 * tm.sigma * tm.target.config.root_tol


@pytest.mark.parametrize("delta", [0.002, 0.0005])
@pytest.mark.parametrize("name", ["bernoulli", "asymmetric"])
def test_small_delta_map_stays_in_the_envelope(name, delta, request):
    tm = make_map(request.getfixturevalue(name), delta)
    edge = _sweep_edge(tm)
    xs = np.linspace(-edge, edge, 2001)
    ts = tm.eval(xs)
    lo, hi = tm.envelope(xs)
    assert np.all((lo <= ts) & (ts <= hi))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="item 1: cancellation plateau: between the atoms G(y) - 1/2 is below rounding, "
    "so a warm start there passes for a root",
)
def test_batched_bernoulli_map_is_zero_at_zero(bernoulli):
    tm = make_map(bernoulli, 0.01)
    edge = _sweep_edge(tm)
    xs = np.linspace(-edge, edge, 51)
    (zero,) = np.flatnonzero(xs == 0.0)  # a ValueError, not the expected failure, if 0 is missing
    assert abs(tm.eval(xs)[zero]) <= 10 * tm.sigma * tm.target.config.root_tol


def test_underflowing_tail_is_a_bracket_failure(uniform, underflowing_tails):
    # delta = 0.002: normalized |x| of 44.7 and 50 put the source Gaussian
    # tail below the normal doubles, where the planted kernel's tail is -inf
    tm = make_map(uniform, 0.002)
    xs = np.array([0.0, 1.0, 2.0, 50.0 * tm.sigma])
    with pytest.raises(L.BracketFailure, match="2 of 4 points have a residual that is not finite"):
        tm.eval(xs)
    t = tm.eval(xs[:2])
    lo, hi = tm.envelope(xs[:2])
    assert np.all((lo <= t) & (t <= hi))


def test_cells_tails_below_the_normal_doubles_stay_in_the_envelope(uniform):
    # the same abscissae without the plant: the cells' log tails are finite
    # there, and so is every solve
    tm = make_map(uniform, 0.002)
    xs = np.array([0.0, 1.0, 2.0, 50.0 * tm.sigma, -_sweep_edge(tm), _sweep_edge(tm)])
    t = tm.eval(xs)
    lo, hi = tm.envelope(xs)
    assert np.all((lo <= t) & (t <= hi))
    assert np.all(np.diff(t[[4, 0, 1, 2, 3, 5]]) > 0.0)


def _counted_table(monkeypatch):
    """Solver call counts of the 1001-point transport table of a seeded 256-cell
    density, delta 0.05, on the Lipschitz sweep's window: points sent to the
    residual at an initial bracket end (the deferred sign check) and elsewhere
    (the Newton steps)."""
    rng = np.random.default_rng(3)
    grid = np.linspace(-1.0, 1.0, 257)
    values = rng.uniform(0.3, 1.3, 257)
    values /= L.TabulatedDensity(grid, values).mass
    mu = L.make_measure(density=L.TabulatedDensity(grid, values))
    counts = {"abscissae": 0, "ends": 0, "steps": 0}
    solve = smoothing.bracketed_newton

    def counted(g_slope, lo, hi, **kw):
        counts["abscissae"] += np.size(lo)

        def g_slope_counted(y, k):
            ends = np.count_nonzero((y == lo[k]) | (y == hi[k]))
            counts["ends"] += ends
            counts["steps"] += y.size - ends
            return g_slope(y, k)

        return solve(g_slope_counted, lo, hi, **kw)

    monkeypatch.setattr(smoothing, "bracketed_newton", counted)
    L.transport_table(make_map(mu, 0.05), points=1001)
    return counts


def test_newton_evaluations_per_abscissa_in_the_table(monkeypatch):
    # the log-tail Newton from the bracket midpoint needs no bisection stage:
    # at most 8 fused value+slope calls per abscissa, against 15 value and 3
    # fused calls with one; the sign check runs only at bracket ends that no
    # iterate crossed: 0.47 fused evaluations per abscissa, against 2 at both ends
    counts = _counted_table(monkeypatch)
    assert counts["abscissae"] >= 1001
    assert counts["ends"] <= 1.0 * counts["abscissae"]
    assert counts["steps"] <= 8 * counts["abscissae"]


def test_warm_start_cuts_fused_evaluations_in_the_table(monkeypatch):
    # from midpoints every point takes about 6.0 fused calls; warm-started,
    # the coarse eighth still does, the rest about 2: 2.57 in all
    counts = _counted_table(monkeypatch)
    assert counts["steps"] <= 4.5 * counts["abscissae"]


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


def test_failed_warm_pass_reports_the_whole_batch(uniform, underflowing_tails):
    # the coarse pass fails first; the error must still count the whole table
    # (582 of its 2001 points need a planted tail, one below the normal doubles)
    # and name its first abscissa
    tm = make_map(uniform, 0.002)
    lo = -tm.sigma * (2.0 * tm.radius_normalized + 8.0)
    with pytest.raises(
        L.BracketFailure, match=r"^582 of 2001 points .*; first at x = %s$" % re.escape(repr(lo))
    ):
        L.transport_table(tm, points=2001)


QUANTILE_MEASURES = {
    "bernoulli": lambda: L.make_discrete([(-1.0, 0.5), (1.0, 0.5)]),
    "off_center": lambda: L.make_discrete([(2.0, 0.25), (4.0, 0.75)]),
    "uniform": lambda: L.make_uniform(-1.0, 1.0),
    "mixed": lambda: L.make_measure(
        atoms=[(-0.5, 0.3), (1.5, 0.2)],
        density=L.TabulatedDensity(np.array([0.0, 0.5, 1.0]), np.array([0.2, 0.8, 0.2])),
    ),
}


@pytest.mark.parametrize("delta", [0.05, 0.25, 1.0, 4.0])
@pytest.mark.parametrize("name", list(QUANTILE_MEASURES))
def test_quantiles_are_transport_values(name, delta):
    # the quantile at u is T(sigma * Phi^-1(u)), to root_tol in x for the
    # quantile and sigma * root_tol for T; u = 1/2 is left out, where the
    # median and T(0) take opposite tails (ROADMAP item 1's plateau)
    sm = L.SmoothedMeasure(QUANTILE_MEASURES[name](), delta)
    u = np.geomspace(1e-12, 0.4, 45)
    u = np.concatenate([u, 1.0 - u])
    gap = np.abs(sm.inv_cdf(u) - L.TransportMap(sm).eval(sm.sigma * ndtri(u)))
    assert gap.max() <= max(1.0, sm.sigma) * sm.config.root_tol
