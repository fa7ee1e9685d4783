"""Closed-form cell kernels on sloped, many-cell densities.

The bundled measures reach the piecewise-linear kernels only through the
uniform density (4 cells, slope 0), where an edge/cell off-by-one cannot
show.  These tests use a seeded 64-cell density with nonzero slopes and a
mixed atoms+cells measure, check them against direct quadrature over the
base measure, pin the kernels bit for bit to a per-cell oracle, and check
that quantiles round-trip through the CDF.
"""

import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.special import log_ndtr, logsumexp, ndtr

import logsob as L
import logsob.smoothing as smoothing
from logsob.cli import bundled_data_path

_SQRT_2PI = np.sqrt(2.0 * np.pi)
DELTAS = (0.05, 1.0)


def _sloped_density(rng, a, b, cells, mass):
    inner = np.sort(rng.uniform(a, b, cells - 1))
    grid = np.concatenate([[a], inner, [b]])
    values = rng.uniform(0.0, 2.0, cells + 1)
    values[rng.integers(0, cells + 1)] = 0.0
    values *= mass / L.TabulatedDensity(grid, values).mass
    return L.TabulatedDensity(grid, values)


def _dense():
    return L.make_measure(density=_sloped_density(np.random.default_rng(0), -1.0, 1.0, 64, 1.0))


def _mixed():
    rng = np.random.default_rng(1)
    atoms = [(0.2, 0.15), (1.1, 0.1), (3.0, 0.2)]
    return L.make_measure(atoms=atoms, density=_sloped_density(rng, 0.5, 2.5, 64, 0.55))


MEASURES = {"dense64": _dense, "mixed": _mixed}
CASES = [(name, d) for name in MEASURES for d in DELTAS]
IDS = ["%s-d%g" % c for c in CASES]


@pytest.fixture(scope="module", params=CASES, ids=IDS)
def case(request):
    name, delta = request.param
    mu = MEASURES[name]()
    return mu, L.SmoothedMeasure(mu, delta)


# -- per-cell oracle: both edges of every cell evaluated separately ----------


def _oracle_cells(sm):
    dens = sm.centered_base.density
    grid, vals = dens.grid, dens.values
    s0, s1 = grid[:-1], grid[1:]
    slope = (vals[1:] - vals[:-1]) / (s1 - s0)
    return s0, s1, vals[:-1] - slope * s0, slope


def _oracle_pdf(z):
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def _oracle_anti_cdf(z):
    return z * ndtr(z) + _oracle_pdf(z)


def _oracle_anti_z_cdf(z):
    return 0.5 * ((z * z - 1.0) * ndtr(z) + z * _oracle_pdf(z))


def _oracle_atoms(sm):
    aloc = np.array([x for x, _ in sm.centered_base.atoms], dtype=float)
    awt = np.array([w for _, w in sm.centered_base.atoms], dtype=float)
    return aloc, awt


def oracle_density_c(sm, t):
    aloc, awt = _oracle_atoms(sm)
    out = np.zeros_like(t)
    if aloc.size:
        z = (t[:, None] - aloc) / sm.sigma
        out = out + (awt * np.exp(-0.5 * z * z)).sum(axis=1) / (sm.sigma * _SQRT_2PI)
    s0, s1, alpha, beta = _oracle_cells(sm)
    u0 = (s0 - t[:, None]) / sm.sigma
    u1 = (s1 - t[:, None]) / sm.sigma
    cdf_gap = np.where(u0 + u1 > 0.0, ndtr(-u0) - ndtr(-u1), ndtr(u1) - ndtr(u0))
    lin = alpha + beta * t[:, None]
    terms = lin * cdf_gap + beta * sm.sigma * (_oracle_pdf(u0) - _oracle_pdf(u1))
    return out + np.maximum(terms.sum(axis=1), 0.0)


def oracle_cdf_c(sm, x):
    aloc, awt = _oracle_atoms(sm)
    out = np.zeros_like(x)
    if aloc.size:
        z = (x[:, None] - aloc) / sm.sigma
        out = out + (awt * ndtr(z)).sum(axis=1)
    s0, s1, alpha, beta = _oracle_cells(sm)
    z0 = (x[:, None] - s0) / sm.sigma
    z1 = (x[:, None] - s1) / sm.sigma
    lin = alpha + beta * x[:, None]
    terms = lin * (_oracle_anti_cdf(z0) - _oracle_anti_cdf(z1))
    terms = terms - beta * sm.sigma * (_oracle_anti_z_cdf(z0) - _oracle_anti_z_cdf(z1))
    out = out + sm.sigma * np.maximum(terms, 0.0).sum(axis=1)
    return np.clip(out, 0.0, 1.0)


def oracle_sf_c(sm, x):
    aloc, awt = _oracle_atoms(sm)
    out = np.zeros_like(x)
    if aloc.size:
        z = (x[:, None] - aloc) / sm.sigma
        out = out + (awt * ndtr(-z)).sum(axis=1)
    s0, s1, alpha, beta = _oracle_cells(sm)
    w0 = (s0 - x[:, None]) / sm.sigma
    w1 = (s1 - x[:, None]) / sm.sigma
    lin = alpha + beta * x[:, None]
    terms = lin * (_oracle_anti_cdf(w1) - _oracle_anti_cdf(w0))
    terms = terms + beta * sm.sigma * (_oracle_anti_z_cdf(w1) - _oracle_anti_z_cdf(w0))
    out = out + sm.sigma * np.maximum(terms, 0.0).sum(axis=1)
    return np.clip(out, 0.0, 1.0)


def _centered_points(sm, n=241):
    # the whole tail-cutoff window plus a margin beyond it
    return np.linspace(-sm.cutoff - 2.0 * sm.sigma, sm.cutoff + 2.0 * sm.sigma, n)


def _points(sm, n=41):
    return sm.center + np.linspace(-sm.radius - 4.0 * sm.sigma, sm.radius + 4.0 * sm.sigma, n)


# -- independent quadrature route ------------------------------------------


def _direct(mu, kernel, ts):
    return L.integrate(mu, lambda s: kernel(ts[None, :] - s[:, None]), rtol=1e-12)


def test_density_matches_quadrature_route(case):
    mu, sm = case
    ts = _points(sm)
    direct = _direct(mu, lambda d: L.gaussian_density(d, sm.delta), ts)
    assert np.allclose(sm.density(ts), direct, rtol=1e-10, atol=0.0)


def test_cdf_and_sf_match_quadrature_route(case):
    mu, sm = case
    ts = _points(sm)
    cdf = _direct(mu, lambda d: L.gaussian_cdf(d, sm.delta), ts)
    sf = _direct(mu, lambda d: L.gaussian_sf(d, sm.delta), ts)
    assert np.allclose(sm.cdf(ts), cdf, rtol=1e-10, atol=0.0)
    assert np.allclose(sm.sf(ts), sf, rtol=1e-10, atol=0.0)


def test_cdf_plus_sf_is_one(case):
    _, sm = case
    xs = sm.center + _centered_points(sm)
    # the closed forms difference O(|z|) antiderivatives over narrow cells,
    # so the sum sits within ~1e-11 of 1: two decades inside cdf_tol
    assert np.allclose(sm.cdf(xs) + sm.sf(xs), 1.0, rtol=0.0, atol=1e-10)


# -- bitwise identity with the per-cell oracle ------------------------------


def test_kernels_equal_per_cell_oracle_bitwise(case):
    _, sm = case
    xs = _centered_points(sm)
    assert np.array_equal(sm._density_c(xs), oracle_density_c(sm, xs))
    assert np.array_equal(sm._cdf_c(xs), oracle_cdf_c(sm, xs))
    assert np.array_equal(sm._sf_c(xs), oracle_sf_c(sm, xs))


# -- quantiles -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_quantiles_round_trip_through_cdf(name):
    sm = L.SmoothedMeasure(MEASURES[name](), 0.05)
    us = np.array([1e-6, 0.01, 0.3, 0.5, 0.77, 0.99, 1.0 - 1e-6])
    assert np.allclose(sm.cdf(sm.inv_cdf(us)), us, rtol=1e-8, atol=1e-12)


# -- the fused tail + density evaluator of the Newton solves ----------------


def test_fused_tail_and_density_equal_separate_kernels_bitwise(case):
    _, sm = case
    xs = _centered_points(sm)
    for sf, tail_only in ((True, sm._sf_c), (False, sm._cdf_c)):
        tail, dens = sm._tail_density_c(xs, sf)
        assert np.array_equal(tail, tail_only(xs))
        assert np.array_equal(dens, sm._density_c(xs))


# -- the atom log-sum-exp of the log evaluators ------------------------------
#
# The log density and log tails reduce the atoms along a leading axis.  The
# earlier row-major formula is kept here as the oracle: below 8 atoms numpy
# sums a row in the same order as the leading-axis pass, so the two agree
# bit for bit; with more atoms the row sum is pairwise and they differ by a
# few ulp.

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def _lse_rows(a):
    m = np.max(a, axis=-1)
    safe = np.where(np.isfinite(m), m, 0.0)
    out = safe + np.log(np.sum(np.exp(a - safe[..., None]), axis=-1))
    return np.where(np.isfinite(m), out, m)


def oracle_log_density_c(sm, t):
    z = (t[:, None] - sm._aloc) / sm.sigma
    out = _lse_rows(np.log(sm._awt) - 0.5 * z * z - np.log(sm.sigma) - _LOG_SQRT_2PI)
    if sm._cells is not None:
        with np.errstate(divide="ignore"):
            out = np.logaddexp(out, np.log(sm._density_cells(t)))
    return out


def oracle_log_tail_c(sm, x, sf):
    z = (x[:, None] - sm._aloc) / sm.sigma
    out = _lse_rows(np.log(sm._awt) + log_ndtr(-z if sf else z))
    if sm._cells is not None:
        with np.errstate(divide="ignore"):
            out = np.logaddexp(out, np.log(sm._tail_cells(x, 1.0 if sf else -1.0)))
    return np.minimum(out, 0.0)


def _bundled(name):
    return L.load_measure(bundled_data_path(name + ".json"))


def _atoms(count):
    rng = np.random.default_rng(count)
    w = rng.uniform(0.05, 1.0, count)
    return L.make_discrete(zip(rng.uniform(-1.5, 2.5, count), w / w.sum()))


ATOM_MEASURES = {n: partial(_bundled, n) for n in ("point_mass", "bernoulli", "asymmetric")}
ATOM_MEASURES["mixed"] = _mixed
ATOM_MEASURES.update({"atoms%d" % c: partial(_atoms, c) for c in (3, 7, 8, 48, 96)})


def _ulps(got, want):
    # a sum rounded to a few eps has a log off by a few eps absolutely, so
    # the last place is taken at 1 where |log| < 1
    both = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), both)
    assert np.array_equal(got[~both], want[~both])
    return np.abs(got[both] - want[both]) / np.spacing(np.maximum(np.abs(want[both]), 1.0))


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("name", list(ATOM_MEASURES))
def test_log_evaluators_equal_row_major_oracle(name, delta):
    sm = L.SmoothedMeasure(ATOM_MEASURES[name](), delta)
    xs = _centered_points(sm, n=401)
    pairs = [(sm._log_density_c(xs), oracle_log_density_c(sm, xs))]
    pairs += [(sm._log_tail_c(xs, sf), oracle_log_tail_c(sm, xs, sf)) for sf in (True, False)]
    for got, want in pairs:
        if sm._aloc.size < 8:
            assert np.array_equal(got, want)
        else:
            assert _ulps(got, want).max() <= 4.0


# -- blocked evaluators -------------------------------------------------------
#
# Every centered-frame evaluator runs over balanced blocks of points; the
# unwrapped kernel on all the points at once is the oracle, bit for bit.


def _cells256():
    rng = np.random.default_rng(3)
    grid = np.linspace(-1.0, 1.0, 257)
    values = rng.uniform(0.3, 1.3, 257)
    values /= L.TabulatedDensity(grid, values).mass
    return L.make_measure(density=L.TabulatedDensity(grid, values))


BLOCK_MEASURES = {"atoms96": partial(_atoms, 96), "cells256": _cells256, "mixed": _mixed}


def _rows(sm):
    return max(2, smoothing._BLOCK_BYTES // (8 * sm._width))


def _evaluator_calls(sm, sides):
    """(evaluator name, extra arguments) of every blocked evaluator."""
    calls = [("_density_c", (), {}), ("_log_density_c", (), {}), ("_tail_c", (sides,), {})]
    calls += [("_tail_c", (), {"sf": sf}) for sf in (False, True)]  # as _cdf_c, _sf_c
    calls += [("_tail_density_c", (sides,), {})]
    return calls + [("_log_tail_c", (sf,), {}) for sf in (True, False)]


def _blocked_pairs(sm, xs, sides):
    """(blocked, one-block) result pairs of every evaluator at xs."""
    pairs = [(sm._cdf_c(xs), sm._tail_c(xs, False)), (sm._sf_c(xs), sm._tail_c(xs, True))]
    for name, args, kwargs in _evaluator_calls(sm, sides):
        got = getattr(sm, name)(xs, *args, **kwargs)
        want = getattr(type(sm), name).__wrapped__(sm, xs, *args, **kwargs)
        pairs += zip(got, want) if isinstance(got, tuple) else [(got, want)]
    return pairs


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("name", list(BLOCK_MEASURES))
def test_blocked_evaluators_equal_one_block_bitwise(name, delta):
    sm = L.SmoothedMeasure(BLOCK_MEASURES[name](), delta)
    rows = _rows(sm)
    rng = np.random.default_rng(rows)
    for n in (rows - 1, rows, rows + 1, 3 * rows + 1):
        xs = _centered_points(sm, n)
        for got, want in _blocked_pairs(sm, xs, rng.random(n) < 0.5):
            assert got.shape == (n,)
            assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("name", list(BLOCK_MEASURES))
def test_multi_point_calls_never_reach_a_kernel_as_one_point(name, monkeypatch):
    sm = L.SmoothedMeasure(BLOCK_MEASURES[name](), 0.25)
    sizes = []
    lse = smoothing._lse_atoms

    def lse_recorded(a):
        sizes.append(a.shape[1])
        return lse(a)

    def recorded(method):
        def run(self, x, *args):
            sizes.append(x.size)
            return method(self, x, *args)

        return run

    monkeypatch.setattr(smoothing, "_lse_atoms", lse_recorded)
    for attr in ("_edge_u", "_density_atoms", "_tail_atoms"):
        monkeypatch.setattr(L.SmoothedMeasure, attr, recorded(getattr(L.SmoothedMeasure, attr)))
    # blocks of 2 or 3 points, where a careless split leaves one point over
    monkeypatch.setattr(smoothing, "_BLOCK_BYTES", 8 * sm._width * 2)
    for n in range(2, 12):
        xs = _centered_points(sm, n)
        for evaluator, args, kwargs in _evaluator_calls(sm, np.arange(n) % 2 == 0):
            sizes.clear()
            getattr(sm, evaluator)(xs, *args, **kwargs)
            assert sizes and min(sizes) >= 2 and max(sizes) <= 3
    sizes.clear()
    sm._density_c(np.zeros(1))
    assert set(sizes) == {1}


def test_blocked_fused_kernel_peak_memory():
    # one (1001 x 257) temporary is 2.06 MB, and one call on all the points
    # at once peaks at about 16.5 MB; in blocks it peaks near 0.80 MB
    sm = L.SmoothedMeasure(_cells256(), 0.05)
    xs = _centered_points(sm, 1001)
    sm._tail_density_c(xs, True)
    tracemalloc.start()
    try:
        sm._tail_density_c(xs, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


# -- one Phi value per cell edge ---------------------------------------------
#
# A cell reads only the tail on its side of t, and the side flips once along
# the sorted edges; the kernels evaluate the smaller tail at every edge and
# one more value per point at the flip.  The two-sided oracle above is pinned
# bit for bit where the flip is delicate: at edges (u = 0), at cell midpoints
# (u0 + u1 = 0), one ulp either side of both, and beyond both ends.

FLIP_CASES = [(cells, d) for cells in (1, 2, 3, 8, 64, 256) for d in (5e-4, 0.05, 1.0)]


def _flip_points(sm):
    grid = sm.centered_base.density.grid
    mids = 0.5 * (grid[:-1] + grid[1:])
    spots = np.concatenate([grid, mids])
    beyond = np.array([0.5, 3.0, 40.0]) * sm.sigma
    ends = np.concatenate([grid[0] - beyond, grid[-1] + beyond, [-sm.cutoff, sm.cutoff]])
    near = [np.nextafter(spots, -np.inf), np.nextafter(spots, np.inf)]
    return np.concatenate([spots, *near, ends])


@pytest.mark.parametrize("cells, delta", FLIP_CASES, ids=["%d-d%g" % c for c in FLIP_CASES])
def test_one_sided_kernels_equal_two_sided_oracle_bitwise(cells, delta):
    rng = np.random.default_rng(cells)
    mu = L.make_measure(density=_sloped_density(rng, -1.0, 1.0, cells, 1.0))
    sm = L.SmoothedMeasure(mu, delta)
    xs = _flip_points(sm)
    sides = rng.random(xs.size) < 0.5
    dens = oracle_density_c(sm, xs)
    tail = np.where(sides, oracle_sf_c(sm, xs), oracle_cdf_c(sm, xs))
    assert np.array_equal(sm._density_c(xs), dens)
    got_tail, got_dens = sm._tail_density_c(xs, sides)
    assert np.array_equal(got_tail, tail)
    assert np.array_equal(got_dens, dens)


def _ndtr_values(monkeypatch, run):
    """Phi values ``run()`` asks of smoothing.ndtr."""
    count = [0]

    def counted(x, *args, **kwargs):
        count[0] += np.size(x)
        return ndtr(x, *args, **kwargs)

    monkeypatch.setattr(smoothing, "ndtr", counted)
    run()
    return count[0]


def test_density_kernels_take_one_phi_value_per_edge(monkeypatch):
    # two per (point, edge) with both tails at every edge
    sm = L.SmoothedMeasure(_cells256(), 0.05)
    xs = _centered_points(sm, 1001)
    edges = xs.size * 257
    assert _ndtr_values(monkeypatch, lambda: sm._density_c(xs)) <= 1.1 * edges
    # the fused kernel adds Phi(z) at the edges beyond each point on its tail's
    # side; the solvers take the nearer tail, which leaves few of them
    assert _ndtr_values(monkeypatch, lambda: sm._tail_density_c(xs, xs >= 0.0)) <= 1.1 * edges


def test_lipschitz_sweep_phi_values_per_abscissa_and_edge(monkeypatch):
    # 8.1 per (abscissa, edge) with both tails at every edge, 4.41 with one
    tm = L.TransportMap(L.SmoothedMeasure(_cells256(), 0.05))
    count = _ndtr_values(monkeypatch, lambda: tm.lipschitz_estimate(grid_points=1001))
    assert count <= 5.0 * 1001 * 257


# -- non-finite abscissae ------------------------------------------------------

#: (evaluator, value at -inf, value at +inf)
LIMITS = [
    ("density", 0.0, 0.0),
    ("log_density", -np.inf, -np.inf),
    ("cdf", 0.0, 1.0),
    ("sf", 1.0, 0.0),
    ("log_cdf", -np.inf, 0.0),
    ("log_sf", 0.0, -np.inf),
]
LIMIT_MEASURES = {n: partial(_bundled, n) for n in ("uniform", "bernoulli")}
LIMIT_MEASURES["mixed"] = _mixed


@pytest.mark.parametrize("x", [-np.inf, np.inf, np.nan], ids=["-inf", "+inf", "nan"])
@pytest.mark.parametrize("name", list(LIMIT_MEASURES))
@pytest.mark.parametrize("evaluator, at_minus, at_plus", LIMITS, ids=[e[0] for e in LIMITS])
def test_evaluators_at_non_finite_abscissae(evaluator, at_minus, at_plus, name, x):
    sm = L.SmoothedMeasure(LIMIT_MEASURES[name](), 0.25)
    fn = getattr(sm, evaluator)
    if np.isnan(x):
        with pytest.raises(L.DomainError, match="nan"):
            fn(np.array([0.0, x, 1.0]))
        return
    xs = np.array([0.3, x, -0.2, x])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, scalar = fn(xs), fn(x)
    want = at_minus if x < 0 else at_plus
    assert scalar == want and got[1] == want and got[3] == want
    assert np.array_equal(got[[0, 2]], fn(xs[[0, 2]]))


@pytest.mark.parametrize("x", [-1e300, -1e154, -1e16, 1e16, 1e154, 1e300])
@pytest.mark.parametrize("name", ["uniform", "mixed"])
@pytest.mark.parametrize("evaluator, at_minus, at_plus", LIMITS[2:], ids=[e[0] for e in LIMITS[2:]])
def test_tails_at_huge_finite_abscissae(evaluator, at_minus, at_plus, name, x):
    # the cells' tails take their limits (cancellation gave cdf(1e16) = 0 and
    # z*z overflow NaN from 1e154); the atoms keep their own log tails
    sm = L.SmoothedMeasure(LIMIT_MEASURES[name](), 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = getattr(sm, evaluator)(np.array([x, 0.3]))
    want = at_minus if x < 0 else at_plus
    if want == -np.inf and sm._aloc.size:
        z = (x - sm.center - sm._aloc) / sm.sigma
        with np.errstate(divide="ignore"):
            want = logsumexp(np.log(sm._awt) + log_ndtr(-z if evaluator == "log_sf" else z))
    assert got[0] == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert got[1] == getattr(sm, evaluator)(0.3)


@pytest.mark.parametrize("name", list(LIMIT_MEASURES))
def test_inv_cdf_names_a_nan_argument(name):
    sm = L.SmoothedMeasure(LIMIT_MEASURES[name](), 0.25)
    with pytest.raises(L.DomainError, match=r"strictly inside \(0, 1\), got nan at index 1$"):
        sm.inv_cdf(np.array([0.5, np.nan, 2.0]))
    with pytest.raises(L.DomainError, match=r"strictly inside \(0, 1\), got 2\.0 at index 1$"):
        sm.inv_cdf(np.array([0.5, 2.0, np.nan]))


@pytest.mark.parametrize("x", [-np.inf, np.inf, np.nan], ids=["-inf", "+inf", "nan"])
@pytest.mark.parametrize("name", list(LIMIT_MEASURES))
@pytest.mark.parametrize("method", ["eval", "eval_and_derivative", "derivative"])
def test_transport_at_non_finite_abscissae_is_a_domain_error(method, name, x):
    # not a BracketFailure about an underflowing tail, and no RuntimeWarning
    tm = L.TransportMap(L.SmoothedMeasure(LIMIT_MEASURES[name](), 0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(L.DomainError, match=r"must be finite, got %s at index 2$" % x):
            getattr(tm, method)(np.array([0.0, 1.0, x, np.nan]))
