"""Closed-form cell kernels on sloped, many-cell densities.

The bundled measures reach the piecewise-linear kernels only through the
uniform density (4 cells, slope 0), where an edge/cell off-by-one cannot
show.  These tests use a seeded 64-cell density with nonzero slopes and a
mixed atoms+cells measure, check them against direct quadrature over the
base measure, pin the kernels bit for bit to a per-cell oracle, and check
that the quantile table is built only when a quantile is asked for.
"""

from functools import partial

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr

import logsob as L
from logsob.cli import bundled_data_path
from logsob.transport import TransportMap, transport_table

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
    # the whole quantile-table range plus a margin beyond the cutoff
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


def test_quantile_table_equals_eager_oracle_table(case):
    _, sm = case
    expected = np.maximum.accumulate(oracle_cdf_c(sm, sm._grid))
    assert np.array_equal(sm._grid_cdf, expected)


# -- the quantile table is built on the first quantile only -----------------


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_quantile_table_is_lazy(name):
    sm = L.SmoothedMeasure(MEASURES[name](), 0.05)
    assert "_grid_cdf" not in sm.__dict__
    tm = TransportMap(sm)
    assert tm.unit is not sm
    tm.eval_and_derivative(sm.center + np.linspace(-2.0, 2.0, 9))
    transport_table(tm, points=33)
    for inst in (sm, tm.unit):
        assert "_grid_cdf" not in inst.__dict__
    sm.inv_cdf(0.5)
    assert "_grid_cdf" in sm.__dict__


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_lazy_quantiles_equal_forced_table_quantiles(name):
    mu = MEASURES[name]()
    us = np.array([1e-6, 0.01, 0.3, 0.5, 0.77, 0.99, 1.0 - 1e-6])
    lazy = L.SmoothedMeasure(mu, 0.05)
    forced = L.SmoothedMeasure(mu, 0.05)
    assert forced._grid_cdf.shape == forced._grid.shape
    assert np.array_equal(lazy.inv_cdf(us), forced.inv_cdf(us))
    assert np.allclose(lazy.cdf(lazy.inv_cdf(us)), us, rtol=1e-8, atol=1e-12)


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
