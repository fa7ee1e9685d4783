"""Closed-form cell kernels on sloped, many-cell densities.

The bundled measures reach the piecewise-linear kernels only through the
uniform density (4 cells, slope 0), where a knot off-by-one cannot show.
These tests use a seeded 64-cell density with nonzero slopes and a mixed
atoms+cells measure, check them against direct quadrature over the base
measure and against per-cell closed forms, pin the kernels bit for bit to a
per-row oracle, each atom and knot on its own, and check that quantiles
round-trip through the CDF.
"""

import re
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.special import erfcx, log_ndtr, logsumexp, ndtr

import logsob as L
import logsob.smoothing as smoothing
from logsob.cli import bundled_data_path

from conftest import bimodal_density, sloped_density
from test_contract import closed_form

_SQRT_2PI = np.sqrt(2.0 * np.pi)
DELTAS = (0.05, 1.0)


def _dense():
    return L.make_measure(density=sloped_density(np.random.default_rng(0), -1.0, 1.0, 64, 1.0))


def _mixed():
    rng = np.random.default_rng(1)
    atoms = [(0.2, 0.15), (1.1, 0.1), (3.0, 0.2)]
    return L.make_measure(atoms=atoms, density=sloped_density(rng, 0.5, 2.5, 64, 0.55))


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


def _oracle_cdf(z):
    """Phi(z), as the complement of the smaller tail where z > 0."""
    return np.where(z > 0.0, 1.0 - ndtr(-z), ndtr(z))


def _oracle_anti_cdf(z):
    return z * _oracle_cdf(z) + _oracle_pdf(z)


def _oracle_anti_z_cdf(z):
    return 0.5 * ((z * z - 1.0) * _oracle_cdf(z) + z * _oracle_pdf(z))


def _oracle_cdf_gap(u0, u1):
    """Phi(u1) - Phi(u0) of each cell on its own: the tail on the cell's side of
    the point, or for the cell that straddles it (u0 <= 0 < u1) one minus both
    smaller tails, the larger subtracted first."""
    left, right = ndtr(u0), ndtr(-u1)
    straddle = (1.0 - np.maximum(left, right)) - np.minimum(left, right)
    return np.where(u1 <= 0.0, ndtr(u1) - left, np.where(u0 > 0.0, ndtr(-u0) - right, straddle))


def _add_in_turn(terms):
    """Row sums of (points, terms), adding each point's terms in index order."""
    out = terms[:, 0]
    for col in terms.T[1:]:
        out = out + col
    return out


def _oracle_atoms(sm):
    aloc = np.array([x for x, _ in sm.centered_base.atoms], dtype=float)
    awt = np.array([w for _, w in sm.centered_base.atoms], dtype=float)
    return aloc, awt


def oracle_density_cells(sm, t):
    s0, s1, alpha, beta = _oracle_cells(sm)
    u0 = (s0 - t[:, None]) / sm.sigma
    u1 = (s1 - t[:, None]) / sm.sigma
    lin = alpha + beta * t[:, None]
    terms = lin * _oracle_cdf_gap(u0, u1) + beta * sm.sigma * (_oracle_pdf(u0) - _oracle_pdf(u1))
    return np.maximum(_add_in_turn(terms), 0.0)


def oracle_cdf_cells(sm, x):
    s0, s1, alpha, beta = _oracle_cells(sm)
    z0 = (x[:, None] - s0) / sm.sigma
    z1 = (x[:, None] - s1) / sm.sigma
    lin = alpha + beta * x[:, None]
    terms = lin * (_oracle_anti_cdf(z0) - _oracle_anti_cdf(z1))
    terms = terms - beta * sm.sigma * (_oracle_anti_z_cdf(z0) - _oracle_anti_z_cdf(z1))
    return sm.sigma * _add_in_turn(np.maximum(terms, 0.0))


def oracle_sf_cells(sm, x):
    s0, s1, alpha, beta = _oracle_cells(sm)
    w0 = (s0 - x[:, None]) / sm.sigma
    w1 = (s1 - x[:, None]) / sm.sigma
    lin = alpha + beta * x[:, None]
    terms = lin * (_oracle_anti_cdf(w1) - _oracle_anti_cdf(w0))
    terms = terms + beta * sm.sigma * (_oracle_anti_z_cdf(w1) - _oracle_anti_z_cdf(w0))
    return sm.sigma * _add_in_turn(np.maximum(terms, 0.0))


# -- per-row oracle: every atom and knot evaluated on its own ----------------


def _oracle_knots(sm):
    """(g, a, b) of every grid node with a jump a (-v_0 at the first node, v_N at the
    last, 0 between) or a kink b, the slope to the right minus the slope to the left,
    with slope 0 outside the grid.  A node with neither adds no term, but would move
    the nearest row, so it is left out."""
    dens = sm.centered_base.density
    grid, vals = dens.grid, dens.values
    cells = zip(grid[:-1], grid[1:], vals[:-1], vals[1:])
    slopes = [0.0] + [(v1 - v0) / (g1 - g0) for g0, g1, v0, v1 in cells] + [0.0]
    knots = []
    for j, g in enumerate(grid):
        a = -vals[0] if j == 0 else vals[-1] if j == grid.size - 1 else 0.0
        b = slopes[j + 1] - slopes[j]
        if a != 0.0 or b != 0.0:
            knots.append((g, a, b))
    return knots


def _oracle_rows(sm):
    """(g, w, a, b) of every atom, then of every knot, each 0 in the other kind's fields."""
    rows = [(x, w, 0.0, 0.0) for x, w in sm.centered_base.atoms]
    if sm.centered_base.density is not None:
        rows += [(g, 0.0, a, b) for g, a, b in _oracle_knots(sm)]
    return rows


def _oracle_interp(grid, vals, x):
    """The tabulated density at x in the grid hull, as np.interp reads it: the node's value
    at a node, else the slope of x's cell times the distance to its left node, plus that
    node's value."""
    j = max(i for i in range(grid.size) if grid[i] <= x)
    if grid[j] == x:
        return vals[j]
    return (vals[j + 1] - vals[j]) / (grid[j + 1] - grid[j]) * (x - grid[j]) + vals[j]


def _oracle_base(sm, t):
    """The base density f and its slope at each point t, both from the right, and the
    base mass below t (atoms at t included) and above it.  The breakpoints are the atoms
    and the grid nodes; each side's mass is its atoms and whole intervals, added in from
    that end, plus the trapezoid of t's interval on that side.  Off the breakpoints, f
    and the slope are 0 and the masses 0 and all of it."""
    mu = sm.centered_base
    grid, vals = (np.empty(0),) * 2 if mu.density is None else (mu.density.grid, mu.density.values)
    pts = sorted({x for x, _ in mu.atoms} | set(grid))
    n = len(pts) - 1
    at = [0.0] * (n + 1)
    for x, w in mu.atoms:
        at[pts.index(x)] += w
    rows = [(pts[0], 0.0, 0.0, pts[0], 0.0)]  # left end, f there, slope, right end, f there
    for k in range(n):
        p0, p1 = pts[k], pts[k + 1]
        inside = grid.size and grid[0] <= p0 and p1 <= grid[-1]
        f0, f1 = (_oracle_interp(grid, vals, p) if inside else 0.0 for p in (p0, p1))
        rows.append((p0, f0, (f1 - f0) / (p1 - p0), p1, f1))
    rows.append((pts[-1], 0.0, 0.0, pts[-1], 0.0))
    # the mass at or below each breakpoint, and at or above it
    seq = [at[0]]
    for k in range(n):
        seq += [0.5 * (rows[k + 1][1] + rows[k + 1][4]) * (pts[k + 1] - pts[k]), at[k + 1]]
    below, above = [seq[0]], [seq[-1]]
    for v in seq[1:]:
        below.append(below[-1] + v)
    for v in seq[-2::-1]:
        above.append(above[-1] + v)
    below, above = below[0::2], above[0::2][::-1]
    out = np.zeros((4, t.size))
    for i, ti in enumerate(t):
        k = sum(p <= ti for p in pts)  # the row: 0 left of every breakpoint
        p0, f0, slope, p1, f1 = rows[k]
        lo, hi = (0.0, above[0]) if k == 0 else (below[k - 1], above[k] if k <= n else 0.0)
        f = f0 + slope * (ti - p0)
        out[:, i] = (f, slope, lo + 0.5 * (ti - p0) * (f0 + f), hi + 0.5 * (p1 - ti) * (f + f1))
    return out


def _odd_factorial(k):
    """(2k + 1)!! = 1 * 3 * ... * (2k + 1)."""
    return float(np.prod(np.arange(1, 2 * k + 2, 2)))


#: the asymptotic series of J1/y and J2 |z|/(2y), y = 1/z^2, highest power first
_J1_TERMS = [(-1) ** k * _odd_factorial(k) for k in range(6, -1, -1)]
_J2_TERMS = [(-1) ** k * (k + 1) * _odd_factorial(k) for k in range(7, -1, -1)]


def _oracle_row_parts(z):
    """M = Phi/phi, J1 = z M + 1 and J2 = z J1 + M at z <= 0, the last two from their
    asymptotic series past smoothing._FAR."""
    m = np.sqrt(0.5 * np.pi) * erfcx(z * -np.sqrt(0.5))
    j1 = z * m + 1.0
    j2 = z * j1 + m
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        y = z**-2.0
        far = z < -smoothing._FAR
        j1 = np.where(far, y * np.polyval(_J1_TERMS, y), j1)
        j2 = np.where(far, -2.0 * y / z * np.polyval(_J2_TERMS, y), j2)
    return m, j1, j2


def oracle_log_c(sm, t, sf=None):
    """log q at each t, or with per-point ``sf`` flags (log tail, log q), from each row
    on its own, added in index order: a row at g at z = -|g/sigma - t/sigma|, with
    s = -1 if g > t, else 1, adds e (s a M + sigma b J1 + w/sigma) to q and
    e (s (w M + sigma^2 b J2/2) + sigma a J1) to C, e = exp((z* - z)(z* + z)/2) at
    the nearest row's z*.  q is f + phi(z*) times their sum, or where f is 0, the log
    of the sum plus log phi(z*); a tail is the base mass on its side -+ delta f'/2 +-
    Phi(z*) C/M(z*), or where that base part is 0, log(C/M(z*)) + log_ndtr(z*).  The
    points are clamped to R + 1e155 sigma, where z*z has overflowed."""
    lim = sm.radius + 1e155 * sm.sigma
    t = np.clip(t, -lim, lim)
    zs = [-np.abs(g / sm.sigma - t / sm.sigma) for g, *_ in _oracle_rows(sm)]
    zn = np.max(zs, axis=0)
    q = c = 0.0
    for (g, w, a, b), z in zip(_oracle_rows(sm), zs):
        up = g > t
        e = np.exp(0.5 * (zn - z) * (zn + z))
        m, j1, j2 = _oracle_row_parts(z)
        q = q + (np.where(up, -a, a) * m + (sm.sigma * b) * j1 + w / sm.sigma) * e
        c_row = w * m + (0.5 * sm.delta * b) * j2
        c = c + (np.where(up, -c_row, c_row) + (sm.sigma * a) * j1) * e
    f, slope, below, above = _oracle_base(sm, t)
    with np.errstate(over="ignore", divide="ignore"):
        log_phi = -0.5 * zn * zn - _LOG_SQRT_2PI
        inner = f != 0.0
        q = np.where(inner, f + np.exp(log_phi) * q, q)
        log_q = np.log(np.maximum(q, 0.0)) + np.where(inner, 0.0, log_phi)
        if sf is None:
            return log_q
        c = c / _oracle_row_parts(zn)[0]
        c = np.where(sf, c, -c)
        half = 0.5 * sm.delta * slope
        base = np.where(sf, above - half, below + half)
        log_cdf, outer = log_ndtr(zn), base == 0.0
        tail = np.where(outer, c, base + np.exp(log_cdf) * c)
        log_tail = np.log(np.maximum(tail, 0.0)) + np.where(outer, log_cdf, 0.0)
    return np.minimum(log_tail, 0.0), log_q


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
    direct = _direct(mu, lambda d: _oracle_pdf(d / sm.sigma) / sm.sigma, ts)
    assert np.allclose(sm.density(ts), direct, rtol=1e-10, atol=0.0)


def test_cdf_and_sf_match_quadrature_route(case):
    mu, sm = case
    ts = _points(sm)
    cdf = _direct(mu, lambda d: ndtr(d / sm.sigma), ts)
    sf = _direct(mu, lambda d: ndtr(-d / sm.sigma), ts)
    assert np.allclose(sm.cdf(ts), cdf, rtol=1e-10, atol=0.0)
    assert np.allclose(sm.sf(ts), sf, rtol=1e-10, atol=0.0)


def test_cdf_plus_sf_is_one(case):
    _, sm = case
    xs = sm.center + _centered_points(sm)
    # the closed forms difference O(|z|) antiderivatives over narrow cells,
    # so the sum sits within ~1e-11 of 1: two decades inside cdf_tol
    assert np.allclose(sm.cdf(xs) + sm.sf(xs), 1.0, rtol=0.0, atol=1e-10)


# -- bitwise identity with the per-row oracle, closeness to the per-cell one ---

#: the log kernels agree with the logs of the per-cell closed forms to this absolute
#: tolerance in log, a relative one in the value.  Where the per-cell forms' own rounding
#: is larger (far out on many cells at delta 1: q up to 1.2e-10 off the closed form at 60
#: digits on 64 cells and 7.6e-10 on 256, the tails 5.5e-8), or where they are below the
#: normal doubles, the kernels are held to 60 digits at the same tolerance and must be
#: nearer to them than the per-cell forms are (3.5 times nearer, at least)
CELL_RTOL = {"q": 1e-11, "tail": 1e-8}


def _oracle_atom_parts(sm, x):
    """The atoms' q, cdf and sf at each x, as linear sums."""
    aloc, awt = _oracle_atoms(sm)
    z = (x[:, None] - aloc) / sm.sigma
    return [(awt * v).sum(axis=1) for v in (_oracle_pdf(z) / sm.sigma, ndtr(z), ndtr(-z))]


def _assert_near_per_cell(sm, xs):
    q, cdf, sf = _oracle_atom_parts(sm, xs)
    triples = [("q", "log_density", sm._log_density_c(xs), oracle_density_cells(sm, xs) + q)]
    for side, evaluator, oracle, atoms in (
        (False, "log_cdf", oracle_cdf_cells, cdf),
        (True, "log_sf", oracle_sf_cells, sf),
    ):
        triples.append(("tail", evaluator, sm._log_tail_density_c(xs, side)[0], oracle(sm, xs) + atoms))
    for kind, evaluator, got, want in triples:
        with np.errstate(divide="ignore"):
            want = np.log(want)
        off = ~(np.abs(got - want) <= CELL_RTOL[kind])
        assert not off[xs.size // 2], kind
        truth = np.array([closed_form(sm.centered_base, sm.delta, x, evaluator) for x in xs[off]])
        miss = np.abs(got[off] - truth)
        assert np.all(miss <= CELL_RTOL[kind]) and np.all(miss < np.abs(want[off] - truth)), kind


def _assert_equal_per_row_oracle(sm, xs, sides=None):
    """Both kernels equal the per-row oracle bit for bit, at one flag for all points or
    each of ``sides``, and the fused kernel's log q is the density kernel's."""
    log_q = oracle_log_c(sm, xs)
    assert np.array_equal(sm._log_density_c(xs), log_q)
    for sf in (False, True) if sides is None else (sides,):
        tail, dens = sm._log_tail_density_c(xs, sf)
        assert np.array_equal(tail, oracle_log_c(sm, xs, np.broadcast_to(sf, xs.shape))[0])
        assert np.array_equal(dens, log_q)


def test_kernels_equal_per_knot_oracle_bitwise(case):
    _, sm = case
    _assert_equal_per_row_oracle(sm, _centered_points(sm))


def test_kernels_match_per_cell_oracle(case):
    _, sm = case
    _assert_near_per_cell(sm, _centered_points(sm))


# -- quantiles -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_quantiles_round_trip_through_cdf(name):
    sm = L.SmoothedMeasure(MEASURES[name](), 0.05)
    us = np.array([1e-6, 0.01, 0.3, 0.5, 0.77, 0.99, 1.0 - 1e-6])
    assert np.allclose(sm.cdf(sm.inv_cdf(us)), us, rtol=1e-8, atol=1e-12)


# -- the fused tail + density evaluator, the only tail route ----------------


def test_fused_tail_and_density_equal_per_knot_oracle_bitwise(case):
    # everywhere: past R + 1e155 sigma the kernels, and the oracle, clamp the point,
    # where z*z has overflowed and every scale is 0
    _, sm = case
    far = sm.radius + np.array([41.0 * sm.sigma, 1e10, 1e155, 1e300])
    xs = np.concatenate([_centered_points(sm), far, -far])
    _assert_equal_per_row_oracle(sm, xs)
    _assert_equal_per_row_oracle(sm, xs, np.random.default_rng(5).random(xs.size) < 0.5)


# -- atoms-only measures through the same pass --------------------------------
#
# An atom is a row like a knot, adding e/sigma times its weight to q and e M times
# it to C; the per-row oracle adds each row's terms in index order, as the kernels
# do at every atom count.

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def _bundled(name):
    return L.load_measure(bundled_data_path(name + ".json"))


def _atoms(count):
    rng = np.random.default_rng(count)
    w = rng.uniform(0.05, 1.0, count)
    return L.make_discrete(zip(rng.uniform(-1.5, 2.5, count), w / w.sum()))


ATOM_MEASURES = {n: partial(_bundled, n) for n in ("point_mass", "bernoulli", "asymmetric")}
ATOM_MEASURES["mixed"] = _mixed
ATOM_MEASURES.update({"atoms%d" % c: partial(_atoms, c) for c in (3, 7, 8, 48, 96)})


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("name", list(ATOM_MEASURES))
def test_log_evaluators_equal_row_major_oracle(name, delta):
    sm = L.SmoothedMeasure(ATOM_MEASURES[name](), delta)
    _assert_equal_per_row_oracle(sm, _centered_points(sm, n=401))


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
    return max(1, smoothing._BLOCK_BYTES // (8 * sm._gs.size))


def _evaluator_calls(sm, sides):
    """(evaluator name, extra arguments) of every blocked evaluator."""
    calls = [("_log_density_c", ()), ("_log_tail_density_c", (sides,))]
    return calls + [("_log_tail_density_c", (sf,)) for sf in (False, True)]  # as log_cdf, log_sf


def _blocked_pairs(sm, xs, sides):
    """(blocked, one-block) result pairs of every evaluator at xs."""
    pairs = []
    for name, args in _evaluator_calls(sm, sides):
        got = getattr(sm, name)(xs, *args)
        want = getattr(type(sm), name).__wrapped__(sm, xs, *args)
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
def test_a_point_alone_has_its_bits_in_a_blocked_batch(name):
    # numpy sums a single column pairwise from 8 terms, a batch's rows in turn
    sm = L.SmoothedMeasure(BLOCK_MEASURES[name](), 0.25)
    n = 2 * _rows(sm) + 1
    xs = _centered_points(sm, n)
    for evaluator, args in _evaluator_calls(sm, np.arange(n) % 3 == 0):
        fn = getattr(sm, evaluator)
        batch = np.array(fn(xs, *args))
        for i in range(n):
            alone = fn(xs[i : i + 1], *[v[i : i + 1] if np.ndim(v) else v for v in args])
            assert np.array_equal(np.array(alone), batch[..., i : i + 1])


def test_blocked_fused_kernel_peak_memory():
    # one (1001 x 257) temporary is 2.06 MB, and one call on all the points
    # at once peaks at about 17 MB; in blocks it peaks near 0.60 MB
    sm = L.SmoothedMeasure(_cells256(), 0.05)
    xs = _centered_points(sm, 1001)
    sm._log_tail_density_c(xs, True)
    tracemalloc.start()
    try:
        sm._log_tail_density_c(xs, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


# -- one Mills ratio per knot -------------------------------------------------
#
# Each point reads every knot from the knot's own side of the point, one Mills
# ratio and one scale e per (knot, point), and adds the terms to the base
# density and its masses at the point.  The per-row oracle is pinned bit for bit
# at the delicate points: at knots (z = 0, where the side flips), at cell
# midpoints, one ulp either side of each, and beyond both ends out to 40
# sigma; the per-cell closed forms are matched there to CELL_RTOL.

KNOT_CASES = [(cells, d) for cells in (1, 2, 3, 8, 64, 256) for d in (5e-4, 0.05, 1.0)]
KNOT_IDS = ["%d-d%g" % c for c in KNOT_CASES]
#: the variances at which two groups of cells 0.8 apart have q of about 9e-6 and
#: 1e-20 between them, far below the terms of either group read from the gap's side
GAP_DELTAS = (0.01, 0.002)


def _knot_case(cells, delta):
    rng = np.random.default_rng(cells)
    mu = L.make_measure(density=sloped_density(rng, -1.0, 1.0, cells, 1.0))
    return L.SmoothedMeasure(mu, delta), rng


def _delicate_points(sm):
    grid = sm.centered_base.density.grid
    mids = 0.5 * (grid[:-1] + grid[1:])
    spots = np.concatenate([grid, mids])
    beyond = np.array([0.5, 3.0, 40.0]) * sm.sigma
    ends = np.concatenate([grid[0] - beyond, grid[-1] + beyond, [-sm.cutoff, sm.cutoff]])
    near = [np.nextafter(spots, -np.inf), np.nextafter(spots, np.inf)]
    return np.concatenate([spots, *near, ends])


@pytest.mark.parametrize("cells, delta", KNOT_CASES, ids=KNOT_IDS)
def test_knot_kernels_equal_per_knot_oracle_bitwise(cells, delta):
    sm, rng = _knot_case(cells, delta)
    xs = _delicate_points(sm)
    _assert_equal_per_row_oracle(sm, xs, rng.random(xs.size) < 0.5)


@pytest.mark.parametrize("cells, delta", KNOT_CASES, ids=KNOT_IDS)
def test_knot_kernels_match_per_cell_oracle(cells, delta):
    sm, _ = _knot_case(cells, delta)
    _assert_near_per_cell(sm, _delicate_points(sm))


def _lopsided():
    # all but 2e-12 of the mass in the last tenth of the support
    grid, values = np.array([-1.0, 0.9, 1.0]), np.array([1e-12, 1e-12, 1.0])
    values /= L.TabulatedDensity(grid, values).mass
    return L.make_measure(density=L.TabulatedDensity(grid, values))


@pytest.mark.parametrize("delta", [1e-4, 0.01, 1.0])
def test_near_tails_of_a_lopsided_density_match_per_cell_oracle(delta):
    # read from the center's side, the cdf at 0.1 (about 2e-11) came out as the
    # mass minus a far tail near it, 4e-4 off; the base's mass below t is the
    # cells' trapezoids, with nothing subtracted
    sm = L.SmoothedMeasure(_lopsided(), delta)
    _assert_near_per_cell(sm, np.concatenate([_delicate_points(sm), _centered_points(sm)]))


def _gap_points(sm):
    # the gap (-0.4, 0.4) between the two groups of cells, and the points above
    return np.concatenate([np.linspace(-0.4, 0.4, 17), _delicate_points(sm)])


@pytest.mark.parametrize("delta", GAP_DELTAS)
def test_gap_between_groups_of_cells(delta):
    # read from one side of a single mass split, the far group's terms are O(1)
    # and cancel down to q(0): 1e-10 off at delta 0.01, 1.5e-2 off in log q at 0.002
    sm = L.SmoothedMeasure(L.make_measure(density=bimodal_density()), delta)
    xs = _gap_points(sm)
    _assert_near_per_cell(sm, xs)
    _assert_equal_per_row_oracle(sm, xs, np.random.default_rng(7).random(xs.size) < 0.5)


@pytest.mark.parametrize("evaluator", ["density", "log_density", "cdf", "sf", "log_cdf", "log_sf"])
def test_an_all_zero_density_adds_nothing_to_the_atoms(evaluator):
    # a density with no knot leaves the atoms alone, at one point and at several
    atoms = [(-1.0, 0.4), (0.5, 0.6)]
    zero = L.TabulatedDensity(np.array([-1.0, 0.0, 1.0]), np.zeros(3))
    sm = L.SmoothedMeasure(L.make_measure(atoms=atoms, density=zero), 0.25)
    ref = L.SmoothedMeasure(L.make_discrete(atoms + [(1.0, 1e-300)]), 0.25)
    xs = np.array([-2.0, -0.3, 0.2, 0.9, 3.0])
    got, want = getattr(sm, evaluator), getattr(ref, evaluator)
    assert got(0.2) == pytest.approx(want(0.2), rel=1e-14)
    assert np.allclose(got(xs), want(xs), rtol=1e-14, atol=0.0)
    us = np.array([0.3, 0.7])
    assert sm.inv_cdf(0.3) == pytest.approx(ref.inv_cdf(0.3), rel=1e-9)
    assert np.allclose(sm.inv_cdf(us), ref.inv_cdf(us), rtol=1e-9)


def _erfcx_values(monkeypatch, run):
    """Mills ratios ``run()`` asks of smoothing.erfcx."""
    count = [0]

    def counted(x, *args, **kwargs):
        count[0] += np.size(x)
        return erfcx(x, *args, **kwargs)

    monkeypatch.setattr(smoothing, "erfcx", counted)
    run()
    return count[0]


def test_density_kernels_take_one_phi_value_per_knot(monkeypatch):
    # one per (point, knot): the fused kernel reads Phi, J1 and J2 of the same
    # value and the nearest row's from it, and every node of this table is a
    # knot, its slopes all differing
    sm = L.SmoothedMeasure(_cells256(), 0.05)
    xs = _centered_points(sm, 1001)
    knots = xs.size * 257
    assert _erfcx_values(monkeypatch, lambda: sm._log_density_c(xs)) == knots
    assert _erfcx_values(monkeypatch, lambda: sm._log_tail_density_c(xs, xs >= 0.0)) == knots


def test_lipschitz_sweep_phi_values_per_abscissa_and_knot(monkeypatch):
    # 4.41 per (abscissa, knot) with a Newton solve per abscissa; the sweep in
    # y = T(x) solves 3 points and reads each grid point once: 1.03
    tm = L.TransportMap(L.SmoothedMeasure(_cells256(), 0.05))
    count = _erfcx_values(monkeypatch, lambda: tm.lipschitz_estimate(grid_points=1001))
    assert count <= 1.2 * 1001 * 257


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
    if want == -np.inf and sm.centered_base.atoms:
        aloc, awt = _oracle_atoms(sm)
        z = (x - sm.center - aloc) / sm.sigma
        with np.errstate(divide="ignore"):
            want = logsumexp(np.log(awt) + log_ndtr(-z if evaluator == "log_sf" else z))
    assert got[0] == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert got[1] == getattr(sm, evaluator)(0.3)


@pytest.mark.parametrize("x", [-1e300, -1e154, 1e154, 1e300])
@pytest.mark.parametrize("name", list(LIMIT_MEASURES))
@pytest.mark.parametrize("evaluator, limit", [("density", 0.0), ("log_density", -np.inf)])
def test_densities_at_huge_finite_abscissae(evaluator, limit, name, x):
    # z*z overflows to inf from |t| of about 1e154, which gives the limit;
    # the overflow must not warn
    sm = L.SmoothedMeasure(LIMIT_MEASURES[name](), 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = getattr(sm, evaluator)(np.array([x, 0.3]))
    assert got[0] == limit
    assert got[1] == getattr(sm, evaluator)(0.3)


def _sloped3():
    return L.make_measure(
        density=L.TabulatedDensity(np.array([-1.0, 0.0, 1.0]), np.array([0.2, 0.8, 0.2]))
    )


@pytest.mark.parametrize("x", [-1.7e308, 1.7e308])
@pytest.mark.parametrize("name", [*LIMIT_MEASURES, "sloped"])
@pytest.mark.parametrize("evaluator", ["log_density", "log_cdf", "log_sf"])
def test_evaluators_at_the_largest_doubles_give_their_limits(evaluator, name, x):
    # (edge - t)/sigma, (t - atom)/sigma and the slope times t overflow there;
    # the kernels clamp t to R + 1e155 sigma first, and nothing may warn.  The
    # value is the limit at inf, up to the rounding of the tabulated mass
    sm = L.SmoothedMeasure(_sloped3() if name == "sloped" else LIMIT_MEASURES[name](), 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = getattr(sm, evaluator)(np.array([x, 0.3]))
    limit = getattr(sm, evaluator)(np.copysign(np.inf, x))
    assert got[0] == pytest.approx(limit, abs=1e-12)
    assert got[1] == getattr(sm, evaluator)(0.3)


@pytest.mark.parametrize("x", [-1e155, 1e155])
def test_transport_beyond_the_cell_clamp_is_a_bracket_failure(x):
    # past the kernels' clamp at R + 1e155 sigma z*z overflows: the source's
    # log tail and the solve's are -inf, a typed error, and nothing warns
    tm = L.TransportMap(L.SmoothedMeasure(L.make_uniform(-1.0, 1.0), 0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(L.BracketFailure, match="first at x = %s$" % re.escape(repr(x))):
            tm.eval(x)


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
