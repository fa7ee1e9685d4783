import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import logsob as L

settings.register_profile(
    "fast",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fast")


def sloped_density(rng, a, b, cells, mass):
    """A piecewise-linear density on [a, b] with random knots and values, one of
    them 0, scaled to ``mass``."""
    inner = np.sort(rng.uniform(a, b, cells - 1))
    grid = np.concatenate([[a], inner, [b]])
    values = rng.uniform(0.0, 2.0, cells + 1)
    values[rng.integers(0, cells + 1)] = 0.0
    values *= mass / L.TabulatedDensity(grid, values).mass
    return L.TabulatedDensity(grid, values)


def bimodal_density():
    """Two triangles of mass 1/2 on [-1, -0.4] and [0.4, 1], with a gap of zeros between."""
    grid = np.array([-1.0, -0.7, -0.4, 0.4, 0.7, 1.0])
    return L.TabulatedDensity(grid, np.array([0.0, 5.0, 0.0, 0.0, 5.0, 0.0]) / 3.0)


@pytest.fixture(scope="session")
def point_mass():
    return L.make_discrete([(0.0, 1.0)])


@pytest.fixture(scope="session")
def bernoulli():
    return L.make_discrete([(-1.0, 0.5), (1.0, 0.5)])


@pytest.fixture(scope="session")
def asymmetric():
    return L.make_discrete([(-1.0, 0.25), (1.0, 0.75)])


@pytest.fixture(scope="session")
def uniform():
    return L.make_uniform(-1.0, 1.0)


@pytest.fixture
def underflowing_tails(monkeypatch):
    """The fused kernel with every log tail below the normal doubles planted as -inf, as
    a kernel that logged linear tails would give: a solve that reads one fails, which
    exercises the error paths that no finite tail reaches."""
    kernel = L.SmoothedMeasure._log_tail_density_c

    def underflowing(self, y, sf):
        log_tail, log_q = kernel(self, y, sf)
        return np.where(log_tail < np.log(np.finfo(float).tiny), -np.inf, log_tail), log_q

    monkeypatch.setattr(L.SmoothedMeasure, "_log_tail_density_c", underflowing)


def dense_quantile_oracle(sm, u, lo, hi, tol=1e-9):
    """Plain bisection on the CDF; independent of the Newton quantile path."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sm.cdf(mid) < u:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def central_difference(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def _moment_antiderivatives(x, s):
    """Antiderivatives in s of e^{xs}, s e^{xs} and s^2 e^{xs}, at s (x != 0)."""
    e = mpmath.exp(x * s)
    return e / x, e * (s / x - 1 / x**2), e * (s**2 / x - 2 * s / x**2 + 2 / x**3)


def _tilted_moments(mu, c, x):
    """mpmath (M, M1): the integrals of e^{x(s - c)} and (s - c) e^{x(s - c)}
    against mu, x != 0.  Atoms are exact sums; a linear cell alpha + beta*s
    integrates against 1 and s in closed form from the antiderivatives of
    s^j e^{xs} at its edges."""
    atoms = [(mpmath.mpf(s) - c, mpmath.mpf(w)) for s, w in mu.atoms]
    grid, vals = [], []
    if mu.density is not None:
        grid = [mpmath.mpf(g) - c for g in mu.density.grid]
        vals = [mpmath.mpf(v) for v in mu.density.values]
    m0 = mpmath.fsum(w * mpmath.exp(x * s) for s, w in atoms)
    m1 = mpmath.fsum(w * s * mpmath.exp(x * s) for s, w in atoms)
    prims = [_moment_antiderivatives(x, g) for g in grid]
    for j in range(len(grid) - 1):
        beta = (vals[j + 1] - vals[j]) / (grid[j + 1] - grid[j])
        alpha = vals[j] - beta * grid[j]
        d0, d1, d2 = (b - a for a, b in zip(prims[j], prims[j + 1]))
        m0 += alpha * d0 + beta * d1
        m1 += alpha * d1 + beta * d2
    return m0, m1


def tilted_moments_oracle(mu, xs, center, dps=30):
    """(M, M1) of mu about center at xs (nonzero), in mpmath, as float arrays:
    the integrals of e^{x(s - center)} and (s - center) e^{x(s - center)}."""
    xs = np.asarray(xs, dtype=float)
    with mpmath.workdps(dps):
        c = mpmath.mpf(center)
        moments = [_tilted_moments(mu, c, x) for x in map(mpmath.mpf, xs.ravel())]
        m0, m1 = ([float(m[j]) for m in moments] for j in (0, 1))
    return np.reshape(m0, xs.shape), np.reshape(m1, xs.shape)


def tail_shift_oracle(mu, xs, dps=30):
    """(K, K') of mu's tail shift at xs (nonzero), in mpmath, as float arrays.

    With mu centered on its support midpoint, R its support radius, M its
    moment generating function and m = M'/M its tilted mean,
    K(x) = (log M(x) + R)/x and K'(x) = m(x)/x - (log M(x) + R)/x^2.
    """
    xs = np.asarray(xs, dtype=float)
    with mpmath.workdps(dps):
        lo, hi = (mpmath.mpf(v) for v in mu.support)
        c, r = (lo + hi) / 2, (hi - lo) / 2
        ks, dks = [], []
        for x in map(mpmath.mpf, xs.ravel()):
            m0, m1 = _tilted_moments(mu, c, x)
            shift = (mpmath.log(m0) + r) / x
            ks.append(float(shift))
            dks.append(float(m1 / m0 / x - shift / x))
    return np.reshape(ks, xs.shape), np.reshape(dks, xs.shape)
