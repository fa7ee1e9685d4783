"""The log evaluators' contract over the regime grid: every value is within
the stated tolerance of the truth, or a typed LogsobError.

log_density, log_cdf and log_sf of point mass, Bernoulli, the 1/4-3/4
two-atom measure, uniform, an atoms-plus-cells measure, a seeded 16-cell
sloped density with a zero value and two triangles with a gap of zeros
between them are checked at delta/R^2 from 1 down to
5e-4, at abscissae from the center through the support edge and the window
edge (R + 12 sigma) into both tails.  The truth
is a closed form at 60 digits, not a quadrature: for atoms a sum of
mpmath's normal pdf and cdf, for cells the antiderivatives
A(z) = z Phi(z) + phi(z) and B(z) = ((z^2 - 1) Phi(z) + z phi(z))/2 of Phi
and z Phi.  A -inf where the truth is finite, a NaN, a value off by more
than the tolerance or an untyped exception fails.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

import logsob as L

from conftest import bimodal_density, sloped_density

#: |value - truth| <= TOL * max(1, |truth|); the worst case passing today is 6.0e-13, sloped16
#: at delta 1, log_cdf at -13 (R + 12 sigma): a far tail of signed knot terms, summed in
#: units of phi at the nearest knot
TOL = 1e-11
DELTAS = (1.0, 0.25, 0.05, 0.01, 0.002, 5e-4)  # delta/R^2, as R = 1 (the point mass has R = 0)
EVALUATORS = ("log_density", "log_cdf", "log_sf")


def _mixed():
    grid, values = np.array([-0.2, 0.4, 1.0]), np.array([0.2, 0.8, 0.3])
    values *= 0.5 / L.TabulatedDensity(grid, values).mass
    return L.make_measure(atoms=[(-1.0, 0.3), (0.4, 0.2)], density=L.TabulatedDensity(grid, values))


MEASURES = {
    "point_mass": lambda: L.make_discrete([(0.0, 1.0)]),
    "bernoulli": lambda: L.make_discrete([(-1.0, 0.5), (1.0, 0.5)]),
    "asymmetric": lambda: L.make_discrete([(-1.0, 0.25), (1.0, 0.75)]),
    "uniform": lambda: L.make_uniform(-1.0, 1.0),
    "mixed": _mixed,
    "sloped16": lambda: L.make_measure(
        density=sloped_density(np.random.default_rng(0), -1.0, 1.0, 16, 1.0)
    ),
    "bimodal": lambda: L.make_measure(density=bimodal_density()),
}


@functools.lru_cache(maxsize=None)
def _measure(name):
    return MEASURES[name]()


@functools.lru_cache(maxsize=None)
def _smoothed(name, delta):
    return L.SmoothedMeasure(_measure(name), delta)


def _abscissae(sm):
    """The center, half and all of R, 1.5 R and 2 R, and R + k sigma from 4 sigma
    through the window edge (12) to 60 sigma, on both sides."""
    r, s = sm.radius, sm.sigma
    offsets = {f * r for f in (0.0, 0.5, 1.0, 1.5, 2.0)}
    offsets |= {r + k * s for k in (4, 12, 20, 32, 38, 60)}
    return sorted({sm.center + side * o for o in offsets for side in (-1.0, 1.0)})


def _cases():
    for name in MEASURES:
        for delta in DELTAS:
            sm = _smoothed(name, delta)
            for evaluator in EVALUATORS:
                for x in _abscissae(sm):
                    ident = "%s-d%g-%s-x%.6g" % (name, delta, evaluator, x)
                    yield pytest.param(name, delta, evaluator, x, id=ident)


def _antiderivatives(z, cdf, pdf):
    return z * cdf + pdf, ((z * z - 1) * cdf + z * pdf) / 2


@functools.lru_cache(maxsize=None)
def _node_values(mu, delta, x):
    """(z, Phi(-|z|), phi(z)) at each grid node of mu's density, z = (x - node)/sqrt(delta),
    at 60 digits: the smaller tail, as the larger one is 1 minus it.  Cached, as the three
    evaluators at one x read the same values."""
    with mpmath.workdps(60):
        s, x = mpmath.sqrt(mpmath.mpf(delta)), mpmath.mpf(x)
        zs = [(x - mpmath.mpf(g)) / s for g in mu.density.grid]
        return [(z, mpmath.ncdf(-abs(z)), mpmath.npdf(z)) for z in zs]


def closed_form(mu, delta, x, evaluator):
    """log q, log cdf or log sf of mu * gamma_delta at x, at 60 digits."""
    with mpmath.workdps(60):
        s, xm = mpmath.sqrt(mpmath.mpf(delta)), mpmath.mpf(x)
        terms = []
        for a, w in mu.atoms:
            z = (xm - mpmath.mpf(a)) / s
            value = {
                "log_density": mpmath.npdf(z) / s,
                "log_cdf": mpmath.ncdf(z),
                "log_sf": mpmath.ncdf(-z),
            }[evaluator]
            terms.append(mpmath.mpf(w) * value)
        if mu.density is not None:
            grid = [mpmath.mpf(g) for g in mu.density.grid]
            vals = [mpmath.mpf(v) for v in mu.density.values]
            nodes = _node_values(mu, delta, x)
            cells = zip(grid[:-1], grid[1:], vals[:-1], vals[1:], nodes[:-1], nodes[1:])
            for s0, s1, v0, v1, (z0, t0, p0), (z1, t1, p1) in cells:
                beta = (v1 - v0) / (s1 - s0)
                lin = v0 + beta * (xm - s0)  # the cell's linear density continued to x
                # Phi and its complement at each edge, the smaller one the node's tail
                c0, c1 = (t if z <= 0 else 1 - t for z, t in ((z0, t0), (z1, t1)))
                if evaluator == "log_density":
                    # Phi(z0) - Phi(z1) from the upper tails when both are near 1
                    gap = t1 - t0 if z1 > 0 else c0 - c1
                    terms.append(lin * gap + beta * s * (p0 - p1))
                elif evaluator == "log_cdf":
                    (a0, b0), (a1, b1) = _antiderivatives(z0, c0, p0), _antiderivatives(z1, c1, p1)
                    terms.append(s * (lin * (a0 - a1) - beta * s * (b0 - b1)))
                else:
                    (a0, b0) = _antiderivatives(-z0, t0 if z0 > 0 else 1 - t0, p0)
                    (a1, b1) = _antiderivatives(-z1, t1 if z1 > 0 else 1 - t1, p1)
                    terms.append(s * (lin * (a1 - a0) + beta * s * (b1 - b0)))
        return float(mpmath.log(mpmath.fsum(terms)))


@pytest.mark.parametrize("name, delta, evaluator, x", list(_cases()))
def test_log_evaluator_is_right_or_a_typed_error(name, delta, evaluator, x):
    want = closed_form(_measure(name), delta, x, evaluator)
    assert math.isfinite(want)
    try:
        got = getattr(_smoothed(name, delta), evaluator)(x)
    except L.LogsobError:
        return
    assert abs(got - want) <= TOL * max(1.0, abs(want)), (got, want)
