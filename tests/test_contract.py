"""The log evaluators' contract over the regime grid: every value is within
the stated tolerance of the truth, or a typed LogsobError.

log_density, log_cdf and log_sf of point mass, Bernoulli, the 1/4-3/4
two-atom measure, uniform and an atoms-plus-cells measure are checked at
delta/R^2 from 1 down to 5e-4, at abscissae from the center through the
support edge and the window edge (R + 12 sigma) into both tails.  The truth
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

#: |value - truth| <= TOL * max(1, |truth|); the worst case passing today is 2.3e-13
TOL = 1e-11
DELTAS = (1.0, 0.25, 0.05, 0.01, 0.002, 5e-4)  # delta/R^2, as R = 1 (the point mass has R = 0)
EVALUATORS = ("log_density", "log_cdf", "log_sf")
#: beyond this many sigma past the cells' outer edge the cells' part is below the normal doubles
UNDERFLOW_SIGMAS = 37.0


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


def _cells_underflow(mu, sigma, evaluator, x):
    """Whether the value at x needs a cell part below the normal doubles that
    outweighs the atoms: x lies more than UNDERFLOW_SIGMAS past the cells'
    outer edge on the side the evaluator reads, and no atom lies beyond that
    edge.  The cells' log density and tails are logs of linear sums, so there
    they are -inf or come from a subnormal (ROADMAP item 1)."""
    if mu.density is None:
        return False
    atoms = [a for a, _ in mu.atoms]
    lo, hi = mu.density.grid[0], mu.density.grid[-1]
    left = (lo - x) / sigma > UNDERFLOW_SIGMAS and all(a >= lo for a in atoms)
    right = (x - hi) / sigma > UNDERFLOW_SIGMAS and all(a <= hi for a in atoms)
    return {"log_density": left or right, "log_cdf": left, "log_sf": right}[evaluator]


def _cases():
    item1 = pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1: a cell part below the normal doubles is logged from a linear sum",
    )
    for name in MEASURES:
        for delta in DELTAS:
            sm = _smoothed(name, delta)
            for evaluator in EVALUATORS:
                for x in _abscissae(sm):
                    known = _cells_underflow(_measure(name), sm.sigma, evaluator, x)
                    marks = [item1] if known else []
                    ident = "%s-d%g-%s-x%.6g" % (name, delta, evaluator, x)
                    yield pytest.param(name, delta, evaluator, x, marks=marks, id=ident)


def _antiderivatives(z):
    cdf, pdf = mpmath.ncdf(z), mpmath.npdf(z)
    return z * cdf + pdf, ((z * z - 1) * cdf + z * pdf) / 2


def closed_form(mu, delta, x, evaluator):
    """log q, log cdf or log sf of mu * gamma_delta at x, at 60 digits."""
    with mpmath.workdps(60):
        s, x = mpmath.sqrt(mpmath.mpf(delta)), mpmath.mpf(x)
        terms = []
        for a, w in mu.atoms:
            z = (x - mpmath.mpf(a)) / s
            value = {
                "log_density": mpmath.npdf(z) / s,
                "log_cdf": mpmath.ncdf(z),
                "log_sf": mpmath.ncdf(-z),
            }[evaluator]
            terms.append(mpmath.mpf(w) * value)
        if mu.density is not None:
            grid = [mpmath.mpf(g) for g in mu.density.grid]
            vals = [mpmath.mpf(v) for v in mu.density.values]
            for s0, s1, v0, v1 in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
                beta = (v1 - v0) / (s1 - s0)
                lin = v0 + beta * (x - s0)  # the cell's linear density continued to x
                z0, z1 = (x - s0) / s, (x - s1) / s
                if evaluator == "log_density":
                    if z1 > 0:  # Phi(z0) - Phi(z1) from the upper tails, as both are near 1
                        gap = mpmath.ncdf(-z1) - mpmath.ncdf(-z0)
                    else:
                        gap = mpmath.ncdf(z0) - mpmath.ncdf(z1)
                    terms.append(lin * gap + beta * s * (mpmath.npdf(z0) - mpmath.npdf(z1)))
                elif evaluator == "log_cdf":
                    (a0, b0), (a1, b1) = _antiderivatives(z0), _antiderivatives(z1)
                    terms.append(s * (lin * (a0 - a1) - beta * s * (b0 - b1)))
                else:
                    (a0, b0), (a1, b1) = _antiderivatives(-z0), _antiderivatives(-z1)
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
