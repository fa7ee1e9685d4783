import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import logsob as L
from logsob.errors import BracketFailure, DomainError

from conftest import central_difference, dense_quantile_oracle


def mp_gaussian_density(t, delta):
    with mpmath.workdps(40):
        return float(mpmath.exp(-mpmath.mpf(t) ** 2 / (2 * delta)) / mpmath.sqrt(2 * mpmath.pi * delta))


def test_density_at_zero_unit_variance():
    assert L.gaussian_density(0.0, 1.0) == pytest.approx(mp_gaussian_density(0, 1), rel=1e-15)


def test_density_at_one():
    assert L.gaussian_density(1.0, 1.0) == pytest.approx(
        math.exp(-0.5) / math.sqrt(2 * math.pi), rel=1e-15
    )


def test_density_monotone_tails():
    ts = np.linspace(0.5, 30.0, 60)
    vals = L.gaussian_density(ts, 2.0)
    assert np.all(np.diff(vals) < 0)
    assert np.allclose(L.gaussian_density(-ts, 2.0), vals)


def test_log_density_matches_log():
    ts = np.linspace(-10, 10, 21)
    assert np.allclose(L.log_gaussian_density(ts, 0.5), np.log(L.gaussian_density(ts, 0.5)))


def test_bad_variance_rejected():
    with pytest.raises(DomainError):
        L.gaussian_density(0.0, 0.0)
    with pytest.raises(DomainError):
        L.SmoothedMeasure(L.make_discrete([(0.0, 1.0)]), -1.0)


def test_convolution_with_point_mass_is_gaussian(point_mass):
    sm = L.SmoothedMeasure(point_mass, 1.0)
    ts = np.linspace(-6, 6, 25)
    assert np.allclose(sm.density(ts), L.gaussian_density(ts, 1.0), rtol=1e-14)
    assert np.allclose(sm.cdf(ts), L.gaussian_cdf(ts, 1.0), rtol=1e-13)


def test_bernoulli_density_at_zero(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 1.0)
    expected = 0.5 * (mp_gaussian_density(1, 1) + mp_gaussian_density(-1, 1))
    assert sm.density(0.0) == pytest.approx(expected, rel=1e-14)
    assert sm.density(0.0) == pytest.approx(0.2419707245191434, rel=1e-12)


def test_symmetric_density_even(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 1.0)
    ts = np.linspace(0.0, 10.0, 50)
    assert np.allclose(sm.density(ts), sm.density(-ts), rtol=1e-13)


def test_density_matches_quadrature_route(uniform):
    # independent route: direct integration of the Gaussian kernel against mu
    sm = L.SmoothedMeasure(uniform, 0.25)
    ts = np.linspace(-2.5, 4.0, 11)
    direct = np.array(
        [L.integrate(uniform, lambda s, t=t: L.gaussian_density(t - s, 0.25), rtol=1e-13) for t in ts]
    )
    assert np.allclose(sm.density(ts), direct, rtol=1e-10)


def test_cdf_matches_quadrature_route(uniform):
    sm = L.SmoothedMeasure(uniform, 0.25)
    ts = np.linspace(-2.0, 2.0, 9)
    direct = np.array(
        [L.integrate(uniform, lambda s, t=t: L.gaussian_cdf(t - s, 0.25), rtol=1e-13) for t in ts]
    )
    assert np.allclose(sm.cdf(ts), direct, rtol=1e-11)


def test_gaussian_cdf_midpoint():
    assert L.gaussian_cdf(0.0, 1.0) == 0.5


def test_symmetric_smoothed_cdf_midpoint(bernoulli, uniform):
    for mu in (bernoulli, uniform):
        sm = L.SmoothedMeasure(mu, 2.0)
        assert sm.cdf(0.0) == pytest.approx(0.5, abs=1e-12)


def test_cdf_plus_sf_is_one(asymmetric):
    sm = L.SmoothedMeasure(asymmetric, 0.5)
    xs = np.linspace(-4, 4, 33)
    assert np.allclose(sm.cdf(xs) + sm.sf(xs), 1.0, atol=1e-12)


def test_total_mass_of_density(bernoulli, uniform):
    from logsob.quadrature import adaptive_simpson

    for mu in (bernoulli, uniform):
        sm = L.SmoothedMeasure(mu, 0.5)
        lo, hi = sm.window()
        total = adaptive_simpson(sm.density, lo, hi, rtol=1e-12, initial_cells=16)
        assert total == pytest.approx(1.0, abs=1e-10)
        assert sm.cdf(hi) >= 1.0 - sm.config.cdf_tol


def test_density_decreasing_beyond_support(bernoulli, uniform):
    for mu in (bernoulli, uniform):
        sm = L.SmoothedMeasure(mu, 1.0)
        xs = np.linspace(sm.radius, sm.radius + 8, 200)
        h = 1e-5
        slope = (sm.density(xs + h) - sm.density(xs - h)) / (2 * h)
        assert np.all(slope <= 1e-12)
        slope_left = (sm.density(-xs + h) - sm.density(-xs - h)) / (2 * h)
        assert np.all(slope_left >= -1e-12)


def test_quantile_of_symmetric_measure(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 1.0)
    assert sm.inv_cdf(0.5) == pytest.approx(0.0, abs=1e-10)


def test_quantile_point_mass_matches_normal(point_mass):
    sm = L.SmoothedMeasure(point_mass, 1.0)
    u = float(L.gaussian_cdf(1.7, 1.0))
    assert sm.inv_cdf(u) == pytest.approx(1.7, abs=1e-9)


def test_quantile_against_bisection_oracle(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 1.0)
    want = dense_quantile_oracle(sm, 0.9, -8.0, 8.0)
    got = sm.inv_cdf(0.9)
    assert got == pytest.approx(want, abs=1e-8)
    assert 1.0 < got < 1.0 + sm.radius + 1.0


def test_quantile_roundtrip_grid(bernoulli, uniform):
    for mu, delta in ((bernoulli, 1.0), (uniform, 0.25)):
        sm = L.SmoothedMeasure(mu, delta)
        xs = np.linspace(-sm.radius - 6 * sm.sigma, sm.radius + 6 * sm.sigma, 41)
        us = sm.cdf(xs)
        back = sm.inv_cdf(us)
        # achievable accuracy: root_tol plus one quantile-space ulp through q
        allowed = sm.config.root_tol + 2.0 * np.spacing(np.maximum(us, 1 - us)) / sm.density(xs)
        assert np.all(np.abs(back - xs) <= allowed)


def test_quantile_rejects_bad_arguments(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 1.0)
    with pytest.raises(DomainError):
        sm.inv_cdf(0.0)
    # the envelope brackets quantiles far past the tail cutoff, down to the
    # normal doubles; a subnormal tail is an underflow
    for u in (1e-60, 1e-300):
        assert sm.log_cdf(sm.inv_cdf(u)) == pytest.approx(math.log(u), rel=1e-12)
    with pytest.raises(BracketFailure, match="first at u = 1e-310"):
        sm.inv_cdf(1e-310)


def test_mgf_point_mass_is_one(point_mass):
    sm = L.SmoothedMeasure(point_mass, 1.0)
    xs = np.linspace(-5, 5, 11)
    assert np.allclose(sm.mgf(xs), 1.0)


def test_mgf_bernoulli_is_cosh(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 1.0)
    xs = np.linspace(-4, 4, 17)
    assert np.allclose(sm.mgf(xs), np.cosh(xs), rtol=1e-13)


@given(x=st.floats(min_value=-20.0, max_value=20.0))
def test_mgf_bounded_by_support_exponential(x):
    mu = L.make_discrete([(-0.75, 0.3), (0.25, 0.4), (0.75, 0.3)])
    sm = L.SmoothedMeasure(mu, 1.0)
    r = sm.radius
    lm = sm.log_mgf(x)
    assert -r * abs(x) - 1e-9 <= lm <= r * abs(x) + 1e-9


def test_tail_shift_point_mass_is_zero(point_mass):
    sm = L.SmoothedMeasure(point_mass, 1.0)
    assert sm.tail_shift(3.0) == pytest.approx(0.0, abs=1e-14)
    assert sm.tail_shift_deriv(3.0) == pytest.approx(0.0, abs=1e-14)


def test_tail_shift_bernoulli_closed_form(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 1.0)
    xs = np.array([2.0, 3.0, 5.0, -2.0, -4.0])
    want = (np.log(np.cosh(xs)) + 1.0) / xs
    assert np.allclose(sm.tail_shift(xs), want, rtol=1e-12)


def test_tail_shift_within_envelope(asymmetric):
    sm = L.SmoothedMeasure(asymmetric, 1.0)
    r = sm.radius
    xs = np.linspace(2 * r, 2 * r + 8, 50)
    k = sm.tail_shift(xs)
    assert np.all(k >= -r + r / xs - 1e-12)
    assert np.all(k <= r + r / xs + 1e-12)


def test_tail_shift_undefined_at_zero(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 1.0)
    with pytest.raises(DomainError):
        sm.tail_shift(0.0)


@pytest.mark.parametrize("x", [-np.inf, np.inf, np.nan], ids=["-inf", "+inf", "nan"])
@pytest.mark.parametrize("name", ["bernoulli", "uniform"])
@pytest.mark.parametrize("method", ["log_mgf", "mgf", "tail_shift", "tail_shift_deriv"])
def test_tilted_moments_reject_non_finite_arguments(method, name, x, request):
    # atoms returned nan; a density's quadrature refined exp(inf - inf) forever
    sm = L.SmoothedMeasure(request.getfixturevalue(name), 0.25)
    with pytest.raises(DomainError, match=r"must be finite, got %s at index 1$" % x):
        getattr(sm, method)(np.array([0.5, x]))


def test_shift_deriv_matches_finite_difference(bernoulli, asymmetric, uniform):
    h = 1e-5
    for mu in (bernoulli, asymmetric, uniform):
        sm = L.SmoothedMeasure(mu, 1.0)
        for x in (2.0, 3.5, 6.0, -2.0, -5.0):
            fd = central_difference(sm.tail_shift, x, h)
            got = sm.tail_shift_deriv(x)
            assert got == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_shift_deriv_bounded_at_double_radius(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 1.0)
    x = 2.0 * sm.radius
    fd = central_difference(sm.tail_shift, x, 1e-5)
    assert fd <= sm.radius
    assert sm.tail_shift_deriv(x) <= sm.radius


def test_shifted_density_sandwich_spot(bernoulli):
    # q(x + K(x)) between exp(-2R^2-2R-1/8) p(x) and exp(-R) p(x)
    sm = L.SmoothedMeasure(bernoulli, 1.0)
    r = sm.radius
    xs = np.linspace(2 * r, 2 * r + 8, 25)
    q_shift = sm.density(xs + sm.tail_shift(xs))
    p = L.gaussian_density(xs, 1.0)
    assert np.all(q_shift <= math.exp(-r) * p * (1 + 1e-10))
    assert np.all(q_shift >= math.exp(-2 * r * r - 2 * r - 0.125) * p * (1 - 1e-10))


def test_cdf_translation_envelope(asymmetric):
    # G(x - R) <= F(x) <= G(x + R) for all x (centered frame)
    sm = L.SmoothedMeasure(asymmetric, 1.0)
    r = sm.radius
    xs = np.linspace(-9.0, 9.0, 181)
    f = L.gaussian_cdf(xs, 1.0)
    assert np.all(sm.cdf(xs - r) <= f * (1 + 1e-12) + 1e-15)
    assert np.all(f <= sm.cdf(xs + r) * (1 + 1e-12) + 1e-15)


def test_log_evaluators_match_linear(uniform):
    sm = L.SmoothedMeasure(uniform, 0.5)
    xs = np.linspace(-3.0, 5.0, 17)
    assert np.allclose(np.exp(sm.log_density(xs)), sm.density(xs), rtol=1e-12)
    assert np.allclose(np.exp(sm.log_cdf(xs)), sm.cdf(xs), rtol=1e-12)
    assert np.allclose(np.exp(sm.log_sf(xs)), sm.sf(xs), rtol=1e-12)


def test_offcenter_measure_centers_internally():
    mu = L.make_discrete([(3.0, 0.5), (5.0, 0.5)])
    sm = L.SmoothedMeasure(mu, 1.0)
    assert sm.center == 4.0 and sm.radius == 1.0
    assert sm.cdf(4.0) == pytest.approx(0.5, abs=1e-12)
    ref = L.SmoothedMeasure(L.make_discrete([(-1.0, 0.5), (1.0, 0.5)]), 1.0)
    xs = np.linspace(-3, 3, 13)
    assert np.allclose(sm.density(xs + 4.0), ref.density(xs), rtol=1e-13)
