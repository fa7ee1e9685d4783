import math

import numpy as np
import pytest

from logsob.errors import BracketFailure, QuadratureFailure
from logsob.quadrature import adaptive_simpson, bracketed_newton, golden_section_max


def test_cubic_exact():
    # Simpson integrates cubics exactly
    val = adaptive_simpson(lambda x: x**3, 0.0, 1.0)
    assert val == pytest.approx(0.25, abs=1e-15)


def test_gaussian_vs_erf():
    val = adaptive_simpson(lambda x: np.exp(-x * x), 0.0, 2.0, rtol=1e-13)
    assert val == pytest.approx(math.sqrt(math.pi) / 2.0 * math.erf(2.0), rel=1e-12)


def test_reversed_interval_flips_sign():
    fwd = adaptive_simpson(np.sin, 0.0, 1.0)
    assert adaptive_simpson(np.sin, 1.0, 0.0) == pytest.approx(-fwd)


def test_vector_components_integrated_together():
    val = adaptive_simpson(
        lambda x: np.stack([x, x * x, np.sin(x)], axis=-1), 0.0, 1.0, rtol=1e-13
    )
    assert np.allclose(val, [0.5, 1.0 / 3.0, 1.0 - math.cos(1.0)], rtol=1e-11)


def test_initial_cells_do_not_change_value():
    f = lambda x: np.exp(-x * x)
    a = adaptive_simpson(f, -3.0, 3.0, rtol=1e-12, initial_cells=1)
    b = adaptive_simpson(f, -3.0, 3.0, rtol=1e-12, initial_cells=32)
    assert a == pytest.approx(b, rel=1e-11)


def test_failure_on_endpoint_singularity():
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(QuadratureFailure):
            adaptive_simpson(lambda x: 1.0 / np.sqrt(np.abs(x)), 0.0, 1.0, max_depth=20)


def _std_pdf(y):
    return np.exp(-0.5 * y * y) / math.sqrt(2 * math.pi)


def test_bracketed_newton_solves_cdf():
    from scipy.special import ndtr, ndtri

    u = np.array([0.1, 0.5, 0.9, 0.999])
    root = bracketed_newton(
        lambda y, k: ndtr(y) - u[k],
        lambda y, k: (ndtr(y) - u[k], _std_pdf(y)),
        np.full(4, -10.0),
        np.full(4, 10.0),
    )
    assert np.allclose(root, ndtri(u), atol=1e-9)


def test_bracketed_newton_rejects_bad_bracket():
    with pytest.raises(BracketFailure):
        bracketed_newton(
            lambda y, k: y + 5.0,
            lambda y, k: (y + 5.0, np.ones_like(y)),
            np.array([0.0]),
            np.array([1.0]),
        )


def test_bracketed_newton_steps_live_points_only():
    from scipy.special import ndtr

    # u = 1/2 has its root at the bracket midpoint and converges on the
    # first step; the others need several
    u = np.array([0.5, 0.1, 0.999, 0.6])
    calls = []

    def g_slope(y, k):
        calls.append(k.copy())
        return ndtr(y) - u[k], _std_pdf(y)

    bracketed_newton(lambda y, k: ndtr(y) - u[k], g_slope, np.full(4, -10.0), np.full(4, 10.0))
    assert np.array_equal(calls[0], np.arange(4))
    assert len(calls) > 2
    assert all(0 not in k for k in calls[1:])
    for before, after in zip(calls, calls[1:]):
        # a point that left the live set never comes back
        assert after.size and np.isin(after, before).all()


def test_bracketed_newton_log_tail_residual_deep_quantiles():
    from scipy.special import log_ndtr, ndtri

    u = np.array([1e-30, 1e-20, 1e-12, 1e-6, 1e-3, 0.2])
    log_u = np.log(u)
    steps = []

    def g_slope(y, k):
        steps.append(y.size)
        log_cdf = log_ndtr(y)
        return log_cdf - log_u[k], np.exp(-0.5 * y * y - 0.5 * math.log(2 * math.pi) - log_cdf)

    root = bracketed_newton(
        lambda y, k: log_ndtr(y) - log_u[k], g_slope, np.full(6, -13.0), np.full(6, 1.0)
    )
    assert np.all(np.abs(root - ndtri(u)) <= 1e-10)
    assert len(steps) <= 12


def test_bracketed_newton_exhausted_iterations_raise():
    from scipy.special import ndtr

    u = np.array([0.1, 0.999])
    with pytest.raises(QuadratureFailure, match="left 2 points unconverged"):
        bracketed_newton(
            lambda y, k: ndtr(y) - u[k],
            lambda y, k: (ndtr(y) - u[k], _std_pdf(y)),
            np.full(2, -10.0),
            np.full(2, 10.0),
            max_iter=2,
        )


def test_bracketed_newton_non_finite_residual_is_a_bracket_failure():
    from scipy.special import ndtr

    # log sf(y) = target with sf = ndtr(-y) in linear form: for the first and
    # third targets the root lies where ndtr(-y) has underflowed to 0, so the
    # residual is +inf there and the iterate would otherwise settle on the
    # underflow edge near y = 38.5
    log_target = np.array([-1000.0, math.log(0.3), -2000.0, math.log(1e-5)])

    def g_slope(y, k):
        sf = ndtr(-y)
        with np.errstate(divide="ignore", invalid="ignore"):
            return log_target[k] - np.log(sf), _std_pdf(y) / sf

    with pytest.raises(BracketFailure, match="2 of 4 points"):
        bracketed_newton(
            lambda y, k: g_slope(y, k)[0], g_slope, np.full(4, 0.0), np.full(4, 60.0)
        )


def test_golden_section_max_quadratic():
    x, fx = golden_section_max(lambda t: -((t - math.pi) ** 2), 0.0, 5.0, xtol=1e-10)
    assert x == pytest.approx(math.pi, abs=1e-8)
    assert fx == pytest.approx(0.0, abs=1e-15)


def test_scale_floor_keeps_wide_gaussian_within_rtol():
    # most of [-40, 40] holds cells far below eps * rtol of the integral;
    # leaving them unrefined must not cost the rtol budget
    for rtol in (1e-8, 1e-12):
        val = adaptive_simpson(
            lambda x: np.exp(-x * x), -40.0, 40.0, rtol=rtol, initial_cells=80
        )
        assert abs(val - math.sqrt(math.pi)) <= rtol * math.sqrt(math.pi)


def test_batched_intervals_match_scalar_calls():
    def f(x, k):
        return np.stack([np.exp(-((x - k) ** 2)), np.cos(x) * k], axis=-1)

    a = np.array([-5.0, 0.0, 3.0, 2.0])
    b = np.array([5.0, 4.0, -1.0, 2.0])  # one reversed, one empty interval
    cells = [3, 8, 1, 5]
    atol = [0.0, 1e-12, 0.0, 0.0]
    batched = adaptive_simpson(f, a, b, rtol=1e-10, atol=atol, initial_cells=cells)
    assert batched.shape == (4, 2)
    for k in range(4):
        alone = adaptive_simpson(
            lambda x: f(x, np.full(x.shape, k)),
            a[k],
            b[k],
            rtol=1e-10,
            atol=atol[k],
            initial_cells=cells[k],
        )
        assert np.array_equal(batched[k], alone)
