import math

import mpmath
import numpy as np
import pytest

import logsob as L
import logsob.bounds as bounds
from logsob.errors import DomainError, SupremumNotLocalized

from conftest import dense_quantile_oracle


def mp_hardy(r, delta):
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        d = mpmath.mpf(delta)
        general = 6905 * d**1.5 * r / (4 * r**2 + d) * mpmath.exp(2 * r**2 / d)
        general += 4989 * (mpmath.sqrt(d) + 2 * r) ** 2
        small = 7803 * d**1.5 / r * mpmath.exp(2 * r**2 / d)
        return float(general), float(small)


def test_hardy_unit_values():
    general, small = L.bound_hardy(1.0, 1.0)
    want_g, want_s = mp_hardy(1.0, 1.0)
    assert general.value == pytest.approx(want_g, rel=1e-12)
    assert small.value == pytest.approx(want_s, rel=1e-12)
    assert general.value == pytest.approx(55105.3, rel=1e-4)


def test_hardy_small_delta_guard():
    general, small = L.bound_hardy(1.0, 2.0)
    assert small is None
    assert general.value > 0


def test_hardy_accepts_zero_radius():
    general, small = L.bound_hardy(0.0, 1.0)
    assert small is None
    assert general.value == pytest.approx(4989.0, rel=1e-12)


def test_hardy_log_domain_survives_overflow():
    general, small = L.bound_hardy(1.0, 1e-3)
    assert general.value is None and small.value is None
    assert general.log == pytest.approx(small.log, rel=1e-3)


def test_multidim_unit_value():
    with mpmath.workdps(40):
        want = float(mpmath.log(289) + 25)
    assert L.bound_multidim(1.0, 1.0, 1).log == pytest.approx(want, rel=1e-14)


def test_multidim_dimension_step():
    a = L.bound_multidim(1.0, 1.0, 1)
    b = L.bound_multidim(1.0, 1.0, 2)
    assert b.log - a.log == pytest.approx(20.0)


def test_multidim_boundary_continuity():
    # delta -> radius^2 from below approaches 289 R^2 exp(20n + 5)
    val = L.bound_multidim(1.0, 1.0 - 1e-12, 1)
    want = math.log(289) + 20 + 5
    assert val.log == pytest.approx(want, abs=1e-9)


def test_multidim_rejects_large_delta():
    with pytest.raises(DomainError):
        L.bound_multidim(1.0, 1.5, 1)
    with pytest.raises(DomainError):
        L.bound_multidim(1.0, 1.0, 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call, what",
    [
        (lambda mu: L.SmoothedMeasure(mu, math.inf), "delta"),
        (lambda mu: L.gaussian_lsi_constant(math.nan), "delta"),
        (lambda mu: L.bound_transport(1.0, math.nan), "delta"),
        (lambda mu: L.bound_transport(math.inf, 1.0), "radius"),
        (lambda mu: L.bound_hardy(1.0, math.nan), "delta"),
        (lambda mu: L.bound_hardy(math.nan, 1.0), "radius"),
        (lambda mu: L.lipschitz_theoretical_bound(math.nan), "radius"),
        (lambda mu: L.lipschitz_theoretical_bound(-1.0), "radius"),
        (lambda mu: L.bound_multidim(1.0, 0.5, math.nan), "dimension"),
        (lambda mu: L.bound_multidim(1.0, 0.5, 2.5), "dimension"),
        (lambda mu: L.bobkov_goetze(L.SmoothedMeasure(mu, 0.25), tail_mult=math.inf), "tail_mult"),
        (lambda mu: L.bobkov_goetze(L.SmoothedMeasure(mu, 0.25), tail_mult=-1.0), "tail_mult"),
    ],
    ids=["sm-inf-delta", "gaussian-nan", "transport-nan-delta", "transport-inf-radius",
         "hardy-nan-delta", "hardy-nan-radius", "lipschitz-nan", "lipschitz-negative",
         "multidim-nan-dim", "multidim-fractional-dim", "bg-inf-tail", "bg-negative-tail"],
)
def test_nonfinite_closed_form_input_is_a_domain_error(bernoulli, call, what):
    # each used to return NaN, warn, or raise an untyped or misleading error
    with pytest.raises(DomainError, match=what):
        call(bernoulli)


def test_transport_route_unit_value():
    tr = L.bound_transport(1.0, 1.0)
    assert tr.log == pytest.approx(math.log(2.0) + 24.0, abs=1e-12)
    assert tr.branch == "small_delta"
    with mpmath.workdps(40):
        assert tr.value == pytest.approx(float(2 * mpmath.e**24), rel=1e-12)


def test_transport_route_simplified_identity_grid():
    for r in np.linspace(0.3, 3.0, 10):
        for frac in np.linspace(0.05, 1.0, 10):
            delta = frac * 16.0 * r * r
            tr = L.bound_transport(r, delta)
            assert tr.simplified_valid
            assert tr.log == tr.log_exponential


def test_transport_route_large_delta_branch():
    tr = L.bound_transport(1.0, 1e6)
    assert tr.branch == "large_delta"
    assert not tr.simplified_valid
    # tends to 2*delta*exp(1/4) as delta grows
    assert tr.log == pytest.approx(math.log(2e6) + 0.25, abs=5e-3)


def test_pushforward_identity_map():
    assert L.bound_pushforward(2.0, 1.0).value == pytest.approx(2.0)


def test_pushforward_matches_transport_route():
    # source constant 2 with the closed-form slope bound reproduces the
    # unit-variance transport-route bound
    val = L.bound_pushforward(2.0, L.lipschitz_theoretical_bound(1.0))
    assert val.log == pytest.approx(L.bound_transport(1.0, 1.0).log, abs=1e-12)


def test_pushforward_degenerate_map():
    assert L.bound_pushforward(2.0, 0.0).value == 0.0


def test_gaussian_constant_scales_linearly():
    assert L.gaussian_lsi_constant(1.0) == 2.0
    assert L.gaussian_lsi_constant(0.25) == 0.5


def test_median_symmetric(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 1.0)
    assert L.median(sm) == pytest.approx(0.0, abs=1e-10)


def test_median_point_mass_translated():
    sm = L.SmoothedMeasure(L.make_discrete([(2.5, 1.0)]), 1.0)
    assert L.median(sm) == pytest.approx(2.5, abs=1e-10)


def test_median_asymmetric_positive(asymmetric):
    sm = L.SmoothedMeasure(asymmetric, 1.0)
    med = L.median(sm)
    assert med > 0
    want = dense_quantile_oracle(sm, 0.5, -6.0, 6.0)
    assert med == pytest.approx(want, abs=1e-8)


def test_bg_gaussian_sandwiches_known_constant(point_mass):
    bg = L.bobkov_goetze(L.SmoothedMeasure(point_mass, 1.0), scan_points=601)
    assert bg.d0.value == pytest.approx(bg.d1.value, rel=1e-6)
    assert bg.upper.value >= 2.0
    assert bg.lower.value <= 2.0


def test_bg_symmetric_two_atoms(bernoulli):
    bg = L.bobkov_goetze(L.SmoothedMeasure(bernoulli, 1.0), scan_points=601)
    assert bg.d0.value == pytest.approx(bg.d1.value, rel=1e-6)
    assert math.isfinite(bg.upper.log)


def test_bg_asymmetric_sides_differ(asymmetric):
    bg = L.bobkov_goetze(L.SmoothedMeasure(asymmetric, 1.0), scan_points=601)
    rel = abs(bg.d0.value - bg.d1.value) / max(bg.d0.value, bg.d1.value)
    assert rel > 1e-3


def test_bg_nonnegative_and_ordered(uniform):
    bg = L.bobkov_goetze(L.SmoothedMeasure(uniform, 0.5), scan_points=601)
    assert bg.d0.log > -math.inf and bg.d1.log > -math.inf
    assert bg.lower.log <= bg.upper.log
    assert bg.upper.log - bg.lower.log == pytest.approx(
        math.log(468) + math.log(150), abs=1e-12
    )


def test_bg_scaling_law(bernoulli):
    lam = 2.0
    a = L.bobkov_goetze(L.SmoothedMeasure(bernoulli, 0.5), scan_points=601)
    b = L.bobkov_goetze(
        L.SmoothedMeasure(L.pushforward_affine(bernoulli, lam), lam * lam * 0.5),
        scan_points=601,
    )
    for x, y in ((a.d0, b.d0), (a.d1, b.d1), (a.lower, b.lower), (a.upper, b.upper)):
        assert y.log - x.log == pytest.approx(2 * math.log(lam), abs=1e-6)


def test_bg_boundary_guard(point_mass):
    # a scan window too narrow to contain the supremum must raise
    with pytest.raises(SupremumNotLocalized):
        L.bobkov_goetze(L.SmoothedMeasure(point_mass, 1.0), scan_points=101, tail_mult=0.5)


def test_bg_boundary_guard_above_the_median(asymmetric):
    # mirrored asymmetric, delta 0.25, tail_mult 1: the sup above the median
    # sits near 0.81, beyond the window edge at 0.72, while the side below
    # the median is localized; bobkov_goetze must raise for the upper side
    sm = L.SmoothedMeasure(L.pushforward_affine(asymmetric, -1.0), 0.25)
    med = L.median(sm)
    half = sm.radius + sm.sigma
    d0, x0 = bounds._bg_side(sm, med, -1.0, 201, half)
    assert math.isfinite(d0.log) and med - half < x0 < med
    with pytest.raises(SupremumNotLocalized):
        bounds._bg_side(sm, med, 1.0, 201, half)
    with pytest.raises(SupremumNotLocalized):
        L.bobkov_goetze(sm, scan_points=201, tail_mult=1.0)


def _mixed_measure():
    grid = np.array([-0.2, 0.4, 1.0])
    values = np.array([0.2, 0.8, 0.3])
    values *= 0.5 / L.TabulatedDensity(grid, values).mass
    return L.make_measure(
        atoms=[(-1.0, 0.3), (0.4, 0.2)], density=L.TabulatedDensity(grid, values)
    )


@pytest.mark.parametrize("delta", [0.05, 0.25, 1.0])
@pytest.mark.parametrize("name", ["asymmetric", "mixed"])
def test_bg_reflection_swaps_the_sides(name, delta, request):
    # the mirror image x -> -x swaps cdf and sf about the negated median, so
    # one scan routine must give d0 and d1 of either side the same way
    mu = _mixed_measure() if name == "mixed" else request.getfixturevalue(name)
    a = L.bobkov_goetze(L.SmoothedMeasure(mu, delta), scan_points=801)
    b = L.bobkov_goetze(L.SmoothedMeasure(L.pushforward_affine(mu, -1.0), delta), scan_points=801)
    assert b.d0.log == pytest.approx(a.d1.log, rel=1e-12)
    assert b.d1.log == pytest.approx(a.d0.log, rel=1e-12)
    assert b.argmax_below == pytest.approx(-a.argmax_above, abs=1e-6)
    assert b.argmax_above == pytest.approx(-a.argmax_below, abs=1e-6)


def test_report_assembles_with_checks(bernoulli):
    rep = L.compute_bound_report(bernoulli, 1.0, lipschitz_points=1001, bg_points=401)
    assert rep.all_checks_pass
    assert rep.hardy_small_delta is not None  # delta = R^2 boundary included
    assert rep.multidim is not None
    d = rep.to_dict()
    assert d["transport_bound"]["log_value"] == pytest.approx(math.log(2) + 24, abs=1e-12)
    assert d["pushforward_bound"]["value"] == pytest.approx(
        2.0 * rep.lipschitz.value**2, rel=1e-12
    )


def test_report_point_mass(point_mass):
    rep = L.compute_bound_report(point_mass, 1.0, lipschitz_points=801, bg_points=401)
    assert rep.multidim is None and rep.hardy_small_delta is None
    assert rep.pushforward.value == pytest.approx(2.0, abs=1e-5)
    assert rep.all_checks_pass
