import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import logsob as L
from logsob.errors import EmptyFamily, NonintegrableTestFunction


def gaussian_smoothed(delta=1.0):
    return L.SmoothedMeasure(L.make_discrete([(0.0, 1.0)]), delta)


def closed_form_exponential_moments(rate, delta):
    # against a centered Gaussian of variance delta:
    #   mass of f^2        m = exp(rate^2 delta / 2)
    #   Ent(f^2)             = (rate^2 delta / 2) m
    #   energy               = (rate^2 / 4) m
    m = math.exp(rate * rate * delta / 2.0)
    return (rate * rate * delta / 2.0) * m, (rate * rate / 4.0) * m


@pytest.mark.parametrize("rate", [0.3, 1.0, 2.0])
@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_exponential_moments_closed_form(rate, delta):
    sm = gaussian_smoothed(delta)
    tf = L.exponential_family(delta).build((rate,))
    want_ent, want_en = closed_form_exponential_moments(rate, delta)
    assert L.entropy(tf, sm, rtol=1e-12) == pytest.approx(want_ent, rel=1e-9)
    assert L.energy(tf, sm, rtol=1e-12) == pytest.approx(want_en, rel=1e-9)


def test_constant_function_has_zero_entropy_and_energy():
    sm = gaussian_smoothed()
    tf = L.TestFunction(
        family="constant",
        params=(),
        log_f2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        log_grad2=lambda x: np.full_like(np.asarray(x, dtype=float), -np.inf),
    )
    assert L.entropy(tf, sm) == pytest.approx(0.0, abs=1e-12)
    assert L.energy(tf, sm) == 0.0


def test_entropy_quadratic_homogeneity():
    # Ent((c f)^2) = c^2 Ent(f^2), same for the energy
    sm = gaussian_smoothed()
    fam = L.exponential_family(1.0)
    tf = fam.build((0.8,))
    c = 3.0
    scaled = L.TestFunction(
        family="scaled",
        params=(0.8, c),
        log_f2=lambda x: tf.log_f2(x) + 2.0 * math.log(c),
        log_grad2=lambda x: tf.log_grad2(x) + 2.0 * math.log(c),
        window_shift=tf.window_shift,
    )
    assert L.entropy(scaled, sm) == pytest.approx(c * c * L.entropy(tf, sm), rel=1e-10)
    assert L.energy(scaled, sm) == pytest.approx(c * c * L.energy(tf, sm), rel=1e-10)
    assert L.ratio(scaled, sm)[2] == pytest.approx(L.ratio(tf, sm)[2], rel=1e-9)


@given(rate=st.floats(min_value=0.1, max_value=3.0), a=st.floats(min_value=-1.0, max_value=1.0))
def test_entropy_nonnegative(rate, a):
    sm = gaussian_smoothed()
    tf = L.bump_family(1.0, 1.0).build((a, 1.0 / rate))
    assert L.entropy(tf, sm, rtol=1e-9) >= 0.0


def test_gaussian_ratio_is_twice_variance():
    for delta in (0.25, 1.0, 4.0):
        sm = gaussian_smoothed(delta)
        rs = L.ratio_lower_bound(L.exponential_family(delta), sm)
        assert rs.value == pytest.approx(2.0 * delta, rel=1e-3)


def test_exponential_ratio_constant_across_rates():
    sm = gaussian_smoothed(1.0)
    fam = L.exponential_family(1.0, count=8)
    ratios = [L.ratio(fam.build(p), sm)[2] for p in fam.grid]
    assert np.allclose(ratios, 2.0, rtol=1e-9)


def test_bimodal_ratio_beats_gaussian_constant(bernoulli):
    # mass split across two bumps forces the constant above 2*delta
    sm = L.SmoothedMeasure(bernoulli, 0.25)
    rs = L.ratio_lower_bound(L.step_family(sm.radius, sm.delta), sm)
    assert rs.value > 0.5 * (1.0 + 1e-3)


def test_ratio_search_reports_argmax_member(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 0.25)
    rs = L.ratio_lower_bound(L.step_family(sm.radius, sm.delta), sm, refine=False)
    best_row = max(rs.table, key=lambda row: row.ratio)
    assert rs.value == best_row.ratio
    assert rs.params == best_row.params


def test_refinement_only_improves(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 0.25)
    fam = L.bump_family(sm.radius, sm.delta)
    coarse = L.ratio_lower_bound(fam, sm, refine=False)
    fine = L.ratio_lower_bound(fam, sm, refine=True)
    assert fine.value >= coarse.value


def test_empty_family_rejected():
    sm = gaussian_smoothed()
    fam = L.ParamFamily("empty", ("t",), (np.array([]),), lambda p: None, grid=())
    with pytest.raises(EmptyFamily):
        L.ratio_lower_bound(fam, sm)


def test_tail_certificate_triggers():
    # an exponential rate far outside the family design range pushes its
    # mass beyond any window that ignores the tilt
    sm = gaussian_smoothed(1.0)
    runaway = L.TestFunction(
        family="runaway",
        params=(10.0,),
        log_f2=lambda x: 10.0 * np.asarray(x, dtype=float),
        log_grad2=lambda x: math.log(25.0) + 10.0 * np.asarray(x, dtype=float),
        window_shift=0.0,
    )
    with pytest.raises(NonintegrableTestFunction):
        L.entropy(runaway, sm)


def test_verify_accepts_valid_constant(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 1.0)
    c = L.bound_transport(sm.radius, sm.delta).as_logvalue()
    report = L.verify_lsi(sm, c, [L.exponential_family(sm.delta)])
    assert report.all_passed
    assert report.worst_margin <= 0.0


def test_verify_rejects_zero_constant(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 1.0)
    report = L.verify_lsi(sm, 0.0, [L.exponential_family(sm.delta, count=8)])
    assert not report.all_passed
    assert report.worst_margin > 0
    failed = [e for e in report.entries if not e.passed]
    assert all(e.entropy_value > 0 for e in failed)


def test_verify_fails_just_below_ratio(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 0.25)
    fam = L.step_family(sm.radius, sm.delta)
    rs = L.ratio_lower_bound(fam, sm, refine=False)
    report = L.verify_lsi(sm, 0.99 * rs.value, [fam])
    assert not report.all_passed


def test_verify_huge_log_constant_passes(bernoulli):
    sm = L.SmoothedMeasure(bernoulli, 0.25)
    # exp(1000) budget: overflows doubles, must still pass cleanly
    report = L.verify_lsi(sm, L.LogValue(1000.0), [L.exponential_family(sm.delta, count=6)])
    assert report.all_passed


def test_nan_in_the_log_domain_is_a_domain_error(bernoulli):
    # NaN read as 0: a -inf constant, with which verify failed every member
    sm = L.SmoothedMeasure(bernoulli, 0.25)
    calls = [
        lambda: L.bound_pushforward(math.nan, 2.0),
        lambda: L.bound_pushforward(2.0, math.nan),
        lambda: L.LogValue(0.0) * math.nan,
        lambda: L.verify_lsi(sm, math.nan, [L.exponential_family(sm.delta, count=2)]),
    ]
    for call in calls:
        with pytest.raises(L.DomainError, match="nonnegative, got nan$"):
            call()


def test_shipped_families_cover_three_shapes(uniform):
    sm = L.SmoothedMeasure(uniform, 1.0)
    fams = L.shipped_families(sm)
    assert set(fams) == {"exponential", "bump", "step"}
    assert len(fams["exponential"].grid) == 64
