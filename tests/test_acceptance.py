"""Acceptance gate: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import functools
import math

import numpy as np
import pytest

import logsob as L
from logsob.cli import bundled_data_path, main

from conftest import tail_shift_oracle

BUNDLED = ("point_mass", "bernoulli", "asymmetric", "uniform")
DELTAS = (0.25, 1.0, 4.0)


def report(name, detail=""):
    print("ACCEPTANCE %-28s PASS %s" % (name, detail))


@functools.lru_cache(maxsize=None)
def bundled_measure(name):
    return L.load_measure(bundled_data_path(name + ".json"))


@functools.lru_cache(maxsize=None)
def pair_artifacts(name, delta):
    """Everything criterion 5-7 needs for one (measure, delta) pair."""
    sm = L.SmoothedMeasure(bundled_measure(name), delta)
    tm = L.TransportMap(sm)
    lip = tm.lipschitz_estimate()
    push = L.bound_pushforward(L.gaussian_lsi_constant(delta), lip)
    troute = L.bound_transport(sm.radius, delta)
    bg = L.bobkov_goetze(sm)
    families = L.shipped_families(sm)
    searches = {fname: L.ratio_lower_bound(fam, sm) for fname, fam in families.items()}
    best = max(searches.values(), key=lambda s: s.value)
    return sm, lip, push, troute, bg, families, best


def suite_measure(kind, radius):
    if kind == "bernoulli":
        return L.make_discrete([(-radius, 0.5), (radius, 0.5)])
    if kind == "asymmetric":
        return L.make_discrete([(-radius, 0.25), (radius, 0.75)])
    return L.make_uniform(-radius, radius)


SUITE = [
    (kind, radius)
    for kind in ("bernoulli", "asymmetric", "uniform")
    for radius in (0.5, 1.0, 2.0)
]


def test_gaussian_fixed_point():
    sm, lip, push, _, _, families, _ = pair_artifacts("point_mass", 1.0)
    tm = L.TransportMap(sm)
    xs = np.linspace(-8.0, 8.0, 4001)
    assert float(np.max(np.abs(tm.eval(xs) - xs))) <= 1e-6
    assert lip.value == pytest.approx(1.0, abs=1e-6)
    assert push.value == pytest.approx(2.0, abs=1e-5)
    rs = L.ratio_lower_bound(families["exponential"], sm)
    assert rs.value == pytest.approx(2.0, rel=1e-3)
    report("gaussian_fixed_point", "lip=%.9f push=%.9f ratio=%.6f" % (lip.value, push.value, rs.value))


@pytest.mark.parametrize("kind,radius", SUITE)
def test_shift_sandwich_suite(kind, radius):
    # outer-region checks at unit variance, 200-point grids on both sides,
    # relative slack 1e-8, zero violations allowed
    mu = suite_measure(kind, radius)
    sm = L.SmoothedMeasure(mu, 1.0)
    tm = L.TransportMap(sm)
    r = sm.radius
    slack = 1e-8
    for sign in (1.0, -1.0):
        xs = sign * np.linspace(2 * r, 2 * r + 8, 200)
        k, kp = tail_shift_oracle(mu, xs)
        q_shift = sm.density(xs + k)
        p = np.exp(L.log_gaussian_density(xs, 1.0))
        upper = math.exp(-r) * p
        lower = math.exp(-2 * r * r - 2 * r - 0.125) * p
        assert np.all(q_shift <= upper * (1 + slack)), "density upper bound violated"
        assert np.all(q_shift >= lower * (1 - slack)), "density lower bound violated"
        assert np.all(kp <= r * (1 + slack) + slack), "shift slope bound violated"
        t = tm.eval(xs)
        if sign > 0:
            hi = xs + k
            lo = xs - r
        else:
            hi = xs + r
            lo = xs + k
        assert np.all(t <= hi + slack * np.maximum(1.0, np.abs(hi)))
        assert np.all(t >= lo - slack * np.maximum(1.0, np.abs(lo)))
    report("shift_sandwich[%s,R=%g]" % (kind, radius))


@pytest.mark.parametrize("kind,radius", SUITE)
def test_case_slope_bounds(kind, radius):
    # log-domain comparison so the R=2 case cannot overflow
    sm = L.SmoothedMeasure(suite_measure(kind, radius), 1.0)
    tm = L.TransportMap(sm)
    r = sm.radius
    slack = 1e-8
    outer_log = 2 * r * r + 2 * r + 0.125
    mid_log = 12 * r * r
    for sign in (1.0, -1.0):
        xs = sign * np.linspace(2 * r, 2 * r + 8, 200)
        _, d = tm.eval_and_derivative(xs)
        assert np.all(np.log(d) <= outer_log + slack * max(1.0, outer_log))
    mid = np.linspace(-2 * r, 2 * r, 200)
    _, d = tm.eval_and_derivative(mid)
    assert np.all(np.log(d) <= mid_log + slack * max(1.0, mid_log))
    report("case_slope_bounds[%s,R=%g]" % (kind, radius))


def test_transport_route_formula():
    tr = L.bound_transport(1.0, 1.0)
    assert abs(tr.log - (math.log(2.0) + 24.0)) <= 1e-12
    for r in np.linspace(0.3, 3.0, 10):
        for frac in np.linspace(0.05, 1.0, 10):
            delta = frac * 16.0 * r * r
            tr = L.bound_transport(r, delta)
            assert tr.simplified_valid
            assert tr.log == math.log(2.0 * delta) + 24.0 * r * r / delta
    report("transport_route_formula")


@pytest.mark.parametrize("name", BUNDLED)
@pytest.mark.parametrize("delta", DELTAS)
def test_cross_method_sandwich(name, delta):
    _, _, push, troute, bg, _, best = pair_artifacts(name, delta)
    log_slack = 1e-6
    assert bg.lower.log <= push.log + log_slack
    assert bg.lower.log <= troute.log + log_slack
    log_ratio = math.log(best.value)
    assert log_ratio <= bg.upper.log + log_slack
    assert log_ratio <= push.log + log_slack
    report("cross_method_sandwich[%s,d=%g]" % (name, delta))


@pytest.mark.parametrize("name", ("bernoulli", "asymmetric", "uniform"))
@pytest.mark.parametrize("delta", (0.25, 4.0))
def test_scaling_law(name, delta):
    # direct computation vs normalized frame rescaled by delta
    mu = bundled_measure(name)
    _, lip, push, _, _, _, _ = pair_artifacts(name, delta)
    lam = 1.0 / math.sqrt(delta)
    unit_sm = L.SmoothedMeasure(L.pushforward_affine(mu, lam), 1.0)
    unit_lip = L.TransportMap(unit_sm).lipschitz_estimate()
    unit_push = L.bound_pushforward(L.gaussian_lsi_constant(1.0), unit_lip)
    assert lip.log == pytest.approx(unit_lip.log, abs=1e-6)
    assert push.log == pytest.approx(unit_push.log + math.log(delta), abs=1e-6)
    report("scaling_law[%s,d=%g]" % (name, delta))


@pytest.mark.parametrize("name", BUNDLED)
@pytest.mark.parametrize("delta", DELTAS)
def test_verify_round_trip(name, delta):
    sm, _, _, troute, _, families, best = pair_artifacts(name, delta)
    ok = L.verify_lsi(sm, troute, list(families.values()))
    assert ok.all_passed, "valid constant rejected"
    # the family including its own refined maximizer must reject 0.99 * max
    fam = families[best.family]
    with_argmax = L.ParamFamily(
        fam.name, fam.param_names, fam.axes, fam.build, grid=(best.params,) + fam.grid
    )
    starved = L.verify_lsi(sm, 0.99 * best.value, [with_argmax])
    assert not starved.all_passed, "undersized constant accepted"
    report("verify_round_trip[%s,d=%g]" % (name, delta))


def test_sweep_determinism(tmp_path):
    cfg = str(bundled_data_path("sweep.json"))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2 and names1
    for fname in names1:
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()
    report("sweep_determinism", "%d files byte-identical" % len(names1))
