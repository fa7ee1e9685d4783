"""verify_lsi and ratio_lower_bound integrate family members in batches.

The oracle below is the per-member path: one scalar adaptive Simpson pass
for (f^2 mass, energy) and one for the entropy, on the member's own window.
"""

import functools
import math

import numpy as np
import pytest

import logsob as L
from logsob.cli import bundled_data_path
from logsob.errors import NonintegrableTestFunction
from logsob.quadrature import adaptive_simpson


def per_member_oracle(tf, sm, rtol):
    """(entropy, energy) of one member, integrated alone."""
    pad = sm.config.tail_mult * sm.sigma
    lo = sm.center - sm.radius - pad + min(0.0, tf.window_shift)
    hi = sm.center + sm.radius + pad + max(0.0, tf.window_shift)
    cells = int(min(128, max(8, math.ceil((hi - lo) / sm.sigma))))

    def pair(x):
        lq = sm.log_density(x)
        return np.stack([np.exp(tf.log_f2(x) + lq), np.exp(tf.log_grad2(x) + lq)], axis=-1)

    mass, en = adaptive_simpson(pair, lo, hi, rtol=rtol, initial_cells=cells)
    log_mass = math.log(mass)

    def ent_integrand(x):
        lf = tf.log_f2(x)
        return np.exp(lf + sm.log_density(x)) * (lf - log_mass)

    ent = adaptive_simpson(
        ent_integrand, lo, hi, rtol=rtol, atol=1e-15 * max(mass, 1.0), initial_cells=cells
    )
    return ent, en


@pytest.mark.parametrize("name", ["bernoulli", "asymmetric", "uniform"])
def test_batched_verify_matches_per_member_oracle(name, request):
    sm = L.SmoothedMeasure(request.getfixturevalue(name), 0.5)
    families = list(L.shipped_families(sm).values())
    report = L.verify_lsi(sm, 1.0, families)
    assert {e.family for e in report.entries} == {"exponential", "bump", "step"}
    members = [fam.build(p) for fam in families for p in fam.grid]
    assert len(members) == len(report.entries)
    for tf, entry in zip(members, report.entries):
        assert entry.params == tf.params
        ent, en = per_member_oracle(tf, sm, rtol=1e-8)
        assert entry.entropy_value == pytest.approx(ent, rel=1e-12, abs=0.0)
        assert entry.energy_value == pytest.approx(en, rel=1e-12, abs=0.0)


def test_batched_ratio_grid_matches_per_member_oracle(asymmetric):
    sm = L.SmoothedMeasure(asymmetric, 0.5)
    fam = L.step_family(sm.radius, sm.delta)
    rs = L.ratio_lower_bound(fam, sm, refine=False)
    for row in rs.table:
        ent, en = per_member_oracle(fam.build(row.params), sm, rtol=1e-10)
        assert row.entropy_value == pytest.approx(ent, rel=1e-12, abs=0.0)
        assert row.energy_value == pytest.approx(en, rel=1e-12, abs=0.0)


def untilted_exponentials(rates):
    """exp(rate*x/2) with windows that ignore the tilt rate*delta."""

    def build(params):
        (rate,) = params
        return L.TestFunction(
            family="untilted",
            params=(rate,),
            log_f2=lambda x, r=rate: r * np.asarray(x, dtype=float),
            log_grad2=lambda x, r=rate: 2.0 * np.log(0.5 * r) + r * np.asarray(x, dtype=float),
        )

    return L.ParamFamily("untilted", ("rate",), (np.asarray(rates),), build)


def test_runaway_member_in_a_batch_is_named():
    # rate 10 is the runaway member of test_tail_certificate_triggers; the
    # others are integrable on the untilted window
    sm = L.SmoothedMeasure(L.make_discrete([(0.0, 1.0)]), 1.0)
    good = L.verify_lsi(sm, 2.0, [untilted_exponentials([0.5, 1.0, 2.0])])
    assert good.all_passed
    with pytest.raises(NonintegrableTestFunction, match=r"untilted\(10\.0,\)"):
        L.verify_lsi(sm, 2.0, [untilted_exponentials([0.5, 1.0, 10.0, 2.0])])


@functools.lru_cache(maxsize=None)
def point_mass_report(delta):
    sm = L.SmoothedMeasure(L.load_measure(bundled_data_path("point_mass.json")), delta)
    return L.verify_lsi(sm, 2.0 * delta, [L.exponential_family(delta)])


def point_mass_cases():
    for delta in (0.25, 1.0):
        for k, (rate,) in enumerate(L.exponential_family(delta).grid):
            marks = ()
            if delta == 0.25 and abs(rate - 0.0879) < 1e-3:
                marks = pytest.mark.xfail(
                    strict=True,
                    reason="the entropy pass subtracts m log m with the mass of the "
                    "first pass; its rtol-level error, amplified by m/Ent, leaves "
                    "this member 5.1e-6 off",
                )
            yield pytest.param(delta, k, id="d%g-rate%.4g" % (delta, rate), marks=marks)


@pytest.mark.parametrize("delta,k", list(point_mass_cases()))
def test_point_mass_exponential_entropy_closed_form(delta, k):
    # against the Gaussian gamma_delta, f = exp(r x / 2) has
    # Ent(f^2) = (r^2 delta / 2) exp(r^2 delta / 2)
    entry = point_mass_report(delta).entries[k]
    (rate,) = entry.params
    t = rate * rate * delta / 2.0
    assert entry.entropy_value == pytest.approx(t * math.exp(t), rel=1e-7, abs=0.0)
