"""verify_lsi and ratio_lower_bound against a rule that shares no code with them.

The rule is per member: 20-point Gauss-Legendre on CELLS equal cells of the
member's own window (the smoothed measure's, widened on the side of its
``window_shift``), log q from the public ``log_density``, and the mass and the
entropy from the same nodes.  It is run at CELLS and 2 CELLS cells, which must
agree to 1e-10.  Each member's entropy and energy must be within 10 rtol of it,
the base of the benchmark checker's verify tolerance: the members of every
shipped family at delta 0.5, and the 672 members of the bundled sweep.  A
member over that bound is a strict xfail naming ROADMAP item 18.  That a member
has the same bits in a batch as alone is test_quadrature's
``test_batched_simpson_equals_oracle_bitwise``, and that verify's report has
the same bits in batches of 1, 16, 32 and 64 is ``test_batch_size_moves_no_bit``.
"""

import functools
import math

import numpy as np
import pytest

import logsob as L
from logsob import empirical
from logsob.cli import bundled_data_path, load_sweep_config
from logsob.errors import NonintegrableTestFunction

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
#: cells of a member's window; at CELLS and 2 CELLS the rule agrees to 9e-13 or better on
#: every member here (the step of width 0.05 needs more than 64 cells)
CELLS = 128
FAMILIES = ("exponential", "bump", "step")
SWEEP = load_sweep_config(bundled_data_path("sweep.json"))


def _gauss_legendre(tf, sm, cells):
    """(entropy, energy) of one member by 20-point Gauss-Legendre on ``cells`` equal cells
    of its window, f^2 q scaled by its largest node value."""
    lo, hi = sm.window()
    shift = float(tf.window_shift)
    edges = np.linspace(lo + min(0.0, shift), hi + max(0.0, shift), cells + 1)
    half = 0.5 * np.diff(edges)[:, None]
    x = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * _GL_NODES
    w = half * _GL_WEIGHTS
    log_q, log_f2 = sm.log_density(x), tf.log_f2(x)
    top = np.max(log_f2 + log_q)
    scaled = w * np.exp(log_f2 + log_q - top)
    log_mass = top + math.log(np.sum(scaled))
    ent = math.exp(top) * float(np.sum(scaled * (log_f2 - log_mass)))
    return ent, float(np.sum(w * np.exp(tf.log_grad2(x) + log_q)))


def gauss_legendre_moments(tf, sm):
    """(entropy, energy) of one member at 2 CELLS cells, checked against CELLS cells."""
    fine = _gauss_legendre(tf, sm, 2 * CELLS)
    assert _gauss_legendre(tf, sm, CELLS) == pytest.approx(fine, rel=1e-10, abs=0.0)
    return fine


@functools.lru_cache(maxsize=None)
def verify_case(name, delta, families):
    """(sm, members, report): the bundled measure ``name`` at delta, verified at the
    default rtol 1e-8 over the named shipped families."""
    sm = L.SmoothedMeasure(L.load_measure(bundled_data_path(name + ".json")), delta)
    fams = [L.shipped_families(sm)[f] for f in families]
    members = [fam.build(p) for fam in fams for p in fam.grid]
    return sm, members, L.verify_lsi(sm, 1.0, fams)


def _key(name, delta, tf):
    return name, delta, tf.family, tuple(float("%.4g" % p) for p in tf.params)


#: members over 10 rtol of the rule, keyed as :func:`_key`, with the measured relative
#: error: verify's entropy pass subtracts m log m with the mass of its first pass, and
#: m/Ent amplifies that mass's rtol-level error
ITEM18 = {
    ("asymmetric", 0.5, "exponential", (0.0581,)): "entropy 5.9e-7",
    ("asymmetric", 0.5, "exponential", (0.1662,)): "entropy 2.3e-7",
    ("asymmetric", 0.5, "exponential", (0.2418,)): "entropy 1.7e-7",
    ("uniform", 0.5, "exponential", (0.07277,)): "entropy 3.6e-7",
    ("uniform", 0.5, "exponential", (0.07844,)): "entropy 3.0e-7",
    ("point_mass", 0.25, "exponential", (0.08788,)): "entropy 5.1e-6",
    ("bernoulli", 0.25, "exponential", (0.08788,)): "entropy 1.1e-7",
    ("asymmetric", 0.25, "exponential", (0.08788,)): "entropy 4.9e-5, energy 1.8e-7",
    ("uniform", 1.0, "exponential", (0.1324,)): "entropy 1.3e-7",
    ("uniform", 1.0, "step", (-1.5, 0.2154)): "entropy 1.9e-7",
}


def _assert_near_the_rule(sm, tf, entropy, energy, rtol):
    ent, en = gauss_legendre_moments(tf, sm)
    assert entropy == pytest.approx(ent, rel=10.0 * rtol, abs=0.0), tf.params
    assert energy == pytest.approx(en, rel=10.0 * rtol, abs=0.0), tf.params


def _assert_members_near_the_rule(name, delta, families):
    sm, members, report = verify_case(name, delta, families)
    assert len(members) == len(report.entries)
    for tf, entry in zip(members, report.entries):
        assert entry.params == tf.params
        if _key(name, delta, tf) not in ITEM18:  # those are the strict xfails below
            _assert_near_the_rule(sm, tf, entry.entropy, entry.energy, 1e-8)


@pytest.mark.parametrize("name", ["bernoulli", "asymmetric", "uniform"])
def test_batched_verify_matches_per_member_oracle(name):
    _, _, report = verify_case(name, 0.5, FAMILIES)
    assert {e.family for e in report.entries} == set(FAMILIES)
    _assert_members_near_the_rule(name, 0.5, FAMILIES)


@pytest.mark.parametrize("delta", SWEEP.deltas)
@pytest.mark.parametrize("name", [path.stem for path in SWEEP.measures])
def test_bundled_verify_matches_the_rule(name, delta):
    _assert_members_near_the_rule(name, delta, SWEEP.verify_families)


@pytest.mark.parametrize(
    "name, delta, family, params",
    [
        pytest.param(
            *key,
            id="%s-d%g-%s%r" % key,
            marks=pytest.mark.xfail(strict=True, reason="item 18: m log m leaves " + error),
        )
        for key, error in ITEM18.items()
    ],
)
def test_member_over_the_bound_waits_for_item_18(name, delta, family, params):
    sm, members, report = verify_case(name, delta, (family,))
    ((tf, entry),) = [
        (tf, e) for tf, e in zip(members, report.entries) if _key(name, delta, tf)[3] == params
    ]
    _assert_near_the_rule(sm, tf, entry.entropy, entry.energy, 1e-8)


def test_bundled_verify_spares_cells_below_rtol_of_the_scale(monkeypatch):
    # node counts repeat exactly: verify on Bernoulli at delta 0.25 reads log q through
    # the public evaluator at 258,804 points, against 388,732 with adaptive Simpson's
    # floor at eps of the scale; its 84 members call the integrands 56 times in batches
    # of 32 members, 111 times in batches of 16
    sm = L.SmoothedMeasure(L.load_measure(bundled_data_path("bernoulli.json")), 0.25)
    points, calls = [], []
    log_density = sm.log_density
    monkeypatch.setattr(sm, "log_density", lambda t: points.append(np.size(t)) or log_density(t))
    simpson = empirical.adaptive_simpson

    def counted(f, *args, **kwargs):
        return simpson(lambda x, k: calls.append(x.size) or f(x, k), *args, **kwargs)

    monkeypatch.setattr(empirical, "adaptive_simpson", counted)
    L.verify_lsi(sm, 1.0, [L.shipped_families(sm)[f] for f in SWEEP.verify_families])
    assert sum(points) == 258_804
    assert len(calls) <= 64


def test_batch_size_moves_no_bit(monkeypatch):
    # a member's cells are refined and summed in their lone order in any batch, and log q
    # gives a point its bits in any batch, so the batch size is invisible in the report
    sm = L.SmoothedMeasure(L.load_measure(bundled_data_path("asymmetric.json")), 0.25)
    families = [L.shipped_families(sm)[f] for f in SWEEP.verify_families]
    reports = []
    for batch in (1, 16, 32, 64):
        monkeypatch.setattr(empirical, "_BATCH_MEMBERS", batch)
        reports.append(_bits(L.verify_lsi(sm, 1.0, families)))
    assert len(reports[0]) == 84
    assert all(report == reports[0] for report in reports[1:])


def _bits(report):
    return [
        (e.family, e.params, e.passed) + tuple(
            float.hex(v) for v in (e.entropy, e.energy, e.ratio, e.margin)
        )
        for e in report.entries
    ]


def test_batched_ratio_grid_matches_per_member_oracle(asymmetric):
    # measured within 1.4e-12 of the rule
    sm = L.SmoothedMeasure(asymmetric, 0.5)
    fam = L.step_family(sm.radius, sm.delta)
    rs = L.ratio_lower_bound(fam, sm, refine=False)
    for row in rs.table:
        _assert_near_the_rule(sm, fam.build(row.params), row.entropy, row.energy, 1e-10)


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
                    reason="item 18: the entropy pass subtracts m log m with the mass of the "
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
    assert entry.entropy == pytest.approx(t * math.exp(t), rel=1e-7, abs=0.0)


def test_verify_builds_members_only_from_parameter_columns(bernoulli):
    # each batch is described once, by its stacked member; a member built
    # from one grid point would be a second description of it
    sm = L.SmoothedMeasure(bernoulli, 0.5)
    calls = []
    for fam in L.shipped_families(sm, 3).values():

        def build(params, fam=fam):
            calls.append(params)
            return fam.build(params)

        L.verify_lsi(sm, 1.0, [L.ParamFamily(fam.name, fam.param_names, fam.axes, build)])
    assert calls
    assert all(np.ndim(p) == 1 for params in calls for p in params)
