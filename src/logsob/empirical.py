"""Entropy/energy ratios of test functions against the smoothed measure.

Any nonnegative locally Lipschitz f gives a certified-by-construction lower
bound Ent(f^2) / Energy(f) on the optimal constant.  Three families ship:
exponentials exp(l*x/2), which saturate the Gaussian inequality for every
rate, translated Gaussian bumps, and smoothed steps tanh((x-a)/eps) + 1,
which probe the mass-splitting regime where the constant blows up for
bimodal measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, EmptyFamily, NonintegrableTestFunction
from .logdomain import MAX_EXP_LOG, LogValue
from .quadrature import adaptive_simpson, golden_section_max
from .smoothing import SmoothedMeasure


@dataclass(frozen=True)
class TestFunction:
    """Nonnegative locally Lipschitz test function with its slope field.

    ``log_f2`` and ``log_grad2`` are optional overflow-safe evaluators of
    log(f^2) and log(|grad f|^2); quadratures prefer them when present.
    ``window_shift`` marks where the f^2-weighted mass of the smoothed
    measure gets tilted to (rate * delta for exponentials), so integration
    windows can follow it.
    """

    family: str
    params: tuple
    f: Callable
    grad: Callable
    log_f2: Callable | None = None
    log_grad2: Callable | None = None
    window_shift: float = 0.0


@dataclass(frozen=True)
class ParamFamily:
    """A parameter grid plus a builder turning one grid point into a TestFunction.

    ``build`` must also accept parameter arrays and return a TestFunction
    whose evaluators broadcast them against the abscissae: batched quadrature
    evaluates many members in one call, one parameter value per node.
    """

    name: str
    param_names: tuple
    axes: tuple
    build: Callable
    grid: tuple = field(default=())

    def __post_init__(self):
        if not self.grid:
            mesh = np.meshgrid(*self.axes, indexing="ij")
            pts = tuple(
                tuple(float(m[idx]) for m in mesh)
                for idx in np.ndindex(mesh[0].shape)
            )
            object.__setattr__(self, "grid", pts)


def exponential_family(delta, count=64, rate_min=0.05, rate_max=None) -> ParamFamily:
    """f = exp(rate*x/2) over a log-spaced rate grid; ratio 2*delta on a Gaussian."""
    delta = float(delta)
    if rate_max is None:
        rate_max = 4.0 / math.sqrt(delta)
    rates = np.geomspace(float(rate_min), float(rate_max), int(count))

    def build(params):
        (rate,) = params
        return TestFunction(
            family="exponential",
            params=(rate,),
            f=lambda x, r=rate: np.exp(0.5 * r * np.asarray(x, dtype=float)),
            grad=lambda x, r=rate: 0.5 * r * np.exp(0.5 * r * np.asarray(x, dtype=float)),
            log_f2=lambda x, r=rate: r * np.asarray(x, dtype=float),
            log_grad2=lambda x, r=rate: 2.0 * np.log(0.5 * r)
            + r * np.asarray(x, dtype=float),
            window_shift=rate * delta,
        )

    return ParamFamily("exponential", ("rate",), (rates,), build)


def bump_family(radius, delta, centers=5, widths=4) -> ParamFamily:
    """Translated Gaussian bumps exp(-(x-a)^2 / (2 s^2))."""
    r = float(radius)
    sigma = math.sqrt(float(delta))
    span = r + sigma
    locs = np.linspace(-span, span, int(centers))
    scales = np.geomspace(0.3 * sigma, max(r, sigma) + sigma, int(widths))

    def build(params):
        a, s = params

        def log_f2(x, a=a, s=s):
            z = (np.asarray(x, dtype=float) - a) / s
            return -z * z

        def fval(x, a=a, s=s):
            z = (np.asarray(x, dtype=float) - a) / s
            return np.exp(-0.5 * z * z)

        def grad(x, a=a, s=s):
            xv = np.asarray(x, dtype=float)
            return np.abs(xv - a) / (s * s) * fval(xv)

        return TestFunction(
            family="bump", params=(a, s), f=fval, grad=grad, log_f2=log_f2
        )

    return ParamFamily("bump", ("center", "scale"), (locs, scales), build)


def step_family(radius, delta, centers=5, widths=4) -> ParamFamily:
    """Smoothed steps tanh((x-a)/eps) + 1; these split bimodal mass."""
    r = float(radius)
    sigma = math.sqrt(float(delta))
    span = r + 0.5 * sigma
    locs = np.linspace(-span, span, int(centers))
    epss = np.geomspace(0.1 * sigma, sigma, int(widths))

    def build(params):
        a, eps = params

        def fval(x, a=a, eps=eps):
            return np.tanh((np.asarray(x, dtype=float) - a) / eps) + 1.0

        def log_f2(x, a=a, eps=eps):
            z = (np.asarray(x, dtype=float) - a) / eps
            # log(1 + tanh z) = log 2 - log(1 + exp(-2z)), stable both ways
            return 2.0 * (math.log(2.0) - np.logaddexp(0.0, -2.0 * z))

        def grad(x, a=a, eps=eps):
            z = (np.asarray(x, dtype=float) - a) / eps
            # sech^2(z) / eps without overflow
            return np.exp(2.0 * math.log(2.0) - 2.0 * np.logaddexp(z, -z)) / eps

        return TestFunction(
            family="step", params=(a, eps), f=fval, grad=grad, log_f2=log_f2
        )

    return ParamFamily("step", ("center", "width"), (locs, epss), build)


def shipped_families(sm: SmoothedMeasure) -> dict:
    return {
        "exponential": exponential_family(sm.delta),
        "bump": bump_family(sm.radius, sm.delta),
        "step": step_family(sm.radius, sm.delta),
    }


def _window(tf: TestFunction, sm: SmoothedMeasure):
    pad = sm.config.tail_mult * sm.sigma
    lo = sm.center - sm.radius - pad + min(0.0, tf.window_shift)
    hi = sm.center + sm.radius + pad + max(0.0, tf.window_shift)
    return lo, hi


def _log_f2(tf: TestFunction):
    if tf.log_f2 is not None:
        return tf.log_f2

    def fallback(x):
        with np.errstate(divide="ignore"):
            return 2.0 * np.log(np.maximum(np.asarray(tf.f(x), dtype=float), 0.0))

    return fallback


def _initial_cells(lo, hi, sm):
    return int(min(128, max(8, math.ceil((hi - lo) / sm.sigma))))


def _grad2_terms(tf: TestFunction, x, lq):
    if tf.log_grad2 is not None:
        return np.exp(tf.log_grad2(x) + lq)
    g = np.asarray(tf.grad(x), dtype=float)
    return g * g * np.exp(lq)


#: Members integrated in one quadrature pass.  Their pending cells share one
#: array per round, so peak memory grows with the batch while the time saved
#: levels off.  Shipped sweep on a 2-vCPU Xeon, batch 1/8/16/32/64: peak RSS
#: 59/62/66/69/80 MB, sweep 3.4/2.1/2.0/1.9/1.9 s.
_BATCH_MEMBERS = 16


def _moments(members, stacked, sm: SmoothedMeasure, rtol: float, with_entropy=True):
    """(f^2 mass, Dirichlet energy, Ent(f^2)) arrays, one entry per member.

    ``stacked(k)`` returns one TestFunction whose evaluators act at node i
    as member ``k[i]``.  Every member keeps its own window, initial panels
    and tail certificate; one adaptive Simpson pass integrates all of them,
    evaluating log q once per node.  The entropy pass (skipped without
    ``with_entropy``) needs the masses, so it is a second pass.
    """
    lo, hi = np.array([_window(tf, sm) for tf in members]).T
    cells = [_initial_cells(a, b, sm) for a, b in zip(lo, hi)]

    def pair(x, k):
        tf = stacked(k)
        lq = sm.log_density(x)
        return np.stack([np.exp(_log_f2(tf)(x) + lq), _grad2_terms(tf, x, lq)], axis=-1)

    vals = adaptive_simpson(pair, lo, hi, rtol=rtol, initial_cells=cells)
    mass, en = vals[:, 0], vals[:, 1]
    # Gaussian-decay tail certificate: past the window, f^2 q is dominated by
    # its edge value times a Gaussian tail of scale sigma
    count = len(members)
    edge = pair(np.concatenate([lo, hi]), np.tile(np.arange(count), 2))[:, 0]
    edge = np.maximum(edge[:count], edge[count:])
    for tf, total, e in zip(members, mass, edge):
        if not (total > 0.0 and math.isfinite(total)):
            raise NonintegrableTestFunction(
                "windowed f^2 integral is %r for %s%r" % (float(total), tf.family, tf.params)
            )
        if float(e) * math.sqrt(2.0 * math.pi) * sm.sigma > 1e-8 * total:
            raise NonintegrableTestFunction(
                "tail certificate failed for %s%r: edge mass not negligible"
                % (tf.family, tf.params)
            )
    if not with_entropy:
        return mass, en, None
    log_mass = np.log(mass)

    def integrand(x, k):
        lf = _log_f2(stacked(k))(x)
        val = np.exp(lf + sm.log_density(x)) * (lf - log_mass[k])
        return np.where(np.isfinite(lf), val, 0.0)

    scale = np.maximum(mass, 1.0)
    ent = adaptive_simpson(
        integrand, lo, hi, rtol=rtol, atol=1e-15 * scale, initial_cells=cells
    )
    ent = np.where((ent < 0.0) & (np.abs(ent) <= 1e-12 * scale), 0.0, ent)
    return mass, en, ent


def _family_moments(family: ParamFamily, sm: SmoothedMeasure, rtol: float):
    """(params, member, entropy, energy) per grid point, integrated in batches.

    Each batch evaluates a stacked member: the builder applied to parameter
    columns indexed by the member index of every node.
    """
    for start in range(0, len(family.grid), _BATCH_MEMBERS):
        grid = family.grid[start : start + _BATCH_MEMBERS]
        cols = [np.array(col, dtype=float) for col in zip(*grid)]
        members = [family.build(p) for p in grid]

        def stacked(k, cols=cols):
            return family.build(tuple(c[k] for c in cols))

        _, ens, ents = _moments(members, stacked, sm, rtol)
        for params, tf, en, ent in zip(grid, members, ens, ents):
            yield params, tf, float(ent), float(en)


def _single(tf: TestFunction, sm: SmoothedMeasure, rtol: float, with_entropy=True):
    """(mass, energy, entropy) of one member: the K = 1 batch."""
    mass, en, ent = _moments([tf], lambda k: tf, sm, rtol, with_entropy)
    return float(mass[0]), float(en[0]), None if ent is None else float(ent[0])


def _ratio_of(tf: TestFunction, ent: float, en: float) -> float:
    if not en > 0.0:
        raise DomainError(
            "zero-energy member %s%r cannot enter a ratio" % (tf.family, tf.params)
        )
    return ent / en


def entropy(tf: TestFunction, sm: SmoothedMeasure, rtol: float = 1e-12) -> float:
    """Ent(f^2) against the smoothed measure; nonnegative, 0 on constants."""
    return _single(tf, sm, rtol)[2]


def energy(tf: TestFunction, sm: SmoothedMeasure, rtol: float = 1e-12) -> float:
    """Dirichlet energy: integral of |grad f|^2 against the smoothed measure."""
    return _single(tf, sm, rtol, with_entropy=False)[1]


def ratio(tf: TestFunction, sm: SmoothedMeasure, rtol: float = 1e-10):
    """(entropy, energy, entropy/energy) for one member."""
    _, en, ent = _single(tf, sm, rtol)
    return ent, en, _ratio_of(tf, ent, en)


@dataclass(frozen=True)
class RatioPoint:
    params: tuple
    entropy_value: float
    energy_value: float
    ratio: float


@dataclass(frozen=True)
class RatioSearch:
    """Best entropy/energy ratio over a family grid; a valid lower bound."""

    family: str
    value: float
    params: tuple
    table: tuple


def ratio_lower_bound(
    family: ParamFamily, sm: SmoothedMeasure, refine: bool = True, rtol: float = 1e-10
) -> RatioSearch:
    """Maximize Ent/Energy over the family grid, then refine per parameter.

    Every evaluated ratio is itself a lower bound for the optimal constant,
    so refinement can only improve the reported value.
    """
    if not family.grid:
        raise EmptyFamily("family %r has an empty grid" % family.name)
    rows = [
        RatioPoint(params, ent, en, _ratio_of(tf, ent, en))
        for params, tf, ent, en in _family_moments(family, sm, rtol)
    ]
    best = max(range(len(rows)), key=lambda k: rows[k].ratio)
    best_params = list(rows[best].params)
    best_ratio = rows[best].ratio
    if refine:
        for k, axis in enumerate(family.axes):
            axis = np.asarray(axis, dtype=float)
            j = int(np.argmin(np.abs(axis - best_params[k])))
            lo = axis[max(j - 1, 0)]
            hi = axis[min(j + 1, axis.size - 1)]
            if hi <= lo:
                continue

            def along(t, k=k):
                trial = tuple(
                    t if i == k else best_params[i] for i in range(len(best_params))
                )
                return ratio(family.build(trial), sm, rtol)[2]

            t_star, r_star = golden_section_max(along, lo, hi, xtol=2e-2 * (hi - lo))
            if r_star > best_ratio:
                best_ratio = r_star
                best_params[k] = t_star
    return RatioSearch(
        family=family.name,
        value=float(best_ratio),
        params=tuple(best_params),
        table=tuple(rows),
    )


@dataclass(frozen=True)
class VerifyEntry:
    family: str
    params: tuple
    entropy_value: float
    energy_value: float
    ratio: float
    margin: float
    slack: float
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    constant_log: float
    entries: tuple
    worst_margin: float
    all_passed: bool


def verify_lsi(
    sm: SmoothedMeasure,
    constant,
    families,
    slack_scale: float = 1e-6,
    rtol: float = 1e-8,
) -> VerifyReport:
    """Check Ent(f^2) <= c * Energy(f) across families; failures are data.

    ``constant`` may be a float or a LogValue (log-domain constants larger
    than any double pass whenever the energy is positive).  The margin is
    Ent - c*Energy; a member passes when it is below
    slack_scale * max(Ent, c*Energy, 1).
    """
    if isinstance(constant, LogValue):
        c_log = constant.log
    else:
        c = float(constant)
        if c < 0.0:
            raise DomainError("constant must be nonnegative")
        c_log = math.log(c) if c > 0.0 else -math.inf
    if isinstance(families, ParamFamily):
        families = [families]
    entries = []
    for fam in families:
        if not fam.grid:
            raise EmptyFamily("family %r has an empty grid" % fam.name)
        for params, _, ent, en in _family_moments(fam, sm, rtol):
            if en > 0.0 and c_log != -math.inf:
                s = c_log + math.log(en)
                budget = math.inf if s > MAX_EXP_LOG else math.exp(s)
            else:
                budget = 0.0
            margin = ent - budget
            slack = slack_scale * max(
                ent, budget if math.isfinite(budget) else 0.0, 1.0
            )
            entries.append(
                VerifyEntry(
                    family=fam.name,
                    params=params,
                    entropy_value=ent,
                    energy_value=en,
                    ratio=ent / en if en > 0.0 else math.nan,
                    margin=margin,
                    slack=slack,
                    passed=margin <= slack,
                )
            )
    if not entries:
        raise EmptyFamily("no members to verify")
    worst = max(e.margin for e in entries)
    return VerifyReport(
        constant_log=c_log,
        entries=tuple(entries),
        worst_margin=worst,
        all_passed=all(e.passed for e in entries),
    )
