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
from .logdomain import MAX_EXP_LOG, _as_log
from .measures import _check_count
from .quadrature import adaptive_simpson, golden_section_max
from .smoothing import SmoothedMeasure, _check_delta, _check_radius


@dataclass(frozen=True)
class TestFunction:
    """Nonnegative locally Lipschitz test function, given in the log domain.

    ``log_f2`` and ``log_grad2`` evaluate log(f^2) and log(|grad f|^2)
    (-inf where f or its slope vanishes), so members whose values overflow
    doubles still integrate against the smoothed density.
    ``window_shift`` marks where the f^2-weighted mass of the smoothed
    measure gets tilted to (rate * delta for exponentials), so integration
    windows can follow it.
    """

    family: str
    params: tuple
    log_f2: Callable
    log_grad2: Callable
    window_shift: float = 0.0


@dataclass(frozen=True)
class ParamFamily:
    """A parameter grid plus a builder turning one grid point into a TestFunction.

    ``build`` must also accept parameter arrays and return a TestFunction
    whose evaluators and ``window_shift`` broadcast them against the
    abscissae: the grid is integrated from such stacked members only, many
    members in one call, one parameter value per node.
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


def exponential_family(delta, count=64) -> ParamFamily:
    """f = exp(rate*x/2) over ``count`` rates log-spaced from 0.05 to 4/sqrt(delta);
    ratio 2*delta on a Gaussian."""
    delta = _check_delta(delta)
    rates = np.geomspace(0.05, 4.0 / math.sqrt(delta), _check_count(count, 0, "rates"))

    def build(params):
        (rate,) = params
        return TestFunction(
            family="exponential",
            params=(rate,),
            log_f2=lambda x, r=rate: r * np.asarray(x, dtype=float),
            log_grad2=lambda x, r=rate: 2.0 * np.log(0.5 * r)
            + r * np.asarray(x, dtype=float),
            window_shift=rate * delta,
        )

    return ParamFamily("exponential", ("rate",), (rates,), build)


def bump_family(radius, delta, centers=5) -> ParamFamily:
    """Translated Gaussian bumps exp(-(x-a)^2 / (2 s^2)): ``centers`` values of a
    across +-(R + sigma), 4 scales s log-spaced from 0.3 sigma to max(R, sigma) + sigma."""
    r = _check_radius(radius)
    sigma = math.sqrt(_check_delta(delta))
    span = r + sigma
    locs = np.linspace(-span, span, _check_count(centers, 0, "centers"))
    scales = np.geomspace(0.3 * sigma, max(r, sigma) + sigma, 4)

    def build(params):
        a, s = params

        def log_f2(x, a=a, s=s):
            z = (np.asarray(x, dtype=float) - a) / s
            return -z * z

        def log_grad2(x, a=a, s=s):
            # |grad f| = |z| / s * exp(-z^2 / 2)
            z = (np.asarray(x, dtype=float) - a) / s
            with np.errstate(divide="ignore"):
                return 2.0 * np.log(np.abs(z) / s) - z * z

        return TestFunction("bump", (a, s), log_f2, log_grad2)

    return ParamFamily("bump", ("center", "scale"), (locs, scales), build)


def step_family(radius, delta, centers=5) -> ParamFamily:
    """Smoothed steps tanh((x-a)/eps) + 1, which split bimodal mass: ``centers``
    values of a across +-(R + sigma/2), 4 widths eps log-spaced from 0.1 sigma to sigma."""
    r = _check_radius(radius)
    sigma = math.sqrt(_check_delta(delta))
    span = r + 0.5 * sigma
    locs = np.linspace(-span, span, _check_count(centers, 0, "centers"))
    epss = np.geomspace(0.1 * sigma, sigma, 4)

    def build(params):
        a, eps = params

        def log_f2(x, a=a, eps=eps):
            z = (np.asarray(x, dtype=float) - a) / eps
            # log(1 + tanh z) = log 2 - log(1 + exp(-2z)), stable both ways
            return 2.0 * (math.log(2.0) - np.logaddexp(0.0, -2.0 * z))

        def log_grad2(x, a=a, eps=eps):
            z = (np.asarray(x, dtype=float) - a) / eps
            # grad f = sech^2(z) / eps = 4 / (e^z + e^-z)^2 / eps
            return 2.0 * (2.0 * math.log(2.0) - 2.0 * np.logaddexp(z, -z) - np.log(eps))

        return TestFunction("step", (a, eps), log_f2, log_grad2)

    return ParamFamily("step", ("center", "width"), (locs, epss), build)


def shipped_families(sm: SmoothedMeasure, grid_size=None) -> dict:
    """The three shipped families by name; ``grid_size``, if given (0 included),
    replaces the 64 rates and 5 centers."""
    rates, centers = (64, 5) if grid_size is None else (grid_size, grid_size)
    return {
        "exponential": exponential_family(sm.delta, count=rates),
        "bump": bump_family(sm.radius, sm.delta, centers=centers),
        "step": step_family(sm.radius, sm.delta, centers=centers),
    }


#: Members integrated in one quadrature pass.  Their pending cells share one
#: array per round, so peak memory grows with the batch while the integrand
#: calls, each with a fixed cost, fall with it.  Shipped sweep, one fresh
#: interpreter per run on a 2-vCPU Xeon, batch 16/32/64: verify stage
#: 0.39/0.32/0.31 s, process peak RSS 58.1/58.6/60.7 MB (medians of 12
#: interleaved runs).
_BATCH_MEMBERS = 32


def _moments(name, params, stacked, sm: SmoothedMeasure, rtol: float):
    """(Dirichlet energy, Ent(f^2)) arrays for the members of one batch.

    ``params`` holds the K grid points, and ``stacked(k)`` returns one
    TestFunction whose evaluators act at node i as member ``k[i]``; its
    ``window_shift`` at ``arange(K)`` widens the smoothed measure's window
    on each member's side.  Every member keeps its own window, initial
    panels and tail certificate, and a failing one is named ``name`` plus
    its params.  One adaptive Simpson pass integrates f^2 q and |f'|^2 q of
    all members, evaluating log q once per node; the entropy pass needs
    the masses, so it is a second pass.
    """
    count = len(params)
    shift = np.broadcast_to(stacked(np.arange(count)).window_shift, (count,))
    lo, hi = sm.window()
    lo, hi = lo + np.minimum(0.0, shift), hi + np.maximum(0.0, shift)
    cells = np.minimum(128, np.maximum(8, np.ceil((hi - lo) / sm.sigma))).astype(int)

    def pair(x, k):
        tf = stacked(k)
        lq = sm.log_density(x)
        out = np.empty((2, x.size))  # rows: each exp writes contiguously, as into a new array
        np.exp(tf.log_f2(x) + lq, out=out[0])
        np.exp(tf.log_grad2(x) + lq, out=out[1])
        return out.T

    vals = adaptive_simpson(pair, lo, hi, rtol=rtol, initial_cells=cells)
    mass, en = vals[:, 0], vals[:, 1]
    # Gaussian-decay tail certificate: past the window, f^2 q is dominated by
    # its edge value times a Gaussian tail of scale sigma, held to the pass's rtol
    edge = pair(np.concatenate([lo, hi]), np.tile(np.arange(count), 2))[:, 0]
    edge = np.maximum(edge[:count], edge[count:])
    for p, total, e in zip(params, mass, edge):
        if not (total > 0.0 and math.isfinite(total)):
            raise NonintegrableTestFunction(
                "windowed f^2 integral is %r for %s%r" % (float(total), name, p)
            )
        if float(e) * math.sqrt(2.0 * math.pi) * sm.sigma > rtol * total:
            raise NonintegrableTestFunction(
                "tail certificate failed for %s%r: edge mass not negligible" % (name, p)
            )
    log_mass = np.log(mass)

    def integrand(x, k):
        lf = stacked(k).log_f2(x)
        val = np.exp(lf + sm.log_density(x)) * (lf - log_mass[k])
        return np.where(np.isfinite(lf), val, 0.0)

    scale = np.maximum(mass, 1.0)
    ent = adaptive_simpson(
        integrand, lo, hi, rtol=rtol, atol=1e-15 * scale, initial_cells=cells
    )
    return en, np.where((ent < 0.0) & (np.abs(ent) <= 1e-12 * scale), 0.0, ent)


def _family_moments(family: ParamFamily, sm: SmoothedMeasure, rtol: float):
    """(params, entropy, energy) per grid point, integrated in batches of
    ``_BATCH_MEMBERS``; EmptyFamily on an empty grid.

    Each batch is one stacked member, the builder applied to the batch's
    parameter columns and indexed by the member index of every node: no
    member is built on its own.
    """
    if not family.grid:
        raise EmptyFamily("family %r has an empty grid" % family.name)
    for start in range(0, len(family.grid), _BATCH_MEMBERS):
        grid = family.grid[start : start + _BATCH_MEMBERS]
        cols = [np.array(col, dtype=float) for col in zip(*grid)]

        def stacked(k, cols=cols):
            return family.build(tuple(c[k] for c in cols))

        ens, ents = _moments(family.name, grid, stacked, sm, rtol)
        for params, en, ent in zip(grid, ens, ents):
            yield params, float(ent), float(en)


def _single(tf: TestFunction, sm: SmoothedMeasure, rtol: float):
    """(energy, entropy) of one member: the K = 1 batch."""
    en, ent = _moments(tf.family, (tf.params,), lambda k: tf, sm, rtol)
    return float(en[0]), float(ent[0])


def _ratio_of(name, params, ent: float, en: float) -> float:
    if not en > 0.0:
        raise DomainError("zero-energy member %s%r cannot enter a ratio" % (name, params))
    return ent / en


def entropy(tf: TestFunction, sm: SmoothedMeasure, rtol: float = 1e-12) -> float:
    """Ent(f^2) against the smoothed measure; nonnegative, 0 on constants."""
    return _single(tf, sm, rtol)[1]


def energy(tf: TestFunction, sm: SmoothedMeasure, rtol: float = 1e-12) -> float:
    """Dirichlet energy: integral of |grad f|^2 against the smoothed measure."""
    return _single(tf, sm, rtol)[0]


def ratio(tf: TestFunction, sm: SmoothedMeasure, rtol: float = 1e-10):
    """(entropy, energy, entropy/energy) for one member."""
    en, ent = _single(tf, sm, rtol)
    return ent, en, _ratio_of(tf.family, tf.params, ent, en)


@dataclass(frozen=True)
class RatioPoint:
    params: tuple
    entropy: float
    energy: float
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
    rows = [
        RatioPoint(params, ent, en, _ratio_of(family.name, params, ent, en))
        for params, ent, en in _family_moments(family, sm, rtol)
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
    entropy: float
    energy: float
    ratio: float
    margin: float
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
    rtol: float = 1e-8,
) -> VerifyReport:
    """Check Ent(f^2) <= c * Energy(f) across a list of families; failures
    are data, an empty grid or list raises EmptyFamily.

    Every member comes from its batch's stacked member (see
    :func:`_family_moments`).  ``constant`` may be a float or a LogValue
    (log-domain constants larger than any double pass whenever the energy
    is positive).  The margin is Ent - c*Energy; a member passes when it is
    at most 1e-6 * max(Ent, c*Energy, 1).
    """
    c_log = _as_log(constant)
    entries = []
    for fam in families:
        for params, ent, en in _family_moments(fam, sm, rtol):
            if en > 0.0 and c_log != -math.inf:
                s = c_log + math.log(en)
                budget = math.inf if s > MAX_EXP_LOG else math.exp(s)
            else:
                budget = 0.0
            margin = ent - budget
            slack = 1e-6 * max(ent, budget if math.isfinite(budget) else 0.0, 1.0)
            entries.append(
                VerifyEntry(
                    family=fam.name,
                    params=params,
                    entropy=ent,
                    energy=en,
                    ratio=ent / en if en > 0.0 else math.nan,
                    margin=margin,
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
