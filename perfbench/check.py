"""Correctness checker, run outside the timed region.

``bundled-sweep`` is compared field by field against the stored reference in
``reference/bundled-sweep`` with tolerances derived from the config's
tolerances (each derivation sits next to its rule below), plus the Gaussian
fixed point of the point mass.  ``mixture-dense`` and ``small-delta`` use
independent oracles only, never a stored copy of the program's output:
symmetry of the median, the closed-form Bernoulli slope, the hard envelope
and monotonicity of T, G(T(x)) = F(x) and T' = p/q against the generic
``logsob.measures.integrate`` route, ``cdf(inv_cdf(u)) = u`` and
``cdf + sf = 1``.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from logsob.bounds import median
from logsob.cli import load_sweep_config
from logsob.empirical import verify_lsi
from logsob.errors import LogsobError
from logsob.measures import integrate, measure_from_dict
from logsob.smoothing import SmoothedMeasure

REFERENCE = Path(__file__).resolve().parent / "reference" / "bundled-sweep"

#: cmd_verify does not forward integ_tol: entropies and energies are
#: integrated at verify_lsi's own default rtol, so that is their tolerance base
VERIFY_RTOL = inspect.signature(verify_lsi).parameters["rtol"].default
#: closed-form quantities (elementary functions of R and delta): a few ulps of
#: libm difference between machines
CLOSED_RTOL = 1e-12
#: oracle rows where q underflows cannot be resolved in linear domain
_TINY = 1e-300


def geometry(doc):
    """(radius, center) of a measure document, computed without logsob."""
    ends = [float(a["x"]) for a in doc.get("atoms") or []]
    dens = doc.get("density")
    if dens:
        ends += [float(dens["grid"][0]), float(dens["grid"][-1])]
    lo, hi = min(ends), max(ends)
    return 0.5 * (hi - lo), 0.5 * (lo + hi)


def is_symmetric(doc):
    """True when the measure is its own mirror image about its center."""
    _, c = geometry(doc)
    atoms = sorted((float(a["x"]), float(a["w"])) for a in doc.get("atoms") or [])
    for (x0, w0), (x1, w1) in zip(atoms, reversed(atoms)):
        if abs((x0 - c) + (x1 - c)) > 1e-12 or abs(w0 - w1) > 1e-15:
            return False
    dens = doc.get("density")
    if dens:
        g = np.asarray(dens["grid"], dtype=float) - c
        v = np.asarray(dens["values"], dtype=float)
        if not (np.allclose(g, -g[::-1], atol=1e-12) and np.allclose(v, v[::-1], rtol=1e-15)):
            return False
    return True


def is_bernoulli(doc):
    """Symmetric two-atom measure: T' peaks at 0 with log T'(0) = R^2 / 2 delta."""
    atoms = doc.get("atoms") or []
    return not doc.get("density") and len(atoms) == 2 and is_symmetric(doc)


def read_table(path: Path):
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def transport_name(stem, delta):
    return "transport_%s_d%g.csv" % (stem, delta)


def _close(a, b, atol, rtol):
    return abs(a - b) <= atol + rtol * abs(b)


# -- shared checks on a transport table -------------------------------------


def _envelope_slack(x, radius, center, sigma, root_tol):
    # Newton brackets pad the hard envelope by sigma*(1e-9 + 1e-12|x/sigma|) and
    # polish to sigma*root_tol; allow ten root_tol steps plus rounding
    return 10.0 * sigma * root_tol + 4e-16 * (np.abs(x) + abs(center) + radius + 1.0)


def check_table_shape(header, tab, radius, center, sigma, root_tol):
    """T inside x + center -/+ radius and nondecreasing; envelope columns exact."""
    problems = []
    if header != ["x", "T", "T_prime", "envelope_lo", "envelope_hi"]:
        return ["unexpected transport header %r" % (header,)]
    x, t, tp, lo, hi = tab.T
    slack = _envelope_slack(x, radius, center, sigma, root_tol)
    if not np.all(np.isfinite(t)):
        problems.append("non-finite T in %d rows" % int((~np.isfinite(t)).sum()))
    out = (t < x + center - radius - slack) | (t > x + center + radius + slack)
    if out.any():
        k = int(np.argmax(out))
        problems.append(
            "T outside the envelope in %d rows, first x=%r T=%r"
            % (int(out.sum()), float(x[k]), float(t[k]))
        )
    drops = np.diff(t) < -slack[1:]
    if drops.any():
        problems.append("T decreases in %d places" % int(drops.sum()))
    if not (np.all(tp > 0.0) and not np.any(np.isnan(tp))):
        problems.append("T' not positive everywhere")
    env = np.abs(lo - (x + center - radius)) + np.abs(hi - (x + center + radius))
    if np.any(env > 4e-16 * (np.abs(x) + abs(center) + radius + 1.0)):
        problems.append("envelope columns differ from x + center -/+ radius")
    return problems


# -- independent oracles for one (measure, delta) pair ----------------------


def _oracle_side(mu, y, sigma, right):
    """Smoothed mass beyond y (right) or below y (left), by generic integration."""
    sign = 1.0 if right else -1.0
    return np.asarray(
        integrate(mu, lambda s: ndtr(sign * (s[:, None] - y[None, :]) / sigma), rtol=1e-12),
        dtype=float,
    )


def _oracle_density(mu, t, sigma):
    def g(s):
        z = (t[None, :] - s[:, None]) / sigma
        return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))

    return np.asarray(integrate(mu, g, rtol=1e-12), dtype=float)


def oracle_transport(doc, delta, quad, tab, rows=9):
    """G(T(x)) = F(x) and log T' = log p(x) - log q(T(x)) at sample rows."""
    problems = []
    mu = measure_from_dict(doc)
    radius, center = geometry(doc)
    sigma = math.sqrt(delta)
    pick = np.unique(np.linspace(0, tab.shape[0] - 1, rows).round().astype(int))
    x, t, tp = tab[pick, 0], tab[pick, 1], tab[pick, 2]
    if not np.all(np.isfinite(t)):
        return ["non-finite T at oracle rows"]
    right = x >= 0.0
    f_side = ndtr(-np.abs(x) / sigma)
    g_side = np.where(
        right, _oracle_side(mu, t, sigma, True), _oracle_side(mu, t, sigma, False)
    )
    q = _oracle_density(mu, t, sigma)
    # the solver stops within sigma*root_tol of the root, so the residual may
    # be q(T)*sigma*root_tol; G itself is accurate to cdf_tol (tail cutoff)
    tol = quad.cdf_tol + 10.0 * q * sigma * quad.root_tol + 1e-10 * f_side
    bad = np.abs(g_side - f_side) > tol
    for k in np.flatnonzero(bad)[:3]:
        problems.append(
            "G(T(x)) != F(x) at x=%r: tail mass %r vs %r"
            % (float(x[k]), float(g_side[k]), float(f_side[k]))
        )
    with np.errstate(divide="ignore"):
        log_tp = np.log(tp)
        log_oracle = -0.5 * (x / sigma) ** 2 - math.log(sigma * math.sqrt(2.0 * math.pi))
        log_oracle = log_oracle - np.log(q)
    # |d log q / dy| <= (|T - center| + R) / delta, times the T error above
    tol_log = 1e-9 + (np.abs(t - center) + radius) / delta * 10.0 * sigma * quad.root_tol
    resolvable = (q > _TINY) & np.isfinite(log_tp)
    bad = resolvable & (np.abs(log_tp - log_oracle) > tol_log)
    for k in np.flatnonzero(bad)[:3]:
        problems.append(
            "log T'(%r) = %r, oracle log p(x)/q(T) = %r"
            % (float(x[k]), float(log_tp[k]), float(log_oracle[k]))
        )
    return problems


def oracle_smoothing(doc, delta, quad, stage):
    """Library-level oracles on the smoothed measure the stage relies on.

    bounds: cdf(inv_cdf(u)) = u, and the median of a symmetric measure is its
    center.  transport: cdf + sf = 1 and q equals the generic integral.
    """
    mu = measure_from_dict(doc)
    radius, center = geometry(doc)
    sigma = math.sqrt(delta)
    try:
        sm = SmoothedMeasure(mu, delta, quad)
        if stage == "bounds":
            problems = []
            u = np.array([1e-3, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0 - 1e-3])
            y = sm.inv_cdf(u)
            err = np.abs(sm.cdf(y) - u)
            if np.any(err > quad.cdf_tol):
                problems.append("cdf(inv_cdf(u)) misses u by %.3e" % float(err.max()))
            if is_symmetric(doc):
                m = median(sm)
                if abs(m - center) > 10.0 * sigma * quad.root_tol:
                    problems.append("median %r of a symmetric measure, expected %r" % (m, center))
            return problems
        ts = center + np.linspace(-(radius + 4.0 * sigma), radius + 4.0 * sigma, 9)
        problems = []
        gap = np.abs(sm.cdf(ts) + sm.sf(ts) - 1.0)
        if np.any(gap > quad.cdf_tol):
            problems.append("cdf + sf misses 1 by %.3e" % float(gap.max()))
        q_lib = sm.density(ts)
        q_ref = _oracle_density(mu, ts, sigma)
        bad = np.abs(q_lib - q_ref) > 10.0 * quad.integ_tol * q_ref + _TINY
        if bad.any():
            k = int(np.argmax(bad))
            problems.append(
                "q(%r) = %r, generic integral %r" % (float(ts[k]), float(q_lib[k]), float(q_ref[k]))
            )
        return problems
    except LogsobError as exc:
        return ["%s raised %s: %s" % (stage, type(exc).__name__, exc)]


def check_pair(plan, call, out_dir: Path, small_delta: bool):
    """Oracle checks for one one-pair call's outputs; returns a list of problems."""
    stem, delta, stage = call.ops[0]
    doc = plan.measures[stem]
    radius, center = geometry(doc)
    cfg = load_sweep_config(call.config)
    quad = cfg.quad
    sigma = math.sqrt(delta)
    problems = []
    if stage == "bounds":
        recs = _jsonl(out_dir / "bounds.jsonl")
        if len(recs) != 1:
            return ["expected one bounds record, found %d" % len(recs)]
        rec = recs[0]
        failed = sorted(k for k, v in rec["checks"].items() if not v)
        if failed:
            problems.append("report checks false: %s" % ", ".join(failed))
        if not _close(rec["radius"], radius, 0.0, CLOSED_RTOL):
            problems.append("radius %r, expected %r" % (rec["radius"], radius))
        if not _close(rec["center"], center, 1e-15, CLOSED_RTOL):
            problems.append("center %r, expected %r" % (rec["center"], center))
        if small_delta and is_bernoulli(doc):
            want = radius * radius / (2.0 * delta)
            got = rec["lipschitz"]["log_value"]
            if not _close(got, want, 0.0, 1e-8):
                problems.append(
                    "Bernoulli lipschitz log %r, closed form R^2/2delta = %r" % (got, want)
                )
    else:
        path = out_dir / transport_name(stem, delta)
        if not path.exists():
            return ["missing %s" % path.name]
        header, tab = read_table(path)
        problems += check_table_shape(header, tab, radius, center, sigma, quad.root_tol)
        problems += oracle_transport(doc, delta, quad, tab)
        if is_symmetric(doc):
            k = int(np.argmin(np.abs(tab[:, 0])))
            if tab[k, 0] == 0.0 and abs(tab[k, 1] - center) > 10.0 * sigma * quad.root_tol:
                problems.append(
                    "T(0) = %r for a symmetric measure, expected %r" % (float(tab[k, 1]), center)
                )
    return problems + oracle_smoothing(doc, delta, quad, stage)


# -- bundled sweep against the stored reference -----------------------------


def _jsonl(path: Path):
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flatten(obj[k], "%s%s." % (prefix, k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, "%s%d." % (prefix, i))
    else:
        yield prefix[:-1], obj


def _bounds_tolerance(path, ref):
    """(atol, rtol) for one field of a bounds record.

    The Lipschitz sweep and the BG scan both hang on values that bracketed
    Newton polishes to sigma*root_tol in x.  A shift dT of T moves log q(T)
    by at most |d log q/dy| dT <= (R + W)/delta dT, W the half-width of the
    window, which bounds log T' and the BG logs.  A flat maximum moves its
    argmax by about sigma*sqrt(2 * that log error).
    """
    quad = ref["quadrature"]
    r, d = ref["radius"], ref["delta"]
    sigma = math.sqrt(d)
    win = max(abs(w - ref["center"]) for w in ref["lipschitz"]["window"])
    eps_lip = 10.0 * (r + win) / d * sigma * quad["root_tol"] + 1e-12
    eps_bg = 10.0 * (r + ref["bg"]["scan_halfwidth"]) / d * sigma * quad["root_tol"] + 1e-12
    if path in ("lipschitz.log_value", "pushforward_bound.log"):
        return 2.0 * eps_lip, CLOSED_RTOL
    if path in ("lipschitz.value", "pushforward_bound.value"):
        return 0.0, 2.0 * eps_lip
    if path == "lipschitz.argmax":
        return 10.0 * sigma * math.sqrt(2.0 * eps_lip), 0.0
    if path.startswith("bg.") and path.endswith(".log"):
        return 2.0 * eps_bg, CLOSED_RTOL
    if path.startswith("bg.") and path.endswith(".value"):
        return 0.0, 2.0 * eps_bg
    if path.startswith("bg.argmax"):
        # golden-section polish stops at 1e-6 of the bracket
        span = 2.0 * ref["bg"]["scan_halfwidth"] / ref["bg"]["scan_points"]
        return max(1e-5 * span, 10.0 * sigma * math.sqrt(2.0 * eps_bg)), 0.0
    # radius, center, closed-form bounds, windows, settings
    return 1e-15, CLOSED_RTOL


def _verify_tolerance(path, ref):
    """(atol, rtol) for one field of a verify record.

    Entropy and energy are adaptive-Simpson integrals at VERIFY_RTOL per
    cell; ten times that covers cells accepted differently after rounding.
    The margin Ent - c*Energy inherits the absolute error of both terms.
    """
    rt = 10.0 * VERIFY_RTOL
    parts = path.split(".")
    if parts[0] == "members" and len(parts) >= 3:
        m = ref["members"][int(parts[1])]
        if parts[2] in ("entropy", "energy"):
            return 1e-11, rt
        if parts[2] == "ratio":
            return 1e-11, 2.0 * rt
        if parts[2] == "margin":
            budget = m["entropy"] - m["margin"]
            return rt * (abs(m["entropy"]) + abs(budget)) + 1e-11, 0.0
    if path == "worst_margin":
        return max(
            rt * (abs(m["entropy"]) + abs(m["entropy"] - m["margin"])) + 1e-11
            for m in ref["members"]
        ), 0.0
    return 1e-15, CLOSED_RTOL


def compare_record(got, ref, tolerance):
    """Field-by-field comparison; ``tolerance(path)`` gives (atol, rtol) for floats."""
    a = dict(_flatten(got))
    b = dict(_flatten(ref))
    if a.keys() != b.keys():
        return ["fields differ: %s" % sorted(a.keys() ^ b.keys())[:5]]
    problems = []
    for path, want in b.items():
        have = a[path]
        numeric = isinstance(have, (float, int)) and not isinstance(have, bool)
        if isinstance(want, float) and numeric:
            atol, rtol = tolerance(path)
            if not _close(float(have), want, atol, rtol):
                problems.append("%s = %r, reference %r" % (path, have, want))
        elif have != want or type(have) is not type(want):
            problems.append("%s = %r, reference %r" % (path, have, want))
    return problems


def compare_table(got, ref, radius, center, delta, root_tol):
    """Transport CSV against its reference, row by row.

    x and the envelope are linspace arithmetic; T is root_tol-polished in the
    unit frame, so sigma*root_tol in x; log T' moves by |d log q/dy| dT.
    """
    (hg, tg), (hr, tr) = got, ref
    if hg != hr or tg.shape != tr.shape:
        return ["table shape or header differs from the reference"]
    sigma = math.sqrt(delta)
    dt = 10.0 * sigma * root_tol
    problems = []
    for col in (0, 3, 4):
        if np.any(np.abs(tg[:, col] - tr[:, col]) > 1e-14 + CLOSED_RTOL * np.abs(tr[:, col])):
            problems.append("column %s differs from the reference" % hr[col])
    if np.any(np.abs(tg[:, 1] - tr[:, 1]) > dt + 1e-15 * np.abs(tr[:, 1])):
        problems.append("T differs from the reference by more than %.1e" % dt)
    rt = (np.abs(tr[:, 1] - center) + radius) / delta * dt + 1e-12
    if np.any(np.abs(tg[:, 2] - tr[:, 2]) > rt * np.abs(tr[:, 2])):
        problems.append("T' differs from the reference")
    return problems


def check_sweep(plan, out_dir: Path, reference: Path = REFERENCE):
    """Problems per (measure, delta, stage) op of the bundled sweep."""
    cfg = load_sweep_config(plan.calls[0].config)
    got_b = {(r["measure"], r["delta"]): r for r in _jsonl(out_dir / "bounds.jsonl")}
    got_v = {(r["measure"], r["delta"]): r for r in _jsonl(out_dir / "verify.jsonl")}
    ref_b = {(r["measure"], r["delta"]): r for r in _jsonl(reference / "bounds.jsonl")}
    ref_v = {(r["measure"], r["delta"]): r for r in _jsonl(reference / "verify.jsonl")}
    out = {}
    for op in plan.ops:
        stem, delta, stage = op
        key = (stem, delta)
        doc = plan.measures[stem]
        radius, center = geometry(doc)
        problems = []
        if stage == "bounds":
            rec = got_b.get(key)
            if rec is None or key not in ref_b:
                problems.append("missing bounds record")
            else:
                ref = ref_b[key]
                problems += compare_record(rec, ref, lambda p: _bounds_tolerance(p, ref))
                failed = sorted(k for k, v in rec["checks"].items() if not v)
                if failed:
                    problems.append("report checks false: %s" % ", ".join(failed))
                if radius == 0.0:
                    # Gaussian fixed point: T is the identity, so log Lip = 0
                    atol, _ = _bounds_tolerance("lipschitz.log_value", ref)
                    if abs(rec["lipschitz"]["log_value"]) > atol:
                        problems.append(
                            "point-mass lipschitz log %r, expected 0"
                            % rec["lipschitz"]["log_value"]
                        )
        elif stage == "transport":
            name = transport_name(stem, delta)
            if not (out_dir / name).exists():
                problems.append("missing %s" % name)
            else:
                got = read_table(out_dir / name)
                problems += check_table_shape(
                    *got, radius, center, math.sqrt(delta), cfg.quad.root_tol
                )
                problems += compare_table(
                    got, read_table(reference / name), radius, center, delta, cfg.quad.root_tol
                )
        else:
            rec = got_v.get(key)
            if rec is None or key not in ref_v:
                problems.append("missing verify record")
            else:
                ref = ref_v[key]
                problems += compare_record(rec, ref, lambda p: _verify_tolerance(p, ref))
                if not rec["all_passed"]:
                    problems.append("verify all_passed is false")
                if radius == 0.0:
                    # Gaussian fixed point: every ratio is at most 2*delta
                    cap = 2.0 * delta * (1.0 + 20.0 * VERIFY_RTOL)
                    worst = max(m["ratio"] for m in rec["members"])
                    if worst > cap:
                        problems.append("point-mass ratio %r above 2*delta" % worst)
        out[op] = problems
    return out


def same_files(a: Path, b: Path):
    """Names of files that differ between two output directories (byte-wise)."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return [
        n
        for n in names
        if not ((a / n).exists() and (b / n).exists())
        or (a / n).read_bytes() != (b / n).read_bytes()
    ]
