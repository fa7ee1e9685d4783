"""Adaptive Simpson quadrature and bracketed search primitives.

Integrands are numpy-vectorized: they receive a 1-D array of abscissae and
return an array whose leading axis matches it.  Extra trailing axes are
treated as independent output components, which lets callers push many
expectation values through a single refinement pass; adaptive Simpson also
takes many intervals at once, each refined on its own.  Root residuals get
``(y, k)``, ``k`` the index of each abscissa among the points solved.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import BracketFailure, DomainError, QuadratureFailure

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section fraction of the larger part
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def adaptive_simpson(f, a, b, rtol=1e-12, atol=0.0, max_depth=48, initial_cells=1):
    """Integrate ``f`` over [a, b] by adaptive Simpson subdivision.

    Scalar ``a`` and ``b`` integrate one interval, and ``f`` receives the
    abscissae alone.  Arrays ``a`` and ``b`` of K entries integrate K
    intervals in one pass: the pending cells of every interval sit in one
    array per round, ``f(x, k)`` also receives the interval index of each
    abscissa, and the result gains a leading axis of K.  ``initial_cells``
    and ``atol`` may be given per interval too.  The scalar form is the
    K = 1 case: every interval is refined and summed exactly as if it were
    integrated alone.

    Each interval starts from ``initial_cells`` equal panels (one vectorized
    call seeds them all).  A cell is accepted once one extra halving changes
    its value by no more than 15 * (atol + rtol * max(|value|, eps * scale))
    in every output component; eps is the double-precision epsilon and scale
    the interval's sum of |initial panel estimates| in that component.  The
    usual one-fifteenth Richardson correction is folded into the accepted
    value.  The scale floor stops the refinement of cells too small to move
    the integral: each floored cell errs by at most eps * rtol * scale, so
    together they spend a negligible share of the rtol budget as long as
    the cell count stays far below 1/eps.  ``atol`` is a per-cell floor,
    needed for integrands that change sign.

    Each round adds its accepted cells to their intervals' totals one at a
    time in index order (``np.add.at``).  Batching keeps the relative order
    of an interval's cells, so a batched value has its lone bits.

    Raises DomainError, before any evaluation, unless eps <= rtol < inf and
    0 <= atol < inf: below them every cell can fail every round, doubling
    the pending cells until memory runs out.  Raises QuadratureFailure when
    ``max_depth`` rounds of halving cannot reach the tolerance, or in the
    round where a cell estimate turns out not finite, naming its interval.
    """
    batched = np.ndim(a) > 0 or np.ndim(b) > 0
    a = np.atleast_1d(np.asarray(a, dtype=float))
    a, b = np.broadcast_arrays(a, np.asarray(b, dtype=float))
    count = a.size
    sign = np.where(b < a, -1.0, 1.0)
    atol = np.asarray(atol, dtype=float)
    if not (np.finfo(float).eps <= rtol < math.inf and ((atol >= 0.0) & (atol < math.inf)).all()):
        got = (rtol, atol.tolist())
        raise DomainError("need eps <= rtol < inf, 0 <= atol < inf; got %r, %r" % got)
    atol = np.broadcast_to(atol, a.shape)
    panels = np.broadcast_to(np.maximum(1, np.asarray(initial_cells, dtype=int)), a.shape)
    edges = [
        np.linspace(min(ak, bk), max(ak, bk), m + 1) for ak, bk, m in zip(a, b, panels)
    ]
    member = np.repeat(np.arange(count), panels)
    last = np.cumsum(panels) - 1
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    n = lo.size
    call = f if batched else (lambda x, k: f(x))
    first = np.asarray(
        call(
            np.concatenate([lo, 0.5 * (lo + hi), hi[last]]),
            np.concatenate([member, member, np.arange(count)]),
        ),
        dtype=float,
    )
    out_shape = first.shape[1:]
    flo = first[:n]
    fmid = first[n : 2 * n]
    fhi = np.roll(flo, -1, axis=0)
    fhi[last] = first[2 * n :]
    pad = (Ellipsis,) + (None,) * len(out_shape)
    cell = ((hi - lo)[pad] / 6.0) * (flo + 4.0 * fmid + fhi)
    _require_finite(cell, member, a, b)
    floor = np.zeros((count,) + out_shape)
    np.add.at(floor, member, np.abs(cell))
    floor *= np.finfo(float).eps
    total = np.zeros((count,) + out_shape)

    for _ in range(max_depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        vals = np.asarray(
            call(np.concatenate([lmid, rmid]), np.concatenate([member, member])), dtype=float
        )
        n = lo.size
        flm, frm = vals[:n], vals[n:]
        h12 = (hi - lo)[pad] / 12.0
        s_left = h12 * (flo + 4.0 * flm + fmid)
        s_right = h12 * (fmid + 4.0 * frm + fhi)
        s2 = s_left + s_right
        _require_finite(s2, member, a, b)
        err = np.abs(s2 - cell)
        tol = 15.0 * (atol[member][pad] + rtol * np.maximum(np.abs(s2), floor[member]))
        # AND the component columns: reducing a short axis costs more per cell
        ok = functools.reduce(np.logical_and, (err <= tol).reshape(n, -1).T)
        done = s2[ok]
        done += (done - cell[ok]) / 15.0
        np.add.at(total, member[ok], done)
        if ok.all():
            total *= sign[pad]
            if batched:
                return total
            return total[0] if out_shape else float(total[0])
        keep = np.flatnonzero(~ok)
        lo, mid, hi, fmid = lo[keep], mid[keep], hi[keep], fmid[keep]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        flo = np.concatenate([flo[keep], fmid])
        fhi = np.concatenate([fmid, fhi[keep]])
        fmid = np.concatenate([flm[keep], frm[keep]])
        cell = np.concatenate([s_left[keep], s_right[keep]])
        member = np.tile(member[keep], 2)
    raise QuadratureFailure(
        "adaptive Simpson did not reach tolerance rtol=%g after %d halvings "
        "(%d cells pending in %d of %d intervals)"
        % (rtol, max_depth, lo.size, np.unique(member).size, count)
    )


def _require_finite(cell, member, a, b):
    """Raise QuadratureFailure, naming the interval of the first cell estimate
    that is not finite: no halving would make such a cell acceptable."""
    finite = np.isfinite(cell)
    if not finite.all():
        i = int(member[np.argmin(finite.reshape(member.size, -1).all(axis=1))])
        raise QuadratureFailure(
            "adaptive Simpson integrand is not finite on [%r, %r]" % (float(a[i]), float(b[i])),
            index=i,
        )


# not scipy.optimize's bounded Brent (same bits): importing it adds ~0.2 s to logsob.cli
def golden_section_max(f, lo, hi, xtol=1e-8):
    """Maximize a unimodal scalar function on [lo, hi] to xtol; returns (x, f(x)).

    Brent's method (1973, ch. 5): step to the vertex of the parabola through
    the three best points, or golden-section into the larger part of the
    bracket when the vertex leaves it or the step is not below half the one
    before last.  A unimodal f, even with jumps, keeps its max in the bracket.
    Stops once the bracket lies within 2*tol of the best point x, tol =
    sqrt(eps)*|x| + xtol/3, so x is within xtol of the max where sqrt(eps)*|x|
    <= xtol/6.  The ends are never evaluated.
    """
    a, b = sorted((float(lo), float(hi)))
    x = w = v = a + _CGOLD * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    for _ in range(200):
        m = 0.5 * (a + b)
        tol = _SQRT_EPS * abs(x) + xtol / 3.0
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            break
        p = q = 0.0
        if abs(e) > tol:  # vertex x + p/q of the parabola through x, w, v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - w) * r - (x - v) * q
            q = 2.0 * (q - r)
            p, q = (-p, -q) if q < 0.0 else (p, q)
        if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if min(x + d - a, b - x - d) < 2.0 * tol:
                d = math.copysign(tol, m - x)
        else:
            e = (a if x >= m else b) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu >= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v in (x, w):
                v, fv = u, fu
    return x, fx


def bracketed_newton(g_slope, lo, hi, root_tol=1e-10, max_iter=200, start=None):
    """Elementwise root of an increasing residual on [lo, hi], safeguarded Newton.

    ``g_slope(y, k) -> (residual, slope)`` is called on the live points only.
    Newton starts from ``start`` where it is finite and inside the bracket,
    else from the bracket midpoint; a step that is not finite or leaves the
    live bracket falls back to its midpoint.  A point is done once its step
    or its bracket width is at most ``root_tol``.

    The sign change at the bracket ends is checked after the loop, on the
    residual of ``g_slope``.  An end that an iterate replaced (residual < 0
    replaces lo, >= 0 hi) has the right sign, as the residual increases, and
    is evaluated only when the other end has the wrong one.  Every root lies
    between ends of the right signs, and no iterate reads the end residuals.

    Raises BracketFailure, with the count of points, when an endpoint pair
    does not straddle zero or, next, when a residual is not finite (a tail
    underflows); QuadratureFailure when ``max_iter`` steps leave points
    unconverged; each with ``index``, the first failed point.
    """
    ends = np.array([lo, hi], dtype=float).reshape(2, -1)
    lo, hi = ends.copy()
    crossed = np.zeros(ends.shape, dtype=bool)
    lost = np.zeros(lo.size, dtype=bool)
    y = 0.5 * (lo + hi)
    if start is not None:
        y = np.where(np.isfinite(start) & (lo <= start) & (start <= hi), start, y)
    live = np.flatnonzero(hi - lo > root_tol)
    for _ in range(max_iter):
        if not live.size:
            break
        yl = y[live]
        r, slope = g_slope(yl, live)
        neg = r < 0.0
        crossed[:, live] |= [neg, r >= 0.0]
        lol = np.where(neg, yl, lo[live])
        hil = np.where(neg, hi[live], yl)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ynew = yl - r / slope
        fallback = ~np.isfinite(ynew) | (ynew < lol) | (ynew > hil)
        ynew = np.where(fallback, 0.5 * (lol + hil), ynew)
        lo[live], hi[live], y[live] = lol, hil, ynew
        lost[live] = ~np.isfinite(r)
        done = lost[live] | (np.abs(ynew - yl) <= root_tol) | (hil - lol <= root_tol)
        live = live[~done]
    resid = np.zeros(ends.shape)  # a crossed end stands in as 0: of the right sign at either end
    todo = ~crossed
    for _ in range(2):
        if todo.any():
            resid[todo] = g_slope(ends[todo], np.nonzero(todo)[1])[0]
        unsigned = ~((resid[0] <= 0.0) & (resid[1] >= 0.0))
        todo = crossed & unsigned
    # a wrong sign at a non-finite residual is an underflow, reported below
    bad = unsigned & ~np.isfinite(resid).all(axis=0)
    unsigned &= ~bad
    if unsigned.any():
        raise BracketFailure(
            "%d of %d points have no sign change over the initial bracket"
            % (int(unsigned.sum()), unsigned.size),
            index=int(unsigned.argmax()),
        )
    bad |= lost
    if bad.any():
        raise BracketFailure(
            "%d of %d points have a residual that is not finite; a tail underflows to 0"
            % (int(bad.sum()), bad.size),
            index=int(bad.argmax()),
        )
    if live.size:
        raise QuadratureFailure(
            "bracketed Newton left %d points unconverged" % live.size, index=int(live[0])
        )
    return y
