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


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_integrand_names_its_interval(bad):
    # such a cell is never accepted: it used to be halved until max_depth
    # (or memory) ran out; 0.375 is first reached in the second halving, and
    # inf there must raise before inf - inf
    def f(x, k):
        return np.where((k == 1) & (x == 0.375), bad, np.exp(x))

    a, b = np.zeros(3), np.array([2.0, 1.0, 3.0])
    with pytest.raises(QuadratureFailure, match=r"not finite on \[0\.0, 1\.0\]$") as info:
        adaptive_simpson(f, a, b, max_depth=8)
    assert info.value.index == 1
    with pytest.raises(QuadratureFailure, match=r"not finite on \[0\.0, 1\.0\]$"):
        adaptive_simpson(lambda x: f(x, 1), 0.0, 1.0, max_depth=8)


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


def test_bracketed_newton_starts_from_start_only_inside_the_bracket():
    from scipy.special import ndtr, ndtri

    u = np.array([0.1, 0.5, 0.9, 0.999, 0.3])
    firsts = []

    def g_slope(y, k):
        if not firsts:
            firsts.append(y.copy())
        return ndtr(y) - u[k], _std_pdf(y)

    # a non-finite or out-of-bracket start falls back to the midpoint, 0
    start = np.array([ndtri(0.1) + 1e-3, np.nan, np.inf, 25.0, ndtri(0.3)])
    root = bracketed_newton(
        lambda y, k: ndtr(y) - u[k], g_slope, np.full(5, -10.0), np.full(5, 10.0), start=start
    )
    assert np.array_equal(firsts[0], [start[0], 0.0, 0.0, 0.0, start[4]])
    assert np.allclose(root, ndtri(u), atol=1e-9)


def test_bracketed_newton_failure_carries_the_first_failed_index():
    shift = np.array([0.5, 5.0, 0.5, 7.0])
    with pytest.raises(BracketFailure, match="2 of 4 points") as info:
        bracketed_newton(
            lambda y, k: y + shift[k] - 1.0,
            lambda y, k: (y + shift[k] - 1.0, np.ones_like(y)),
            np.zeros(4),
            np.ones(4),
        )
    assert info.value.index == 1


def _logged(u):
    """ndtr(y) - u[k] as (g, g_slope), logging the points and residuals each sees."""
    from scipy.special import ndtr

    ends, steps = [], []

    def g(y, k):
        ends.append((y.copy(), k.copy()))
        return ndtr(y) - u[k]

    def g_slope(y, k):
        r = ndtr(y) - u[k]
        steps.append((k.copy(), r))
        return r, _std_pdf(y)

    return g, g_slope, ends, steps


def test_bracketed_newton_checks_only_ends_no_iterate_crossed():
    from scipy.special import ndtri

    u = np.array([0.1, 0.5, 0.9, 0.999, 0.3, 0.7])
    lo, hi = np.full(6, -10.0), np.full(6, 10.0)
    # a start just left of a root where ndtr is convex overshoots it
    start = np.where(u < 0.5, ndtri(u) - 1e-2, np.nan)
    g, g_slope, ends, steps = _logged(u)
    root = bracketed_newton(g, g_slope, lo, hi, start=start)
    assert np.allclose(root, ndtri(u), atol=1e-9)
    below, above = np.zeros(6, dtype=bool), np.zeros(6, dtype=bool)
    for k, r in steps:
        below[k] |= r < 0.0
        above[k] |= r >= 0.0
    assert (below & above).any() and not (below & above).all()
    checked = {(int(k), side) for y, ks in ends for k, side in zip(ks, np.sign(y))}
    assert checked == {(k, -1.0) for k in np.flatnonzero(~below)} | {
        (k, 1.0) for k in np.flatnonzero(~above)
    }


def test_bracketed_newton_no_sign_change_after_crossing_keeps_count_and_index():
    # point 0 has no root in [0, 1], so every iterate replaces hi and only lo
    # is checked; point 2's residual is -inf at lo, so its lo is crossed and
    # checked only once hi shows the wrong sign, which makes it an underflow
    shift = np.array([5.0, -0.5, -6.0, 4.0, -0.5])

    def g(y, k):
        return np.where((k == 2) & (y == 0.0), -np.inf, 0.0) + y + shift[k]

    def g_slope(y, k):
        return y + shift[k], np.ones_like(y)

    args = (np.zeros(5), np.ones(5))
    with pytest.raises(BracketFailure, match="^2 of 5 points have no sign change") as info:
        bracketed_newton(g, g_slope, *args)
    assert info.value.index == 0
    shift[[0, 3]] = -0.5
    underflow = "^1 of 5 points have a residual that is not finite"
    with pytest.raises(BracketFailure, match=underflow) as info:
        bracketed_newton(g, g_slope, *args)
    assert info.value.index == 2


def test_bracketed_newton_uncrossed_non_finite_end_is_an_underflow():
    # point 1's residual is +inf at lo and positive inside: no iterate
    # crosses lo, so it is checked, and its wrong sign is not finite
    def g(y, k):
        return np.where((k == 1) & (y == 0.0), np.inf, y - 0.5 + k)

    def g_slope(y, k):
        return y - 0.5 + k, np.ones_like(y)

    underflow = "^1 of 3 points have a residual that is not finite"
    with pytest.raises(BracketFailure, match=underflow) as info:
        bracketed_newton(g, g_slope, np.array([0.0, 0.0, -3.0]), np.ones(3))
    assert info.value.index == 1


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


# -- the earlier adaptive Simpson, kept as a bitwise oracle ------------------
#
# It sums each interval's accepted cells with one boolean mask per interval
# and reduces the acceptance test along the component axis.  The refinement
# and summation order of the shipped routine must match it bit for bit: the
# stored verify reports depend on every node and every rounding.


def _oracle_simpson(f, a, b, rtol=1e-12, atol=0.0, max_depth=48, initial_cells=1):
    batched = np.ndim(a) > 0 or np.ndim(b) > 0
    a = np.atleast_1d(np.asarray(a, dtype=float))
    a, b = np.broadcast_arrays(a, np.asarray(b, dtype=float))
    count = a.size
    sign = np.where(b < a, -1.0, 1.0)
    atol = np.broadcast_to(np.asarray(atol, dtype=float), a.shape)
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
        err = np.abs(s2 - cell)
        tol = 15.0 * (atol[member][pad] + rtol * np.maximum(np.abs(s2), floor[member]))
        ok = err <= tol
        if ok.ndim > 1:
            ok = ok.all(axis=tuple(range(1, ok.ndim)))
        if ok.any():
            done = s2[ok] + (s2[ok] - cell[ok]) / 15.0
            owner = member[ok]
            for k in np.unique(owner):
                total[k] += done[owner == k].sum(axis=0)
        if ok.all():
            total *= sign[pad]
            if batched:
                return total
            return total[0] if out_shape else float(total[0])
        keep = ~ok
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        flo = np.concatenate([flo[keep], fmid[keep]])
        fhi = np.concatenate([fmid[keep], fhi[keep]])
        fmid = np.concatenate([flm[keep], frm[keep]])
        cell = np.concatenate([s_left[keep], s_right[keep]])
        member = np.concatenate([member[keep], member[keep]])
    raise AssertionError("oracle did not converge")


def _recorded(shape, calls):
    """An integrand of the given component shape that logs every call.

    Peaks of different widths and an oscillating factor spread the accepted
    cells over many rounds and magnitudes, so the summation order shows in
    the last bits; the (2, 3) shape is the (value, s * value) stack of
    ``SmoothedMeasure._tilted_stats``.
    """

    def f(x, k=None):
        calls.append((x.copy(), None if k is None else k.copy()))
        kk = np.zeros(x.shape) if k is None else k.astype(float)
        base = np.exp(-((x - 0.3 * kk + 1.0) ** 2) * (0.5 + kk)) * (1.5 + np.sin(7.0 * x))
        if shape == ():
            return base * np.cos(3.0 * x)
        if shape == (2,):
            return np.stack([base, x * np.cos(3.0 * x) * base], axis=-1)
        e = base[:, None] * np.exp(np.multiply.outer(x, [-0.5, 0.0, 0.5]))
        return np.stack([e, x[:, None] * e], axis=1)

    return f


def _same_calls(got, want):
    assert len(got) == len(want)
    for (xg, kg), (xw, kw) in zip(got, want):
        assert np.array_equal(xg, xw)
        assert (kg is None and kw is None) or np.array_equal(kg, kw)


SHAPES = [(), (2,), (2, 3)]
SHAPE_IDS = ["scalar", "n2", "n2x3"]


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize("count", [1, 3, 17])
def test_batched_simpson_equals_oracle_bitwise(shape, count):
    rng = np.random.default_rng(count)
    a = rng.uniform(-4.0, -0.5, count)
    b = rng.uniform(0.5, 4.0, count)
    if count > 1:
        a[1], b[1] = b[1], a[1]  # reversed
        b[2] = a[2]  # empty
    atol = np.where(np.arange(count) % 2 == 1, 1e-13, 0.0)
    cells = rng.integers(1, 12, count)
    got, want = [], []
    val = adaptive_simpson(_recorded(shape, got), a, b, rtol=1e-10, atol=atol, initial_cells=cells)
    ref = _oracle_simpson(_recorded(shape, want), a, b, rtol=1e-10, atol=atol, initial_cells=cells)
    _same_calls(got, want)
    assert len(got) > 5
    assert val.shape == (count,) + shape
    assert np.array_equal(val, ref)


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize("ab", [(-3.0, 2.5), (2.5, -3.0), (1.0, 1.0)], ids=["fwd", "rev", "empty"])
def test_scalar_simpson_equals_oracle_bitwise(shape, ab):
    got, want = [], []
    val = adaptive_simpson(_recorded(shape, got), *ab, rtol=1e-11, atol=1e-14, initial_cells=5)
    ref = _oracle_simpson(_recorded(shape, want), *ab, rtol=1e-11, atol=1e-14, initial_cells=5)
    _same_calls(got, want)
    assert type(val) is type(ref)
    assert np.array_equal(val, ref)
