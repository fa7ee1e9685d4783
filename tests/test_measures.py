import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import logsob as L
from logsob.errors import (
    DomainError,
    MassNotNormalized,
    MeasureParseError,
    NonpositiveWeight,
    ZeroScale,
)

from conftest import tilted_moments_oracle


def test_point_mass_has_zero_radius():
    mu = L.make_discrete([(0.0, 1.0)])
    assert mu.radius == 0.0 and mu.center == 0.0


def test_two_atom_symmetric():
    mu = L.make_discrete([(-1.0, 0.5), (1.0, 0.5)])
    assert mu.radius == 1.0 and mu.center == 0.0


def test_two_atom_offcenter():
    mu = L.make_discrete([(0.0, 0.3), (2.0, 0.7)])
    assert mu.radius == 1.0 and mu.center == 1.0


def test_negative_weight_rejected():
    with pytest.raises(NonpositiveWeight):
        L.make_discrete([(0.0, -0.5), (1.0, 1.5)])


def test_mass_deviation_reported():
    with pytest.raises(MassNotNormalized) as err:
        L.make_discrete([(0.0, 0.4), (1.0, 0.5)])
    assert abs(err.value.deviation + 0.1) < 1e-12


def test_integrate_point_mass_exp():
    mu = L.make_discrete([(0.0, 1.0)])
    assert L.integrate(mu, np.exp) == 1.0


def test_integrate_bernoulli_square():
    mu = L.make_discrete([(-1.0, 0.5), (1.0, 0.5)])
    assert L.integrate(mu, lambda s: s * s) == 1.0


def test_integrate_uniform_mean():
    mu = L.make_uniform(0.0, 1.0)
    # antiderivative s^2/2 gives exactly 1/2
    assert abs(L.integrate(mu, lambda s: s) - 0.5) <= 1e-10


def test_integrate_uniform_second_moment():
    mu = L.make_uniform(0.0, 1.0)
    assert abs(L.integrate(mu, lambda s: s * s) - 1.0 / 3.0) <= 1e-10


def test_integrate_vector_output():
    mu = L.make_discrete([(-1.0, 0.5), (1.0, 0.5)])
    out = L.integrate(mu, lambda s: np.stack([s, s * s], axis=-1))
    assert np.allclose(out, [0.0, 1.0])


def _tilt_measure(name):
    if name == "point_mass":
        return L.make_discrete([(0.0, 1.0)])
    if name == "bernoulli":
        return L.make_discrete([(-1.0, 0.5), (1.0, 0.5)])
    if name == "offcenter_atoms":
        return L.make_discrete([(0.5, 0.25), (2.5, 0.75)])
    if name == "twelve_atoms":
        x = np.linspace(-1.0, 1.5, 12) + 0.05 * np.sin(np.arange(12.0))
        w = 1.0 + np.cos(np.arange(12.0)) ** 2
        return L.make_discrete(list(zip(x, w / w.sum())))
    if name == "uniform":
        return L.make_uniform(-1.0, 1.0)
    if name == "offcenter_uniform":
        return L.make_uniform(1.0, 3.0)
    if name == "tent":
        tent = L.TabulatedDensity(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))
        return L.make_measure(density=tent)
    grid = np.linspace(-1.0, 1.2, 12)
    values = 0.3 + np.abs(np.sin(3.0 * grid))
    if name == "sloped_cells":
        values /= L.TabulatedDensity(grid, values).mass
        return L.make_measure(density=L.TabulatedDensity(grid, values))
    if name == "mixed":
        values *= 0.5 / L.TabulatedDensity(grid, values).mass
        return L.make_measure(
            atoms=[(-1.5, 0.3), (0.4, 0.2)], density=L.TabulatedDensity(grid, values)
        )
    assert name == "wide_uniform"
    return L.make_uniform(-2.0, 2.0)


TILT_MEASURES = [
    "point_mass",
    "bernoulli",
    "offcenter_atoms",
    "twelve_atoms",
    "uniform",
    "offcenter_uniform",
    "tent",
    "sloped_cells",
    "mixed",
    "wide_uniform",
]


def _tilts(mu, xs):
    """(center, radius, g): g batches e^{x(s - c) - R|x|}, each in (0, 1], and
    (s - c) times it into one (points, 2, tilts) integrand."""
    lo, hi = mu.support
    c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
    xs = np.asarray(xs, dtype=float)

    def g(s):
        e = np.exp(np.multiply.outer(s - c, xs) - r * np.abs(xs))
        return np.stack([e, (s - c)[:, None] * e], axis=1)

    return c, r, g


@pytest.mark.parametrize("name", TILT_MEASURES)
def test_integrate_batches_exponential_tilts(name):
    # the tilted moments of the base measure through the reference route, one
    # batched call for all tilts, against closed forms: exact atom sums and
    # linear cells integrated against 1 and s in mpmath
    mu = _tilt_measure(name)
    xs = np.array([-9.0, -2.5, -0.3, 0.7, 4.0, 11.0])
    c, r, g = _tilts(mu, xs)
    got = L.integrate(mu, g, atol=1e-16)
    m0, m1 = tilted_moments_oracle(mu, xs, c)
    scale = np.exp(-r * np.abs(xs))
    assert got.shape == (2, xs.size)
    assert got[0] == pytest.approx(m0 * scale, rel=1e-9, abs=1e-15)
    assert got[1] == pytest.approx(m1 * scale, rel=1e-9, abs=1e-15)


@given(x=st.floats(min_value=-20.0, max_value=20.0))
@pytest.mark.parametrize("name", ["offcenter_atoms", "tent", "mixed"])
def test_integrate_tilts_within_the_support_exponential(name, x):
    # |log M(x)| <= R|x| about the support midpoint: the shifted tilt lies in
    # [e^{-2R|x|}, 1] wherever the measure puts its mass
    mu = _tilt_measure(name)
    _, r, g = _tilts(mu, [x])
    log_m = math.log(L.integrate(mu, g, atol=1e-16)[0, 0])
    assert -2.0 * r * abs(x) - 1e-9 <= log_m <= 1e-9


def test_pushforward_identity():
    mu = L.make_discrete([(-1.0, 0.5), (1.0, 0.5)])
    nu = L.pushforward_affine(mu, 1.0, 0.0)
    assert nu.atoms == mu.atoms and nu.support == mu.support


def test_pushforward_rescale():
    mu = L.make_discrete([(-1.0, 0.5), (1.0, 0.5)])
    nu = L.pushforward_affine(mu, 1.0 / math.sqrt(4.0))
    assert [x for x, _ in nu.atoms] == [-0.5, 0.5]
    assert nu.radius == 0.5


def test_pushforward_point_mass():
    mu = L.make_discrete([(0.0, 1.0)])
    nu = L.pushforward_affine(mu, 3.0, 2.5)
    assert nu.atoms == ((2.5, 1.0),)


def test_pushforward_zero_scale():
    mu = L.make_discrete([(0.0, 1.0)])
    with pytest.raises(ZeroScale):
        L.pushforward_affine(mu, 0.0)


def test_pushforward_density_mass_preserved():
    mu = L.make_uniform(-1.0, 1.0)
    nu = L.pushforward_affine(mu, -2.0, 1.0)
    assert abs(nu.mass - 1.0) < 1e-12
    assert nu.radius == pytest.approx(2.0)


@given(
    lam=st.floats(min_value=0.1, max_value=10.0).filter(lambda v: v != 0),
    shift=st.floats(min_value=-5.0, max_value=5.0),
    flip=st.booleans(),
)
def test_pushforward_roundtrip(lam, shift, flip):
    if flip:
        lam = -lam
    mu = L.make_discrete([(-1.0, 0.25), (0.5, 0.75)])
    back = L.pushforward_affine(
        L.pushforward_affine(mu, lam, shift), 1.0 / lam, -shift / lam
    )
    for (x0, w0), (x1, w1) in zip(mu.atoms, back.atoms):
        assert abs(x0 - x1) < 1e-9 * max(1.0, abs(lam)) and w0 == w1
    assert abs(back.support[0] - mu.support[0]) < 1e-9
    assert abs(back.support[1] - mu.support[1]) < 1e-9


@given(
    weights=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=5),
    lam=st.floats(min_value=0.25, max_value=4.0),
)
def test_mass_and_radius_scaling(weights, lam):
    total = sum(weights)
    atoms = [(float(i), w / total) for i, w in enumerate(weights)]
    mu = L.make_discrete(atoms, mass_tol=1e-6)
    assert abs(L.integrate(mu, lambda s: np.ones_like(s)) - 1.0) <= 1e-6
    assert L.pushforward_affine(mu, lam).radius == pytest.approx(lam * mu.radius)


def test_centered_moves_midpoint_to_zero():
    mu = L.make_discrete([(0.0, 0.3), (2.0, 0.7)])
    mu_c = L.centered(mu)
    assert mu.center == 1.0
    assert mu_c.center == 0.0


def test_measure_json_roundtrip(tmp_path):
    mu = L.make_measure(
        atoms=[(0.5, 0.5)],
        density=L.TabulatedDensity(np.linspace(-1, 0, 5), np.full(5, 0.5)),
    )
    path = tmp_path / "m.json"
    path.write_text(__import__("json").dumps(L.measure_to_dict(mu)))
    back = L.load_measure(path)
    assert back.atoms == mu.atoms
    assert np.allclose(back.density.grid, mu.density.grid)


def test_load_measure_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(MeasureParseError):
        L.load_measure(path)


def test_load_measure_missing_file(tmp_path):
    with pytest.raises(MeasureParseError):
        L.load_measure(tmp_path / "absent.json")


def test_empty_measure_rejected():
    with pytest.raises(DomainError):
        L.make_measure(atoms=[])


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_nonfinite_atom_rejected(x):
    with pytest.raises(DomainError, match="atom location must be finite"):
        L.make_discrete([(0.0, 0.5), (x, 0.5)])


def test_support_is_the_hull_of_atoms_and_grid():
    half = L.TabulatedDensity(np.array([-1.0, 1.0]), np.array([0.25, 0.25]))
    mu = L.make_measure(atoms=[(3.0, 0.5)], density=half)
    assert mu.support == (-1.0, 3.0) and mu.radius == 2.0 and mu.center == 1.0
    with pytest.raises(DomainError, match="measure needs atoms or a density"):
        L.make_discrete([])


@pytest.mark.parametrize(
    "doc, entry",
    [
        ({"atoms": [{"x": 0, "w": True}]}, "True"),
        ({"atoms": [{"x": "0.0", "w": "1"}]}, "'0.0'"),
        ({"atoms": [{"x": False, "w": 1.0}]}, "False"),
        ({"atoms": [{"x": None, "w": 1.0}]}, "None"),
        ({"atoms": [[0.0, 1.0]]}, r"\[0\.0, 1\.0\]"),
        ({"density": {"grid": ["-1", "1"], "values": [0.5, 0.5]}}, "'grid'"),
        ({"density": {"grid": [False, True], "values": [0.5, 0.5]}}, "'grid'"),
        ({"density": {"grid": [-1.0, 1.0], "values": [0.5, True]}}, "'values'"),
        ({"density": {"grid": "-1 1", "values": [0.5, 0.5]}}, "'grid'"),
        ({"density": {"grid": [-1.0, 1.0]}}, "'values'"),
    ],
)
def test_measure_files_take_only_json_numbers(doc, entry):
    # the sweep config's numbers are checked the same way; float() would take
    # a bool as 0 or 1 and a numeric string as its number
    with pytest.raises(MeasureParseError, match=entry):
        L.measure_from_dict(doc)
