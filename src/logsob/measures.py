"""Compactly supported probability measures on the real line.

A measure is a finite list of atoms plus an optional tabulated density,
interpolated linearly between its grid nodes.  :func:`integrate`, exact
over atoms and adaptive-Simpson over density cells, is the generic
reference route that tests and benchmark checks compare the closed-form
smoothed evaluators against; no computation in the package calls it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DomainError,
    InvalidDensity,
    MassNotNormalized,
    MeasureParseError,
    NonpositiveWeight,
    ZeroScale,
)
from .quadrature import adaptive_simpson

#: rejected (not renormalized) when the total mass misses 1 by more than this
MASS_TOL = 1e-9
#: default relative tolerance for density-cell quadrature
INTEG_TOL = 1e-10


def _check_count(count, least, what) -> int:
    if not (float(count).is_integer() and count >= least):
        raise DomainError("need an integer count of at least %d %s, got %r" % (least, what, count))
    return int(count)


@dataclass(frozen=True, eq=False)
class TabulatedDensity:
    """Nonnegative density tabulated on an increasing grid, linear between nodes."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size < 2 or values.shape != grid.shape:
            raise InvalidDensity("grid and values must be 1-D arrays of equal length >= 2")
        if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(values)):
            raise InvalidDensity("grid and values must be finite")
        if np.any(np.diff(grid) <= 0.0):
            raise InvalidDensity("grid must be strictly increasing")
        if np.any(values < 0.0):
            raise InvalidDensity("density values must be nonnegative")

    def __call__(self, x):
        return np.interp(x, self.grid, self.values, left=0.0, right=0.0)

    @property
    def mass(self) -> float:
        # trapezoid is exact for a piecewise-linear density
        v0, v1 = self.values[:-1], self.values[1:]
        return float(np.sum(0.5 * (v0 + v1) * np.diff(self.grid)))


@dataclass(frozen=True, eq=False)
class Measure1D:
    """Probability measure with atoms and/or a tabulated density.

    Invariants checked at construction: finite atom locations, positive
    weights, nonnegative density, total mass 1 within ``mass_tol``, itself
    finite and positive.  The ``support`` [a, b] is derived, the hull of
    the atoms and the density grid; ``radius`` (b - a)/2 and ``center``
    (a + b)/2 are read from it.
    """

    atoms: tuple = ()
    density: TabulatedDensity | None = None
    mass_tol: float = MASS_TOL
    support: tuple = field(init=False)

    def __post_init__(self):
        atoms = tuple((float(x), float(w)) for x, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not 0.0 < self.mass_tol < math.inf:
            raise DomainError("mass_tol must be finite and positive, got %r" % (self.mass_tol,))
        if not atoms and self.density is None:
            raise DomainError("measure needs atoms or a density")
        for x, w in atoms:
            if not w > 0.0:
                raise NonpositiveWeight("atom at %r has weight %r" % (x, w))
            if not math.isfinite(x):
                raise DomainError("atom location must be finite, got %r" % x)
        ends = [x for x, _ in atoms]
        if self.density is not None:
            ends += [float(self.density.grid[0]), float(self.density.grid[-1])]
        object.__setattr__(self, "support", (min(ends), max(ends)))
        deviation = self.mass - 1.0
        if abs(deviation) > self.mass_tol:
            raise MassNotNormalized(deviation, self.mass_tol)

    @property
    def mass(self) -> float:
        total = sum(w for _, w in self.atoms)
        if self.density is not None:
            total += self.density.mass
        return total

    @property
    def radius(self) -> float:
        return 0.5 * (self.support[1] - self.support[0])

    @property
    def center(self) -> float:
        return 0.5 * (self.support[0] + self.support[1])


def make_discrete(atoms, mass_tol=MASS_TOL) -> Measure1D:
    """Purely atomic measure."""
    return Measure1D(atoms, mass_tol=mass_tol)


def make_measure(atoms=(), density=None, mass_tol=MASS_TOL) -> Measure1D:
    """Measure with atoms, a tabulated density, or both."""
    return Measure1D(atoms, density, mass_tol)


def make_uniform(a, b, nodes=5) -> Measure1D:
    """Uniform density on [a, b]."""
    a, b = float(a), float(b)
    if not b > a:
        raise DomainError("need b > a for a uniform density")
    grid = np.linspace(a, b, _check_count(nodes, 2, "nodes"))
    values = np.full(grid.shape, 1.0 / (b - a))
    return make_measure(density=TabulatedDensity(grid, values))


def integrate(mu: Measure1D, g, rtol=INTEG_TOL, atol=0.0):
    """Integrate g against mu: sum over atoms plus quadrature over density cells.

    ``g`` maps a 1-D abscissa array to an array with the same leading axis;
    trailing axes pass through, so a single call can integrate a whole batch
    of integrands.  One batched adaptive Simpson call integrates every
    density cell, each refined exactly as if it were integrated alone, and
    the cells' values are then summed.
    """
    total = 0.0
    if mu.atoms:
        locs = np.array([x for x, _ in mu.atoms])
        wts = np.array([w for _, w in mu.atoms])
        vals = np.asarray(g(locs), dtype=float)
        total = np.einsum("i,i...->...", wts, vals)
    if mu.density is not None:
        dens = mu.density

        def integrand(s, k):
            gv = np.asarray(g(s), dtype=float)
            rho = dens(s)
            return gv * rho.reshape(rho.shape + (1,) * (gv.ndim - 1))

        cells = adaptive_simpson(integrand, dens.grid[:-1], dens.grid[1:], rtol=rtol, atol=atol)
        total = total + cells.sum(axis=0)
    if np.ndim(total) == 0:
        return float(total)
    return total


def pushforward_affine(mu: Measure1D, scale, shift=0.0) -> Measure1D:
    """Image of mu under x -> scale*x + shift."""
    scale = float(scale)
    shift = float(shift)
    if scale == 0.0:
        raise ZeroScale("affine push-forward needs a nonzero scale")
    atoms = tuple((scale * x + shift, w) for x, w in mu.atoms)
    density = None
    if mu.density is not None:
        grid = scale * mu.density.grid + shift
        values = mu.density.values / abs(scale)
        if scale < 0.0:
            grid = grid[::-1]
            values = values[::-1]
        density = TabulatedDensity(grid, values)
    return Measure1D(atoms, density, mu.mass_tol)


def centered(mu: Measure1D) -> Measure1D:
    """mu translated so its support midpoint sits at 0."""
    return mu if mu.center == 0.0 else pushforward_affine(mu, 1.0, -mu.center)


def measure_to_dict(mu: Measure1D) -> dict:
    out = {"atoms": [{"x": x, "w": w} for x, w in mu.atoms], "density": None}
    if mu.density is not None:
        out["density"] = {
            "grid": [float(v) for v in mu.density.grid],
            "values": [float(v) for v in mu.density.values],
        }
    return out


def _is_json_number(value) -> bool:
    """Whether ``value`` is a JSON number: an int or float, and not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def measure_from_dict(data: dict, mass_tol=MASS_TOL) -> Measure1D:
    if not isinstance(data, dict):
        raise MeasureParseError("measure document must be a JSON object")
    atoms = []
    for entry in data.get("atoms") or []:
        xw = [entry.get(k) for k in "xw"] if isinstance(entry, dict) else [None]
        if not all(map(_is_json_number, xw)):
            raise MeasureParseError("atom entries need numeric 'x' and 'w': %r" % (entry,))
        atoms.append(tuple(map(float, xw)))
    density = None
    dens = data.get("density")
    if dens is not None:
        cols = [dens.get(k) if isinstance(dens, dict) else None for k in ("grid", "values")]
        for key, col in zip(("grid", "values"), cols):
            if not (isinstance(col, list) and all(map(_is_json_number, col))):
                raise MeasureParseError("density %r must be an array of numbers: %r" % (key, col))
        try:
            density = TabulatedDensity(*(np.array(col, dtype=float) for col in cols))
        except InvalidDensity as exc:
            raise MeasureParseError(str(exc)) from exc
    try:
        return make_measure(atoms=atoms, density=density, mass_tol=mass_tol)
    except (NonpositiveWeight, MassNotNormalized, DomainError) as exc:
        raise MeasureParseError(str(exc)) from exc


def load_measure(path, mass_tol=MASS_TOL) -> Measure1D:
    """Read a measure from a JSON file; see measure_from_dict for the schema."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise MeasureParseError("%s: %s" % (path, exc)) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MeasureParseError("%s:%d: %s" % (path, exc.lineno, exc.msg)) from exc
    try:
        return measure_from_dict(data, mass_tol=mass_tol)
    except MeasureParseError as exc:
        raise MeasureParseError("%s: %s" % (path, exc)) from exc
