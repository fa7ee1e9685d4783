"""Bad arguments raise a typed error at the entry point, and the package
exports exactly the names it imports."""

import ast
import math
from pathlib import Path

import pytest

import logsob as L

INIT = Path(__file__).resolve().parent.parent / "src" / "logsob" / "__init__.py"

BERNOULLI = L.make_discrete([(-1.0, 0.5), (1.0, 0.5)])

PROBES = {
    # a non-finite tolerance used to accept any mass (0.3 here)
    "mass_tol-nan": lambda: L.make_discrete([(0.0, 0.3)], mass_tol=math.nan),
    "mass_tol-inf": lambda: L.make_discrete([(0.0, 0.3)], mass_tol=math.inf),
    "mass_tol-zero": lambda: L.make_measure([(0.0, 1.0)], mass_tol=0.0),
    "mass_tol-dict": lambda: L.measure_from_dict({"atoms": [{"x": 0, "w": 1}]}, mass_tol=math.nan),
    # ZeroDivisionError, then ValueError from sqrt
    "exponential-delta-0": lambda: L.exponential_family(0.0),
    "exponential-delta-neg": lambda: L.exponential_family(-1),
    "bump-delta-neg": lambda: L.bump_family(1, -1),
    "step-delta-0": lambda: L.step_family(1, 0),
    # NaN centers
    "step-radius-nan": lambda: L.step_family(math.nan, 1),
    # numpy ValueError, or a silently truncated count
    "exponential-count-neg": lambda: L.exponential_family(1.0, count=-1),
    "exponential-count-frac": lambda: L.exponential_family(1.0, count=2.5),
    "bump-centers-neg": lambda: L.bump_family(1, 1, centers=-1),
    "step-centers-neg": lambda: L.step_family(1, 1, centers=-2),
    # reported n_dim 0 and 1 while delta > R^2 skips the multidim bound
    "report-n_dim-0": lambda: L.compute_bound_report(BERNOULLI, 4.0, n_dim=0),
    "report-n_dim-frac": lambda: L.compute_bound_report(BERNOULLI, 4.0, n_dim=1.5),
    # ValueError from int()
    "bg-scan-nan": lambda: L.bobkov_goetze(L.SmoothedMeasure(BERNOULLI, 1.0), scan_points=math.nan),
    # truncated to 2 points
    "lipschitz-points-frac": lambda: L.TransportMap(
        L.SmoothedMeasure(BERNOULLI, 1.0)
    ).lipschitz_estimate(2.9),
}


@pytest.mark.parametrize("probe", list(PROBES))
def test_bad_argument_raises_a_typed_error(probe):
    with pytest.raises(L.LogsobError):
        PROBES[probe]()


@pytest.mark.parametrize("nodes", [2.9, math.nan, -3, 1])
def test_uniform_node_count_must_be_an_integer_of_at_least_two(nodes):
    # 2.9 used to build a 2-node grid, nan and -3 to raise numpy's ValueError
    with pytest.raises(L.LogsobError):
        L.make_uniform(0.0, 1.0, nodes)


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert imported
    assert len(L.__all__) == len(set(L.__all__))
    assert set(L.__all__) == imported
    for name in L.__all__:
        assert getattr(L, name) is not None
