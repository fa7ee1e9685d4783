"""Workload definitions and the seeded input generator.

``generate(workload, seed, inputs_dir)`` writes every measure JSON file and
sweep config the workload feeds to ``logsob.cli.main`` and returns a
:class:`Plan`: the CLI calls of one iteration and the operations they cover.
The program sees only the files written here.  The same (workload, seed)
always produces byte-identical files.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
BUNDLED = REPO / "src" / "logsob" / "data"

#: why each workload exists; BENCHMARK.json and baseline.json repeat these
WHY = {
    "bundled-sweep": "the shipped sweep users run; ~80% verify_lsi, so empirical and "
    "adaptive Simpson over many small smoothing calls dominate",
    "mixture-dense": "seeded measures with up to 256 cells or 96 atoms, no verify: few "
    "smoothing calls over large arrays under the Lipschitz sweep, BG scan and Newton",
    "small-delta": "bundled measures at delta/R^2 down to 5e-4, the paper's regime, where "
    "most pairs fail today; fail_ratio here is what a correctness fix moves",
}

#: grid sizes for the one-pair configs of mixture-dense: large enough that
#: the (cells x points) evaluator work dominates, small enough for several
#: iterations per run
DENSE_GRIDS = {"lipschitz": {"points": 1001}, "transport": {"points": 401}, "bg": {"points": 801}}
#: the bundled sweep's own grid sizes, reused for small-delta
BUNDLED_GRIDS = {
    "lipschitz": {"points": 2001, "extent": 8.0},
    "transport": {"points": 401, "extent": 6.0},
    "bg": {"points": 801},
}
DENSE_RATIOS = (0.25, 0.05)
SMALL_RATIOS = (0.05, 0.01, 0.002, 0.0005)
SMALL_MEASURES = ("bernoulli", "asymmetric", "uniform")


@dataclass(frozen=True)
class Call:
    """One ``logsob.cli.main`` invocation; ``ops`` are the records it produces."""

    name: str
    stage: str
    config: Path
    ops: tuple


@dataclass
class Plan:
    workload: str
    seed: int
    calls: list
    #: measure stem -> the measure document the generator wrote
    measures: dict = field(default_factory=dict)

    @property
    def ops(self):
        return [op for call in self.calls for op in call.ops]

    def argv(self, call: Call, out_dir: Path):
        return [call.stage, "--config", str(call.config), "--out", str(out_dir), "--jobs", "1"]


def _dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _atoms(rng, count, center, mass):
    """``count`` atoms on [center-1, center+1] with both endpoints occupied."""
    xs = np.sort(rng.uniform(-1.0, 1.0, count))
    xs[0], xs[-1] = -1.0, 1.0
    ws = rng.uniform(0.5, 1.5, count)
    ws *= mass / ws.sum()
    return [{"x": float(center + x), "w": float(w)} for x, w in zip(xs, ws)]


def _density(rng, cells, center, mass):
    """Piecewise-linear density on [center-1, center+1] with ``cells`` cells."""
    grid = np.linspace(-1.0, 1.0, cells + 1)
    vals = rng.uniform(0.3, 1.3, cells + 1)
    vals *= mass / float(np.sum(0.5 * (vals[:-1] + vals[1:]) * np.diff(grid)))
    return {"grid": [float(center + g) for g in grid], "values": [float(v) for v in vals]}


def _dense_measures(rng):
    """Atom-only, density-only and mixed measures, radius 1, random centers."""
    centers = rng.uniform(-2.0, 2.0, 3)
    p = float(rng.uniform(0.3, 0.7))
    return {
        "atoms96": {"atoms": _atoms(rng, 96, centers[0], 1.0)},
        "cells256": {"density": _density(rng, 256, centers[1], 1.0)},
        "mixed48x128": {
            "atoms": _atoms(rng, 48, centers[2], p),
            "density": _density(rng, 128, centers[2], 1.0 - p),
        },
    }


def _one_pair_calls(inputs: Path, measures: dict, ratios, grids) -> list:
    """One bounds and one transport call per (measure, delta) pair.

    Each pair gets its own config: ``cli.main`` turns a typed error into exit
    code 1 for the whole subcommand, so pairs sharing a call would hide each
    other's failures.  Every generated measure has radius 1, so delta equals
    delta / R^2.
    """
    calls = []
    for stem, doc in measures.items():
        _dump(inputs / ("%s.json" % stem), doc)
        for delta in ratios:
            cfg = inputs / ("%s_d%g.json" % (stem, delta))
            _dump(cfg, {"measures": ["%s.json" % stem], "delta": [delta], **grids})
            for stage in ("bounds", "transport"):
                name = "%s_d%g_%s" % (stem, delta, stage)
                calls.append(Call(name, stage, cfg, ((stem, delta, stage),)))
    return calls


def generate(workload: str, seed: int, inputs: Path) -> Plan:
    """Write the workload's inputs under ``inputs`` (emptied first)."""
    if inputs.exists():
        shutil.rmtree(inputs)
    inputs.mkdir(parents=True)
    if workload == "bundled-sweep":
        # fixed inputs: the seed is unused
        cfg_path = BUNDLED / "sweep.json"
        cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
        measures = {}
        for name in cfg["measures"]:
            shutil.copyfile(BUNDLED / name, inputs / name)
            measures[Path(name).stem] = json.loads((BUNDLED / name).read_text(encoding="utf-8"))
        shutil.copyfile(cfg_path, inputs / "sweep.json")
        ops = tuple(
            (stem, float(d), stage)
            for stage in ("bounds", "transport", "verify")
            for stem in measures
            for d in cfg["delta"]
        )
        return Plan(workload, seed, [Call("sweep", "sweep", inputs / "sweep.json", ops)], measures)
    if workload == "mixture-dense":
        measures = _dense_measures(np.random.default_rng(seed))
        return Plan(
            workload, seed, _one_pair_calls(inputs, measures, DENSE_RATIOS, DENSE_GRIDS), measures
        )
    if workload == "small-delta":
        # fixed inputs: the seed is unused
        measures = {
            stem: json.loads((BUNDLED / ("%s.json" % stem)).read_text(encoding="utf-8"))
            for stem in SMALL_MEASURES
        }
        return Plan(
            workload, seed, _one_pair_calls(inputs, measures, SMALL_RATIOS, BUNDLED_GRIDS), measures
        )
    raise ValueError("unknown workload %r" % workload)
