"""Command-line front end: bounds / transport / verify / sweep.

Reads a JSON sweep config, runs the requested reports for every
(measure, delta) pair in input order, and writes machine-readable output.
Exit codes: 0 ok, 1 some invariant or verification failed, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .bounds import (
    BG_SCAN_POINTS,
    bobkov_goetze,
    bound_transport,
    bound_hardy,
    bound_pushforward,
    compute_bound_report,
    gaussian_lsi_constant,
)
from .empirical import shipped_families, verify_lsi
from .errors import ConfigParseError, LogsobError, MeasureParseError
from .logdomain import record
from .measures import MASS_TOL, _is_json_number, load_measure
from .smoothing import QuadratureConfig, SmoothedMeasure
from .transport import LIPSCHITZ_EXTENT, LIPSCHITZ_POINTS, TABLE_EXTENT, TABLE_POINTS
from .transport import TransportMap, transport_table

KNOWN_FAMILIES = ("exponential", "bump", "step")
#: the bounds verify can check by name: name -> (smoothed measure, config) -> constant;
#: bobkov_goetze is looked up at call time, where perfbench/tracer.py wraps it
_NAMED_BOUNDS = {
    "transport": lambda sm, cfg: bound_transport(sm.radius, sm.delta),
    "hardy": lambda sm, cfg: bound_hardy(sm.radius, sm.delta)[0],
    "pushforward": lambda sm, cfg: bound_pushforward(
        gaussian_lsi_constant(sm.delta),
        TransportMap(sm).lipschitz_estimate(cfg.lipschitz_points, cfg.lipschitz_extent),
    ),
    "bg_upper": lambda sm, cfg: bobkov_goetze(sm, scan_points=cfg.bg_points).upper,
}
KNOWN_BOUNDS = tuple(_NAMED_BOUNDS)


@dataclass
class SweepConfig:
    measures: list
    deltas: list
    quad: QuadratureConfig
    mass_tol: float
    dimension: int
    lipschitz_points: int
    lipschitz_extent: float
    transport_points: int
    transport_extent: float
    bg_points: int
    verify_families: tuple
    verify_bound: object
    verify_grid_size: int | None
    out_format: str


def bundled_data_path(name: str = "") -> Path:
    """Path of a bundled measure/config file shipped inside the package."""
    from importlib.resources import files

    root = files("logsob").joinpath("data")
    return Path(str(root.joinpath(name) if name else root))


def _require(cond, msg):
    if not cond:
        raise ConfigParseError(msg)


def _number(path, value, key):
    """``value`` as a float if it is a JSON number, else a ConfigParseError naming ``key``."""
    _require(_is_json_number(value), "%s: %s must be a number, got %r" % (path, key, value))
    return float(value)


def _integer(path, value, key):
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        "%s: %s must be an integer, got %r" % (path, key, value),
    )
    return value


def _section(path, raw, key):
    """The object at ``raw[key]``, {} when absent; anything else present is a ConfigParseError."""
    value = raw.get(key, {})
    _require(isinstance(value, dict), "%s: %s must be a JSON object" % (path, key))
    return value


def load_sweep_config(path, overrides=None) -> SweepConfig:
    """Parse and validate a sweep config file.

    ``overrides`` (command-line values in config form) replace top-level
    keys, or single fields of a nested section such as ``verify``, before
    validation, so they are checked exactly like values from the file.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigParseError("%s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigParseError("%s:%d: %s" % (path, exc.lineno, exc.msg)) from exc
    _require(isinstance(raw, dict), "%s: config must be a JSON object" % path)
    for key, value in (overrides or {}).items():
        raw[key] = {**_section(path, raw, key), **value} if isinstance(value, dict) else value

    measures = raw.get("measures")
    _require(
        isinstance(measures, list) and measures and all(isinstance(m, str) for m in measures),
        "%s: 'measures' must be a nonempty list of paths" % path,
    )
    base = path.parent
    measure_paths = [Path(m) if Path(m).is_absolute() else base / m for m in measures]

    deltas = raw.get("delta")
    if isinstance(deltas, dict):
        rng = deltas.get("log_range")
        _require(
            isinstance(rng, list) and len(rng) == 3,
            "%s: delta.log_range must be [lo, hi, count]" % path,
        )
        lo, hi = (_number(path, v, "delta.log_range") for v in rng[:2])
        count = _integer(path, rng[2], "delta.log_range count")
        _require(lo > 0 and hi >= lo and count >= 1, "%s: bad delta.log_range" % path)
        if count == 1:
            deltas = [lo]
        else:
            step = (math.log(hi) - math.log(lo)) / (count - 1)
            deltas = [math.exp(math.log(lo) + k * step) for k in range(count)]
    _require(
        isinstance(deltas, list) and deltas, "%s: 'delta' must be a nonempty list" % path
    )
    deltas = [_number(path, d, "delta") for d in deltas]
    _require(
        all(0 < d < math.inf for d in deltas), "%s: every delta must be finite and positive" % path
    )
    # output files name a pair by the measure file's stem and by delta in %g form
    for what, names in (
        ("measures", [m.stem for m in measure_paths]),
        ("deltas", ["%g" % d for d in deltas]),
    ):
        clashes = sorted({n for n in names if names.count(n) > 1})
        _require(
            not clashes, "%s: two %s share the output name %s" % (path, what, ", ".join(clashes))
        )

    tol = _section(path, raw, "tolerances")
    default = QuadratureConfig()
    try:
        quad = QuadratureConfig(
            tail_mult=_number(path, raw.get("tail_mult", default.tail_mult), "tail_mult"),
            integ_tol=_number(path, tol.get("integ_tol", default.integ_tol), "tolerances.integ_tol"),
            cdf_tol=_number(path, tol.get("cdf_tol", default.cdf_tol), "tolerances.cdf_tol"),
            root_tol=_number(path, tol.get("root_tol", default.root_tol), "tolerances.root_tol"),
        )
    except LogsobError as exc:
        raise ConfigParseError("%s: %s" % (path, exc)) from exc
    mass_tol = _number(path, tol.get("mass_tol", MASS_TOL), "tolerances.mass_tol")
    _require(0 < mass_tol < math.inf, "%s: mass_tol must be finite and positive" % path)

    sections = ("lipschitz", "transport", "bg", "verify")
    lip, tra, bg, ver = (_section(path, raw, key) for key in sections)
    families = ver.get("families", list(KNOWN_FAMILIES))
    _require(
        isinstance(families, list) and families,
        "%s: verify.families must be a nonempty list" % path,
    )
    for fam in families:
        _require(fam in KNOWN_FAMILIES, "%s: unknown family %r in verify.families" % (path, fam))
    bound = ver.get("bound", "transport")
    if isinstance(bound, str):
        _require(bound in KNOWN_BOUNDS, "%s: unknown bound name %r" % (path, bound))
    else:
        bound = _number(path, bound, "verify.bound")
        _require(
            0 <= bound < math.inf, "%s: numeric verify.bound must be finite and nonnegative" % path
        )

    out_format = raw.get("format", "json")
    _require(out_format in ("json", "csv"), "%s: format must be 'json' or 'csv'" % path)

    cfg = SweepConfig(
        measures=measure_paths,
        deltas=deltas,
        quad=quad,
        mass_tol=mass_tol,
        dimension=_integer(path, raw.get("dimension", 1), "dimension"),
        lipschitz_points=_integer(path, lip.get("points", LIPSCHITZ_POINTS), "lipschitz.points"),
        lipschitz_extent=_number(path, lip.get("extent", LIPSCHITZ_EXTENT), "lipschitz.extent"),
        transport_points=_integer(path, tra.get("points", TABLE_POINTS), "transport.points"),
        transport_extent=_number(path, tra.get("extent", TABLE_EXTENT), "transport.extent"),
        bg_points=_integer(path, bg.get("points", BG_SCAN_POINTS), "bg.points"),
        verify_families=tuple(families),
        verify_bound=bound,
        verify_grid_size=(
            _integer(path, ver["grid_size"], "verify.grid_size") if "grid_size" in ver else None
        ),
        out_format=out_format,
    )
    _require(cfg.dimension >= 1, "%s: dimension must be >= 1" % path)
    _require(cfg.lipschitz_points >= 3, "%s: lipschitz.points must be >= 3" % path)
    _require(cfg.transport_points >= 2, "%s: transport.points must be >= 2" % path)
    _require(cfg.bg_points >= 8, "%s: bg.points must be >= 8" % path)
    for name, extent in (("lipschitz", cfg.lipschitz_extent), ("transport", cfg.transport_extent)):
        _require(0 < extent < math.inf, "%s: %s.extent must be finite and positive" % (path, name))
    _require(
        cfg.verify_grid_size is None or cfg.verify_grid_size >= 1,
        "%s: verify.grid_size must be >= 1" % path,
    )
    return cfg


def _sanitize(obj):
    """Make report trees strict-JSON safe: non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _json_line(obj) -> str:
    return json.dumps(_sanitize(obj), sort_keys=True)


def _flat_items(obj, prefix=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flat_items(obj[k], "%s%s." % (prefix, k))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _flat_items(v, "%s%d." % (prefix, i))
    else:
        yield prefix[:-1], obj


def _naming_pair(stage, pair):
    """``stage(*pair)``; a LogsobError it raises gets the (measure, delta) pair as a prefix."""
    try:
        return stage(*pair)
    except LogsobError as exc:
        exc.args = ("%s at delta=%r: %s" % (pair[0].stem, pair[1], exc),)
        raise


def _each_pair(stage, cfg: SweepConfig, jobs: int) -> list:
    """``stage(path, delta, measure, cfg)`` for every (measure, delta) pair, in input order.

    Every measure file is read once, before any pair runs, so a file that
    does not load stops the run before anything is written.
    """
    measures = [(path, load_measure(path, mass_tol=cfg.mass_tol)) for path in cfg.measures]
    pairs = [(path, delta, measure, cfg) for path, measure in measures for delta in cfg.deltas]
    run = partial(_naming_pair, stage)
    # the pool forks all its workers on the first submit: no more than pairs
    jobs = min(jobs, len(pairs))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run, pairs))
    return list(map(run, pairs))


def _bounds_record(measure_path: Path, delta: float, measure, cfg: SweepConfig) -> dict:
    report = compute_bound_report(
        measure,
        delta,
        n_dim=cfg.dimension,
        config=cfg.quad,
        lipschitz_points=cfg.lipschitz_points,
        lipschitz_extent=cfg.lipschitz_extent,
        bg_points=cfg.bg_points,
    )
    return {"measure": measure_path.stem, "delta": delta, **record(report)}


def cmd_bounds(cfg: SweepConfig, out_dir: Path, jobs: int = 1) -> int:
    records = _each_pair(_bounds_record, cfg, jobs)
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.out_format == "json":
        text = "".join(_json_line(rec) + "\n" for rec in records)
        (out_dir / "bounds.jsonl").write_text(text, encoding="utf-8")
    else:
        rows = [dict(_flat_items(_sanitize(rec))) for rec in records]
        cols = sorted({k for row in rows for k in row})
        with (out_dir / "bounds.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
    ok = all(rec["checks"][name] for rec in records for name in rec["checks"])
    return 0 if ok else 1


_TRANSPORT_COLUMNS = ("x", "T", "T_prime", "envelope_lo", "envelope_hi")


def _transport_columns(measure_path: Path, delta: float, measure, cfg: SweepConfig):
    """The output file name and the table's columns in _TRANSPORT_COLUMNS order."""
    tm = TransportMap(SmoothedMeasure(measure, delta, cfg.quad))
    table = transport_table(tm, cfg.transport_points, cfg.transport_extent)
    name = "transport_%s_d%g.csv" % (measure_path.stem, delta)
    return name, [table[col] for col in _TRANSPORT_COLUMNS]


def cmd_transport(cfg: SweepConfig, out_dir: Path, jobs: int = 1) -> int:
    tables = _each_pair(_transport_columns, cfg, jobs)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, columns in tables:
        with (out_dir / name).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_TRANSPORT_COLUMNS)
            for row in zip(*columns):
                writer.writerow([repr(float(v)) for v in row])
    return 0


def _verify_record(measure_path: Path, delta: float, measure, cfg: SweepConfig) -> dict:
    sm = SmoothedMeasure(measure, delta, cfg.quad)
    bound = cfg.verify_bound
    if isinstance(bound, str):
        constant, label = _NAMED_BOUNDS[bound](sm, cfg), bound
    else:
        constant, label = bound, repr(bound)
    families = shipped_families(sm, cfg.verify_grid_size)
    report = record(verify_lsi(sm, constant, [families[name] for name in cfg.verify_families]))
    report["members"] = report.pop("entries")
    return {"measure": measure_path.stem, "delta": delta, "bound": label, **report}


def cmd_verify(cfg: SweepConfig, out_dir: Path, jobs: int = 1) -> int:
    records = _each_pair(_verify_record, cfg, jobs)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = "".join(_json_line(rec) + "\n" for rec in records)
    (out_dir / "verify.jsonl").write_text(text, encoding="utf-8")
    return 0 if all(rec["all_passed"] for rec in records) else 1


def cmd_sweep(cfg: SweepConfig, out_dir: Path, jobs: int = 1) -> int:
    status = cmd_bounds(cfg, out_dir, jobs=jobs)
    status = max(status, cmd_transport(cfg, out_dir, jobs=jobs))
    return max(status, cmd_verify(cfg, out_dir, jobs=jobs))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logsob",
        description="Log-Sobolev constant reports for Gaussian-smoothed measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("bounds", "all closed-form and criterion bounds per (measure, delta)"),
        ("transport", "transport map tables as CSV"),
        ("verify", "check a bound against the test-function families"),
        ("sweep", "bounds + transport + verify in one run"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="sweep config JSON")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--format", choices=("json", "csv"), default=None)
        sp.add_argument("--jobs", type=int, default=1)
        if name == "verify":
            sp.add_argument("--families", default=None, help="comma-separated family names")
            sp.add_argument("--bound", default=None, help="bound name or numeric constant")
            sp.add_argument("--grid-size", type=int, default=None, dest="grid_size")
    return parser


def _overrides(args) -> dict:
    """Command-line values in config form, for load_sweep_config to validate."""
    out = {"format": args.format} if args.format else {}
    if args.command == "verify":
        ver = {}
        if args.families:
            ver["families"] = [f.strip() for f in args.families.split(",") if f.strip()]
        if args.bound is not None:
            try:
                ver["bound"] = float(args.bound)
            except ValueError:
                ver["bound"] = args.bound
        if args.grid_size is not None:
            ver["grid_size"] = args.grid_size
        if ver:
            out["verify"] = ver
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.jobs < 1:
            raise ConfigParseError("--jobs must be at least 1, got %d" % args.jobs)
        cfg = load_sweep_config(args.config, _overrides(args))
        out_dir = Path(args.out)
        if args.command == "bounds":
            return cmd_bounds(cfg, out_dir, jobs=args.jobs)
        if args.command == "transport":
            return cmd_transport(cfg, out_dir, jobs=args.jobs)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, jobs=args.jobs)
        return cmd_sweep(cfg, out_dir, jobs=args.jobs)
    except (ConfigParseError, MeasureParseError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except LogsobError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
