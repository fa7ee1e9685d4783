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
from pathlib import Path

from .bounds import (
    bobkov_goetze,
    bound_transport,
    bound_hardy,
    bound_pushforward,
    compute_bound_report,
    gaussian_lsi_constant,
)
from .empirical import bump_family, exponential_family, step_family, verify_lsi
from .errors import ConfigParseError, LogsobError, MeasureParseError
from .measures import load_measure
from .smoothing import QuadratureConfig, SmoothedMeasure
from .transport import TransportMap, transport_table

KNOWN_FAMILIES = ("exponential", "bump", "step")
KNOWN_BOUNDS = ("transport", "hardy", "pushforward", "bg_upper")


@dataclass
class SweepConfig:
    measures: list
    deltas: list
    quad: QuadratureConfig
    mass_tol: float = 1e-9
    dimension: int = 1
    lipschitz_points: int = 4001
    lipschitz_extent: float = 8.0
    transport_points: int = 1001
    transport_extent: float = 8.0
    bg_points: int = 1201
    verify_families: tuple = KNOWN_FAMILIES
    verify_bound: object = "transport"
    verify_grid_size: int | None = None
    out_format: str = "json"


def bundled_data_path(name: str = "") -> Path:
    """Path of a bundled measure/config file shipped inside the package."""
    from importlib.resources import files

    root = files("logsob").joinpath("data")
    return Path(str(root.joinpath(name) if name else root))


def _require(cond, msg):
    if not cond:
        raise ConfigParseError(msg)


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
        raw[key] = {**(raw.get(key) or {}), **value} if isinstance(value, dict) else value

    measures = raw.get("measures")
    _require(
        isinstance(measures, list) and measures, "%s: 'measures' must be a nonempty list" % path
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
        lo, hi, count = float(rng[0]), float(rng[1]), int(rng[2])
        _require(lo > 0 and hi >= lo and count >= 1, "%s: bad delta.log_range" % path)
        if count == 1:
            deltas = [lo]
        else:
            step = (math.log(hi) - math.log(lo)) / (count - 1)
            deltas = [math.exp(math.log(lo) + k * step) for k in range(count)]
    _require(
        isinstance(deltas, list) and deltas, "%s: 'delta' must be a nonempty list" % path
    )
    deltas = [float(d) for d in deltas]
    _require(all(d > 0 for d in deltas), "%s: every delta must be positive" % path)

    tol = raw.get("tolerances") or {}
    try:
        quad = QuadratureConfig(
            tail_mult=float(raw.get("tail_mult", 12.0)),
            integ_tol=float(tol.get("integ_tol", 1e-10)),
            cdf_tol=float(tol.get("cdf_tol", 1e-9)),
            root_tol=float(tol.get("root_tol", 1e-10)),
        )
    except LogsobError as exc:
        raise ConfigParseError("%s: %s" % (path, exc)) from exc
    mass_tol = float(tol.get("mass_tol", 1e-9))
    _require(mass_tol > 0, "%s: mass_tol must be positive" % path)

    lip = raw.get("lipschitz") or {}
    tra = raw.get("transport") or {}
    bg = raw.get("bg") or {}
    ver = raw.get("verify") or {}
    families = tuple(ver.get("families", list(KNOWN_FAMILIES)))
    _require(len(families) > 0, "%s: verify.families must be nonempty" % path)
    for fam in families:
        _require(fam in KNOWN_FAMILIES, "%s: unknown family %r" % (path, fam))
    bound = ver.get("bound", "transport")
    if isinstance(bound, str):
        _require(bound in KNOWN_BOUNDS, "%s: unknown bound name %r" % (path, bound))
    else:
        try:
            bound = float(bound)
        except (TypeError, ValueError):
            raise ConfigParseError("%s: verify.bound must be a name or a number" % path)
        _require(bound >= 0, "%s: numeric verify.bound must be nonnegative" % path)

    out_format = raw.get("format", "json")
    _require(out_format in ("json", "csv"), "%s: format must be 'json' or 'csv'" % path)

    cfg = SweepConfig(
        measures=measure_paths,
        deltas=deltas,
        quad=quad,
        mass_tol=mass_tol,
        dimension=int(raw.get("dimension", 1)),
        lipschitz_points=int(lip.get("points", 4001)),
        lipschitz_extent=float(lip.get("extent", 8.0)),
        transport_points=int(tra.get("points", 1001)),
        transport_extent=float(tra.get("extent", 8.0)),
        bg_points=int(bg.get("points", 1201)),
        verify_families=families,
        verify_bound=bound,
        verify_grid_size=(int(ver["grid_size"]) if "grid_size" in ver else None),
        out_format=out_format,
    )
    _require(cfg.dimension >= 1, "%s: dimension must be >= 1" % path)
    _require(cfg.lipschitz_points >= 3, "%s: lipschitz.points must be >= 3" % path)
    _require(cfg.transport_points >= 2, "%s: transport.points must be >= 2" % path)
    _require(cfg.bg_points >= 8, "%s: bg.points must be >= 8" % path)
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


def _bounds_record(measure_path: Path, delta: float, cfg: SweepConfig) -> dict:
    measure = load_measure(measure_path, mass_tol=cfg.mass_tol)
    report = compute_bound_report(
        measure,
        delta,
        n_dim=cfg.dimension,
        config=cfg.quad,
        lipschitz_points=cfg.lipschitz_points,
        lipschitz_extent=cfg.lipschitz_extent,
        bg_points=cfg.bg_points,
    )
    return {"measure": measure_path.stem, "delta": delta, **report.to_dict()}


def _bounds_worker(payload):
    measure_path, delta, cfg = payload
    return _bounds_record(Path(measure_path), delta, cfg)


def cmd_bounds(cfg: SweepConfig, out_dir: Path, jobs: int = 1) -> int:
    pairs = [(m, d) for m in cfg.measures for d in cfg.deltas]
    # the pool forks all its workers on the first submit: no more than pairs
    jobs = min(jobs, len(pairs))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_bounds_worker, [(str(m), d, cfg) for m, d in pairs]))
    else:
        records = [_bounds_record(m, d, cfg) for m, d in pairs]
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


def cmd_transport(cfg: SweepConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    for measure_path in cfg.measures:
        measure = load_measure(measure_path, mass_tol=cfg.mass_tol)
        for delta in cfg.deltas:
            sm = SmoothedMeasure(measure, delta, cfg.quad)
            tm = TransportMap(sm)
            table = transport_table(tm, points=cfg.transport_points, extent=cfg.transport_extent)
            name = "transport_%s_d%g.csv" % (measure_path.stem, delta)
            with (out_dir / name).open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["x", "T", "T_prime", "envelope_lo", "envelope_hi"])
                for k in range(len(table["x"])):
                    writer.writerow(
                        [
                            repr(float(table[col][k]))
                            for col in ("x", "T", "T_prime", "envelope_lo", "envelope_hi")
                        ]
                    )
    return 0


def _resolve_constant(name_or_value, sm: SmoothedMeasure, cfg: SweepConfig):
    if not isinstance(name_or_value, str):
        return float(name_or_value), repr(float(name_or_value))
    if name_or_value == "transport":
        return bound_transport(sm.radius, sm.delta).as_logvalue(), "transport"
    if name_or_value == "hardy":
        return bound_hardy(sm.radius, sm.delta)[0], "hardy"
    if name_or_value == "pushforward":
        tm = TransportMap(sm, grid_points=cfg.lipschitz_points, extent=cfg.lipschitz_extent)
        lip = tm.lipschitz_estimate()
        return bound_pushforward(gaussian_lsi_constant(sm.delta), lip), "pushforward"
    if name_or_value == "bg_upper":
        return bobkov_goetze(sm, scan_points=cfg.bg_points).upper, "bg_upper"
    raise ConfigParseError("unknown bound name %r" % name_or_value)


def _family_by_name(name: str, sm: SmoothedMeasure, grid_size=None):
    if name == "exponential":
        return exponential_family(sm.delta, count=grid_size or 64)
    if name == "bump":
        return bump_family(sm.radius, sm.delta, centers=grid_size or 5)
    if name == "step":
        return step_family(sm.radius, sm.delta, centers=grid_size or 5)
    raise ConfigParseError("unknown family %r" % name)


def cmd_verify(cfg: SweepConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    all_ok = True
    lines = []
    for measure_path in cfg.measures:
        measure = load_measure(measure_path, mass_tol=cfg.mass_tol)
        for delta in cfg.deltas:
            sm = SmoothedMeasure(measure, delta, cfg.quad)
            constant, label = _resolve_constant(cfg.verify_bound, sm, cfg)
            families = [
                _family_by_name(n, sm, cfg.verify_grid_size) for n in cfg.verify_families
            ]
            report = verify_lsi(sm, constant, families)
            all_ok = all_ok and report.all_passed
            lines.append(
                {
                    "measure": measure_path.stem,
                    "delta": delta,
                    "bound": label,
                    "constant_log": report.constant_log,
                    "all_passed": report.all_passed,
                    "worst_margin": report.worst_margin,
                    "members": [
                        {
                            "family": e.family,
                            "params": list(e.params),
                            "entropy": e.entropy_value,
                            "energy": e.energy_value,
                            "ratio": e.ratio,
                            "margin": e.margin,
                            "passed": e.passed,
                        }
                        for e in report.entries
                    ],
                }
            )
    text = "".join(_json_line(rec) + "\n" for rec in lines)
    (out_dir / "verify.jsonl").write_text(text, encoding="utf-8")
    return 0 if all_ok else 1


def cmd_sweep(cfg: SweepConfig, out_dir: Path, jobs: int = 1) -> int:
    status = cmd_bounds(cfg, out_dir, jobs=jobs)
    status = max(status, cmd_transport(cfg, out_dir))
    return max(status, cmd_verify(cfg, out_dir))


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
            return cmd_transport(cfg, out_dir)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir)
        return cmd_sweep(cfg, out_dir, jobs=args.jobs)
    except (ConfigParseError, MeasureParseError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except LogsobError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
