import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from logsob.bounds import TransportRouteBound
from logsob.cli import _json_line, bundled_data_path, load_sweep_config, main
from logsob.empirical import VerifyEntry, VerifyReport
from logsob.errors import ConfigParseError
from logsob.logdomain import LogValue, record
from logsob.transport import LipschitzEstimate


def write_config(tmp_path, **overrides):
    cfg = {
        "measures": ["pm.json", "bern.json"],
        "delta": [0.5, 1.0],
        "lipschitz": {"points": 801, "extent": 6.0},
        "transport": {"points": 101, "extent": 5.0},
        "bg": {"points": 301},
        "verify": {"families": ["exponential"], "bound": "transport"},
    }
    cfg.update(overrides)
    (tmp_path / "pm.json").write_text(json.dumps({"atoms": [{"x": 0.0, "w": 1.0}]}))
    (tmp_path / "bern.json").write_text(
        json.dumps({"atoms": [{"x": -1.0, "w": 0.5}, {"x": 1.0, "w": 0.5}]})
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_bounds_report_count_and_content(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    records = read_jsonl(out / "bounds.jsonl")
    assert len(records) == 4  # 2 measures x 2 deltas
    by_key = {(r["measure"], r["delta"]): r for r in records}
    pm = by_key[("pm", 1.0)]
    assert pm["pushforward_bound"]["value"] == pytest.approx(2.0, abs=1e-5)
    bern = by_key[("bern", 1.0)]
    assert bern["transport_bound"]["log_value"] == pytest.approx(math.log(2) + 24, abs=1e-12)
    assert all(all(r["checks"].values()) for r in records)


def test_bounds_csv_format(tmp_path):
    cfg = write_config(tmp_path, delta=[1.0], measures=["pm.json"])
    out = tmp_path / "outcsv"
    assert main(["bounds", "--config", str(cfg), "--out", str(out), "--format", "csv"]) == 0
    lines = (out / "bounds.csv").read_text().splitlines()
    assert len(lines) == 2
    assert "pushforward_bound.value" in lines[0]


def test_empty_delta_rejected(tmp_path):
    cfg = write_config(tmp_path, delta=[])
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_missing_measure_file_is_input_error(tmp_path):
    cfg = write_config(tmp_path, measures=["absent.json"])
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_malformed_measure_is_input_error(tmp_path):
    (tmp_path / "broken.json").write_text("{")
    cfg = write_config(tmp_path, measures=["broken.json"])
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_transport_rows_match_grid(tmp_path):
    cfg = write_config(tmp_path, delta=[1.0])
    out = tmp_path / "tr"
    assert main(["transport", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("transport_pm_d1.csv", "transport_bern_d1.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "x,T,T_prime,envelope_lo,envelope_hi"
        assert len(lines) == 1 + 101


def test_transport_point_mass_is_identity_column(tmp_path):
    cfg = write_config(tmp_path, delta=[1.0], measures=["pm.json"])
    out = tmp_path / "tr2"
    main(["transport", "--config", str(cfg), "--out", str(out)])
    rows = (out / "transport_pm_d1.csv").read_text().splitlines()[1:]
    for row in rows:
        x, t = (float(v) for v in row.split(",")[:2])
        assert abs(t - x) <= 1e-8


def test_transport_symmetric_map_is_odd(tmp_path):
    cfg = write_config(tmp_path, delta=[1.0], measures=["bern.json"])
    out = tmp_path / "tr3"
    main(["transport", "--config", str(cfg), "--out", str(out)])
    rows = (out / "transport_bern_d1.csv").read_text().splitlines()[1:]
    data = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.allclose(data[:, 1], -data[::-1, 1], atol=1e-8)


def test_verify_bound_passes(tmp_path):
    cfg = write_config(tmp_path, delta=[1.0])
    out = tmp_path / "v"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    records = read_jsonl(out / "verify.jsonl")
    assert len(records) == 2
    assert all(r["all_passed"] for r in records)


def test_verify_zero_constant_fails(tmp_path):
    cfg = write_config(tmp_path, delta=[1.0], measures=["bern.json"])
    out = tmp_path / "v0"
    assert main(["verify", "--config", str(cfg), "--out", str(out), "--bound", "0.0"]) == 1
    (record,) = read_jsonl(out / "verify.jsonl")
    failed = [m for m in record["members"] if not m["passed"]]
    assert failed and all(m["margin"] > 0 for m in failed)


def test_verify_unknown_bound_is_input_error(tmp_path):
    cfg = write_config(tmp_path, delta=[1.0])
    assert (
        main(
            [
                "verify",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "x"),
                "--bound",
                "nonsense",
            ]
        )
        == 2
    )


def test_verify_family_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, delta=[1.0], measures=["pm.json"])
    out = tmp_path / "vf"
    assert (
        main(["verify", "--config", str(cfg), "--out", str(out), "--families", "step"]) == 0
    )
    (record,) = read_jsonl(out / "verify.jsonl")
    assert {m["family"] for m in record["members"]} == {"step"}


def test_sweep_runs_everything(tmp_path):
    cfg = write_config(tmp_path, delta=[1.0], measures=["pm.json"])
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "bounds.jsonl").exists()
    assert (out / "verify.jsonl").exists()
    assert (out / "transport_pm_d1.csv").exists()


def test_sweep_deterministic(tmp_path):
    cfg = write_config(tmp_path, delta=[0.5], measures=["bern.json"])
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    for f1 in sorted(out1.iterdir()):
        f2 = out2 / f1.name
        assert f1.read_bytes() == f2.read_bytes()


def _files(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("command", ["bounds", "transport", "verify", "sweep"])
def test_jobs_flag_preserves_output(tmp_path, command):
    cfg = write_config(tmp_path, delta=[1.0])
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    assert main([command, "--config", str(cfg), "--out", str(out1)]) == 0
    assert main([command, "--config", str(cfg), "--out", str(out2), "--jobs", "2"]) == 0
    assert _files(out1) and _files(out1) == _files(out2)


def test_log_range_delta_grid(tmp_path):
    cfg = write_config(tmp_path, delta={"log_range": [0.25, 4.0, 3]}, measures=["pm.json"])
    parsed = load_sweep_config(cfg)
    assert parsed.deltas == pytest.approx([0.25, 1.0, 4.0])


def test_bundled_config_parses():
    cfg = load_sweep_config(bundled_data_path("sweep.json"))
    assert len(cfg.measures) == 4
    assert all(p.exists() for p in cfg.measures)


def test_config_validation_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"measures": [], "delta": [1.0]}))
    with pytest.raises(ConfigParseError):
        load_sweep_config(bad)
    bad.write_text(json.dumps({"measures": ["m.json"], "delta": [-1.0]}))
    with pytest.raises(ConfigParseError):
        load_sweep_config(bad)
    bad.write_text(json.dumps({"measures": ["m.json"], "delta": [1.0], "format": "xml"}))
    with pytest.raises(ConfigParseError):
        load_sweep_config(bad)


def test_verify_grid_size_flag(tmp_path):
    cfg = write_config(tmp_path, delta=[1.0], measures=["pm.json"])
    out = tmp_path / "vg"
    assert (
        main(
            [
                "verify",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--families",
                "exponential",
                "--grid-size",
                "6",
            ]
        )
        == 0
    )
    (record,) = read_jsonl(out / "verify.jsonl")
    assert len(record["members"]) == 6


@pytest.mark.parametrize("bound", ["-1", "nan", "inf", "1e400"])
def test_verify_invalid_numeric_bound_is_input_error(tmp_path, bound):
    # the same value in the config file is rejected the same way
    cfg = write_config(tmp_path, delta=[1.0], measures=["pm.json"])
    argv = ["verify", "--config", str(cfg), "--out", str(tmp_path / "x"), "--bound", bound]
    assert main(argv) == 2
    in_file = write_config(
        tmp_path, delta=[1.0], measures=["pm.json"], verify={"bound": float(bound)}
    )
    with pytest.raises(ConfigParseError, match="nonnegative"):
        load_sweep_config(in_file)


def test_verify_grid_size_flag_is_validated(tmp_path):
    cfg = write_config(tmp_path, delta=[1.0], measures=["pm.json"])
    argv = ["verify", "--config", str(cfg), "--out", str(tmp_path / "x"), "--grid-size", "0"]
    assert main(argv) == 2


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def serial_pool(monkeypatch):
    _SerialPool.made = []
    monkeypatch.setattr("logsob.cli.ProcessPoolExecutor", _SerialPool)
    return _SerialPool.made


@pytest.mark.parametrize("command", ["bounds", "transport", "verify", "sweep"])
@pytest.mark.parametrize("deltas, workers", [([0.5, 1.0], 2), ([1.0], None)], ids=["2", "1"])
def test_jobs_capped_at_pair_count(tmp_path, serial_pool, command, deltas, workers):
    # one pool per subcommand, of no more workers than pairs; none for one pair
    cfg = write_config(tmp_path, delta=deltas, measures=["pm.json"])
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--jobs", "500"]) == 0
    pools = 3 if command == "sweep" else 1
    assert serial_pool == ([workers] * pools if workers else [])
    if command in ("bounds", "sweep"):
        assert len(read_jsonl(out / "bounds.jsonl")) == len(deltas)
    if command in ("verify", "sweep"):
        assert len(read_jsonl(out / "verify.jsonl")) == len(deltas)
    if command in ("transport", "sweep"):
        assert len(list(out.glob("transport_pm_d*.csv"))) == len(deltas)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", ["bounds", "transport", "verify", "sweep"])
def test_bad_second_measure_file_exits_before_any_output(tmp_path, capsys, command, jobs):
    # every measure file is read before any pair runs; transport used to
    # write the first measure's tables before it read the second file
    (tmp_path / "short.json").write_text(json.dumps({"atoms": [{"x": 0.0, "w": 0.9}]}))
    cfg = write_config(tmp_path, measures=["pm.json", "short.json"])
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert "short.json" in err and "at delta=" not in err
    assert list(out.glob("*")) == []


@pytest.mark.parametrize(
    "measures, delta, clash",
    [
        (["pm.json"], {"log_range": [0.5, 0.5000001, 3]}, "deltas share the output name 0.5"),
        (["pm.json", "sub/pm.json"], [1.0], "measures share the output name pm"),
    ],
    ids=["delta", "measure-stem"],
)
def test_pairs_sharing_an_output_name_are_input_errors(tmp_path, capsys, measures, delta, clash):
    # both used to exit 0 with one transport table overwriting another
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "pm.json").write_text(json.dumps({"atoms": [{"x": 1.0, "w": 1.0}]}))
    cfg = write_config(tmp_path, measures=measures, delta=delta)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert clash in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigParseError, match=clash):
        load_sweep_config(cfg)


@pytest.mark.parametrize("command", ["bounds", "sweep"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_input_error(tmp_path, serial_pool, capsys, command, jobs):
    cfg = write_config(tmp_path, delta=[1.0], measures=["pm.json"])
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert serial_pool == [] and not out.exists()


@pytest.mark.parametrize(
    "setting, name",
    [
        ({"tolerances": {"root_tol": math.inf}}, "root_tol"),
        ({"tolerances": {"integ_tol": math.inf}}, "integ_tol"),
        ({"tolerances": {"mass_tol": math.inf}}, "mass_tol"),
        ({"tail_mult": math.inf}, "tail_mult"),
        ({"lipschitz": {"points": 801, "extent": -20.0}}, "lipschitz.extent"),
        ({"lipschitz": {"points": 801, "extent": math.nan}}, "lipschitz.extent"),
        ({"transport": {"points": 101, "extent": math.inf}}, "transport.extent"),
        ({"transport": {"points": 101, "extent": 0.0}}, "transport.extent"),
    ],
)
def test_nonfinite_or_nonpositive_setting_is_input_error(tmp_path, capsys, setting, name):
    # json writes the non-finite floats as Infinity / NaN, which it also reads
    cfg = write_config(tmp_path, delta=[0.25], measures=["bern.json"], **setting)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "setting, name",
    [
        ({"lipschitz": {"points": "many"}}, "lipschitz.points"),
        ({"tail_mult": "x"}, "tail_mult"),
        ({"tolerances": {"root_tol": None}}, "tolerances.root_tol"),
        ({"dimension": "two"}, "dimension"),
        ({"delta": ["a"]}, "delta"),
        ({"delta": [math.inf]}, "delta"),
        ({"lipschitz": {"points": 3.9}}, "lipschitz.points"),
        ({"verify": {"families": ["exponential"], "grid_size": True}}, "verify.grid_size"),
        ({"verify": {"families": "exponential"}}, "verify.families"),
        ({"verify": []}, "verify must be a JSON object"),
        ({"verify": False}, "verify must be a JSON object"),
        ({"verify": 0}, "verify must be a JSON object"),
        ({"verify": ""}, "verify must be a JSON object"),
        ({"verify": None}, "verify must be a JSON object"),
    ],
    ids=["str-count", "str-number", "null-number", "str-dimension", "str-delta", "inf-delta",
         "float-count", "bool-count", "str-families", "list-section", "false-section",
         "zero-section", "empty-str-section", "null-section"],
)
def test_malformed_setting_is_input_error(tmp_path, capsys, setting, name):
    cfg = write_config(tmp_path, **{"delta": [0.25], "measures": ["bern.json"], **setting})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_section_under_a_flag_is_checked_before_the_merge(tmp_path, capsys):
    # --families merges into the verify section, which must be an object first
    cfg = write_config(tmp_path, verify=[1])
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out), "--families", "step"]) == 2
    assert "verify must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


def test_record_writes_a_result_from_its_own_fields():
    big = record(LogValue(1000.0))
    assert big == {"log_value": 1000.0, "value": None}
    assert _json_line(big) == '{"log_value": 1000.0, "value": null}'
    lip = LipschitzEstimate(1.5, 0.25, 101, (-3.0, 3.0), 2.125)
    assert record(lip) == {
        "log_value": 1.5,
        "value": math.exp(1.5),
        "argmax": 0.25,
        "grid_points": 101,
        "window": [-3.0, 3.0],
        "tail_log_bound": 2.125,
    }
    assert record(None) is None
    route = TransportRouteBound(0.0, "small_delta", True)
    assert record((route, None)) == [
        {"log_value": 0.0, "value": 1.0, "branch": "small_delta", "simplified_valid": True},
        None,
    ]
    entry = VerifyEntry("step", (0.5, 0.1), 1.0, 2.0, 0.5, -1.0, True)
    assert record(VerifyReport(0.0, (entry,), -1.0, True)) == {
        "constant_log": 0.0,
        "entries": [
            {
                "family": "step",
                "params": [0.5, 0.1],
                "entropy": 1.0,
                "energy": 2.0,
                "ratio": 0.5,
                "margin": -1.0,
                "passed": True,
            }
        ],
        "worst_margin": -1.0,
        "all_passed": True,
    }


def _underflowing_config(tmp_path):
    """Uniform at delta = 0.002: the sweep and table windows reach normalized |x|
    of about 52, where the smoothed uniform's tail is below the normal doubles."""
    (tmp_path / "unif.json").write_text(
        json.dumps({"density": {"grid": [-1.0, 1.0], "values": [0.5, 0.5]}})
    )
    return write_config(
        tmp_path,
        delta=[0.002],
        measures=["unif.json"],
        transport={"points": 1001, "extent": 8.0},
        verify={"families": ["exponential"], "bound": "pushforward"},
    )


@pytest.mark.parametrize("command", ["bounds", "transport", "verify"])
def test_solver_failure_names_the_pair_and_the_abscissa(
    tmp_path, capsys, underflowing_tails, command
):
    cfg = _underflowing_config(tmp_path)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert re.search(
        r"unif at delta=0\.002: \d+ of \d+ points have a residual that is not finite"
        r".*; first at x = -?\d",
        err,
    )


@pytest.mark.parametrize("command", ["bounds", "transport", "verify", "sweep"])
def test_failed_pair_leaves_no_output_directory(tmp_path, underflowing_tails, command):
    # transport and verify used to create --out before any pair ran
    out = tmp_path / "out"
    assert main([command, "--config", str(_underflowing_config(tmp_path)), "--out", str(out)]) == 1
    assert not out.exists()


def test_atoms_at_small_delta_pass_bounds_and_transport(tmp_path):
    # delta = 0.002 (R^2/delta = 500): the sweep and table reach normalized
    # |x| of about 52, where only the log of the source tail is a double
    delta = 0.002
    cfg = write_config(tmp_path, delta=[delta], measures=["bern.json"])
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    (rec,) = read_jsonl(out / "bounds.jsonl")
    want = 1.0 / (2.0 * delta)  # log T'(0) = R^2 / (2 delta), the sup of log T'
    assert abs(rec["lipschitz"]["log_value"] - want) <= 1e-8 * want
    assert main(["transport", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "transport_bern_d0.002.csv").read_text().splitlines()[1:]
    data = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert len(data) == 101
    x, t, lo, hi = data[:, 0], data[:, 1], data[:, 3], data[:, 4]
    assert np.all((lo <= t) & (t <= hi))
    assert np.array_equal(lo, x - 1.0) and np.array_equal(hi, x + 1.0)


def test_cells_at_small_delta_pass_bounds_transport_and_verify(tmp_path):
    # the same uniform at delta = 0.002, whose tails out there are finite logs
    cfg = _underflowing_config(tmp_path)
    out = tmp_path / "out"
    for command in ("bounds", "transport", "verify"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    (rec,) = read_jsonl(out / "bounds.jsonl")
    assert all(rec["checks"].values())
    rows = (out / "transport_unif_d0.002.csv").read_text().splitlines()[1:]
    data = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert len(data) == 1001
    x, t, lo, hi = data[:, 0], data[:, 1], data[:, 3], data[:, 4]
    assert np.all((lo <= t) & (t <= hi)) and np.all(np.diff(t) > 0.0)
    (rec,) = read_jsonl(out / "verify.jsonl")
    assert rec["all_passed"]


def _perfbench_module(name):
    """perfbench/<name>.py of this checkout, imported read-only under its own name."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / ("%s.py" % name)
    spec = importlib.util.spec_from_file_location("perfbench_%s" % name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bundled_sweep_matches_the_stored_reference(tmp_path, jobs):
    # the benchmark's checker against perfbench/reference/bundled-sweep, so
    # that a report drifting past its tolerances fails here and not only
    # when the benchmark runs
    workloads, check = _perfbench_module("workloads"), _perfbench_module("check")
    plan = workloads.generate("bundled-sweep", 0, tmp_path / "inputs")
    out = tmp_path / "out"
    argv = plan.argv(plan.calls[0], out)
    assert argv[-2:] == ["--jobs", "1"]
    assert main(argv[:-1] + [jobs]) == 0
    problems = {op: found for op, found in check.check_sweep(plan, out).items() if found}
    assert problems == {}
    assert len(plan.ops) == 24


def test_traced_sweep_counts_the_result_fields_the_tracer_reads(tmp_path):
    # perfbench/tracer.py counts the BG, Lipschitz and verify spans from fields
    # of their results; renaming one would crash every traced run
    tracer = _perfbench_module("tracer")
    cfg = write_config(
        tmp_path, delta=[1.0], measures=["bern.json"], verify={"families": ["step"], "grid_size": 2}
    )
    with tracer.Tracer() as t:
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    totals = tracer.totals(t.spans)
    for name in ("bounds.bg", "transport.lipschitz", "empirical.verify"):
        assert totals[name][1] > 0, name


def test_cli_import_leaves_scipy_optimize_stats_and_integrate_out():
    # scipy.special alone is most of the CLI's start-up, and each of these
    # adds about 0.2 s; golden_section_max is hand-rolled to skip scipy.optimize
    import logsob

    src = str(Path(logsob.__file__).resolve().parents[1])
    heavy = ("scipy.optimize", "scipy.stats", "scipy.integrate")
    code = "import sys, logsob.cli; print(any(m in sys.modules for m in %r))" % (heavy,)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
