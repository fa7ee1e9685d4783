import json
import math

import numpy as np
import pytest

from logsob.cli import bundled_data_path, load_sweep_config, main
from logsob.errors import ConfigParseError


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


def test_jobs_flag_preserves_output(tmp_path):
    cfg = write_config(tmp_path, delta=[1.0])
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    assert main(["bounds", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["bounds", "--config", str(cfg), "--out", str(out2), "--jobs", "2"]) == 0
    assert (out1 / "bounds.jsonl").read_bytes() == (out2 / "bounds.jsonl").read_bytes()


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


@pytest.mark.parametrize("bound", ["-1", "nan"])
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


@pytest.mark.parametrize("jobs, deltas, workers", [("500", [0.5, 1.0], [2]), ("500", [1.0], [])])
def test_jobs_capped_at_pair_count(tmp_path, serial_pool, jobs, deltas, workers):
    cfg = write_config(tmp_path, delta=deltas, measures=["pm.json"])
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 0
    assert serial_pool == workers
    assert len(read_jsonl(out / "bounds.jsonl")) == len(deltas)


@pytest.mark.parametrize("command", ["bounds", "sweep"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_input_error(tmp_path, serial_pool, capsys, command, jobs):
    cfg = write_config(tmp_path, delta=[1.0], measures=["pm.json"])
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert serial_pool == [] and not out.exists()
