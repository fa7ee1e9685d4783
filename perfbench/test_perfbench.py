"""Tests of the benchmark itself: generator, checker, tracer and BENCHMARK.json.

Run with ``python3 -m pytest perfbench`` from the root of the checkout.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import metrics  # noqa: E402
import tracer  # noqa: E402
from workloads import generate  # noqa: E402

import logsob.cli  # noqa: E402


def _files(root: Path):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))}


def test_generator_is_byte_identical_for_a_seed_and_differs_across_seeds(tmp_path):
    a = generate("mixture-dense", 7, tmp_path / "a")
    generate("mixture-dense", 7, tmp_path / "b")
    generate("mixture-dense", 8, tmp_path / "c")
    fa, fb, fc = _files(tmp_path / "a"), _files(tmp_path / "b"), _files(tmp_path / "c")
    assert fa == fb
    assert fa.keys() == fc.keys()
    measures = [n for n in fa if n in ("atoms96.json", "cells256.json", "mixed48x128.json")]
    assert len(measures) == 3
    assert all(fa[n] != fc[n] for n in measures)
    assert len(a.calls) == 12 and len(a.ops) == 12


def test_generated_measures_parse_with_radius_one(tmp_path):
    plan = generate("mixture-dense", 3, tmp_path)
    for stem, doc in plan.measures.items():
        mu = logsob.load_measure(tmp_path / ("%s.json" % stem))
        lo, hi = mu.support
        assert abs(0.5 * (hi - lo) - 1.0) < 1e-12
        assert check.geometry(doc) == pytest.approx((1.0, 0.5 * (lo + hi)), abs=1e-12)


@pytest.fixture(scope="module")
def sweep_plan(tmp_path_factory):
    return generate("bundled-sweep", 0, tmp_path_factory.mktemp("inputs"))


def test_checker_accepts_the_reference_and_rejects_a_perturbed_entropy(tmp_path, sweep_plan):
    out = tmp_path / "out"
    shutil.copytree(check.REFERENCE, out)
    assert all(not found for found in check.check_sweep(sweep_plan, out).values())

    lines = (out / "verify.jsonl").read_text().splitlines()
    rec = json.loads(lines[2])
    rec["members"][5]["entropy"] *= 1.0 + 1e-5
    lines[2] = json.dumps(rec, sort_keys=True)
    (out / "verify.jsonl").write_text("\n".join(lines) + "\n")
    result = check.check_sweep(sweep_plan, out)
    bad = [op for op, found in result.items() if found]
    assert bad == [(rec["measure"], rec["delta"], "verify")]
    assert "members.5.entropy" in result[bad[0]][0]


def test_checker_rejects_a_transport_value_off_by_a_few_root_tols(tmp_path, sweep_plan):
    out = tmp_path / "out"
    shutil.copytree(check.REFERENCE, out)
    path = out / "transport_asymmetric_d0.25.csv"
    rows = path.read_text().splitlines()
    cells = rows[200].split(",")
    cells[1] = repr(float(cells[1]) + 1e-8)
    rows[200] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")
    bad = [op for op, found in check.check_sweep(sweep_plan, out).items() if found]
    assert bad == [("asymmetric", 0.25, "transport")]


def _pair_outputs(tmp_path, stage):
    plan = generate("small-delta", 0, tmp_path / "inputs")
    call = next(c for c in plan.calls if c.ops[0] == ("bernoulli", 0.05, stage))
    out = tmp_path / stage
    assert logsob.cli.main(plan.argv(call, out)) == 0
    return plan, call, out


def test_checker_rejects_a_bernoulli_median_of_minus_0_17(tmp_path):
    plan, call, out = _pair_outputs(tmp_path, "transport")
    assert check.check_pair(plan, call, out, small_delta=True) == []
    path = out / "transport_bernoulli_d0.05.csv"
    header, tab = check.read_table(path)
    k = int(np.argmin(np.abs(tab[:, 0])))
    assert tab[k, 0] == 0.0
    rows = path.read_text().splitlines()
    cells = rows[k + 1].split(",")
    cells[1] = repr(-0.17)
    rows[k + 1] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")
    problems = check.check_pair(plan, call, out, small_delta=True)
    assert any("T(0) = -0.17" in p for p in problems)


def test_checker_rejects_a_wrong_bernoulli_slope(tmp_path):
    plan, call, out = _pair_outputs(tmp_path, "bounds")
    assert check.check_pair(plan, call, out, small_delta=True) == []
    rec = json.loads((out / "bounds.jsonl").read_text())
    assert rec["lipschitz"]["log_value"] == pytest.approx(10.0, rel=1e-8)
    rec["lipschitz"]["log_value"] = 34.39
    (out / "bounds.jsonl").write_text(json.dumps(rec) + "\n")
    problems = check.check_pair(plan, call, out, small_delta=True)
    assert any("closed form" in p for p in problems)


def _span(sid, parent, name, t0, t1):
    return [sid, parent, name, None, t0, t1, 0]


def test_self_time_on_a_synthetic_nest():
    spans = [
        _span(0, None, "a.x", 0.0, 10.0),
        _span(1, 0, "b.x", 1.0, 3.0),
        _span(2, 0, "c.x", 4.0, 8.0),
        _span(3, 2, "b.x", 5.0, 6.0),
        _span(4, 3, "b.x", 5.2, 5.8),
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 0.4, 0.6])
    tot = tracer.totals(spans)
    # the b.x nested in another b.x is not counted again
    assert tot["b.x"] == (3, 0, pytest.approx(3.0))
    assert tracer.layer_self_seconds(spans) == pytest.approx({"a": 4.0, "b": 3.0, "c": 3.0})
    assert tracer.descendants_named(spans, "c.x", "b.x") == 2


def test_tracer_records_pairs_and_restores_every_callable(tmp_path):
    plan = generate("small-delta", 0, tmp_path / "inputs")
    call = next(c for c in plan.calls if c.ops[0] == ("uniform", 0.05, "transport"))
    saved = [getattr(logsob.cli, a) for _, a, _ in tracer.FUNCTIONS if _ == "logsob.cli"]
    init = logsob.SmoothedMeasure.__dict__["__init__"]
    t = tracer.Tracer()
    with t:
        assert logsob.cli.main(plan.argv(call, tmp_path / "out")) == 0
    assert [getattr(logsob.cli, a) for _, a, _ in tracer.FUNCTIONS if _ == "logsob.cli"] == saved
    assert logsob.SmoothedMeasure.__dict__["__init__"] is init
    names = {s[tracer.NAME] for s in t.spans}
    assert {"cli.transport", "measures.load", "smoothing.construct", "transport.table"} <= names
    assert t.pairs == {"uniform@0.05": 0}
    constructs = [s for s in t.spans if s[tracer.NAME] == "smoothing.construct"]
    # the CLI's own SmoothedMeasure and the unit-frame one inside TransportMap
    assert len(constructs) == 2 and all(s[tracer.PAIR] == 0 for s in constructs)
    by_id = {s[tracer.SID]: s for s in t.spans}
    assert by_id[constructs[1][tracer.PARENT]][tracer.NAME] == "transport.construct"
    layer = metrics.per_layer(t.spans)
    assert layer["transport.table_points"] == 401
    assert layer["cli.transport_s"] > 0.0


def test_benchmark_json_matches_the_catalogue():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    want = [(n, u, b) for n, u, b, _, in_json in metrics.PER_LAYER if in_json]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == want
    e2e = {n: (u, b) for n, u, b, driven in metrics.END_TO_END if driven}
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == e2e
    assert [w["name"] for w in bench["workloads"]] == list(metrics.DRIVEN)
