"""Metric catalogue and the per-layer numbers computed from one traced iteration.

Each metric names its layer (a logsob module), its unit and direction, and
the end-to-end metric and workloads it should move.  ``in_json`` marks the
metrics listed in BENCHMARK.json: a time that is structurally zero on one
of its workloads (verify does not run on mixture-dense) stays out of that
list, because such a reading repeats exactly; it is still printed and kept
in baseline.json.
"""

from __future__ import annotations

from tracer import descendants_named, layer_self_seconds, totals

DRIVEN = ("bundled-sweep", "mixture-dense")

# what each layer metric should move, and on which workload
EVERY = "wall_s on bundled-sweep, mixture-dense, small-delta"
SWEEP = "wall_s on bundled-sweep"
DENSE = "wall_s on mixture-dense"
SOLVER = "wall_s on mixture-dense; fail_ratio on small-delta"

#: name, unit, better, workloads BENCHMARK.json gates it on (every run prints all four)
END_TO_END = (
    ("wall_s", "s", "lower", DRIVEN),
    ("setup_s", "s", "lower", DRIVEN),
    ("peak_rss_mb", "MB", "lower", DRIVEN),
    # 0 on the driven workloads, so it rides in the result's attempted/failed
    ("fail_ratio", "ratio", "lower", ()),
)

#: name, unit, better, moves, in_json
PER_LAYER = (
    ("cli.bounds_s", "s", "lower", EVERY, True),
    ("cli.transport_s", "s", "lower", EVERY, True),
    ("cli.verify_s", "s", "lower", SWEEP, False),
    ("measures.load_calls", "count", "lower", "wall_s (slightly) on bundled-sweep", True),
    ("measures.load_s", "s", "lower", "wall_s (slightly) on bundled-sweep", True),
    ("smoothing.construct_calls", "count", "lower", "wall_s on mixture-dense, bundled-sweep", True),
    ("smoothing.construct_s", "s", "lower", "wall_s on mixture-dense, bundled-sweep", True),
    ("smoothing.eval_calls", "count", "lower", SWEEP, True),
    ("smoothing.eval_points", "count", "lower", "wall_s on bundled-sweep, mixture-dense", True),
    ("smoothing.eval_s", "s", "lower", DENSE, True),
    ("smoothing.points_per_call", "points/call", "higher", SWEEP, True),
    ("smoothing.inv_cdf_calls", "count", "lower", "fail_ratio on small-delta", True),
    ("smoothing.inv_cdf_s", "s", "lower", "fail_ratio on small-delta", True),
    ("quadrature.simpson_calls", "count", "lower", SWEEP, True),
    ("quadrature.simpson_nodes", "count", "lower", SWEEP, True),
    ("quadrature.simpson_s", "s", "lower", SWEEP, False),
    ("quadrature.newton_calls", "count", "lower", SOLVER, True),
    ("quadrature.newton_resid_evals", "count", "lower", SOLVER, True),
    ("quadrature.newton_s", "s", "lower", SOLVER, True),
    ("quadrature.golden_evals", "count", "lower", DENSE, True),
    ("transport.lipschitz_calls", "count", "lower", SOLVER, True),
    ("transport.lipschitz_s", "s", "lower", SOLVER, True),
    ("transport.lipschitz_points", "count", "lower", SOLVER, True),
    ("transport.table_s", "s", "lower", SOLVER, True),
    ("transport.table_points", "count", "lower", SOLVER, True),
    ("bounds.report_s", "s", "lower", SOLVER, True),
    ("bounds.bg_s", "s", "lower", SOLVER, True),
    ("bounds.bg_scan_points", "count", "lower", SOLVER, True),
    ("bounds.median_s", "s", "lower", SOLVER, True),
    ("empirical.verify_s", "s", "lower", SWEEP, False),
    ("empirical.verify_members", "count", "lower", SWEEP, True),
    ("empirical.simpson_calls_per_member", "calls/member", "lower", SWEEP, True),
    ("empirical.s_per_member", "s/member", "lower", SWEEP, False),
    ("cli.self_s", "s", "lower", EVERY, True),
    ("measures.self_s", "s", "lower", SWEEP, True),
    ("smoothing.self_s", "s", "lower", EVERY, True),
    ("quadrature.self_s", "s", "lower", EVERY, True),
    ("transport.self_s", "s", "lower", DENSE, True),
    ("bounds.self_s", "s", "lower", DENSE, True),
    ("empirical.self_s", "s", "lower", SWEEP, False),
    ("trace.spans", "count", "lower", "tracing overhead", True),
    ("trace.wall_s", "s", "lower", "wall_s with tracing on", True),
    ("trace.overhead_s", "s", "lower", "traced minus untraced wall_s", True),
)

LAYERS = ("cli", "measures", "smoothing", "quadrature", "transport", "bounds", "empirical")
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def per_layer(spans):
    """Per-layer values of one traced iteration (trace.* are added by the caller)."""
    tot = totals(spans)

    def calls(name):
        return tot.get(name, (0, 0, 0.0))[0]

    def count(name):
        return tot.get(name, (0, 0, 0.0))[1]

    def secs(name):
        return tot.get(name, (0, 0, 0.0))[2]

    members = count("empirical.verify")
    out = {
        "cli.bounds_s": secs("cli.bounds"),
        "cli.transport_s": secs("cli.transport"),
        "cli.verify_s": secs("cli.verify"),
        "measures.load_calls": calls("measures.load"),
        "measures.load_s": secs("measures.load"),
        "smoothing.construct_calls": calls("smoothing.construct"),
        "smoothing.construct_s": secs("smoothing.construct"),
        "smoothing.eval_calls": calls("smoothing.eval"),
        "smoothing.eval_points": count("smoothing.eval"),
        "smoothing.eval_s": secs("smoothing.eval"),
        "smoothing.points_per_call": count("smoothing.eval") / max(calls("smoothing.eval"), 1),
        "smoothing.inv_cdf_calls": calls("smoothing.inv_cdf"),
        "smoothing.inv_cdf_s": secs("smoothing.inv_cdf"),
        "quadrature.simpson_calls": calls("quadrature.simpson"),
        "quadrature.simpson_nodes": count("quadrature.simpson"),
        "quadrature.simpson_s": secs("quadrature.simpson"),
        "quadrature.newton_calls": calls("quadrature.newton"),
        "quadrature.newton_resid_evals": count("quadrature.newton"),
        "quadrature.newton_s": secs("quadrature.newton"),
        "quadrature.golden_evals": count("quadrature.golden"),
        "transport.lipschitz_calls": calls("transport.lipschitz"),
        "transport.lipschitz_s": secs("transport.lipschitz"),
        "transport.lipschitz_points": count("transport.lipschitz"),
        "transport.table_s": secs("transport.table"),
        "transport.table_points": count("transport.table"),
        "bounds.report_s": secs("bounds.report"),
        "bounds.bg_s": secs("bounds.bg"),
        "bounds.bg_scan_points": count("bounds.bg"),
        "bounds.median_s": secs("bounds.median"),
        "empirical.verify_s": secs("empirical.verify"),
        "empirical.verify_members": members,
        # ratios keep their base: both are 0 when nothing was verified
        "empirical.simpson_calls_per_member": (
            descendants_named(spans, "empirical.verify", "quadrature.simpson") / members
            if members
            else 0.0
        ),
        "empirical.s_per_member": secs("empirical.verify") / members if members else 0.0,
    }
    self_s = layer_self_seconds(spans)
    for layer in LAYERS:
        out["%s.self_s" % layer] = self_s.get(layer, 0.0)
    out["trace.spans"] = len(spans)
    return out
