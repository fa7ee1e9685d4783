"""logsob benchmark: drives ``logsob.cli.main`` on seeded inputs and reports metrics.

One workload::

    python3 perfbench/run.py --workload mixture-dense --seed 1 --seconds 50 --trace 0

runs the workload's CLI calls in a closed loop (each call starts when the
previous one returns, one process, ``--jobs 1``, BLAS/OpenMP pinned to one
thread) until ``--seconds`` have passed, then checks every output outside
the timed region.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced iterations and reports the per-layer metrics
and the tracing overhead.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload, untraced and traced, with a summary table::

    python3 perfbench/run.py --seed 0 --seconds 50

Scratch files (inputs, outputs, spans) go to ``.perfbench/`` at the root of
the checkout.  The program is imported from ``src/`` of the same checkout.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy is imported anywhere in this process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORK = REPO / ".perfbench"
WORKLOADS = ("bundled-sweep", "mixture-dense", "small-delta")
#: setup is timed this many times per run (once here, the rest in fresh
#: interpreters) and the median reported
SETUP_SAMPLES = 5
#: at least this many timed iterations, so determinism can be checked
MIN_ITERATIONS = 2
NOTE = (
    "transport and inv_cdf call the private _cdf_c/_sf_c/_density_c directly: "
    "that smoothing time is inside the transport, bounds and newton spans, "
    "not smoothing.eval_s; splitting it out needs spans inside the program"
)


def _import_program():
    if not (SRC / "logsob" / "__init__.py").is_file():
        raise SystemExit("perfbench: no logsob package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import logsob.cli

    if Path(logsob.cli.__file__).resolve().parent != (SRC / "logsob").resolve():
        raise SystemExit("perfbench: imported logsob from outside %s" % SRC)
    return logsob.cli


def setup(workload, seed, inputs):
    """Import logsob, generate the inputs and parse them; returns (plan, seconds)."""
    t0 = time.perf_counter()
    cli = _import_program()
    from workloads import generate

    plan = generate(workload, seed, inputs)
    for call in plan.calls:
        cfg = cli.load_sweep_config(call.config)
        for path in cfg.measures:
            cli.load_measure(path, mass_tol=cfg.mass_tol)
    return plan, time.perf_counter() - t0


def setup_samples(workload, seed, first, root):
    """The in-process setup time plus SETUP_SAMPLES - 1 in fresh interpreters."""
    samples = [first]
    for k in range(1, SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
             "--setup-sample", str(root / ("setup-%d" % k))],
            cwd=str(REPO), capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_iteration(plan, main, out_root):
    """One pass over the workload's CLI calls; returns (seconds in calls, results)."""
    wall = 0.0
    results = []
    for call in plan.calls:
        out = out_root / call.name
        argv = plan.argv(call, out)
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = main(argv)
        except Exception as exc:  # a crash is a failed operation; the run goes on
            rc = "crash: %s: %s" % (type(exc).__name__, exc)
        wall += time.perf_counter() - t0
        results.append((call, rc, err.getvalue().strip(), out))
    return wall, results


def check(plan, iterations):
    """Failed operations per iteration, and the problems found on the first.

    Iteration 0 goes through the checker; every later iteration must
    reproduce its output files byte for byte and its exit codes.
    """
    from check import check_pair, check_sweep, same_files

    first = iterations[0]
    problems = {op: [] for op in plan.ops}
    for call, rc, err, out in first:
        if rc != 0:
            last = err.splitlines()[-1] if err else ""
            for op in call.ops:
                problems[op].append("exit %s %s" % (rc, last))
        if not out.is_dir():
            continue
        if plan.workload == "bundled-sweep":
            for op, found in check_sweep(plan, out).items():
                problems[op] += found
        else:
            problems[call.ops[0]] += check_pair(
                plan, call, out, small_delta=plan.workload == "small-delta"
            )
    bad = {op: bool(found) for op, found in problems.items()}
    failed = 0
    for k, results in enumerate(iterations):
        for (call, rc, _, out), (_, rc0, _, out0) in zip(results, first):
            differs = k > 0 and (
                rc != rc0
                or out.is_dir() != out0.is_dir()
                or (out.is_dir() and bool(same_files(out, out0)))
            )
            for op in call.ops:
                if differs:
                    problems[op].append("iteration %d output differs from iteration 0" % k)
                failed += bad[op] or differs
    return failed, problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(args):
    work = WORK / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    plan, first_setup = setup(args.workload, args.seed, work / "inputs")
    setups = setup_samples(args.workload, args.seed, first_setup, work)

    import logsob.cli
    from metrics import PER_LAYER, UNITS, per_layer
    from tracer import Tracer

    untraced, traced, iterations, tracers = [], [], [], []
    t_start = time.perf_counter()
    while len(iterations) < MIN_ITERATIONS or time.perf_counter() - t_start < args.seconds:
        k = len(iterations)
        trace_this = bool(args.trace) and k % 2 == 1
        out_root = work / "runs" / ("i%d" % k)
        if trace_this:
            tracer = Tracer()
            with tracer:
                wall, results = run_iteration(plan, logsob.cli.main, out_root)
            tracers.append(tracer)
            traced.append(wall)
        else:
            wall, results = run_iteration(plan, logsob.cli.main, out_root)
            untraced.append(wall)
        iterations.append(results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, problems = check(plan, iterations)
    attempted = len(plan.ops) * len(iterations)

    q1, wall_med, q3 = quartiles(untraced)
    lines = [
        "workload %s  seed %d  iterations %d (untraced %d, traced %d)  ops/iteration %d"
        % (args.workload, args.seed, len(iterations), len(untraced), len(traced), len(plan.ops)),
        "wall_s       %.4f s  (median; q1 %.4f, q3 %.4f; n=%d)" % (wall_med, q1, q3, len(untraced)),
        "setup_s      %.4f s  (median of %d: %s)"
        % (statistics.median(setups), len(setups), ", ".join("%.3f" % s for s in setups)),
        "fail_ratio   %.4f  (%d failed / %d attempted)" % (failed / attempted, failed, attempted),
        "peak_rss_mb  %.1f MB" % peak_rss_mb,
    ]
    for op, found in problems.items():
        if found:
            lines.append("  FAIL %s d=%g %s: %s" % (op[0], op[1], op[2], "; ".join(found)))
    metrics = {
        "wall_s": wall_med,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        layer_runs = [per_layer(t.spans) for t in tracers]
        metrics = {name: statistics.median(r[name] for r in layer_runs) for name in layer_runs[0]}
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall_med
        (work / "layers.json").write_text(json.dumps(metrics, indent=1, sort_keys=True) + "\n")
        spans_path = work / "spans.jsonl"
        with spans_path.open("w", encoding="utf-8") as fh:
            for k, tracer in enumerate(tracers):
                meta = {"workload": args.workload, "seed": args.seed, "traced_iteration": k}
                tracer.write(fh, meta)
        lines.append(
            "per-layer (median over %d traced iterations; spans in %s)" % (len(tracers), spans_path)
        )
        lines.append("note: " + NOTE)
        for name, unit, _, moves, in_json in PER_LAYER:
            lines.append(
                "  %-36s %14.6g %-12s %s%s"
                % (name, metrics[name], unit, "" if in_json else "[not in BENCHMARK.json] ", moves)
            )
        metrics = {n: metrics[n] for n, _, _, _, in_json in PER_LAYER if in_json}
    print("\n".join(lines))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload untraced and traced, each in its own process, plus a summary."""
    import platform

    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=str(REPO), capture_output=True, text=True, check=True)
            print(proc.stdout.rstrip("\n"))
            last = proc.stdout.strip().splitlines()[-1]
            runs["%s/trace%d" % (workload, trace)] = json.loads(last)
        # every per-layer value, including those BENCHMARK.json leaves out
        runs["%s/trace1" % workload]["all_per_layer"] = json.loads(
            (WORK / workload / "layers.json").read_text()
        )
    import numpy
    import scipy

    from metrics import END_TO_END, PER_LAYER
    from workloads import WHY

    summary = {
        "workloads": {w: WHY[w] for w in WORKLOADS},
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "gated_on": list(ws)} for n, u, b, ws in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b, "moves": moves, "in_benchmark_json": in_json}
            for n, u, b, moves, in_json in PER_LAYER
        ],
        "machine": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": runs,
    }
    (WORK / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    header = ("workload", "wall_s", "setup_s", "peak_rss_mb", "fail_ratio")
    print("\n%-15s %10s %10s %12s %12s" % header)
    for workload in WORKLOADS:
        r = runs["%s/trace0" % workload]
        m = r["metrics"]
        print("%-15s %10.4f %10.4f %12.1f %8.4f (%d/%d)" % (
            workload, m["wall_s"]["value"], m["setup_s"]["value"], m["peak_rss_mb"]["value"],
            r["failed"] / r["attempted"], r["failed"], r["attempted"]))
    total = {
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": {
            "%s.%s" % (key.split("/")[0], n): v
            for key, r in runs.items() if key.endswith("trace0")
            for n, v in r["metrics"].items()
        },
    }
    print(json.dumps(total))
    return 0


def write_reference():
    """Store one bundled-sweep output as the reference the checker compares against."""
    cli = _import_program()
    from check import REFERENCE
    from workloads import generate

    plan = generate("bundled-sweep", 0, WORK / "reference-inputs")
    out = WORK / "reference-out"
    if out.exists():
        shutil.rmtree(out)
    rc = cli.main(plan.argv(plan.calls[0], out))
    if rc != 0:
        raise SystemExit("perfbench: bundled sweep exited %d; reference not written" % rc)
    if REFERENCE.exists():
        shutil.rmtree(REFERENCE)
    shutil.copytree(out, REFERENCE)
    print("wrote %s" % REFERENCE)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload; default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="store a bundled-sweep run as the checker's reference")
    args = parser.parse_args(argv)
    if args.setup_sample:
        _, secs = setup(args.workload, args.seed, args.setup_sample)
        print(repr(secs))
        return 0
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
