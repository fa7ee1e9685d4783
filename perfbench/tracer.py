"""Span tracer that wraps logsob's public callables from outside the package.

Each wrapper replaces a callable at the name its caller looks it up by (a
module global such as ``logsob.cli.compute_bound_report`` or a class
attribute such as ``SmoothedMeasure.density``) and records one span per call:
name, start, end, parent span and the (measure, delta) pair it serves.
Counts (points evaluated, residual evaluations, quadrature nodes) are
recorded on the same span.  Spans stay in memory until :meth:`Tracer.dump`.

Limit: transport and ``inv_cdf`` call the private ``_cdf_c``/``_sf_c``/
``_density_c`` evaluators directly, so that smoothing time shows up inside
the transport, bounds and Newton spans, not under ``smoothing.eval``.
Splitting it out needs spans inside the program.
"""

from __future__ import annotations

import functools
import json
import time
import weakref

import numpy as np

# span fields
SID, PARENT, NAME, PAIR, T0, T1, COUNT = range(7)

#: (module, attribute, span name); module globals are looked up by their
#: callers at call time, so patching the caller's module is enough
FUNCTIONS = (
    ("logsob.cli", "cmd_bounds", "cli.bounds"),
    ("logsob.cli", "cmd_transport", "cli.transport"),
    ("logsob.cli", "cmd_verify", "cli.verify"),
    ("logsob.cli", "load_measure", "measures.load"),
    ("logsob.cli", "compute_bound_report", "bounds.report"),
    ("logsob.cli", "bobkov_goetze", "bounds.bg"),
    ("logsob.cli", "transport_table", "transport.table"),
    ("logsob.cli", "verify_lsi", "empirical.verify"),
    ("logsob.bounds", "bobkov_goetze", "bounds.bg"),
    ("logsob.bounds", "median", "bounds.median"),
    ("logsob.bounds", "golden_section_max", "quadrature.golden"),
    ("logsob.transport", "golden_section_max", "quadrature.golden"),
    ("logsob.empirical", "golden_section_max", "quadrature.golden"),
    ("logsob.transport", "bracketed_newton", "quadrature.newton"),
    ("logsob.smoothing", "bracketed_newton", "quadrature.newton"),
    ("logsob.empirical", "adaptive_simpson", "quadrature.simpson"),
    ("logsob.measures", "adaptive_simpson", "quadrature.simpson"),
)
#: (class, method, span name)
METHODS = (
    ("SmoothedMeasure", "__init__", "smoothing.construct"),
    ("SmoothedMeasure", "density", "smoothing.eval"),
    ("SmoothedMeasure", "log_density", "smoothing.eval"),
    ("SmoothedMeasure", "cdf", "smoothing.eval"),
    ("SmoothedMeasure", "sf", "smoothing.eval"),
    ("SmoothedMeasure", "log_cdf", "smoothing.eval"),
    ("SmoothedMeasure", "log_sf", "smoothing.eval"),
    ("SmoothedMeasure", "inv_cdf", "smoothing.inv_cdf"),
    ("TransportMap", "__init__", "transport.construct"),
    ("TransportMap", "lipschitz_estimate", "transport.lipschitz"),
)


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores every original."""

    def __init__(self):
        self.spans = []
        self.pairs = {}
        self._stack = []
        self._saved = []
        # loaded measure -> file stem; SmoothedMeasure / TransportMap -> pair id
        self._owner = weakref.WeakKeyDictionary()

    # -- pair ids ------------------------------------------------------

    def _pair_id(self, name, delta):
        key = "%s@%r" % (name, float(delta))
        return self.pairs.setdefault(key, len(self.pairs))

    def _pair_of(self, obj):
        try:
            return self._owner.get(obj)
        except TypeError:
            return None

    def _own(self, obj, pair):
        if pair is not None:
            self._owner[obj] = pair

    # -- span bookkeeping ------------------------------------------------

    def _open(self, name, pair):
        parent = self._stack[-1] if self._stack else None
        if pair is None and parent is not None:
            pair = parent[PAIR]
        span = [len(self.spans), None if parent is None else parent[SID], name, pair, 0.0, 0.0, 0]
        self.spans.append(span)
        self._stack.append(span)
        span[T0] = time.perf_counter()
        return span

    def _close(self, span):
        span[T1] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        tracer = self
        pair_hook, count_hook, arg_hook = _HOOKS.get(name, (None, None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pair = pair_hook(tracer, args) if pair_hook else None
            span = tracer._open(name, pair)
            if arg_hook:
                args = arg_hook(span, args)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count_hook:
                count_hook(tracer, span, args, out)
            return out

        return wrapper

    def install(self):
        import importlib

        import logsob.smoothing
        import logsob.transport

        classes = {
            "SmoothedMeasure": logsob.smoothing.SmoothedMeasure,
            "TransportMap": logsob.transport.TransportMap,
        }
        for mod_name, attr, name in FUNCTIONS:
            mod = importlib.import_module(mod_name)
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self._wrap(getattr(mod, attr), name))
        for cls_name, attr, name in METHODS:
            cls = classes[cls_name]
            self._saved.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, self._wrap(cls.__dict__[attr], name))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, fh, meta):
        """Write a header line (meta and the pair table), then one line per span."""
        fh.write(json.dumps({"meta": meta, "pairs": self.pairs}, sort_keys=True) + "\n")
        for s, self_s in zip(self.spans, self_times(self.spans)):
            record = dict(zip(("id", "parent", "name", "pair", "start", "end", "count"), s))
            record["self"] = self_s
            fh.write(json.dumps(record) + "\n")


def _points(x) -> int:
    return int(np.size(x))


# -- per-name hooks: which pair a call serves, and what it counts -----------


def _pair_from_measure(tracer, args):
    # compute_bound_report(measure, delta, ...)
    name = tracer._pair_of(args[0])
    return None if name is None else tracer._pair_id(name, args[1])


def _pair_from_self(tracer, args):
    return tracer._pair_of(args[0])


def _count_load(tracer, span, args, out):
    # load_measure(path): remember which file the measure object came from
    from pathlib import Path

    tracer._own(out, Path(args[0]).stem)


def _construct_sm_pair(tracer, args):
    # SmoothedMeasure.__init__(self, base, delta, config)
    name = tracer._pair_of(args[1])
    if name is None or len(args) < 3:
        return None
    return tracer._pair_id(name, getattr(args[2], "delta", args[2]))


def _count_construct(tracer, span, args, out):
    tracer._own(args[0], span[PAIR])


def _construct_tm_pair(tracer, args):
    # TransportMap.__init__(self, target, ...)
    return tracer._pair_of(args[1])


def _count_points(tracer, span, args, out):
    span[COUNT] = _points(args[1])


def _count_lipschitz(tracer, span, args, out):
    span[COUNT] = int(out.grid_points)


def _count_table(tracer, span, args, out):
    span[COUNT] = _points(out["x"])


def _count_bg(tracer, span, args, out):
    # nodes and midpoints scanned on each side of the median
    span[COUNT] = 2 * (2 * int(out.scan_points) - 1)


def _count_members(tracer, span, args, out):
    span[COUNT] = len(out.entries)


def _count_calls(span, fn):
    """Wrap a callback so each call adds one to the span's count."""

    @functools.wraps(fn)
    def counted(*a, **k):
        span[COUNT] += 1
        return fn(*a, **k)

    return counted


def _count_nodes(span, fn):
    """Wrap an integrand so the span counts the abscissae sent to it."""

    @functools.wraps(fn)
    def counted(x, *a, **k):
        span[COUNT] += _points(x)
        return fn(x, *a, **k)

    return counted


def _first_arg_counted(counter):
    def hook(span, args):
        return (counter(span, args[0]),) + tuple(args[1:])

    return hook


_HOOKS = {
    "measures.load": (None, _count_load, None),
    "bounds.report": (_pair_from_measure, None, None),
    "bounds.bg": (_pair_from_self, _count_bg, None),
    "bounds.median": (_pair_from_self, None, None),
    "transport.table": (_pair_from_self, _count_table, None),
    "empirical.verify": (_pair_from_self, _count_members, None),
    "smoothing.construct": (_construct_sm_pair, _count_construct, None),
    "smoothing.eval": (_pair_from_self, _count_points, None),
    "smoothing.inv_cdf": (_pair_from_self, _count_points, None),
    "transport.construct": (_construct_tm_pair, _count_construct, None),
    "transport.lipschitz": (_pair_from_self, _count_lipschitz, None),
    "quadrature.golden": (None, None, _first_arg_counted(_count_calls)),
    "quadrature.newton": (None, None, _first_arg_counted(_count_calls)),
    "quadrature.simpson": (None, None, _first_arg_counted(_count_nodes)),
}


# -- analysis -------------------------------------------------------------


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover."""
    children = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[T0], s[T1]))
    out = []
    for s in spans:
        covered = 0.0
        end = s[T0]
        for a, b in sorted(children.get(s[SID], ())):
            a, b = max(a, end, s[T0]), min(b, s[T1])
            if b > a:
                covered += b - a
                end = b
        out.append((s[T1] - s[T0]) - covered)
    return out


def totals(spans):
    """Per span name: calls, summed count and inclusive seconds.

    A span nested inside another of the same name is not added again, so
    inclusive seconds never double-count recursion.
    """
    by_id = {s[SID]: s for s in spans}
    out = {}
    for s in spans:
        calls, count, secs = out.get(s[NAME], (0, 0, 0.0))
        p = s[PARENT]
        nested = False
        while p is not None:
            if by_id[p][NAME] == s[NAME]:
                nested = True
                break
            p = by_id[p][PARENT]
        out[s[NAME]] = (
            calls + 1,
            count + s[COUNT],
            secs if nested else secs + (s[T1] - s[T0]),
        )
    return out


def layer_self_seconds(spans):
    """Self seconds summed per layer (the module prefix of each span name)."""
    out = {}
    for s, self_s in zip(spans, self_times(spans)):
        layer = s[NAME].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + self_s
    return out


def descendants_named(spans, ancestor_name, name):
    """Number of spans called ``name`` that sit under a span ``ancestor_name``."""
    by_id = {s[SID]: s for s in spans}
    n = 0
    for s in spans:
        if s[NAME] != name:
            continue
        p = s[PARENT]
        while p is not None:
            if by_id[p][NAME] == ancestor_name:
                n += 1
                break
            p = by_id[p][PARENT]
    return n
