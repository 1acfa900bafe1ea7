"""Span tracing for the benchmark's traced run.

The tracer wraps cuspforge's public functions at the points where other
modules look them up (``cli.*``, ``trace.solve_dkp``,
``trace.find_special_points``, ``monodromy.solve_dkp``, ``dkp.solve_dkp``,
``singular.classify_point``, ``monodromy.lift_loop``) and the evaluation
methods of the four map families.  Nothing under ``src/`` changes: the
wrappers are installed for one traced pass and removed afterwards, so an
untraced pass runs the unmodified code.

Every wrapped call records a span (name, start, end, parent) in flat arrays.
A span's self time is its duration minus the durations of its direct
children; the spans of one pass nest under a single root span, so the self
times of a pass add up to the pass exactly.
"""

from __future__ import annotations

import functools
import math
import os
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from cuspforge import cli, dkp, maps, monodromy, output, singular, trace
from cuspforge.errors import BoxTooSmall

ROOT_SPAN = "bench.pass"

MAP_CLASSES = (maps.Rpr2PrExact, maps.Rpr2PrOffset, maps.ComplexSquareUnfolded,
               maps.QuartoUnfolded)
MAP_METHODS = ("evaluate", "jacobian", "hessian", "jdet", "jdet_grad", "jdet_hess")

OUTPUT_FUNCTIONS = ("write_special_points_csv", "write_curves_csv", "write_solutions_csv",
                    "write_countmap_csv", "write_lift_csv", "write_svg", "workspace_plot",
                    "joint_plot")


class Recorder:
    """Flat in-memory span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(math.nan)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def parent_name(self) -> str | None:
        """Name of the innermost open span (the caller of a just-closed one)."""
        return self.names[self.name[self.stack[-1]]] if self.stack else None


def _wrap(rec: Recorder, name: str, fn, on_result=None, on_error=None):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(idx)
            if on_error is not None:
                on_error(exc)
            raise
        rec.close(idx)
        if on_result is not None:
            on_result(result, args)
        return result

    return wrapper


def _count_into(rec: Recorder, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counters[key] += 1
        return fn(*args, **kwargs)

    return wrapper


class LayerTracer:
    """Installs and removes the span wrappers around one pass."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        rec = self.rec
        c = rec.counters

        def on_specials(points, _args):
            c["singular.special_points"] += len(points)

        def on_curves(cs, _args):
            c["trace.vertices"] += sum(len(p) for p in cs.curves)

        def on_characteristics(cs, _args):
            c["trace.characteristic.chains"] += len(cs.curves)
            c["trace.characteristic.vertices"] += sum(len(p) for p in cs.curves)

        def on_solutions(sols, _args):
            c["dkp.solutions"] += len(sols)

        def on_dkp_error(exc):
            if isinstance(exc, BoxTooSmall):
                c["dkp.escaped"] += 1

        def on_countmap(cm, _args):
            c["dkp.cells"] += int(cm.counts.size)
            c["dkp.failed_cells"] += int(np.sum(cm.counts == -1))

        def on_output(_result, args):
            # Count bytes once per top-level write; nested writes (a plot
            # calling write_svg) land in the same file.
            parent = rec.parent_name()
            if parent is not None and parent.startswith("output."):
                return
            target = args[0]
            path = getattr(target, "output_path", target)
            c["output.bytes"] += os.path.getsize(path)

        fsp = _wrap(rec, "singular.find_special_points", singular.find_special_points,
                    on_specials)
        cls = _wrap(rec, "singular.classify_point", singular.classify_point)
        tsc = _wrap(rec, "trace.trace_singularity_curves", trace.trace_singularity_curves,
                    on_curves)
        img = _wrap(rec, "trace.image_curves", trace.image_curves)
        chc = _wrap(rec, "trace.characteristic_curves", trace.characteristic_curves,
                    on_characteristics)
        sol = _wrap(rec, "dkp.solve_dkp", dkp.solve_dkp, on_solutions, on_dkp_error)
        cmp_ = _wrap(rec, "dkp.count_map", dkp.count_map, on_countmap)
        lift = _wrap(rec, "monodromy.lift_loop", monodromy.lift_loop)
        perm = _wrap(rec, "monodromy.loop_permutation", monodromy.loop_permutation)
        rep = _wrap(rec, "cli.reproduce", cli.cmd_reproduce)

        for attr, fn in (("find_special_points", fsp), ("classify_point", cls),
                         ("trace_singularity_curves", tsc), ("image_curves", img),
                         ("characteristic_curves", chc), ("solve_dkp", sol),
                         ("count_map", cmp_), ("lift_loop", lift),
                         ("loop_permutation", perm), ("cmd_reproduce", rep)):
            self._patch(cli, attr, fn)
        self._patch(trace, "solve_dkp", sol)
        self._patch(trace, "find_special_points", fsp)
        self._patch(singular, "classify_point", cls)
        self._patch(monodromy, "solve_dkp", sol)
        self._patch(monodromy, "lift_loop", lift)
        self._patch(monodromy, "_newton_to_target",
                    _count_into(rec, "monodromy.lift_steps", monodromy._newton_to_target))
        self._patch(dkp, "solve_dkp", sol)
        for fname in OUTPUT_FUNCTIONS:
            self._patch(output, fname,
                        _wrap(rec, f"output.{fname}", getattr(output, fname), on_output))

        for klass in MAP_CLASSES:
            for method in MAP_METHODS:
                self._patch(klass, method,
                            self._map_wrapper(f"maps.{method}", klass.__dict__[method]))

    def _map_wrapper(self, name, fn):
        # Map methods are called ~10^5 times per pass, so the recording is
        # inlined here rather than going through Recorder.open/close.
        rec = self.rec
        nid = rec.name_id(name)
        names, starts, ends, parents, stack = rec.name, rec.start, rec.end, rec.parent, rec.stack
        counters = rec.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(family, a, b):
            # Callers pass equal shapes or a scalar, so the larger size is
            # the broadcast size.
            counters["maps.points"] += max(getattr(a, "size", 1), getattr(b, "size", 1))
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(family, a, b)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def traced_pass(self, fn):
        """Run ``fn()`` traced under one root span, with fresh counters.

        Returns fn's result and the span range [first, last) of the pass.
        """
        rec = self.rec
        rec.counters.clear()
        first = len(rec.start)
        self.install()
        try:
            idx = rec.open(rec.name_id(ROOT_SPAN))
            try:
                result = fn()
            finally:
                rec.close(idx)
        finally:
            self.remove()
        return result, first, len(rec.start)


def _pass_arrays(rec: Recorder, first: int, last: int):
    """Name ids, durations, self times and parent offsets of rec[first:last]."""
    nid = np.frombuffer(rec.name[first:last], dtype=np.int32)
    dur = np.frombuffer(rec.end[first:last]) - np.frombuffer(rec.start[first:last])
    parent = np.frombuffer(rec.parent[first:last], dtype=np.int32) - first
    has_parent = parent >= 0
    child_sum = np.zeros(len(dur))
    np.add.at(child_sum, parent[has_parent], dur[has_parent])
    return nid, dur, dur - child_sum, np.where(has_parent, parent, -1)


def pass_metrics(rec: Recorder, first: int, last: int) -> dict:
    """Per-layer metrics of the pass whose spans are rec[first:last].

    ``.s`` is inclusive wall time of a function, ``.self_s`` excludes every
    wrapped callee, ``busy_s`` is the inclusive time of a whole layer.
    """
    nid, dur, self_t, parent = _pass_arrays(rec, first, last)
    has_parent = parent >= 0
    span_names = np.array(rec.names, dtype=object)[nid]
    layer = np.array([n.split(".", 1)[0] for n in rec.names], dtype=object)[nid]
    parent_name = np.where(has_parent, span_names[parent], "")
    parent_layer = np.where(has_parent, layer[parent], "")
    counters = rec.counters

    def incl(name):
        return float(dur[span_names == name].sum())

    def calls(name):
        return int(np.sum(span_names == name))

    def self_s(name):
        return float(self_t[span_names == name].sum())

    def layer_busy(prefix):
        top = (layer == prefix) & (parent_layer != prefix)
        return float(dur[top].sum())

    solves = dur[span_names == "dkp.solve_dkp"] * 1e3
    p50, p99 = np.percentile(solves, [50, 99]) if solves.size else (0.0, 0.0)
    return {
        "maps.calls": int(np.sum(layer == "maps")),
        "maps.points": counters["maps.points"],
        "maps.busy_s": layer_busy("maps"),
        "singular.find_special_points.s": incl("singular.find_special_points"),
        "singular.find_special_points.calls": calls("singular.find_special_points"),
        "singular.classify_point.s": incl("singular.classify_point"),
        "singular.special_points": counters["singular.special_points"],
        "trace.trace_singularity_curves.s": incl("trace.trace_singularity_curves"),
        "trace.trace_singularity_curves.calls": calls("trace.trace_singularity_curves"),
        "trace.vertices": counters["trace.vertices"],
        "trace.image_curves.s": incl("trace.image_curves"),
        "trace.characteristic_curves.s": incl("trace.characteristic_curves"),
        "trace.characteristic_curves.self_s": self_s("trace.characteristic_curves"),
        "trace.characteristic.sources": int(np.sum(
            (span_names == "dkp.solve_dkp") & (parent_name == "trace.characteristic_curves"))),
        "trace.characteristic.chains": counters["trace.characteristic.chains"],
        "trace.characteristic.vertices": counters["trace.characteristic.vertices"],
        "dkp.solve_dkp.s": incl("dkp.solve_dkp"),
        "dkp.solve_dkp.calls": calls("dkp.solve_dkp"),
        "dkp.solve_dkp.p50_ms": float(p50),
        "dkp.solve_dkp.p99_ms": float(p99),
        "dkp.solutions": counters["dkp.solutions"],
        "dkp.escaped": counters["dkp.escaped"],
        "dkp.count_map.s": incl("dkp.count_map"),
        "dkp.cells": counters["dkp.cells"],
        "dkp.failed_cells": counters["dkp.failed_cells"],
        "monodromy.lift_loop.s": incl("monodromy.lift_loop"),
        "monodromy.lift_loop.calls": calls("monodromy.lift_loop"),
        "monodromy.lift_steps": counters["monodromy.lift_steps"],
        "monodromy.loop_permutation.self_s": self_s("monodromy.loop_permutation"),
        "output.s": layer_busy("output"),
        "output.bytes": counters["output.bytes"],
        "cli.reproduce.self_s": self_s("cli.reproduce"),
        "bench.self_s": self_s(ROOT_SPAN),
    }


def self_times_by_name(rec: Recorder, first: int, last: int) -> dict:
    """Self time and call count of every span name in rec[first:last]."""
    nid, _, self_t, _ = _pass_arrays(rec, first, last)
    total = np.bincount(nid, weights=self_t, minlength=len(rec.names))
    count = np.bincount(nid, minlength=len(rec.names))
    return {name: {"self_s": float(total[i]), "calls": int(count[i])}
            for i, name in enumerate(rec.names) if count[i]}


def pass_totals(rec: Recorder, first: int, last: int) -> tuple[float, float]:
    """Root span duration and the sum of all self times of rec[first:last]."""
    _, dur, self_t, parent = _pass_arrays(rec, first, last)
    return float(dur[parent < 0].sum()), float(self_t.sum())


def spans_table(rec: Recorder, first: int, last: int) -> dict:
    """Columnar dump of rec[first:last], times relative to the first span."""
    t0 = rec.start[first]
    return {
        "names": list(rec.names),
        "name": list(rec.name[first:last]),
        "start": [round(t - t0, 9) for t in rec.start[first:last]],
        "end": [round(t - t0, 9) for t in rec.end[first:last]],
        "parent": [p - first if p >= 0 else -1 for p in rec.parent[first:last]],
    }


def source_lines(src: Path) -> int:
    """Lines of Python under the package source tree."""
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(src.rglob("*.py")))
