"""Spans recorded from outside the library, and per-layer metrics derived from them.

The traced run rebinds the public functions listed in ``TRACED`` on their
modules, including the names one layer imported from another
(``conjectures.count_bruteforce``, ``bijections.enumerate_paths``, ...), so
a call from one layer into another opens a child span and self time splits
by layer.  Per-path and per-term helpers (``satisfies``, the maps,
``binomial``) are left alone and count toward their caller.  Nothing in
``src/`` is edited; the original functions are restored on exit.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import wraps
from typing import Callable

from delannoy import bijections, conjectures, counting, paths, series

LAYERS = ("paths", "counting", "series", "bijections", "conjectures", "cli")

# The per-layer metrics a traced run reports, with their units.
PER_LAYER_UNITS = {
    "paths.calls": "count", "paths.self_s": "s", "paths.paths_out": "count",
    "paths.paths_per_s": "1/s", "paths.failed": "count",
    "counting.calls": "count", "counting.self_s": "s", "counting.dp_s": "s",
    "counting.closed_s": "s", "counting.region_s": "s", "counting.cells": "count",
    "counting.cells_per_s": "1/s", "counting.failed": "count",
    "series.calls": "count", "series.self_s": "s", "series.solve_s": "s",
    "series.check_s": "s", "series.coeffs_out": "count", "series.coeffs_per_s": "1/s",
    "series.failed": "count",
    "bijections.calls": "count", "bijections.self_s": "s", "bijections.paths_checked": "count",
    "bijections.ok_ratio": "ratio", "bijections.failed": "count",
    "conjectures.calls": "count", "conjectures.self_s": "s", "conjectures.rows": "count",
    "conjectures.failed": "count",
    "cli.calls": "count", "cli.interp_ms": "ms", "cli.import_ms": "ms",
    "cli.exec_ms_p50": "ms", "cli.refused": "count", "cli.exit2": "count",
    "trace_overhead_ratio": "ratio",
}


@dataclass
class Span:
    """One timed call.  ``units`` is the work it produced (paths, cells, ...)."""

    name: str
    layer: str
    category: str
    job: str
    parent: int | None
    start: float
    end: float = 0.0
    units: int = 0
    raised: bool = False
    good: bool = True


def _cells(args, result) -> int:
    return (args[0] + 1) * (args[1] + 1)


# (module, attribute, layer, category, units(args, result), good(result))
# Each original function gets one wrapper, installed under every name listed.
TRACED: tuple[tuple, ...] = (
    ((paths, bijections, conjectures), "enumerate_paths", "paths", "walk", lambda a, r: len(r), None),
    ((paths, conjectures), "count_bruteforce", "paths", "walk", lambda a, r: r, None),
    ((counting,), "h_table", "counting", "dp", _cells, None),
    ((counting,), "b_table", "counting", "dp", _cells, None),
    ((counting,), "h_dp", "counting", "dp", None, None),
    ((counting,), "b_dp", "counting", "dp", None, None),
    ((counting,), "a_count", "counting", "dp", None, None),
    ((counting,), "expand_bivariate", "counting", "dp", lambda a, r: (a[1] + 1) ** 2, None),
    ((counting,), "delannoy_count", "counting", "closed", None, None),
    ((counting,), "h_closed", "counting", "closed", None, None),
    ((counting,), "b_closed", "counting", "closed", None, None),
    ((counting,), "schroeder_count", "counting", "region", None, None),
    ((counting,), "schroeder_rect_count", "counting", "region", None, None),
    ((series,), "solve_fd", "series", "solve", lambda a, r: a[1] + 1, None),
    ((series,), "assemble_triple", "series", "check", lambda a, r: 2 * (a[1] + 1), None),
    ((series,), "radical_check_k1", "series", "check", None, None),
    (
        (bijections,), "verify_bijection", "bijections", "verify",
        lambda a, r: r.domain_size + r.codomain_size, lambda r: r.ok,
    ),
    ((conjectures,), "check_conjecture1", "conjectures", "check", lambda a, r: len(r.rows), None),
    ((conjectures,), "check_conjecture2", "conjectures", "check", lambda a, r: len(r.rows), None),
    ((conjectures,), "count_catalan_no_symmetric_peak", "conjectures", "partner", None, None),
    ((conjectures,), "count_inversion_102", "conjectures", "partner", None, None),
)

# enumerate_paths returns a lazy generator; its wrapper drains it inside the
# span so the walk is timed where it happens, then hands back an iterator.
_EAGER = {"enumerate_paths"}


class Tracer:
    """Collects spans in memory; records only inside a job span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job = ""

    def _open(self, name: str, layer: str, category: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, category, self._job, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    @contextmanager
    def job(self, job_id: str, name: str, layer: str = "bench"):
        """Root span of one job; library calls inside it become its descendants."""
        self._job = job_id
        index = self._open(name, layer, "job")
        try:
            yield
        except BaseException:
            self.spans[index].raised = True
            raise
        finally:
            self._close(index)

    def _wrap(self, fn: Callable, name: str, layer: str, category: str, units, good) -> Callable:
        eager = name in _EAGER

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # answer checks run outside any job: not traced
                return fn(*args, **kwargs)
            index = self._open(name, layer, category)
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
            except BaseException:
                self.spans[index].raised = True
                self._close(index)
                raise
            span = self._close(index)
            if units is not None:
                span.units = units(args, result)
            if good is not None:
                span.good = bool(good(result))
            return iter(result) if eager else result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced function for the duration of the block."""
        saved = []
        try:
            for modules, name, layer, category, units, good in TRACED:
                original = getattr(modules[0], name)
                wrapper = self._wrap(original, name, layer, category, units, good)
                for module in modules:
                    saved.append((module, name, getattr(module, name)))
                    setattr(module, name, wrapper)
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as out:
            for i, span in enumerate(self.spans):
                out.write(json.dumps({"id": i, **asdict(span)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer metrics per job list (totals divided by the number of passes)."""
    own = self_times(spans)
    tot: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        tot[key] = tot.get(key, 0.0) + value

    for span, self_s in zip(spans, own):
        lay = span.layer
        add(f"{lay}.calls", 1)
        add(f"{lay}.self_s", self_s)
        add(f"{lay}.{span.category}.self_s", self_s)
        add(f"{lay}.units", span.units)
        add(f"{lay}.{span.category}.units", span.units)
        add(f"{lay}.failed", span.raised)
        add(f"{lay}.good", span.good)
        if span.category == "dp":
            add("counting.cells", span.units)

    def get(key: str) -> float:
        return tot.get(key, 0.0) / passes

    out = {}
    for lay in ("bench",) + LAYERS:
        out[f"{lay}.calls"] = get(f"{lay}.calls")
        out[f"{lay}.self_s"] = get(f"{lay}.self_s")
    out["paths.paths_out"] = get("paths.units")
    out["paths.paths_per_s"] = _ratio(tot.get("paths.units", 0), tot.get("paths.self_s", 0))
    out["counting.dp_s"] = get("counting.dp.self_s")
    out["counting.closed_s"] = get("counting.closed.self_s")
    out["counting.region_s"] = get("counting.region.self_s")
    out["counting.cells"] = get("counting.cells")
    out["counting.cells_per_s"] = _ratio(tot.get("counting.cells", 0), tot.get("counting.dp.self_s", 0))
    out["series.solve_s"] = get("series.solve.self_s")
    out["series.check_s"] = get("series.check.self_s")
    out["series.coeffs_out"] = get("series.units")
    out["series.coeffs_per_s"] = _ratio(tot.get("series.units", 0), tot.get("series.self_s", 0))
    out["bijections.paths_checked"] = get("bijections.units")
    out["bijections.ok_ratio"] = _ratio(tot.get("bijections.good", 0), tot.get("bijections.calls", 0))
    out["conjectures.rows"] = get("conjectures.check.units")
    for lay in ("paths", "counting", "series", "bijections", "conjectures"):
        out[f"{lay}.failed"] = get(f"{lay}.failed")
    return out
