"""In-memory spans around hpcflow's public functions, installed at run time.

Nothing in ``src/`` changes: :meth:`Tracer.install` replaces each public
function of the layer modules (and ``cli.main``) in every loaded hpcflow
module namespace that refers to it, so calls through ``from ... import``
names are traced as well, and :meth:`Tracer.uninstall` puts the
originals back.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("profiles", "recon", "dockerfile", "lint", "launch", "runner", "perf")

# per-call input size, read after the call so it costs no span time
SIZE = {
    "dockerfile.parse_dockerfile": lambda a, r: a[0].count("\n"),
    "lint.lint": lambda a, r: len(a[0].instructions),
    "perf.parse_bench_log": lambda a, r: len(r.samples),
    "perf.summarize": lambda a, r: len(a[0].samples),
    "runner.mock_run_ranks": lambda a, r: a[0].total_ranks,
}

# work counters at the same boundaries
COUNT = {
    "dockerfile.parse_dockerfile": lambda c, a, r: c.update(
        {"dockerfile.lines_parsed": a[0].count("\n")}),
    "lint.lint": lambda c, a, r: c.update(
        {"lint.instructions_linted": len(a[0].instructions), "lint.findings": len(r.findings)}),
    "perf.parse_bench_log": lambda c, a, r: c.update({"perf.samples_parsed": len(r.samples)}),
    "runner.mock_run_ranks": lambda c, a, r: c.update({
        "runner.ranks_spawned": a[0].total_ranks,
        "runner.rank_failures": sum(x.exit_code != 0 for x in r),
    }),
}


def _public_functions(module) -> dict[str, types.FunctionType]:
    return {
        name: obj
        for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType)
        and not name.startswith("_")
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Collects spans: [name, start, end, parent index, op id, size]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        size_of, count = SIZE.get(name), COUNT.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            spans.append(record)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record[1], record[2] = start, end
            if size_of is not None:
                record[5] = size_of(args, result)
            if count is not None:
                count(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"hpcflow.{layer}")
            for fname, fn in _public_functions(module).items():
                originals[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        cli = importlib.import_module("hpcflow.cli")
        originals[id(cli.main)] = self._wrap("cli.main", cli.main)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hpcflow" and not mod_name.startswith("hpcflow."):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((namespace, attr, value))
                    namespace[attr] = wrapper

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._patched):
            namespace[attr] = value
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op, size in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op, "size": size}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_ms and self_ms."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
    for span, self_s in zip(spans, own):
        entry = out[span[0]]
        entry["calls"] += 1
        entry["busy_ms"] += (span[2] - span[1]) * 1e3
        entry["self_ms"] += self_s * 1e3
    return dict(out)


def op_self_ms(spans: list[list]) -> dict[int, float]:
    """Per op id: the summed self time of all its spans."""
    own = self_times(spans)
    out: dict[int, float] = defaultdict(float)
    for span, self_s in zip(spans, own):
        if span[4] is not None:
            out[span[4]] += self_s * 1e3
    return dict(out)


def loglog_slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of log(time) on log(size), medians per size."""
    by_size: dict[float, list[float]] = defaultdict(list)
    for size, seconds in points:
        if size and size > 0 and seconds > 0:
            by_size[size].append(seconds)
    if len(by_size) < 2:
        return None
    xs = [math.log(s) for s in by_size]
    ys = [math.log(statistics.median(v)) for v in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def linear_slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of time on size, in the units given."""
    if len({x for x, _ in points}) < 2:
        return None
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
