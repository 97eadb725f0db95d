"""In-memory tracer that wraps ihull's layer functions where they are bound.

`install(tracer)` replaces each traced function by a wrapper in every module
namespace that binds it, so calls made by ihull's own code (for example
`lcf.sqrt` calling the module global `mul`) are seen too.  Every wrapped call
adds to per-name call counts, inclusive time of outermost calls and self time
(duration minus the time of wrapped calls made inside it).  Calls of the
coarse layers are also kept as spans (name, start, end, parent, query), which
`Tracer.write_spans` writes out when the run ends.  With `enabled` false a
wrapper costs one attribute test and a call.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

#: Functions whose result is a series: terms they return count as computed,
#: unless another of them is already running (its result is then internal).
PRODUCERS = (
    "lcf.sqrt",
    "lcf.inverse",
    "lcf.cos",
    "lcf.sin",
    "cover.distance",
    "parsing.parse_expression",
)

_MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.enabled = False
        self.query_id = None
        self.reset()

    def reset(self) -> None:
        self._stack: list[list] = []  # frames: [child_time, span_id]
        self._active: dict[str, int] = defaultdict(int)
        self._producer_depth = 0
        self._next_span = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def wrap(self, fn, name: str, span: bool = False, after=None):
        tracer = self
        clock = time.perf_counter
        producer = name in PRODUCERS

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][1] if stack else None
            span_id = tracer._next_span
            tracer._next_span += 1
            frame = [0.0, span_id]
            stack.append(frame)
            tracer._active[name] += 1
            if producer:
                tracer._producer_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    tracer.counts[f"raised.{type(exc).__name__}"] += 1
                    try:
                        exc._perfbench_counted = True
                    except AttributeError:
                        pass
                raise
            finally:
                end = clock()
                stack.pop()
                tracer._active[name] -= 1
                if producer:
                    tracer._producer_depth -= 1
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_time[name] += duration - frame[0]
                if tracer._active[name] == 0:
                    tracer.total[name] += duration
                if stack:
                    stack[-1][0] += duration
                if span and len(tracer.spans) < _MAX_SPANS:
                    tracer.spans.append(
                        (name, start, end, span_id, parent, tracer.query_id)
                    )
            if producer and tracer._producer_depth == 0:
                tracer.counts["lcf.terms_computed"] += len(result.terms)
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def merge(self, snapshot: dict) -> None:
        """Add the aggregates of another process's tracer."""
        for key, target in (
            ("calls", self.calls),
            ("total", self.total),
            ("self", self.self_time),
            ("counts", self.counts),
        ):
            for name, value in snapshot[key].items():
                target[name] += value

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "id", "parent", "query"],
                    "spans": self.spans,
                },
                fh,
            )


def _rebind(fn, wrapper) -> None:
    """Replace `fn` by `wrapper` under every name an ihull module binds it to."""
    for name, module in list(sys.modules.items()):
        if name == "ihull" or name.startswith("ihull."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of every loaded ihull layer in `tracer`."""
    from ihull import cover, hull, intervals, lcf, parsing, probes

    # the grid oracle pulls in scipy: trace it only where it is already loaded
    gridoracle = sys.modules.get("ihull.gridoracle")

    def wrap(module, attr, name, span=True, after=None):
        fn = getattr(module, attr)
        _rebind(fn, tracer.wrap(fn, name, span=span, after=after))

    Interval = intervals.Interval
    Interval.__mul__ = tracer.wrap(Interval.__mul__, "intervals.mul")
    Interval.__add__ = tracer.wrap(Interval.__add__, "intervals.add")

    wrap(lcf, "mul", "lcf.mul", span=False)
    wrap(lcf, "sign", "lcf.sign", span=False)
    wrap(lcf, "compare", "lcf.compare", span=False)
    wrap(lcf, "sqrt", "lcf.sqrt")
    wrap(lcf, "inverse", "lcf.inverse")
    wrap(lcf, "cos_enclosure", "lcf.cos")
    wrap(lcf, "sin_enclosure", "lcf.sin")

    wrap(cover, "cover_distance", "cover.distance")
    wrap(cover, "_chord_distance", "cover.chord")
    wrap(cover, "classify_point", "cover.classify")

    def count_distance(t, args, result):
        if t.active("hull.hull_distance"):
            t.counts["hull.distances_in_hull_distance"] += 1

    def count_oracle(t, args, result):
        if t.active("hull.harness"):
            t.counts["spaces.oracle_calls_in_harness"] += 1

    def count_probes(t, args, result):
        t.counts["hull.harness_probes"] += len(args[1])

    wrap(hull, "extended_distance", "hull.extended_distance", after=count_distance)
    wrap(hull, "hull_distance", "hull.hull_distance")
    wrap(hull, "in_galaxy", "hull.in_galaxy", after=count_oracle)
    wrap(hull, "is_approachable", "hull.is_approachable", after=count_oracle)
    wrap(hull, "is_nearstandard", "hull.is_nearstandard", after=count_oracle)
    wrap(hull, "check_theorem_b", "hull.harness", after=count_probes)
    wrap(hull, "check_proposition_a", "hull.harness", after=count_probes)

    for attr in (
        "finite_probes",
        "random_exact",
        "random_finite",
        "random_infinitesimal",
        "random_appreciable_positive",
        "random_fraction",
        "random_nonzero_fraction",
    ):
        wrap(probes, attr, "probes.gen", span=False)

    def count_graph(t, args, result):
        t.counts["gridoracle.nodes"] += result.shape[0]
        t.counts["gridoracle.edges"] += result.nnz

    if gridoracle is not None:
        wrap(gridoracle, "_build_graph", "gridoracle.build", after=count_graph)
        wrap(gridoracle, "dijkstra", "gridoracle.dijkstra")

    wrap(parsing, "parse_expression", "parsing.parse_expression")
    wrap(parsing, "parse_number", "parsing.parse")
    wrap(parsing, "parse_point", "parsing.parse")
    wrap(parsing, "format_number", "parsing.format")
    wrap(parsing, "format_point", "parsing.format")
