"""Outside-in tracing of one pipeline operation.

Spans are recorded from the benchmark's side of each layer boundary: around
the calls the benchmark itself makes (load, run, write) and around every
public graphcp function that ``graphcp.harness`` looks up in its own module
namespace at call time.  Wrapping replaces those names for the duration of a
``with Tracer.wrapping(...)`` block and always puts the originals back.

A span's self time is its duration minus the part of that interval covered
by its direct children.  Spans live in memory until the benchmark writes
them out at the end of a run.
"""

from __future__ import annotations

import inspect
import statistics
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None for an operation root
    op: int
    counts: dict = field(default_factory=dict)

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.counts]


def _knn_counts(a: dict, graph) -> dict:
    # candidate similarities scored: all other nodes (exact) or M per row (sampled)
    n = a["features"].shape[0]
    m = a["cfg"].sample_size
    return {"graph.knn_sims": n * (n - 1) if m is None else n * min(m, n - 1),
            "graph.knn_arcs": graph.nnz}


def _agg_counts(a: dict, _result) -> dict:
    # one weighted term per (arc, class) in both neighborhoods
    return {"propagate.agg_terms":
            (a["knn"].nnz + a["adj"].nnz) * a["values"].shape[1]}


def _image_counts(a: dict, _result) -> dict:
    return {"propagate.image_sims":
            a["feats_eval"].shape[0] * a["feats_calib"].shape[0]}


# counts computed from argument and result sizes, not from inside the program
COUNTERS = {
    "graph.build_knn_graph": _knn_counts,
    "propagate.neighbor_means": _agg_counts,
    "propagate.image_snaps": _image_counts,
}


def span_name(fn) -> str:
    """``<module>.<function>`` with the package prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def resolved_functions(module) -> dict:
    """Public functions ``module`` imported from sibling graphcp modules."""
    package = module.__name__.rsplit(".", 1)[0]
    return {
        name: obj for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType) and not name.startswith("_")
        and obj.__module__.startswith(package + ".")
        and obj.__module__ != module.__name__
    }


class Tracer:
    """Records nested spans, one operation at a time, in one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    def begin_op(self) -> None:
        self.op += 1

    def call(self, name: str, fn, /, *args, **kwargs):
        idx = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            span.counts = counter(bound.arguments, result)
        return result

    def _wrapper(self, fn):
        name = span_name(fn)

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def wrapping(self, module):
        """Route ``module``'s resolved public functions through spans."""
        originals = resolved_functions(module)
        try:
            for name, fn in originals.items():
                setattr(module, name, self._wrapper(fn))
            yield
        finally:
            for name, fn in originals.items():
                setattr(module, name, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, lo_run, hi_run = 0.0, None, None
        clipped = sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                         for c in children.get(i, ()))
        for lo, hi in clipped:
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append((s.end - s.start) - covered)
    return out


def op_layer_metrics(spans: list[Span], selfs: list[float], op: int) -> dict:
    """Per-function calls and self seconds plus summed counts for one op.

    ``harness.self_s`` is the self time of the harness entry point (tuning,
    split sampling and glue); ``harness.tune_evals`` counts the
    ``conformal_rank`` calls made directly from the harness, one per tuning
    grid point.
    """
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        if s.op != op:
            continue
        layer = s.name.split(".", 1)[0]
        key = "harness" if layer == "harness" else s.name
        out[f"{key}.self_s"] = out.get(f"{key}.self_s", 0.0) + selfs[i]
        out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + 1
        for c, v in s.counts.items():
            out[c] = out.get(c, 0) + v
        if (s.name == "conformal.conformal_rank" and s.parent is not None
                and spans[s.parent].name.startswith("harness.")):
            out["harness.tune_evals"] = out.get("harness.tune_evals", 0) + 1
    return out


def combine_ops(per_op: list[dict], names: list[str]) -> tuple[dict, list[str]]:
    """Median of each time over traced ops; counts must repeat exactly.

    Returns (values by name, list of count mismatches).  A name no op
    produced reads 0: that function was never called.
    """
    values, mismatches = {}, []
    for name in names:
        series = [m.get(name, 0) for m in per_op]
        if name.endswith("_s"):
            values[name] = statistics.median(series)
        else:
            if len(set(series)) != 1:
                mismatches.append(f"{name} differs across traced ops: {series}")
            values[name] = series[0]
    return values, mismatches
