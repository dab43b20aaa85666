"""Spans around trirank's layer functions, recorded from outside the package.

Each traced function is rebound as a module (or class) attribute.  The
package calls its layers as ``linalg.batched_rank(...)`` or through module
globals, so every cross-module and same-module call goes through the
wrapper; nothing under ``src/`` changes.  Spans stay in memory until the run
ends.  A layer's self time is its span's duration minus the time covered by
its direct child spans.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict


def _records(result):
    """Exact and sampled CountRecords in a list of records or a DimEstimate."""
    records = getattr(result, "counts", result)
    exact = sum(1 for r in records if r.exact)
    return {"exact_records": exact, "sampled_records": len(records) - exact}


def _pairs(T):
    n1, n2, _ = T.dims
    return T.field.q ** (n1 + n2)


def _traced_functions():
    """(span name, owner, attribute, counter) for every traced function.

    A counter maps (args, kwargs, result) to the exactly repeating counts
    recorded beside the span's timing.
    """
    from trirank import analytic, biascx, cli, decomp, fields, geometric, linalg, slicerank

    return [
        # every Field construction is a cold table build (base or extension)
        ("fields.extension", fields.Field, "__init__", None),
        ("linalg.batched_rank", linalg, "batched_rank",
         lambda a, kw, r: {"matrices": len(r)}),
        ("linalg.rref", linalg, "rref", None),
        ("geometric.rank_strata_counts", geometric, "rank_strata_counts",
         lambda a, kw, r: _records(r)),
        ("geometric.kernel_codim", geometric, "kernel_codim",
         lambda a, kw, r: _records(r)),
        ("analytic.zero_count", analytic, "zero_count",
         lambda a, kw, r: {"fibers": a[0].field.q ** a[0].dims[0]}),
        ("analytic.min_entropy", analytic, "min_entropy",
         lambda a, kw, r: {"pairs": _pairs(a[0])}),
        ("analytic.bias_char_sum", analytic, "bias_char_sum",
         lambda a, kw, r: {"pairs": _pairs(a[0])}),
        ("slicerank.slice_rank_exact", slicerank, "slice_rank_exact", None),
        ("slicerank.subspaces", slicerank, "subspaces", None),
        ("slicerank.vertex_cover_sr", slicerank, "vertex_cover_sr", None),
        ("decomp.slice_decompose", decomp, "slice_decompose",
         lambda a, kw, r: {"retries": r.retries, "flagged": int(r.flagged)}),
        ("decomp.verify_decomposition", decomp, "verify_decomposition", None),
        ("biascx.closeness_report", biascx, "closeness_report", None),
        ("biascx.complexity_bound", biascx, "complexity_bound", None),
        ("cli.run", cli, "run", None),
    ]


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "counts")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.counts = None


class Tracer:
    """Records spans while ``job`` is set; install() / uninstall() rebind."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job = tracer.job
            if job is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = Span(name, time.perf_counter(), stack[-1] if stack else None, job)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        for name, owner, attr, counter in _traced_functions():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds of self time per span name."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[id(s.parent)] += s.end - s.start
        out = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - child_time[id(s)]
        return dict(out)

    def summary(self) -> dict:
        """Per span name: self seconds, calls, and summed counts."""
        names = [t[0] for t in _traced_functions()]
        agg = {n: {"s": 0.0, "calls": 0} for n in names}
        for name, secs in self.self_times().items():
            agg[name]["s"] = secs
        kernel_matrices = 0
        for s in self.spans:
            entry = agg[s.name]
            entry["calls"] += 1
            for key, value in (s.counts or {}).items():
                entry[key] = entry.get(key, 0) + value
            if (
                s.name == "linalg.batched_rank"
                and s.parent is not None
                and s.parent.name == "geometric.kernel_codim"
            ):
                kernel_matrices += s.counts["matrices"]
        agg["geometric.kernel_codim"]["matrices"] = kernel_matrices
        return agg

    def covered_seconds(self) -> float:
        """Summed duration of root spans: the time some layer span accounts for."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def dump(self, path) -> None:
        """Write every span as one JSON line (times relative to the first span)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": s.name,
                    "start": round(s.start - t0, 9),
                    "end": round(s.end - t0, 9),
                    "parent": index.get(id(s.parent)),
                    "job": s.job,
                    "counts": s.counts,
                }
                fh.write(json.dumps(row, sort_keys=True) + "\n")
