"""In-memory span tracer that wraps ringdecay's public functions.

The tracer replaces a function at the module attribute its callers look
up (``ringdecay.spectrum.coeff_table``, not ``ringdecay.specfun``), so a
span covers exactly the calls one layer makes into the next.  Spans are
kept in a list while the traced batch runs and written out only at the
end.  Nothing under ``src/`` is modified: ``uninstall`` puts every
original function back.

A layer's self time is its span's duration minus the durations of its
direct children.  The program is single-threaded, so children nest
inside their parent and never overlap.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# (module, attribute the callers look up, layer name).  Every name a
# ringdecay module imports from another layer is listed, so a call that
# crosses a layer boundary always opens a span.
WRAP_POINTS = (
    ("ringdecay.cli", "main", "cli"),
    ("ringdecay.cli", "analytic_spectrum", "spectrum.analytic"),
    ("ringdecay.cli", "oracle_spectrum", "spectrum.oracle"),
    ("ringdecay.cli", "continuous_limit_rate", "spectrum.continuous_limit"),
    ("ringdecay.cli", "coeff_table", "specfun.coeff_table"),
    ("ringdecay.cli", "run_checks", "validation.run_checks"),
    ("ringdecay.spectrum", "coupling_matrix", "ring_model.coupling_matrix"),
    ("ringdecay.spectrum", "coeff_table", "specfun.coeff_table"),
    ("ringdecay.spectrum", "coeff_c", "specfun.coeff_c"),
    ("ringdecay.validation", "analytic_spectrum", "spectrum.analytic"),
    ("ringdecay.validation", "oracle_spectrum", "spectrum.oracle"),
    ("ringdecay.validation", "continuous_limit_rate", "spectrum.continuous_limit"),
    ("ringdecay.validation", "subradiant_edge", "spectrum.subradiant_edge"),
    ("ringdecay.validation", "coeff_table", "specfun.coeff_table"),
    ("ringdecay.validation", "coeff_c", "specfun.coeff_c"),
    ("ringdecay.validation", "coeff_d", "specfun.coeff_d"),
)

# Results the metrics read back after the batch.  Other results are not
# kept: a coupling matrix at N = 4096 alone holds 134 MB.
_KEEP_RESULT = {"spectrum.analytic", "spectrum.oracle", "specfun.coeff_table"}


@dataclass
class Span:
    name: str
    parent: int | None  # index into Tracer.spans
    op: int
    start: float
    end: float = math.nan
    args: tuple = ()
    result: object = None
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    op: int = 0
    _stack: list[int] = field(default_factory=list)
    _originals: list[tuple] = field(default_factory=list)

    def wrap(self, layer: str, fn):
        keep = layer in _KEEP_RESULT

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(layer, parent, self.op, 0.0, args=args)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if keep:
                    span.result = result
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_time += span.duration

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        for mod_name, attr, layer in WRAP_POINTS:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(layer, original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def dump(self, path) -> None:
        rows = [
            {"name": s.name, "parent": s.parent, "op": s.op,
             "start": s.start, "end": s.end, "self_s": s.self_time}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)


def _has_descendant(tracer: Tracer, index: int, name: str, children: dict) -> bool:
    todo = list(children.get(index, ()))
    while todo:
        i = todo.pop()
        if tracer.spans[i].name == name:
            return True
        todo.extend(children.get(i, ()))
    return False


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer totals over every span the tracer holds: name -> (value, unit)."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(tracer.spans):
        calls[s.name] += 1
        self_s[s.name] += s.self_time
        if s.parent is not None:
            children[s.parent].append(i)

    bytes_computed = modes = rows = hits = 0
    max_abs_diff = residual = 0.0
    oracle_by_key = {}
    for i, s in enumerate(tracer.spans):
        if s.name == "ring_model.coupling_matrix":
            n = s.args[0].n_atoms
            bytes_computed += 16 * n * n + 8 * n
        elif s.name == "spectrum.analytic":
            modes += s.args[0].n_atoms
            # a lookup that builds no table was served by the cache
            if not _has_descendant(tracer, i, "specfun.coeff_table", children):
                hits += 1
        elif s.name == "specfun.coeff_table":
            table = s.result
            rows += table.n_max + 1
            if table.n_max >= math.ceil(table.a) + 20:  # sums close only past this
                residual = max(residual, abs(table.c_sum() - 1.0))
        elif s.name == "spectrum.oracle":
            oracle_by_key[(s.op, s.args)] = s.result
    for s in tracer.spans:
        if s.name == "spectrum.analytic":
            orc = oracle_by_key.get((s.op, s.args))
            if orc is not None:
                diff = float(np.max(np.abs(s.result.rates - orc.rates)))
                max_abs_diff = max(max_abs_diff, diff)

    analytic_calls = calls["spectrum.analytic"]
    return {
        "ring_model.coupling_matrix.calls": (calls["ring_model.coupling_matrix"], "count"),
        "ring_model.coupling_matrix.self_s": (self_s["ring_model.coupling_matrix"], "s"),
        "ring_model.coupling_matrix.bytes_computed": (bytes_computed, "bytes"),
        "spectrum.analytic.calls": (analytic_calls, "count"),
        "spectrum.analytic.modes": (modes, "count"),
        "spectrum.analytic.self_s": (self_s["spectrum.analytic"], "s"),
        "spectrum.table_cache.hit_ratio": (hits / analytic_calls if analytic_calls else 0.0,
                                           "ratio"),
        "spectrum.oracle.calls": (calls["spectrum.oracle"], "count"),
        "spectrum.oracle.self_s": (self_s["spectrum.oracle"], "s"),
        "spectrum.oracle.max_abs_diff": (max_abs_diff, "rate"),
        "spectrum.continuous_limit.calls": (calls["spectrum.continuous_limit"], "count"),
        "spectrum.continuous_limit.self_s": (self_s["spectrum.continuous_limit"], "s"),
        "spectrum.subradiant_edge.self_s": (self_s["spectrum.subradiant_edge"], "s"),
        "specfun.coeff_table.calls": (calls["specfun.coeff_table"], "count"),
        "specfun.coeff_table.rows": (rows, "count"),
        "specfun.coeff_table.self_s": (self_s["specfun.coeff_table"], "s"),
        "specfun.coeff_c.calls": (calls["specfun.coeff_c"], "count"),
        "specfun.coeff_c.self_s": (self_s["specfun.coeff_c"], "s"),
        "specfun.coeff_d.calls": (calls["specfun.coeff_d"], "count"),
        "specfun.coeff_d.self_s": (self_s["specfun.coeff_d"], "s"),
        "specfun.c_sum_residual_max": (residual, "1"),
        "validation.run_checks.self_s": (self_s["validation.run_checks"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.rows_written": (tracer.counts["cli.rows_written"], "count"),
        "trace.spans": (len(tracer.spans), "count"),
    }
