"""Spans and counters recorded from outside pslab.

`Tracer.install` replaces public pslab functions by wrappers at the module
attribute their caller looks up (for example `pslab.experiments.build`, which
`run_clt` calls), so the program itself is unchanged. Each call becomes a span
(name, start, end, parent) kept in memory; `Tracer.write` saves them when the
run ends. A span's self time is its duration minus that of its child spans.
Counters are taken from the arguments and results of the wrapped calls.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

import numpy as np


def _count_points(counts, args, out):
    counts["points"] += out.n


def _count_cells(counts, args, out):
    per_dim = np.bincount(out.dims, minlength=3)
    counts["cells"] += out.n_cells
    counts["cells_q1"] += int(per_dim[1])
    counts["cells_q2"] += int(per_dim[2])


def _count_columns(counts, args, out):
    # without clearing every positive column of dimension >= 1 is reduced to
    # zero; the negative ones are exactly the finite deaths of the diagram
    columns = int(np.count_nonzero(args[0].dims >= 1))
    counts["columns"] += columns
    counts["zero_columns"] += columns - int(np.count_nonzero(np.isfinite(out.deaths)))


def _count_weak(counts, args, out):
    est, trace = out if isinstance(out, tuple) else (out, None)
    counts["censored"] += int(est.censored)
    if trace is not None:
        counts["probes"] += len(trace.radii)


def _count_strong(counts, args, out):
    counts["censored"] += int(out.censored)


# (module, attribute, span name, counter) for every call a workload makes
# into a layer; the span name's prefix is the layer, that is the module
HOOKS = (
    ("pslab.cli", "run_clt", "experiments.run_clt", None),
    ("pslab.cli", "radius_tail_experiment", "experiments.radius_tail_experiment", None),
    ("pslab.experiments", "normality_score", "experiments.scores", None),
    ("pslab.experiments", "sample_binomial", "point_process.sample", _count_points),
    ("pslab.experiments", "sample_poisson_homogeneous", "point_process.sample", _count_points),
    ("pslab.experiments", "build", "filtration.build", _count_cells),
    ("pslab.stabilization", "build", "filtration.build", _count_cells),
    ("pslab.experiments", "reduce", "persistence.reduce", _count_columns),
    ("pslab.persistence", "boundary_masks", "persistence.masks", None),
    ("pslab.stabilization", "boundary_masks", "persistence.masks", None),
    ("pslab.persistence", "persistent_betti", "persistence.query", None),
    ("pslab.experiments", "weak_radius", "stabilization.weak", _count_weak),
    ("pslab.experiments", "strong_radius_estimate", "stabilization.strong", _count_strong),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span of the given name."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def install(self):
        for module_name, attr, name, counter in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)

            def wrapper(*args, _fn=original, _name=name, _counter=counter, **kwargs):
                out = self.call(_name, _fn, *args, **kwargs)
                if _counter is not None:
                    _counter(self.counts, args, out)
                return out

            setattr(module, attr, wrapper)
            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def times(self) -> tuple[Counter, Counter]:
        """Total and self time per span name."""
        total: Counter = Counter()
        own: Counter = Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return total, own

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "counts": dict(self.counts)}, fh)
