"""Spans around pexsurv's layer boundaries, recorded from the benchmark's side.

:func:`patched` replaces functions where the program looks them up (class
attributes of ``PiecewiseExponential`` and ``TimeGrid``, and module globals
of ``pexsurv.distribution``, ``pexsurv.mcmc`` and ``pexsurv.diagnostics``)
with wrappers that record one span per call, and puts every original back
when the block ends, also on error.  Spans (name, start, end, parent) stay
in memory until :meth:`Tracer.write`.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from pexsurv import diagnostics, distribution, mcmc

# (owner, attribute, span name) for every wrapped function but the slice update.
TRACE_POINTS = (
    (distribution.PiecewiseExponential, "__init__", "distribution.pe_init"),
    (distribution.PiecewiseExponential, "cum_hazard", "distribution.cum_hazard"),
    (distribution.TimeGrid, "exposures", "distribution.exposures"),
    (distribution, "validate_params", "distribution.validate_params"),
    (mcmc, "sufficient_stats", "models.sufficient_stats"),
    (mcmc, "initial_state", "models.initial_state"),
    (mcmc, "run_chain", "mcmc.run_chain"),
    (diagnostics, "effective_sample_size", "diagnostics.ess"),
    (diagnostics, "hpd_interval", "diagnostics.hpd"),
)
SLICE_POINT = (mcmc, "update_scalar_slice")
SLICE_BLOCKS = ("rates", "eta", "beta", "other")


def slice_block(log_density) -> str:
    """Sweep block of a slice target, from its ``__qualname__``."""
    qualname = getattr(log_density, "__qualname__", "")
    for block in ("rates", "eta", "beta"):
        if f"update_{block}.<locals>" in qualname:
            return block
    return "other"


class Tracer:
    """In-memory span recorder.

    Spans are kept in flat arrays, not as Python objects, so that a few
    hundred thousand of them add nothing to the garbage collector's work;
    per-name totals are summed once, by :meth:`totals`.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")  # index of the parent span, -1 at the top
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")  # duration less the time of child spans
        self.evals: defaultdict = defaultdict(int)  # slice block -> target evaluations
        self._stack: list = []  # [span index, time covered by children]
        self._slice_names: dict = {}  # target code object -> (block, name id)

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self._span(self.name_id(name), fn, args, kwargs)

    def _span(self, name_id, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        index = len(self.span_start)
        frame = [index, 0.0]
        stack.append(frame)
        self.span_name.append(name_id)
        self.span_parent.append(parent[0] if parent else -1)
        self.span_end.append(0.0)
        self.span_self.append(0.0)
        start = perf_counter()
        self.span_start.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.span_end[index] = end
            self.span_self[index] = duration - frame[1]
            if parent is not None:
                parent[1] += duration

    @property
    def n_spans(self) -> int:
        return len(self.span_start)

    def totals(self):
        """Calls, total seconds and self seconds per span name (0 when absent)."""
        ids = np.asarray(self.span_name, dtype=np.intp)
        k = len(self.names)
        duration = np.asarray(self.span_end) - np.asarray(self.span_start)
        sums = (
            np.bincount(ids, minlength=k),
            np.bincount(ids, weights=duration, minlength=k),
            np.bincount(ids, weights=np.asarray(self.span_self), minlength=k),
        )
        calls, total_s, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for i, name in enumerate(self.names):
            calls[name], total_s[name], self_s[name] = (
                int(sums[0][i]),
                float(sums[1][i]),
                float(sums[2][i]),
            )
        return calls, total_s, self_s

    def wrap(self, name, fn):
        name_id = self.name_id(name)

        def traced(*args, **kwargs):
            return self._span(name_id, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def wrap_slice(self, fn):
        """Span per slice update, named by block; counts target evaluations."""
        evals, names = self.evals, self._slice_names

        def traced(log_density, *args, **kwargs):
            key = log_density.__code__
            if key not in names:
                block = slice_block(log_density)
                names[key] = (block, self.name_id(f"mcmc.slice.{block}"))
            block, name_id = names[key]
            count = [0]

            def counted(x):
                count[0] += 1
                return log_density(x)

            try:
                return self._span(name_id, fn, (counted, *args), kwargs)
            finally:
                evals[block] += count[0]

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """One span per line: name, start, end, parent index (-1 at the top)."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(self.n_spans):
                fh.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]!r}\t"
                    f"{self.span_end[i]!r}\t{self.span_parent[i]}\n"
                )


def _originals():
    points = [(owner, attr) for owner, attr, _ in TRACE_POINTS] + [SLICE_POINT]
    return [(owner, attr, vars(owner)[attr]) for owner, attr in points]


@contextmanager
def patched(tracer: Tracer):
    """Route every trace point through ``tracer`` for the duration of the block."""
    originals = _originals()
    try:
        for (owner, attr, name), (_, _, fn) in zip(TRACE_POINTS, originals):
            setattr(owner, attr, tracer.wrap(name, fn))
        owner, attr = SLICE_POINT
        setattr(owner, attr, tracer.wrap_slice(originals[-1][2]))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
