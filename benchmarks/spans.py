"""Span tracing from outside the package.

Each traced callable is replaced, for the duration of a traced pass, by a
wrapper installed where its caller looks the name up (``cli.build_system``,
``analysis.spectral_quantities``, ``Matrix.matvec``, ...). A wrapper records
one span per call: name, start, end, parent and optional attributes taken
from the call's result. Spans stay in memory and are written out when the
benchmark ends. Untraced passes run with every original restored, so they
pay nothing for the tracer.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import defaultdict

from momsolve import analysis, cli, linalg, problems, sampling, solvers

NAME, START, END, PARENT, ATTRS = range(5)


def _scheme_name(scheme) -> str:
    return "identity" if scheme is None else scheme.describe().replace(":", "")


def _solver_attrs(args, kwargs, result):
    scheme = args[1] if len(args) == 3 else None
    _, trace = result
    return {
        "scheme": _scheme_name(scheme),
        "iterations": trace.iterations,
        "draws": trace.sample_draws,
        "fallbacks": trace.fallback_steps,
    }


def _trace_file_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _patch_table():
    """(owner, attribute, span name, attribute extractor) for every wrapped
    callable. The owner is the namespace its caller reads the name from."""
    table = [
        (cli, "main", "cli.main", None),
        (cli, "build_system", "cli.build_system", None),
        (cli, "run_trials", "cli.run_trials", None),
        (cli, "write_trace", "cli.write_trace", _trace_file_attrs),
        (cli, "summarize", "cli.summarize", None),
        (cli, "generate_gaussian_problem", "problems.generate", None),
        (problems, "generate_gaussian_problem", "problems.generate", None),
        (cli, "load_matrix_market", "problems.load_matrix_market", None),
        (cli, "attach_min_norm", "problems.attach_min_norm", None),
        (problems, "min_norm_solution", "linalg.min_norm_solution", None),
        (analysis, "theoretical_bound", "analysis.theoretical_bound", None),
        (analysis, "spectral_quantities", "linalg.spectral_quantities", None),
        (analysis, "lambda_max_sup", "sampling.lambda_max_sup", None),
        (sampling.SchemeSpec, "materialize", "sampling.materialize", None),
        (linalg.Matrix, "matvec", "linalg.matvec", None),
        (linalg.Matrix, "rmatvec", "linalg.rmatvec", None),
        (cli, "solve_cgne", "solvers.cgne", _solver_attrs),
    ]
    for solver_id in solvers.SOLVER_IDS:
        table.append((solvers.SOLVER_IDS, solver_id, f"solvers.{solver_id}", _solver_attrs))
    return table


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Collects spans as lists ``[name, start_ns, end_ns, parent, attrs]``;
    ``parent`` is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0, 0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter_ns()
        return span

    def _close(self, span):
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, fn, attrs=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, attrs in _patch_table():
                original = _get(owner, attr)
                saved.append((owner, attr, original))
                _set(owner, attr, self.wrap(name, original, attrs))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                _set(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps([name, start, end, parent, attrs]) + "\n")


def layer_metrics(spans, counts: dict) -> dict:
    """Per-layer figures for one set-up plus one pass.

    ``counts`` maps each root span name (``bench.setup``, ``bench.pass``)
    to the number of such roots; every figure is the total over a root
    kind's spans divided by its count, summed over the kinds. ``<name>_s``
    is inclusive time per span name, ``<layer>.self_s`` is the time spans of
    a layer (the name's first component) did not spend in child spans.
    """
    roots, covered = [], [0] * len(spans)
    for i, span in enumerate(spans):
        parent = span[PARENT]
        roots.append(i if parent < 0 else roots[parent])
        if parent >= 0:
            covered[parent] += span[END] - span[START]
    out: dict = defaultdict(float)
    cells: dict = {}
    for span, root, child in zip(spans, roots, covered):
        name, nanos, attrs = span[NAME], span[END] - span[START], span[ATTRS]
        per = 1.0 / counts[spans[root][NAME]]
        out[f"{name}_s"] += nanos * 1e-9 * per
        out[f"{name}_calls"] += per
        out[f"{name.split('.', 1)[0]}.self_s"] += (nanos - child) * 1e-9 * per
        out["tracing.spans"] += per
        if attrs is None:
            continue
        if "bytes" in attrs:
            out["cli.trace_bytes"] += attrs["bytes"] * per
            continue
        cell = cells.setdefault(f"{name}.{attrs['scheme']}", [0.0, 0.0, 0.0, 0.0])
        cell[0] += nanos * per
        cell[1] += attrs["iterations"] * per
        cell[2] += attrs["draws"] * per
        cell[3] += attrs["fallbacks"] * per
    for key, (nanos, iters, draws, fallbacks) in cells.items():
        out[f"{key}.us_per_iter"] = nanos * 1e-3 / iters if iters else 0.0
        out[f"{key}.iterations"] = iters
        out[f"{key}.draws_per_iter"] = draws / iters if iters else 0.0
        out[f"{key}.fallback_steps"] = fallbacks
    return dict(out)
