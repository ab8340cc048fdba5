"""Span tracing of randschrod's layers, installed from outside the package.

The package is not instrumented.  ``install`` replaces each layer's public
entry points, wherever the package refers to them, with wrappers that
record a span (name, start, end, parent, pid, amount) while a ``Tracer`` is
enabled.  Spans stay in memory; ``layer_metrics`` folds one round's spans
into the per-layer metrics and ``Tracer.dump`` writes them out at the end.

Forked pool workers inherit the wrappers.  ``multiprocessing.pool.Pool.map``
is wrapped as well: each work item runs inside a ``_Collect`` that records
the item's spans in the worker and returns them with the result, and the
parent adopts them as children of the enclosing ``runner.map`` span.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.pool
import os
import sys
import time
from dataclasses import dataclass

ROOT = "cli.main"

# per-layer metric -> (unit, how its spans are folded, span names).  "self"
# sums self times, "inclusive" sums the durations of outermost spans,
# "calls" counts spans and "amount" sums the counts wrappers attach to them.
# runner.payload_bytes and hscalc.solves_per_s are filled in by layer_metrics.
PER_LAYER = {
    "config.load_validate_s": ("s", "self", ("config.load", "config.validate", "config.resolve")),
    "config.build_model_s": ("s", "self", ("config.build_model",)),
    "disorder.sample_s": ("s", "self", ("disorder.sample",)),
    "disorder.sites_drawn": ("count", "amount", ("disorder.sample",)),
    "hamiltonian.assemble_h0_s": ("s", "self", ("hamiltonian.assemble_h0",)),
    "hamiltonian.assemble_h0_calls": ("count", "calls", ("hamiltonian.assemble_h0",)),
    "hamiltonian.assemble_anderson_s": ("s", "self", ("hamiltonian.assemble_anderson",)),
    "hamiltonian.assemble_anderson_calls": ("count", "calls", ("hamiltonian.assemble_anderson",)),
    "hamiltonian.assemble_periodic_s": ("s", "self", ("hamiltonian.assemble_periodic",)),
    "hamiltonian.assemble_periodic_calls": ("count", "calls", ("hamiltonian.assemble_periodic",)),
    "hamiltonian.eigen_s": ("s", "self", ("hamiltonian.eigen",)),
    "hamiltonian.eigen_calls": ("count", "calls", ("hamiltonian.eigen",)),
    "hamiltonian.eigen_points": ("count", "amount", ("hamiltonian.eigen",)),
    "model.anderson_box_s": ("s", "inclusive", ("model.anderson_box",)),
    "model.periodic_box_at_s": ("s", "inclusive", ("model.periodic_box_at",)),
    "ids.dirichlet_box_s": ("s", "self", ("ids.dirichlet_box",)),
    "ids.difference_experiment_s": ("s", "self", ("ids.difference_experiment",)),
    "probes.theta_average_check_s": ("s", "self", ("probes.theta_average_check",)),
    "probes.fixed_theta_check_s": ("s", "self", ("probes.fixed_theta_check",)),
    "hscalc.matrix_function_hs_s": ("s", "self", ("hscalc.matrix_function_hs",)),
    "hscalc.matrix_function_eigh_s": ("s", "self", ("hscalc.matrix_function_eigh",)),
    "hscalc.resolvent_solves": ("count", "amount", ("hscalc.matrix_function_hs",)),
    "hscalc.solves_per_s": ("1/s", "", ()),
    "runner.map_s": ("s", "self", ("runner.map", "runner.pool_start")),
    "runner.map_items": ("count", "amount", ("runner.map",)),
    "runner.pool_starts": ("count", "calls", ("runner.pool_start",)),
    "runner.write_s": ("s", "self", ("runner.write",)),
    "runner.payload_bytes": ("bytes", "", ()),
    "trace.wall_s": ("s", "inclusive", (ROOT,)),
    "trace.unaccounted_s": ("s", "self", (ROOT,)),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    pid: int = 0
    amount: float = 0.0


class Tracer:
    """In-memory span store; wrappers record only while ``enabled``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.enabled = False

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, pid=os.getpid()))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self.stack.pop()
        return span

    def adopt(self, spans: list[Span]) -> None:
        """Append spans recorded in a worker under the currently open span."""
        base = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        for s in spans:
            s.parent = parent if s.parent < 0 else base + s.parent
            self.spans.append(s)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def dump(self, path: str, rounds: list[list[Span]]) -> None:
        body = [[[s.name, s.start, s.end, s.parent, s.pid, s.amount] for s in r]
                for r in rounds]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pid", "amount"],
                       "rounds": body}, fh)


# the tracer forked pool workers record into; set once by ``install``
_ACTIVE: Tracer | None = None


class _Collect:
    """Picklable work-item wrapper: runs one item in a worker and returns
    its result together with the spans it recorded there."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, item):
        tracer = _ACTIVE
        outer_spans, outer_stack = tracer.spans, tracer.stack
        tracer.spans, tracer.stack = [], []
        index = tracer.open("runner.worker_item")
        try:
            result = self.fn(item)
        finally:
            tracer.close(index)
            spans = tracer.spans
            tracer.spans, tracer.stack = outer_spans, outer_stack
        return result, spans


def _traced(tracer: Tracer, fn, name: str, amount=None):
    """Wrap ``fn`` in a span; ``amount(args, kwargs, result)``, called after
    the span closes, gives the count attached to it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = tracer.close(index)
        if amount is not None:
            span.amount = amount(args, kwargs, result)
        return result

    return wrapper


def _replace_everywhere(original, wrapped) -> None:
    """Point every randschrod module attribute bound to ``original`` at ``wrapped``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "randschrod" or name.startswith("randschrod.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _live_nodes_counter():
    """Count of live quadrature nodes, i.e. resolvent solves, of one
    ``matrix_function_hs(a, f, n, quad, cutoff)`` call.  It is computed from
    the quadrature rule's public parts the way ``matrix_function_hs`` builds
    its nodes, and cached per rule."""
    import numpy as np
    from randschrod.hscalc import QuadratureSpec, extend, hypot1

    cache: dict = {}

    def count(args, kwargs, result) -> int:
        bound = dict(zip(("a", "f", "n", "quad", "cutoff"), args), **kwargs)
        f, n, cutoff = bound["f"], bound.get("n", 4), bound.get("cutoff")
        quad = bound.get("quad") or QuadratureSpec.for_function(f)
        key = (quad, n, f.label, tuple(f.breakpoints), cutoff is None)
        if key not in cache:
            xs, wx = quad.x_nodes()
            if quad.scheme == "gauss":
                parts = [(np.full(ys.shape, x), ys, wxi * wys)
                         for x, wxi in zip(xs, wx)
                         for ys, wys in [quad.snapped_y_nodes(hypot1(x))]]
                zx, zy, w = (np.concatenate(p) for p in zip(*parts))
            else:
                ys, wy = quad.positive_y_nodes()
                zx, zy = np.repeat(xs, ys.size), np.tile(ys, xs.size)
                w = (wx[:, None] * wy[None, :]).ravel()
            coeff = w * extend(f, n, cutoff).dbar(zx, zy)
            cache[key] = int(np.count_nonzero(np.abs(coeff) > 0.0))
        return cache[key]

    return count


def install(tracer: Tracer) -> None:
    """Wrap the layers' entry points so that they record into ``tracer``."""
    global _ACTIVE
    import randschrod.cli  # noqa: F401  -- loads every module that is patched
    from randschrod import config, disorder, hamiltonian, hscalc, ids, model, probes, runner

    functions = [
        (config.load_config, "config.load", None),
        (config.validate_config, "config.validate", None),
        (config.resolve_config, "config.resolve", None),
        (config.build_model, "config.build_model", None),
        (disorder.sample_disorder, "disorder.sample", lambda a, k, r: len(r)),
        (hamiltonian.assemble_h0, "hamiltonian.assemble_h0", None),
        (hamiltonian.assemble_anderson, "hamiltonian.assemble_anderson", None),
        (hamiltonian.assemble_periodic_approx, "hamiltonian.assemble_periodic", None),
        (ids.ids_dirichlet_box, "ids.dirichlet_box", None),
        (ids.ids_difference_experiment, "ids.difference_experiment", None),
        (probes.theta_average_check, "probes.theta_average_check", None),
        (probes.fixed_theta_check, "probes.fixed_theta_check", None),
        (hscalc.matrix_function_hs, "hscalc.matrix_function_hs", _live_nodes_counter()),
        (hscalc.matrix_function_eigh, "hscalc.matrix_function_eigh", None),
        (ids.write_ids_csv, "runner.write", None),
        (ids.write_decay_csv, "runner.write", None),
        (runner._make_run_dir, "runner.write", None),
        (randschrod.cli.main, ROOT, None),
    ]
    for fn, name, amount in functions:
        _replace_everywhere(fn, _traced(tracer, fn, name, amount))

    methods = [
        (hamiltonian.AssembledHamiltonian, "eigenvalues", "hamiltonian.eigen",
         lambda a, k, r: a[0].n),
        (model.AndersonModel, "anderson_box", "model.anderson_box", None),
        (model.AndersonModel, "periodic_box_at", "model.periodic_box_at", None),
        (runner.OutputSink, "write_json", "runner.write", None),
        (runner.OutputSink, "register", "runner.write", None),
        (multiprocessing.pool.Pool, "__init__", "runner.pool_start", None),
    ]
    for cls, attr, name, amount in methods:
        setattr(cls, attr, _traced(tracer, getattr(cls, attr), name, amount))

    original_parallel_map = runner.parallel_map

    def parallel_map(threads):
        mapper = original_parallel_map(threads)

        def traced_mapper(fn, items):
            items = list(items)
            if not tracer.enabled:
                return mapper(fn, items)
            index = tracer.open("runner.map")
            try:
                return mapper(fn, items)
            finally:
                tracer.close(index).amount = len(items)

        return traced_mapper

    _replace_everywhere(original_parallel_map, parallel_map)

    original_pool_map = multiprocessing.pool.Pool.map

    def pool_map(self, func, iterable, chunksize=None):
        if not tracer.enabled:
            return original_pool_map(self, func, iterable, chunksize)
        pairs = original_pool_map(self, _Collect(func), iterable, chunksize)
        for _, spans in pairs:
            tracer.adopt(spans)
        return [result for result, _ in pairs]

    multiprocessing.pool.Pool.map = pool_map
    _ACTIVE = tracer


def _self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, [])):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(spans: list[Span], payload_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one round (one ``cli.main`` call)."""
    self_t = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def outermost(i: int) -> bool:
        # a span is counted inclusively only when no ancestor has its name
        p = spans[i].parent
        while p >= 0:
            if spans[p].name == spans[i].name:
                return False
            p = spans[p].parent
        return True

    out: dict[str, float] = {}
    for metric, (_, how, names) in PER_LAYER.items():
        idx = [i for name in names for i in by_name.get(name, [])]
        if how == "self":
            out[metric] = sum(self_t[i] for i in idx)
        elif how == "inclusive":
            out[metric] = sum(spans[i].end - spans[i].start for i in idx if outermost(i))
        elif how == "calls":
            out[metric] = float(len(idx))
        elif how == "amount":
            out[metric] = float(sum(spans[i].amount for i in idx))
    out["runner.payload_bytes"] = float(payload_bytes)
    hs_time = out["hscalc.matrix_function_hs_s"]
    out["hscalc.solves_per_s"] = out["hscalc.resolvent_solves"] / hs_time if hs_time > 0 else 0.0
    return out
