"""Spans around the calls into each paraopt layer, and the per-layer numbers.

The traced run replaces module attributes with timing wrappers: the
functions ``solver`` looks up at call time, ``CoarseLinearization.blocks``
and ``linear_analysis.spectral_summary``.  The model layer is timed by
wrapping the batch callables of the problem the benchmark builds.  Spans
stay in memory until the run ends.  A span's phase (``reference``, ``solve``
or ``analysis``) is that of the benchmark span it runs under.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager

from paraopt import linear_analysis, propagators, solver

PHASES = ("solve", "reference")


def _wrapped_targets():
    """(owner, attribute, span name, attributes read from the result)."""
    return [
        (solver, "paraopt_solve", "paraopt_solve",
         lambda out: {"iterations": out.iterations}),
        (solver, "residual", "residual", None),
        (solver, "fine_propagate", "fine",
         lambda out: {"newton": out[2].newton_iterations}),
        (solver, "coarse_linearize", "coarse",
         lambda out: {"newton": out.trajectory.newton_iterations}),
        (solver, "solve_jacobian_system", "solve_jacobian_system",
         lambda out: {"krylov": out[1].iterations}),
        (propagators.CoarseLinearization, "blocks", "blocks", None),
        (linear_analysis, "spectral_summary", "spectral_summary", None),
    ]


_MODEL_CALLS = ("rhs_many", "jacobian_many", "hess_coupling_many")


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: int | None
    instance: int
    phase: str
    start: float = 0.0
    end: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; ``installed()`` patches the layers for one traced call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.instance = -1
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, phase: str | None = None, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sp = Span(next(self._ids), name, parent.id if parent else None,
                  parent.instance if parent else self.instance,
                  phase or (parent.phase if parent else ""), attrs=attrs)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)

    def _wrap(self, name, fn, describe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if describe is not None:
                    sp.attrs.update(describe(out))
                return out
        return traced

    def _wrap_parallel_map(self, original):
        @functools.wraps(original)
        def parallel_map(fn, items, workers):
            with self.span("parallel_map", workers=workers) as sp:
                def task(item):
                    # pool threads start with an empty stack: parent the
                    # task on the map span that submitted it
                    saved = self._stack()
                    self._local.stack = [sp]
                    try:
                        with self.span("task"):
                            return fn(item)
                    finally:
                        self._local.stack = saved
                return original(task, items, workers)
        return parallel_map

    @contextmanager
    def installed(self):
        """Patch every traced attribute; fail loudly when one is missing."""
        patches = [(solver, "parallel_map", self._wrap_parallel_map)]
        for owner, attr, name, describe in _wrapped_targets():
            patches.append((owner, attr, functools.partial(
                self._wrap, name, describe=describe)))
        originals = []
        try:
            for owner, attr, make in patches:
                if attr not in vars(owner):
                    raise RuntimeError(
                        f"traced attribute {owner.__name__}.{attr} is missing")
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def wrap_model(self, problem):
        """A copy of ``problem`` whose batch callables record model spans."""
        def counted(name, fn):
            @functools.wraps(fn)
            def model_call(Y, *rest):
                with self.span("model." + name, rows=len(Y)):
                    return fn(Y, *rest)
            return model_call
        return dataclasses.replace(problem, **{
            name: counted(name, getattr(problem, name))
            for name in _MODEL_CALLS if getattr(problem, name) is not None})

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sp in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(dict(
                    id=sp.id, name=sp.name, parent=sp.parent,
                    instance=sp.instance, phase=sp.phase, start=sp.start,
                    end=sp.end, **sp.attrs)) + "\n")


# ---------------------------------------------------------------------------
# per-layer numbers from the spans
# ---------------------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.children: dict[int, list[Span]] = {}
        for sp in spans:
            self.children.setdefault(sp.parent, []).append(sp)

    def self_time(self, sp: Span) -> float:
        inside = [(max(c.start, sp.start), min(c.end, sp.end))
                  for c in self.children.get(sp.id, [])]
        return sp.duration - _covered([iv for iv in inside if iv[1] > iv[0]])

    def descendants(self, sp: Span, name: str) -> list:
        out, todo = [], list(self.children.get(sp.id, []))
        while todo:
            c = todo.pop()
            if c.name == name:
                out.append(c)
            else:
                todo.extend(self.children.get(c.id, []))
        return out

    def top(self, phase: str) -> list:
        """The benchmark's own spans of one phase, one per timed call."""
        return [s for s in self.children.get(None, []) if s.phase == phase]

    def named(self, name: str, phase: str) -> list:
        return [s for s in self.spans if s.name == name and s.phase == phase]


def _phase_metrics(ix: SpanIndex, ph: str) -> dict:
    calls = len(ix.top(ph))
    per = 1.0 / calls if calls else 0.0
    fine, coarse = ix.named("fine", ph), ix.named("coarse", ph)
    blocks = ix.named("blocks", ph)
    model = [s for s in ix.spans if s.phase == ph and s.name.startswith("model.")]
    residuals = ix.named("residual", ph)
    inner = ix.named("solve_jacobian_system", ph)
    outers = ix.named("paraopt_solve", ph)
    maps = ix.named("parallel_map", ph)
    outer_ids = {o.id for o in outers}
    fanouts = [m for m in maps if m.parent in outer_ids]
    spread = []
    for r in residuals:
        d = [f.duration for f in ix.descendants(r, "fine")]
        if d:
            spread.append(max(d) / statistics.fmean(d))
    task_busy = sum(t.duration for m in maps for t in ix.descendants(m, "task"))
    capacity = sum(m.attrs["workers"] * m.duration for m in maps)
    m = {
        "propagators.fine.calls": len(fine) * per,
        "propagators.fine.busy_s": sum(s.duration for s in fine) * per,
        "propagators.fine.newton_iters":
            sum(s.attrs.get("newton", 0) for s in fine) * per,
        "propagators.fine.max_over_mean": _median(spread),
        "propagators.coarse.calls": len(coarse) * per,
        "propagators.coarse.busy_s": sum(s.duration for s in coarse) * per,
        "propagators.coarse.newton_iters":
            sum(s.attrs.get("newton", 0) for s in coarse) * per,
        "propagators.blocks.calls": len(blocks) * per,
        "propagators.blocks.busy_s": sum(s.duration for s in blocks) * per,
        "model.rows": sum(s.attrs.get("rows", 0) for s in model) * per,
        "model.busy_s": sum(s.duration for s in model) * per,
        "solver.residual_s": sum(s.duration for s in residuals) * per,
        "solver.coarse_fanout_s": sum(s.duration for s in fanouts) * per,
        "solver.inner_s": sum(ix.self_time(s) for s in inner) * per,
        "solver.inner_krylov_iters":
            sum(s.attrs.get("krylov", 0) for s in inner) * per,
        "solver.update_s": sum(ix.self_time(s) for s in outers) * per,
        "parallel.map_s": sum(s.duration for s in maps) * per,
        "parallel.efficiency": task_busy / capacity if capacity else 0.0,
    }
    return {f"{ph}.{k}": v for k, v in m.items()}


def _blocking_s(ix: SpanIndex, solve: Span) -> float:
    """Sum over the iterations of one solve of its blocking parallel steps.

    Per outer iteration: the slowest fine window, the slowest coarse window
    and the whole inner solve (blocks fan-out included).
    """
    total = 0.0
    for r in ix.descendants(solve, "residual"):
        total += max((f.duration for f in ix.descendants(r, "fine")),
                     default=0.0)
    for outer in ix.descendants(solve, "paraopt_solve"):
        for m in ix.children.get(outer.id, []):
            if m.name == "parallel_map":
                total += max((c.duration for c in ix.descendants(m, "coarse")),
                             default=0.0)
    total += sum(s.duration
                 for s in ix.descendants(solve, "solve_jacobian_system"))
    return total


def layer_metrics(spans) -> dict:
    """Per-layer numbers; ``<phase>.*`` counts and times are per call of
    that phase (per reference solve, per solve)."""
    ix = SpanIndex(spans)
    out = {}
    for ph in PHASES:
        out.update(_phase_metrics(ix, ph))
    out["reference.solver.wall_s"] = _median(
        [s.duration for s in ix.top("reference")])
    ref_outer = ix.named("paraopt_solve", "reference")
    out["reference.solver.outer_iterations"] = (
        statistics.fmean(s.attrs.get("iterations", 0) for s in ref_outer)
        if ref_outer else 0.0)
    analysis = ix.named("spectral_summary", "analysis")
    runs = len(ix.top("analysis"))
    out["analysis.linear_analysis.calls"] = len(analysis) / runs if runs else 0.0
    out["analysis.linear_analysis.busy_s"] = (
        sum(s.duration for s in analysis) / runs if runs else 0.0)
    # modelled speedup: reference wall / blocking time of each solve against
    # it, on the same instance
    ref_wall = {s.instance: s.duration for s in ix.top("reference")}
    speedups = []
    for sol in ix.top("solve"):
        blocking = _blocking_s(ix, sol)
        if sol.instance in ref_wall and blocking > 0:
            speedups.append(ref_wall[sol.instance] / blocking)
    out["solver.modelled_speedup"] = _median(speedups)
    return out
