"""Outside-in layer trace for the measurefw benchmark.

The tracer wraps calls into the library modules from the benchmark's side:
nothing under `src/` changes.  Each wrapped call records a span (name,
start, end, parent, run id) in memory; `summarize` derives per-layer counts,
busy time and self time after the run, and `write_spans` writes the raw
spans out.

A function is wrapped in every `measurefw` module that binds it, not only
where it is defined: `solver` calls its own imported `project_many`, `l1`
calls its own imported `_pgd_simplex`, and wrapping only the defining
module would record zero calls there.  Methods are wrapped on the class,
which every module shares.  A layer whose function no longer exists is
reported as absent; its metrics are left out instead of reading as zero.
"""

from __future__ import annotations

import csv
import functools
import importlib
import itertools
import sys
import threading
import time

import numpy as np


def _points_entries(args, result):
    kernel, k = args[0], len(result)
    return k, len(kernel.demand) * k, None


def _kernel_entries(args, result):
    kernel = args[0]
    return 0, len(kernel.demand) * len(kernel.atoms), None


def _simplex_entries(args, result):
    return 0, args[0].d.size, None


def _result_entries(args, result):
    return 0, result.size, None


def _adam_lanes(args, result):
    starts, config = args[2], args[3]
    return 0, len(starts) * config.adam_steps, result


def _keep_winner(args, result):
    return 0, 0, result[0]


def _keep_value(args, result):
    return 0, 0, result


# span name -> (defining module, attribute, recorder).  A recorder returns
# (points, work, kept): query points, a computed work count (matrix entries,
# or lane steps for Adam) and a return value kept for ratios derived after
# the run.
LAYERS = {
    "scenario.beta": ("measurefw.scenario", "beta", None),
    "scenario.beta_prime": ("measurefw.scenario", "beta_prime", None),
    "geometry.pairwise_distance": ("measurefw.geometry", "pairwise_distance", _result_entries),
    "geometry.project_many": ("measurefw.geometry", "project_many", None),
    "response.kernel_build": ("measurefw.response", "InfluenceKernel.__init__", _kernel_entries),
    "response.influence": ("measurefw.response", "InfluenceKernel.influence", _points_entries),
    "response.tails": ("measurefw.response", "InfluenceKernel.tails", None),
    "response.influence_gradient": ("measurefw.response", "InfluenceKernel.influence_gradient",
                                    _points_entries),
    "response.ball_masses": ("measurefw.response", "InfluenceKernel.ball_masses", None),
    "solver.subproblem": ("measurefw.solver", "_minimize_influence_kernel", _keep_winner),
    "solver.adam": ("measurefw.solver", "_adam_descend", _adam_lanes),
    "solver.corrective": ("measurefw.solver", "_pgd_simplex", None),
    "solver.simplex_build": ("measurefw.solver", "_SimplexObjective.__init__", _simplex_entries),
    "solver.simplex_value": ("measurefw.solver", "_SimplexObjective.value", _keep_value),
    "solver.simplex_value_and_grad": ("measurefw.solver", "_SimplexObjective.value_and_grad",
                                      None),
    "solver.simplex_project": ("measurefw.solver", "simplex_project", None),
    "solver.certify": ("measurefw.solver", "certify", None),
    "solver.lattice_points": ("measurefw.solver", "lattice_points", None),
    "l1.build_grid": ("measurefw.l1", "build_grid", None),
    "cli.grid_eval": ("measurefw.cli", "_grid_h_values", None),
}


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "thread", "points", "work", "kept")

    def __init__(self, sid, parent, name, thread):
        self.id, self.parent, self.name, self.thread = sid, parent, name, thread
        self.points = self.work = 0
        self.kept = None
        self.t0 = self.t1 = 0.0


class Tracer:
    """In-memory span recorder; spans of one benchmark run share `run_id`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.active = False
        self._ids = itertools.count(1)
        self._main_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        # a pool thread's outermost span belongs to the main-thread span
        # that is waiting on the pool
        above = stack or self._main_stack
        parent = above[-1].id if above else 0
        span = Span(next(self._ids), parent, name, threading.get_ident())
        stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, fn, record):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if record is not None:
                span.points, span.work, span.kept = record(args, result)
            return result

        return traced


def _library_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "measurefw" or key.startswith("measurefw."))]


def install(tracer: Tracer):
    """Wrap every layer; returns (undo, absent layer names)."""
    patched, absent = [], []
    modules = _library_modules()
    for name, (module_name, path, record) in LAYERS.items():
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = vars(owner).get(cls)
            if owner is None:
                break
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            absent.append(name)
            continue
        wrapper = tracer.wrap(name, original, record)
        if classes:
            targets = [(owner, attr)]
        else:
            targets = [(mod, key) for mod in modules
                       for key, val in list(vars(mod).items()) if val is original]
        for target, key in targets:
            setattr(target, key, wrapper)
            patched.append((target, key, original))

    def undo():
        for target, key, original in reversed(patched):
            setattr(target, key, original)

    return undo, absent


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _corrective_steps(children):
    """Accepted and trial PGD steps, replayed from the objective values returned.

    The first value call of a descent is its starting point; every later one
    is a trial step, accepted when it lowers the current value.
    """
    accepted = trials = 0
    current = None
    for span in children:
        if span.name != "solver.simplex_value":
            continue
        if current is None:
            current = span.kept
        else:
            trials += 1
            if span.kept < current:
                accepted += 1
                current = span.kept
    return accepted, trials


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    """Child spans by parent id, in the order they were opened."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    for kids in children.values():
        kids.sort(key=lambda s: s.id)
    return children


def summarize(spans: list[Span], children: dict[int, list[Span]]) -> dict:
    """Per-layer calls, points, work, busy and self time, plus the counts behind ratios."""
    rows: dict[str, dict] = {}
    for span in spans:
        row = rows.setdefault(span.name, {"calls": 0, "points": 0, "work": 0,
                                            "s": 0.0, "self_s": 0.0})
        kids = children.get(span.id, [])
        row["calls"] += 1
        row["points"] += span.points
        row["work"] += span.work
        row["s"] += span.t1 - span.t0
        row["self_s"] += (span.t1 - span.t0) - _covered([(k.t0, k.t1) for k in kids],
                                                        span.t0, span.t1)

    wins = subproblems = 0
    for span in spans:
        if span.name != "solver.subproblem":
            continue
        subproblems += 1
        wins += any(np.any(np.all(k.kept == span.kept, axis=1))
                    for k in children.get(span.id, []) if k.name == "solver.adam")
    accepted = trials = grads = values = 0
    for span in spans:
        if span.name != "solver.corrective":
            continue
        kids = children.get(span.id, [])
        a, t = _corrective_steps(kids)
        accepted += a
        trials += t
        grads += sum(k.name == "solver.simplex_value_and_grad" for k in kids)
        values += sum(k.name == "solver.simplex_value" for k in kids)
    derived = {
        "subproblems": subproblems,
        "adam_wins": wins,
        "pgd_accepted": accepted,
        "pgd_trials": trials,
        "pgd_grad_evals": grads,
        "pgd_value_evals": values,
    }
    return {"layers": rows, "derived": derived}


def subtree_time(children: dict[int, list[Span]], root: Span, names) -> float:
    """Busy time of the outermost spans named in `names` below `root`."""
    total, todo = 0.0, list(children.get(root.id, []))
    while todo:
        span = todo.pop()
        if span.name in names:
            total += span.t1 - span.t0
        else:
            todo.extend(children.get(span.id, []))
    return total


def write_spans(spans: list[Span], run_id: str, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("run", "id", "parent", "name", "start", "end", "thread", "points", "work"))
        for s in spans:
            w.writerow((run_id, s.id, s.parent, s.name, repr(s.t0), repr(s.t1), s.thread,
                        s.points, s.work))
