"""L1-norm specialization: demand grids, the finite-support solver, verifiers.

Under the Manhattan norm with discrete demand, the influence function is
strictly concave on every rectangle of the grid spanned by the coordinate
order statistics of the demand points, so its minimizers -- and the support
of any optimal measure -- lie on the grid vertices.  That turns the measure
problem into one finite convex solve over the vertex weights.
"""

from __future__ import annotations

import time

import numpy as np

from .geometry import L1, Rect, as_points
from .measure import DiscreteMeasure
from .response import InfluenceKernel
from .scenario import DiscretePoints, Problem
from .solver import SolveTrace, SolverConfig, _corrective_step0, _pgd_simplex, _SimplexObjective

__all__ = [
    "DemandGrid",
    "build_grid",
    "l1_solve_on_grid",
    "concavity_check",
    "vertex_argmin_check",
]


class DemandGrid:
    """Grid spanned by the coordinate order statistics of demand points."""

    __slots__ = ("xs", "ys", "vertices")

    def __init__(self, xs, ys):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        gx, gy = np.meshgrid(self.xs, self.ys, indexing="ij")
        self.vertices = np.column_stack([gx.ravel(), gy.ravel()])
        for arr in (self.xs, self.ys, self.vertices):
            arr.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_rects(self) -> int:
        return max(len(self.xs) - 1, 0) * max(len(self.ys) - 1, 0)

    def rect(self, index: int) -> Rect:
        """Rectangle S_{j,k} by flat index, row-major over (j, k)."""
        ny = len(self.ys) - 1
        if not 0 <= index < self.n_rects:
            raise IndexError(f"rectangle index {index} out of range")
        j, k = divmod(index, ny)
        return Rect((self.xs[j], self.ys[k]), (self.xs[j + 1], self.ys[k + 1]))

    def __repr__(self):
        return f"DemandGrid({len(self.xs)} x {len(self.ys)} coordinates)"


def build_grid(points) -> DemandGrid:
    """Demand grid from points: deduplicated sorted coordinates per axis."""
    pts = as_points(points)
    if len(pts) == 0:
        raise ValueError("empty point set")
    return DemandGrid(np.unique(pts[:, 0]), np.unique(pts[:, 1]))


def l1_solve_on_grid(problem: Problem, config: SolverConfig):
    """Solve the L1 problem over the known finite support (the grid vertices).

    Runs warm-started projected gradient rounds over all vertex weights; the
    per-round certificate is the influence minimum over the vertices, which
    by piecewise concavity is the global minimum over the grid's span.  It
    is read off the simplex gradient g: the influence at vertex i is
    g_i + h_const, and the p-weighted influence over the support averages
    to zero, so h_const = -p.g.  The support may include grid vertices
    outside `problem.domain` (the grid spans the demand's bounding box, not
    its hull).  Requires a discrete eta and the L1 norm.
    """
    if problem.norm != L1:
        raise ValueError("l1_solve_on_grid requires an L1-norm problem")
    if not isinstance(problem.eta, DiscretePoints):
        raise ValueError("l1_solve_on_grid requires a discrete incident distribution")
    eta = problem.eta
    grid = build_grid(eta.points)
    verts = grid.vertices
    b = problem.budget
    obj = _SimplexObjective(verts, eta.points, eta.probs, problem.curve, L1, b)
    p = np.full(len(verts), 1.0 / len(verts))
    step0 = _corrective_step0(config, b)
    trace = SolveTrace()
    t0 = time.perf_counter()
    j_prev = np.inf
    stalls = 0
    for k in range(config.max_outer_iters):
        p, j_k = _pgd_simplex(obj, p, config.correction_steps, step0)
        _, g = obj.value_and_grad(p)
        h_verts = g - p @ g
        i = int(np.argmin(h_verts))
        atoms = int(np.sum(p * b > 1e-12 * b))
        trace.append(k, j_k, float(h_verts[i]), verts[i], atoms, time.perf_counter() - t0)
        if abs(h_verts[i]) < config.fw_tolerance:
            break
        stalls = stalls + 1 if j_prev - j_k <= 1e-15 * (1.0 + abs(j_k)) else 0
        if stalls >= 3:
            break
        j_prev = j_k
    keep = p > 0.0
    w = p[keep]
    mu = DiscreteMeasure(verts[keep], w * (b / w.sum()), budget=b, merge_eps=0.0)
    return mu, trace


def _interior_samples(rect: Rect, rng, n: int) -> np.ndarray:
    u = rng.random((n, 2))
    return rect.lo + u * (rect.hi - rect.lo)


def _influence_on(mu: DiscreteMeasure, problem: Problem, xs) -> np.ndarray:
    return InfluenceKernel.of(mu, problem.eta, problem.curve, L1).influence(xs)


def concavity_check(mu: DiscreteMeasure, problem: Problem, grid: DemandGrid,
                    rect_index: int, trials: int, rng) -> bool:
    """Verify midpoint concavity of the influence inside one grid rectangle.

    Draws random segments with endpoints interior to the rectangle and checks
    h(t x1 + (1-t) x2) >= t h(x1) + (1-t) h(x2) - 1e-10 on each.
    """
    if problem.norm != L1 or not isinstance(problem.eta, DiscretePoints):
        raise ValueError("concavity holds for L1-norm problems with discrete eta")
    rect = grid.rect(rect_index)
    if rect.area <= 0:
        raise ValueError("degenerate rectangle")
    x1 = _interior_samples(rect, rng, trials)
    x2 = _interior_samples(rect, rng, trials)
    t = rng.random(trials)
    mid = t[:, None] * x1 + (1.0 - t)[:, None] * x2
    h = _influence_on(mu, problem, np.vstack([x1, x2, mid]))
    h1, h2, hm = h[:trials], h[trials : 2 * trials], h[2 * trials :]
    return bool(np.all(hm >= t * h1 + (1.0 - t) * h2 - 1e-10))


def vertex_argmin_check(mu: DiscreteMeasure, problem: Problem, grid: DemandGrid,
                        rect_index: int, sample_count: int, rng) -> bool:
    """Verify that the influence minimum over a rectangle sits at a vertex.

    Compares the minimum over interior samples with the minimum over the four
    rectangle corners; degenerate (zero-area) rectangles pass vacuously.
    """
    if problem.norm != L1 or not isinstance(problem.eta, DiscretePoints):
        raise ValueError("vertex minimizers hold for L1-norm problems with discrete eta")
    rect = grid.rect(rect_index)
    if rect.area <= 0:
        return True
    inner = _interior_samples(rect, rng, sample_count)
    h = _influence_on(mu, problem, np.vstack([inner, rect.corners()]))
    return bool(h[:sample_count].min() >= h[sample_count:].min() - 1e-10)
