"""L1-norm specialization: the finite-support grid solver and its verifiers.

Under the Manhattan norm with discrete demand, the influence function is
strictly concave on every rectangle of the grid spanned by the coordinate
order statistics of the demand points, so its minimizers -- and the support
of any optimal measure -- lie on the grid vertices.  That turns the measure
problem into one finite convex solve over the vertex weights.  The grid
(`DemandGrid`, `build_grid`) comes from `geometry`, shared with the
Frank-Wolfe candidate pool.
"""

from __future__ import annotations

import time

import numpy as np

from .geometry import L1, DemandGrid, build_grid
from .measure import DiscreteMeasure
from .response import InfluenceKernel
from .scenario import DiscretePoints, Problem, _sample_rect
from .solver import SolveTrace, SolverConfig, _corrective_step0, _pgd_simplex, _SimplexObjective

__all__ = [
    "DemandGrid",
    "build_grid",
    "l1_solve_on_grid",
    "concavity_check",
    "vertex_argmin_check",
]


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
    step0 = _corrective_step0(b)
    trace = SolveTrace()
    t0 = time.perf_counter()
    j_prev = np.inf
    stalls = 0
    for k in range(config.max_outer_iters):
        p, j_k = _pgd_simplex(obj, p, config.correction_steps, step0)
        _, g = obj.value_and_grad(p)
        h_verts = g - p @ g
        i = int(np.argmin(h_verts))
        # p.h_verts = 0, so the minimum is nonpositive up to float dust
        h_star = min(float(h_verts[i]), 0.0)
        atoms = int(np.sum(p * b > 1e-12 * b))
        trace.append(k, j_k, h_star, verts[i], atoms, time.perf_counter() - t0)
        if abs(h_star) < config.fw_tolerance:
            break
        stalls = stalls + 1 if j_prev - j_k <= 1e-15 * (1.0 + abs(j_k)) else 0
        if stalls >= 3:
            break
        j_prev = j_k
    keep = p > 0.0
    w = p[keep]
    mu = DiscreteMeasure(verts[keep], w * (b / w.sum()), budget=b, merge_eps=0.0)
    return mu, trace


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
    x1 = _sample_rect(rect, rng, trials)
    x2 = _sample_rect(rect, rng, trials)
    t = rng.random(trials)
    mid = t[:, None] * x1 + (1.0 - t)[:, None] * x2
    kernel = InfluenceKernel.of(mu, problem.eta, problem.curve, L1)
    h = kernel.influence(np.vstack([x1, x2, mid]))
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
    inner = _sample_rect(rect, rng, sample_count)
    kernel = InfluenceKernel.of(mu, problem.eta, problem.curve, L1)
    h = kernel.influence(np.vstack([inner, rect.corners()]))
    return bool(h[:sample_count].min() >= h[sample_count:].min() - 1e-10)
