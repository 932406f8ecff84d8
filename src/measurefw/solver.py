"""Optimization engines: influence minimization, corrective steps, outer loops.

The outer loops grow a finite support one atom per iteration.  The
atom-placement subproblem (minimizing the influence function) is attacked
with multi-restart projected Adam plus a candidate pool that always contains
the current support atoms; since the weighted influence over the support
averages to zero, some atom has nonpositive influence, so the returned value
is never positive.  That is exactly the relaxation under which the
fully-corrective loop retains its sufficient-decrease and O(1/sqrt(k))
stationarity guarantees without global subproblem optimality.

The Adam lanes are pruned by successive halving: after 1/8, 1/4 and 1/2 of
the steps only the better half of the live lanes by influence runs on, but
never fewer than two.  Every lane's endpoint, dropped or not, stays a
candidate, so the guarantee above is untouched.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import (L1, L2, ConvexPolygon, _project, build_grid, contains_many,
                       pairwise_distance, sample_uniform)
from .measure import MERGE_EPS, DiscreteMeasure, check_budget
from .response import (InfluenceKernel, SampleBatch, _sorted_support, correction_gradient,
                       demand_of, smoothness_constant)
from .scenario import DiscretePoints, Problem, beta

__all__ = [
    "SolverConfig",
    "TraceRow",
    "SolveTrace",
    "simplex_project",
    "minimize_influence",
    "fully_corrective",
    "kkt_residual",
    "fcfw_solve",
    "dfw_solve",
    "two_point_optimum",
    "certify",
]


@dataclass
class SolverConfig:
    """Tunables for the Frank-Wolfe loops and their subproblem solvers.

    `inner_restarts` is the number of Adam lanes a subproblem starts with and
    `adam_steps` the number of steps the lanes that survive successive
    halving run (down to two lanes after half the steps).  Counts are
    integers >= 1 (numpy integers too) and `seed` is an integer >= 0.
    """

    max_outer_iters: int = 200
    inner_restarts: int = 16
    adam_steps: int = 300
    fw_tolerance: float = 0.0
    correction_steps: int = 100
    mc_batch_size: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name, low in (("max_outer_iters", 1), ("inner_restarts", 1), ("adam_steps", 1),
                          ("correction_steps", 1), ("mc_batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}")
        # written as `not x >= 0` so that NaN is rejected too
        if not float(self.fw_tolerance) >= 0:
            raise ValueError("fw_tolerance must be nonnegative")


@dataclass
class TraceRow:
    k: int
    j_value: float
    h_star: float
    x_star: np.ndarray
    atoms: int
    seconds: float


class SolveTrace:
    """Per-iteration solve record backing convergence plots and acceptance tests."""

    HEADER = ("k", "J", "h_star", "x_star_x", "x_star_y", "atoms", "seconds")

    def __init__(self):
        self.rows: list[TraceRow] = []

    def append(self, k, j_value, h_star, x_star, atoms, seconds):
        self.rows.append(TraceRow(int(k), float(j_value), float(h_star),
                                  np.asarray(x_star, dtype=float), int(atoms), float(seconds)))

    def __len__(self):
        return len(self.rows)

    def j_values(self) -> np.ndarray:
        return np.array([r.j_value for r in self.rows])

    def h_values(self) -> np.ndarray:
        return np.array([r.h_star for r in self.rows])

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(self.HEADER)
        for r in self.rows:
            w.writerow([r.k, repr(r.j_value), repr(r.h_star),
                        repr(float(r.x_star[0])), repr(float(r.x_star[1])),
                        r.atoms, repr(r.seconds)])
        return buf.getvalue()

    @classmethod
    def read_csv(cls, source) -> "SolveTrace":
        if isinstance(source, (str, Path)):
            with open(source, newline="") as fh:
                return cls.read_csv(fh)
        trace = cls()
        reader = csv.reader(source)
        header = next(reader)
        if tuple(header) != cls.HEADER:
            raise ValueError(f"unexpected trace header {header}")
        for row in reader:
            trace.append(int(row[0]), float(row[1]), float(row[2]),
                         [float(row[3]), float(row[4])], int(row[5]), float(row[6]))
        return trace


def simplex_project(v) -> np.ndarray:
    """Euclidean projection onto the unit simplex (sort-and-threshold)."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size == 0:
        raise ValueError("empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u - css / np.arange(1, v.size + 1) > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


class _SimplexObjective:
    """J restricted to measures sum_i p_i b delta_{x_i} on a fixed support.

    Distances and their sort order are precomputed once (the same sorted
    support `InfluenceKernel` builds), so an evaluation is a cumulative sum
    plus a few elementwise passes over an (n_demand, n_support) array.  Each
    point's segment terms are computed once: the last point evaluated is kept
    (as a copy, compared by value) with its terms and J, so `value_and_grad`
    at the point `value` just accepted only adds the suffix sums and the
    gradient.
    """

    def __init__(self, support, demand_pts, demand_probs, curve, norm, budget):
        self.support = np.asarray(support, dtype=float)
        self.probs = np.asarray(demand_probs, dtype=float)
        self.b = float(budget)
        self.order, self.d, bd, self.dbeta = _sorted_support(demand_pts, self.support,
                                                             curve, norm)
        n, m = self.order.shape
        self.head = float(self.probs @ (bd[:, 0] - beta(curve, 0.0)))
        # flat index of each atom's tail in the (n, m) table of cumulative sums
        # over the reversed segment terms: an atom at sorted position k reads
        # column m - 1 - k, the tail from its own radius (the segments between
        # it and atoms tied with it have zero width, so this is the
        # closed-ball tail exactly)
        self._tail_index = np.empty_like(self.order)
        np.put_along_axis(self._tail_index, self.order,
                          np.arange(m - 1, -1, -1) + np.arange(0, n * m, m)[:, None], axis=1)
        self._last = (None, None, None)  # (p, segment terms, J)

    def _evaluate(self, p):
        last_p, seg, j = self._last
        if last_p is None or not np.array_equal(p, last_p):
            w = (np.maximum(p, 0.0) * self.b)[self.order]
            seg = np.exp(-np.cumsum(w, axis=1)) * self.dbeta
            j = self.head + float(self.probs @ np.sum(seg, axis=1))
            self._last = (np.array(p, dtype=float), seg, j)
        return seg, j

    def value(self, p) -> float:
        return self._evaluate(p)[1]

    def value_and_grad(self, p):
        seg, j = self._evaluate(p)
        t_atoms = np.take(np.cumsum(seg[:, ::-1], axis=1), self._tail_index)
        grad = -self.b * (self.probs @ t_atoms)
        return j, grad


def _pgd_simplex(obj: _SimplexObjective, p0, steps: int, step0: float):
    """Monotone projected gradient descent on the simplex with backtracking."""
    p = simplex_project(p0)
    j = obj.value(p)
    step = step0
    for _ in range(steps):
        _, g = obj.value_and_grad(p)
        accepted = False
        s = step
        for _ in range(50):
            q = simplex_project(p - s * g)
            jq = obj.value(q)
            if jq < j:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break
        p, j = q, jq
        step = min(s * 1.5, step0 * 32.0)
    return p, j


def _corrective_step0(budget: float) -> float:
    # the simplex Hessian of J is bounded by b^2, so 1/b^2 is a safe base step
    return 1.0 / max(budget * budget, 1e-30)


def fully_corrective(support, p_init, problem: Problem, eta_or_batch, config: SolverConfig):
    """Reoptimize simplex weights over a fixed support; never increases J."""
    support = np.asarray(support, dtype=float).reshape(-1, 2)
    demand = demand_of(eta_or_batch if eta_or_batch is not None else problem.eta)
    obj = _SimplexObjective(support, *demand, problem.curve, problem.norm, problem.budget)
    p, _ = _pgd_simplex(obj, p_init, config.correction_steps, _corrective_step0(problem.budget))
    return p


def kkt_residual(support, p, problem: Problem, eta_or_batch=None, active_tol=1e-8) -> float:
    """Stationarity residual of weights on the simplex.

    At an optimum the gradient is constant over the active coordinates; the
    residual is the largest deviation from that common value.
    """
    g = correction_gradient(support, p, problem, eta_or_batch)
    active = np.asarray(p) > active_tol
    if not np.any(active):
        return float("nan")
    ga = g[active]
    return float(np.max(np.abs(ga - ga.mean())))


def _random_in_domain(domain: ConvexPolygon, rng, n: int) -> np.ndarray:
    """Uniform draws from a domain of any dimension (polygon, segment, point)."""
    v = domain.vertices
    if domain.area > 0:
        return sample_uniform(domain, rng, size=n)
    if len(v) == 2:
        t = rng.random(n)
        return v[0] + t[:, None] * (v[1] - v[0])
    return np.broadcast_to(v[0], (n, 2)).copy()


# Adam's step in domain-diameter units (rescaled by the diameter at run time)
_ADAM_LR = 0.05
# Adam's moment decay rates and denominator guard (the usual defaults)
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
# successive halving ranks the lanes after steps T // d of T, d in the rung
# divisors, and keeps no fewer than the floor
_ADAM_RUNG_DIVISORS = (8, 4, 2)
_ADAM_MIN_LANES = 2


def _adam_descend(kernel: InfluenceKernel, domain: ConvexPolygon, starts: np.ndarray,
                  config: SolverConfig) -> np.ndarray:
    """Projected Adam on the influence surface, one lane per start point.

    Lanes are pruned by successive halving (Jamieson & Talwalkar, AISTATS
    2016): at each rung the live lanes with the lowest influence are kept,
    ceil(live / 2) of them but at least `_ADAM_MIN_LANES`, ties to the lower
    lane index.  Survivors keep the shared step counter, so their bias
    corrections, and (since a lane's gradient does not depend on which other
    lanes share the call) their trajectories, are those of an unpruned run.
    Returns one row per start, in start order: a dropped lane's row is where
    it was dropped.
    """
    lr = _ADAM_LR * max(domain.diameter, 1e-12)
    rungs = {config.adam_steps // d for d in _ADAM_RUNG_DIVISORS}
    out = starts.copy()
    x = starts.copy()
    live = np.arange(len(starts))
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    for t in range(1, config.adam_steps + 1):
        g = kernel.influence_gradient(x, on_singular="mask")
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        mh = m / (1.0 - b1**t)
        vh = v / (1.0 - b2**t)
        x = x - lr * mh / (np.sqrt(vh) + _ADAM_EPS)
        x = _project(domain, x)
        if t in rungs and len(live) > _ADAM_MIN_LANES:
            out[live] = x
            keep = max((len(live) + 1) // 2, _ADAM_MIN_LANES)
            best = np.sort(np.argsort(kernel.influence(x), kind="stable")[:keep])
            live, x, m, v = live[best], x[best], m[best], v[best]
    out[live] = x
    return out


def _candidate_pool(kernel: InfluenceKernel, problem: Problem) -> list:
    """Fixed influence candidates: the support atoms, then the demand or its L1 grid.

    The support atoms alone guarantee a nonpositive minimum (the weighted
    influence over the support averages to zero).  Under L1 the demand vertex
    grid holds the minimizers for discrete demand and contains its points; a
    sampled batch's axes are thinned to 64 coordinates first (a 1,000-point
    batch would otherwise give ~10^6 vertices).
    """
    discrete = isinstance(problem.eta, DiscretePoints)
    if problem.norm == L1:
        return [kernel.atoms, build_grid(kernel.demand, None if discrete else 64).vertices]
    return [kernel.atoms, problem.eta.points] if discrete else [kernel.atoms]


def _minimize_influence_kernel(kernel: InfluenceKernel, problem: Problem,
                               config: SolverConfig, rng):
    """Shared subproblem core; returns (x_star, h_star) with h_star <= 0."""
    pools = _candidate_pool(kernel, problem)
    if problem.norm == L2 and problem.domain.diameter > 0:
        starts = _random_in_domain(problem.domain, rng, config.inner_restarts)
        pools.append(_adam_descend(kernel, problem.domain, starts, config))
    cands = np.vstack(pools)
    h = kernel.influence(cands)
    i = int(np.argmin(h))
    # the zero-mean identity over the support guarantees a nonpositive
    # candidate; clamp float dust so downstream step sizes stay valid
    return cands[i].copy(), min(float(h[i]), 0.0)


def minimize_influence(mu: DiscreteMeasure, problem: Problem, config: SolverConfig, rng):
    """Approximately minimize the influence function of mu over the domain.

    Candidates are the support atoms plus, under L2, the demand points (for
    discrete eta) and multi-restart projected-Adam finishers, so the value
    is nonpositive even when Adam stalls.  The Adam lanes are halved by
    influence after 1/8, 1/4 and 1/2 of the steps, never below two; a
    dropped lane's last point is still a candidate.  Under L1 they are the
    atoms and the demand vertex grid: in full for discrete eta (exact over
    the grid's span; it holds the demand points), at most 64 per axis for a
    sampled batch.  The demand is the one `fcfw_solve` uses under config;
    `rng` draws the Adam starts.  mu's budget must be the problem's.
    """
    check_budget(mu, problem.budget)
    demand = _resolve_demand(problem, config)
    kernel = InfluenceKernel.of(mu, demand, problem.curve, problem.norm)
    return _minimize_influence_kernel(kernel, problem, config, rng)


def _resolve_demand(problem: Problem, config: SolverConfig):
    """Exact demand for discrete eta, else a frozen batch (common random numbers)."""
    if isinstance(problem.eta, DiscretePoints):
        return problem.eta
    return SampleBatch.draw(problem.eta, config.mc_batch_size, config.seed)


def _frank_wolfe(problem: Problem, config: SolverConfig, update):
    """Outer loop shared by `fcfw_solve` and `dfw_solve`; returns (mu, trace).

    Each iteration records J and the subproblem's (x*, h*), then adds x* to
    the support with weight 0 (or reuses an atom within MERGE_EPS of it) and
    calls `update(k, support, weights, i, h_star, demand)`, where i indexes
    x*'s atom and demand is (points, probs); it returns the next support and
    weights.  Weights are absolute (they sum to b).
    """
    rng = np.random.default_rng(config.seed)
    b = problem.budget
    demand = demand_of(_resolve_demand(problem, config))

    support = _random_in_domain(problem.domain, rng, 1)
    weights = np.array([b])
    trace = SolveTrace()
    t0 = time.perf_counter()
    for k in range(config.max_outer_iters):
        kernel = InfluenceKernel(support, weights, *demand, problem.curve, problem.norm,
                                 budget=b)
        j_k = kernel.objective()
        x_star, h_star = _minimize_influence_kernel(kernel, problem, config, rng)
        trace.append(k, j_k, h_star, x_star, len(support), time.perf_counter() - t0)
        if abs(h_star) < config.fw_tolerance:
            break
        dist_new = pairwise_distance(support, x_star[None], L2)[:, 0]
        i = int(np.argmin(dist_new))
        if dist_new[i] > MERGE_EPS:
            support = np.vstack([support, x_star])
            weights = np.append(weights, 0.0)
            i = len(weights) - 1
        support, weights = update(k, support, weights, i, h_star, demand)
    return DiscreteMeasure(support, weights, budget=b), trace


def fcfw_solve(problem: Problem, config: SolverConfig):
    """Fully-corrective Frank-Wolfe over discrete measures.

    Starts from a single atom at a uniform random domain point.  Each
    iteration places one new atom at an approximate influence minimizer,
    then reoptimizes all weights over the collected support.  The corrective
    start is the better of the warm weights and the analytic short step, so
    the sufficient-decrease inequality holds step by step and the recorded
    objective is nonincreasing.
    """
    b = problem.budget
    lip = smoothness_constant(b)
    radius = b  # total-variation diameter of the fixed-budget feasible set
    step0 = _corrective_step0(b)

    def corrective(k, support, weights, i, h_star, demand):
        obj = _SimplexObjective(support, *demand, problem.curve, problem.norm, b)
        p = weights / b
        # analytic short step toward the new atom; starting the descent from
        # the better of warm/short-step weights makes the sufficient-decrease
        # bound hold exactly
        t_k = min(max(-b * h_star / (lip * radius * radius), 0.0), 1.0)
        p_mid = (1.0 - t_k) * p
        p_mid[i] += t_k
        start = p if obj.value(p) <= obj.value(p_mid) else p_mid
        p, _ = _pgd_simplex(obj, start, config.correction_steps, step0)
        keep = p > 0.0
        p = p[keep]
        return support[keep], p / p.sum() * b

    return _frank_wolfe(problem, config, corrective)


def dfw_solve(problem: Problem, config: SolverConfig):
    """Plain Frank-Wolfe averaging recursion with step sizes 2 / (k + 2).

    The atom set grows by one per iteration with multiplicative weight
    rescaling; atoms whose weight decays below 1e-12 b are pruned with
    proportional redistribution.
    """
    b = problem.budget
    floor = 1e-12 * b

    def averaging(k, support, weights, i, h_star, demand):
        eta_k = 2.0 / (k + 2.0)
        weights = weights * (1.0 - eta_k)
        weights[i] += eta_k * b
        keep = weights >= floor
        weights = weights[keep]
        return support[keep], weights * (b / weights.sum())

    return _frank_wolfe(problem, config, averaging)


def two_point_optimum(y1, y2, lambda1: float, lambda2: float, budget: float) -> DiscreteMeasure:
    """Analytic optimal measure for two demand points.

    alpha_1 = clamp(b/2 + log(lambda_1/lambda_2)/2, 0, b) and
    alpha_2 = b - alpha_1; zero-weight atoms are dropped.  The weights do
    not depend on the death curve.
    """
    # written as `not x >= 0` so that NaN is rejected too
    if not (lambda1 >= 0 and lambda2 >= 0 and abs(lambda1 + lambda2 - 1.0) <= 1e-9):
        raise ValueError("lambda1, lambda2 must be nonnegative and sum to 1")
    if not budget > 0:
        raise ValueError("budget must be positive")
    with np.errstate(divide="ignore"):
        ratio = np.log(lambda1) - np.log(lambda2)  # +-inf at the endpoints
    alpha1 = float(np.clip(0.5 * budget + 0.5 * ratio, 0.0, budget))
    pts = np.vstack([np.asarray(y1, dtype=float), np.asarray(y2, dtype=float)])
    w = np.array([alpha1, budget - alpha1])
    keep = w > 0.0
    return DiscreteMeasure(pts[keep], w[keep], budget=budget)


def certify(mu: DiscreteMeasure, problem: Problem, grid_resolution: int,
            config: SolverConfig, *, eta_or_batch=None):
    """Global influence sweep: lattice over the domain plus Adam refinement.

    The 16 lowest lattice or pool points and mu's atoms seed the projected
    Adam refine, whose lanes are halved by influence after 1/8, 1/4 and 1/2
    of the steps (never below two); every lane's last point is a candidate.
    Returns (min_h, argmin).  The measure is approximately optimal at
    tolerance tau iff min_h >= -tau.  mu's budget must be the problem's.
    The demand is the one `fcfw_solve` uses under config, unless the
    keyword-only `eta_or_batch` (a discrete eta or a SampleBatch) is given.
    The lattice sweep is one `InfluenceKernel.influence` call, so a large
    lattice runs on up to `worker_count()` threads, with the same result
    for any count; a malformed MEASURE_FW_THREADS then raises ScenarioError.
    """
    if grid_resolution < 1:
        raise ValueError("grid_resolution must be >= 1")
    check_budget(mu, problem.budget)
    demand = eta_or_batch
    if demand is None:
        demand = _resolve_demand(problem, config)
    kernel = InfluenceKernel.of(mu, demand, problem.curve, problem.norm)
    pts = lattice_points(problem.domain, grid_resolution, inside_only=True)
    cands = np.vstack([pts, *_candidate_pool(kernel, problem)])
    h = kernel.influence(cands)
    if problem.norm == L2 and problem.domain.diameter > 0:
        n_seed = min(16, len(cands))
        seeds = np.vstack([cands[np.argsort(h)[:n_seed]], mu.points])
        refined = _adam_descend(kernel, problem.domain, seeds, config)
        h_ref = kernel.influence(refined)
        cands = np.vstack([cands, refined])
        h = np.concatenate([h, h_ref])
    i = int(np.argmin(h))
    return float(h[i]), cands[i].copy()


def lattice_points(domain: ConvexPolygon, resolution: int, inside_only: bool = False):
    """Regular resolution x resolution lattice over the domain bounding box."""
    box = domain.bounding_box()
    if resolution == 1:
        axes = (np.array([(box.lo[0] + box.hi[0]) / 2.0]),
                np.array([(box.lo[1] + box.hi[1]) / 2.0]))
    else:
        axes = (np.linspace(box.lo[0], box.hi[0], resolution),
                np.linspace(box.lo[1], box.hi[1], resolution))
    gx, gy = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    if inside_only:
        pts = pts[contains_many(domain, pts)]
    return pts
