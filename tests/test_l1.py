import numpy as np
import pytest

from measurefw import (
    DiscretePoints,
    Problem,
    Rect,
    SampleBatch,
    SolverConfig,
    UniformRect,
    build_grid,
    certify,
    concavity_check,
    fcfw_solve,
    influence,
    l1_solve_on_grid,
    minimize_influence,
    objective_exact,
    two_point_optimum,
    vertex_argmin_check,
)
from measurefw.geometry import DemandGrid, pairwise_distance
from measurefw.response import InfluenceKernel
from measurefw.solver import _candidate_pool, _pgd_simplex, _SimplexObjective
from helpers import CURVE, rand_discrete_eta, rand_measure

FAST = dict(inner_restarts=4, adam_steps=40, correction_steps=40)


def rand_l1_problem(rng, n=None, budget=None):
    eta = rand_discrete_eta(rng, n=n)
    b = float(rng.uniform(0.3, 3)) if budget is None else budget
    return Problem(eta, budget=b, norm="l1")


def test_build_grid_examples():
    g = build_grid([[0, 0], [1, 0], [0.5, 0.8]])
    assert np.allclose(g.xs, [0, 0.5, 1])
    assert np.allclose(g.ys, [0, 0.8])
    assert g.n_vertices == 6
    assert g.n_rects == 2

    square = build_grid([[0, 0], [1, 0], [0, 1], [1, 1]])
    assert square.n_vertices == 4
    assert square.n_rects == 1
    assert {tuple(v) for v in square.vertices} == {(0, 0), (0, 1), (1, 0), (1, 1)}

    collinear = build_grid([[float(i), 0.0] for i in range(5)])
    assert collinear.n_vertices == 5
    assert collinear.n_rects == 0

    with pytest.raises(ValueError, match="empty point set"):
        build_grid(np.zeros((0, 2)))


def test_grid_cardinality_is_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pts = rng.integers(0, 4, size=(int(rng.integers(1, 9)), 2)).astype(float)
        pts = np.unique(pts, axis=0)
        g = build_grid(pts)
        nx = len(np.unique(pts[:, 0]))
        ny = len(np.unique(pts[:, 1]))
        assert g.n_vertices == nx * ny
        assert g.n_rects == (nx - 1) * (ny - 1)


def test_rect_indexing():
    g = build_grid([[0, 0], [1, 0], [0.5, 0.8], [1, 2]])
    seen = set()
    for i in range(g.n_rects):
        r = g.rect(i)
        seen.add((float(r.lo[0]), float(r.lo[1]), float(r.hi[0]), float(r.hi[1])))
    assert len(seen) == g.n_rects
    with pytest.raises(IndexError):
        g.rect(g.n_rects)


def test_concavity_check_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(15):
        prob = rand_l1_problem(rng)
        grid = build_grid(prob.eta.points)
        if grid.n_rects == 0:
            continue
        mu = rand_measure(rng, budget=prob.budget)
        idx = int(rng.integers(grid.n_rects))
        if grid.rect(idx).area <= 0:
            continue
        assert concavity_check(mu, prob, grid, idx, trials=1000, rng=rng)


def test_concavity_equality_at_identical_endpoints():
    rng = np.random.default_rng(2)
    prob = rand_l1_problem(rng, n=4)
    grid = build_grid(prob.eta.points)
    mu = rand_measure(rng, budget=prob.budget)
    rect = grid.rect(0)
    x = rect.lo + 0.5 * (rect.hi - rect.lo)
    h = influence(mu, np.vstack([x, x]), prob.eta, CURVE, "l1")
    assert abs(h[0] - h[1]) <= 1e-12


def test_vertex_argmin_check_random_and_sweep():
    rng = np.random.default_rng(3)
    for _ in range(10):
        prob = rand_l1_problem(rng)
        grid = build_grid(prob.eta.points)
        if grid.n_rects == 0:
            continue
        mu = rand_measure(rng, budget=prob.budget)
        idx = int(rng.integers(grid.n_rects))
        assert vertex_argmin_check(mu, prob, grid, idx, sample_count=2000, rng=rng)
    # exhaustive sweep over all rectangles of one 5-point instance
    prob = rand_l1_problem(rng, n=5)
    grid = build_grid(prob.eta.points)
    mu = rand_measure(rng, budget=prob.budget)
    for idx in range(grid.n_rects):
        assert vertex_argmin_check(mu, prob, grid, idx, sample_count=500, rng=rng)


def test_checks_require_l1_discrete():
    rng = np.random.default_rng(4)
    eta = rand_discrete_eta(rng, n=4)
    prob_l2 = Problem(eta, budget=1.0, norm="l2")
    grid = build_grid(eta.points)
    mu = rand_measure(rng, budget=1.0)
    with pytest.raises(ValueError):
        concavity_check(mu, prob_l2, grid, 0, 10, rng)
    with pytest.raises(ValueError):
        vertex_argmin_check(mu, prob_l2, grid, 0, 10, rng)


def test_checks_on_a_zero_area_rectangle():
    rng = np.random.default_rng(6)
    prob = rand_l1_problem(rng, n=4)
    mu = rand_measure(rng, budget=prob.budget)
    flat = DemandGrid([0.0, 0.0], [0.0, 1.0])  # its one rectangle has zero width
    assert flat.rect(0).area == 0.0
    with pytest.raises(ValueError, match="degenerate rectangle"):
        concavity_check(mu, prob, flat, 0, 10, rng)
    # no interior to sample: the check passes vacuously
    assert vertex_argmin_check(mu, prob, flat, 0, 10, rng) is True


def test_l1_solve_stops_at_fw_tolerance():
    rng = np.random.default_rng(9)
    prob = rand_l1_problem(rng, n=5, budget=1.0)
    _, full = l1_solve_on_grid(prob, SolverConfig(max_outer_iters=6, **FAST, seed=0))
    h = np.abs(full.h_values())
    assert len(full) == 6 and h[0] > h[-1] > 0.0
    # the run stops at the first round whose |h*| is below the tolerance
    tol = float(np.median(h))
    stop = int(np.argmax(h < tol))
    assert 0 < stop < 5
    _, cut = l1_solve_on_grid(prob, SolverConfig(max_outer_iters=6, fw_tolerance=tol, **FAST,
                                                 seed=0))
    assert len(cut) == stop + 1
    assert np.array_equal(cut.h_values(), full.h_values()[: stop + 1])


def test_l1_solve_matches_two_point_optimum_on_axis():
    # axis-aligned pair: L1 and L2 distances coincide along the segment
    eta = DiscretePoints([[0.0, 0.0], [1.0, 0.0]], [0.6, 0.4])
    prob = Problem(eta, budget=1.0, norm="l1")
    cfg = SolverConfig(max_outer_iters=60, **FAST, seed=0)
    mu, trace = l1_solve_on_grid(prob, cfg)
    mu_star = two_point_optimum([0, 0], [1, 0], 0.6, 0.4, 1.0)
    j_grid = objective_exact(mu, eta, CURVE, "l1")
    j_star = objective_exact(mu_star, eta, CURVE, "l1")
    assert j_grid <= j_star + 1e-8
    heavy = mu.points[np.argmax(mu.weights)]
    assert np.allclose(heavy, [0, 0])


def test_l1_solve_support_and_certificate():
    rng = np.random.default_rng(5)
    cfg = SolverConfig(max_outer_iters=80, **FAST, seed=1)
    for _ in range(3):
        prob = rand_l1_problem(rng, n=4, budget=1.0)
        grid = build_grid(prob.eta.points)
        mu, trace = l1_solve_on_grid(prob, cfg)
        vset = {tuple(v) for v in grid.vertices}
        assert all(tuple(p) in vset for p in mu.points)
        min_h, _ = certify(mu, prob, 80, cfg)
        assert min_h >= -1e-4
        # support-zero property under L1
        heavy = mu.points[mu.weights > 1e-6]
        h_atoms = influence(mu, heavy, prob.eta, CURVE, "l1")
        assert np.max(np.abs(h_atoms)) <= 1e-4


def test_l1_solve_certificate_matches_kernel_influence():
    # the trace's h_star comes from the simplex gradient through the zero-mean
    # identity; it must be the influence minimum over the grid vertices
    rng = np.random.default_rng(12)
    cfg = SolverConfig(max_outer_iters=15, **FAST, seed=0)
    for _ in range(3):
        prob = rand_l1_problem(rng, n=6)
        mu, trace = l1_solve_on_grid(prob, cfg)
        kernel = InfluenceKernel.of(mu, prob.eta, CURVE, "l1")
        h_min = kernel.influence(build_grid(prob.eta.points).vertices).min()
        assert abs(trace.rows[-1].h_star - h_min) <= 1e-12 * max(1.0, abs(kernel.h_const))


@pytest.mark.parametrize("demand,budget", [
    ([[0.0, 0.0], [1e6, 0.0], [0.0, 1e6]], 1.0),
    ([[0.0, 0.0], [1e-12, 1e-12], [1.0, 0.0]], 1e-3),
])
def test_l1_solve_h_star_is_never_positive(demand, budget):
    # on these the vertex influence minimum is zero up to float dust of
    # either sign; the trace records it clamped, as fcfw_solve does
    eta = DiscretePoints(demand, [1 / 3] * 3)
    _, trace = l1_solve_on_grid(Problem(eta, budget=budget, norm="l1"),
                                SolverConfig(max_outer_iters=5, seed=0))
    assert len(trace.rows) > 0
    assert all(row.h_star <= 0.0 for row in trace.rows)


def test_minimize_influence_l1_takes_the_candidate_pool_minimum():
    # under L1 the subproblem runs no Adam: its answer is the minimum over the
    # support atoms, the demand points and the demand vertex grid, clamped at 0
    rng = np.random.default_rng(13)
    cfg = SolverConfig(**FAST, seed=0)
    cases = []
    for _ in range(4):
        prob = rand_l1_problem(rng)
        cases.append((prob, rand_measure(rng, budget=prob.budget)))
    # 80 distinct coordinates per axis: the pool must take the full grid, not
    # one thinned to 64 per axis (which misses the minimum on this instance)
    rng = np.random.default_rng(5)
    eta = DiscretePoints(rng.random((80, 2)) * 10, np.full(80, 1 / 80))
    wide = Problem(eta, budget=float(rng.uniform(0.3, 3)), norm="l1")
    cases.append((wide, rand_measure(rng, budget=wide.budget)))
    for prob, mu in cases:
        x_star, h_star = minimize_influence(mu, prob, cfg, np.random.default_rng(0))
        cands = np.vstack([mu.points, prob.eta.points, build_grid(prob.eta.points).vertices])
        h = InfluenceKernel.of(mu, prob.eta, CURVE, "l1").influence(cands)
        assert h_star == min(h.min(), 0.0)
        if h.min() < 0:
            assert np.array_equal(x_star, cands[np.argmin(h)])
    # certify sweeps the same pool: on the wide (last) case it reaches that minimum too
    assert build_grid(wide.eta.points).n_vertices == 80 * 80
    min_h, _ = certify(mu, wide, 20, cfg)
    assert min_h <= min(h.min(), 0.0)


def test_sampled_l1_demand_pool_and_solve():
    # a sampled batch's grid is thinned to 64 coordinates per axis before its
    # vertices are formed; the pool still holds the support atoms
    prob = Problem(UniformRect(Rect([0, 0], [3, 2])), budget=1.5, norm="l1")
    cfg = SolverConfig(max_outer_iters=3, **FAST, mc_batch_size=500, seed=4)
    batch = SampleBatch.draw(prob.eta, cfg.mc_batch_size, cfg.seed)
    mu = rand_measure(np.random.default_rng(4), budget=prob.budget)
    kernel = InfluenceKernel.of(mu, batch, CURVE, "l1")
    pool = np.vstack(_candidate_pool(kernel, prob))
    assert len(pool) <= mu.n_atoms + 64 * 64
    assert np.array_equal(pool[: mu.n_atoms], mu.points)
    mu, trace = fcfw_solve(prob, cfg)
    assert len(trace) == 3
    assert np.all(trace.h_values() <= 0.0)
    assert np.all(np.diff(trace.j_values()) <= 1e-12)


def test_l1_solve_beats_free_support_fcfw():
    rng = np.random.default_rng(6)
    prob = rand_l1_problem(rng, n=3, budget=1.0)
    cfg = SolverConfig(max_outer_iters=60, **FAST, seed=2)
    mu_grid, _ = l1_solve_on_grid(prob, cfg)
    mu_free, _ = fcfw_solve(prob, cfg)
    j_grid = objective_exact(mu_grid, prob.eta, CURVE, "l1")
    j_free = objective_exact(mu_free, prob.eta, CURVE, "l1")
    assert j_grid <= j_free + 1e-6


def test_simplex_gradient_with_tied_l1_distances():
    # integer demand points: the L1 distances from the grid vertices tie exactly
    rng = np.random.default_rng(31)
    pts = rng.integers(0, 4, size=(8, 2)).astype(float)
    probs = rng.random(8) + 0.1
    eta = DiscretePoints(pts, probs / probs.sum())
    b = 2.5
    verts = build_grid(eta.points).vertices
    d = pairwise_distance(eta.points, verts, "l1")
    assert any(len(np.unique(row)) < len(row) for row in d)
    obj = _SimplexObjective(verts, eta.points, eta.probs, CURVE, "l1", b)
    for _ in range(5):
        p = rng.random(len(verts)) * (rng.random(len(verts)) < 0.6)
        p = p / p.sum()
        _, grad = obj.value_and_grad(p)
        # the kernel path: the influence at atom i is h_const plus gradient entry i
        kernel = InfluenceKernel(verts, p * b, eta.points, eta.probs, CURVE, "l1", budget=b)
        np.testing.assert_allclose(grad, kernel.influence(verts) - kernel.h_const,
                                   rtol=0, atol=1e-12)


def test_l1_solve_preconditions():
    from measurefw import Rect, UniformRect

    cfg = SolverConfig(**FAST)
    eta = DiscretePoints([[0, 0], [1, 1]], [0.5, 0.5])
    with pytest.raises(ValueError, match="L1-norm"):
        l1_solve_on_grid(Problem(eta, budget=1.0, norm="l2"), cfg)
    cont = Problem(UniformRect(Rect([0, 0], [1, 1])), budget=1.0, norm="l1")
    with pytest.raises(ValueError, match="discrete"):
        l1_solve_on_grid(cont, cfg)


def test_norm_ordering_and_cross_norm_optima():
    rng = np.random.default_rng(7)
    eta = rand_discrete_eta(rng, n=3)
    b = 1.0
    cfg = SolverConfig(max_outer_iters=50, **FAST, seed=3)
    prob_l1 = Problem(eta, budget=b, norm="l1")
    prob_l2 = Problem(eta, budget=b, norm="l2")
    mu_l1, _ = l1_solve_on_grid(prob_l1, cfg)
    mu_l2, _ = fcfw_solve(prob_l2, cfg)
    # each optimum wins in its own problem
    assert objective_exact(mu_l2, eta, CURVE, "l2") <= objective_exact(mu_l1, eta, CURVE, "l2") + 1e-9
    # and the norm ordering holds for both measures
    for mu in (mu_l1, mu_l2):
        assert objective_exact(mu, eta, CURVE, "l2") <= objective_exact(mu, eta, CURVE, "l1") + 1e-12


def _tied_l1_objective_args(seed):
    # integer demand points: the L1 distances from the grid vertices tie exactly
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 4, size=(8, 2)).astype(float)
    probs = rng.random(8) + 0.1
    verts = build_grid(pts).vertices
    return rng, (verts, pts, probs / probs.sum(), CURVE, "l1", 2.5)


def _l2_objective_args(seed):
    rng = np.random.default_rng(seed)
    eta = rand_discrete_eta(rng, n=12)
    support = rng.uniform(-1, 1, size=(9, 2))
    return rng, (support, eta.points, eta.probs, CURVE, "l2", 1.7)


def _random_simplex_point(rng, m):
    p = rng.random(m) * (rng.random(m) < 0.6)
    p[0] += 0.1
    return p / p.sum()


@pytest.mark.parametrize("make", [_tied_l1_objective_args, _l2_objective_args])
def test_simplex_objective_memo_matches_fresh_objective(make):
    rng, args = make(5)
    m = len(args[0])
    p, q = _random_simplex_point(rng, m), _random_simplex_point(rng, m)
    obj = _SimplexObjective(*args)
    obj.value(p)
    obj.value(q)
    j, grad = obj.value_and_grad(p)
    j_ref, grad_ref = _SimplexObjective(*args).value_and_grad(p)
    assert j == j_ref and np.array_equal(grad, grad_ref)
    assert obj.value(q) == _SimplexObjective(*args).value(q)
    # a point changed in place after it was evaluated is a new point
    r = p.copy()
    obj.value(r)
    r[:] = q
    j, grad = obj.value_and_grad(r)
    j_ref, grad_ref = _SimplexObjective(*args).value_and_grad(q)
    assert j == j_ref and np.array_equal(grad, grad_ref)


def _fresh_arrays_value_and_grad(obj, p):
    """J and its gradient by the objective's expressions in fresh arrays (the reference)."""
    w = (np.maximum(p, 0.0) * obj.b)[obj.order]
    seg = np.exp(-np.cumsum(w, axis=1)) * obj.dbeta
    j = obj.head + float(obj.probs @ np.sum(seg, axis=1))
    t_atoms = np.take(np.cumsum(seg[:, ::-1], axis=1), obj._tail_index)
    return j, -obj.b * (obj.probs @ t_atoms)


@pytest.mark.parametrize("make", [_tied_l1_objective_args, _l2_objective_args])
def test_simplex_objective_buffers_match_fresh_arrays(make):
    rng, args = make(7)
    obj = _SimplexObjective(*args)
    points = [_random_simplex_point(rng, len(args[0])) for _ in range(6)]  # with zeros
    returned = []
    for p in points:
        j_ref, grad_ref = _fresh_arrays_value_and_grad(obj, p)
        assert obj.value(p) == j_ref
        j, grad = obj.value_and_grad(p)
        assert j == j_ref and grad.tobytes() == grad_ref.tobytes()
        returned.append((grad, grad_ref))
    # later evaluations overwrote the buffers, not the gradients handed out
    assert all(grad.tobytes() == grad_ref.tobytes() for grad, grad_ref in returned)
    p1, p2 = points[:2]
    obj.value(p1)
    obj.value(p2)
    j, grad = obj.value_and_grad(p1)
    j_ref, grad_ref = _fresh_arrays_value_and_grad(obj, p1)
    assert j == j_ref and grad.tobytes() == grad_ref.tobytes()


class _FreshObjective:
    """Builds a new objective for every call, so no evaluation is reused."""

    def __init__(self, args):
        self.args = args
        self.b = float(args[-1])

    def value(self, p):
        return _SimplexObjective(*self.args).value(p)

    def value_and_grad(self, p):
        return _SimplexObjective(*self.args).value_and_grad(p)


@pytest.mark.parametrize("make", [_tied_l1_objective_args, _l2_objective_args])
def test_pgd_simplex_with_memo_matches_fresh_objectives(make):
    rng, args = make(9)
    p0 = np.full(len(args[0]), 1.0 / len(args[0]))
    p, j = _pgd_simplex(_SimplexObjective(*args), p0, 30)
    p_ref, j_ref = _pgd_simplex(_FreshObjective(args), p0, 30)
    assert np.array_equal(p, p_ref) and np.array_equal(j, j_ref)
    assert j < _SimplexObjective(*args).value(p0)  # the descent moved
