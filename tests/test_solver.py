import io

import numpy as np
import pytest

from measurefw import (
    DiscreteMeasure,
    DiscretePoints,
    Problem,
    Rect,
    SampleBatch,
    SolveTrace,
    SolverConfig,
    UniformRect,
    beta,
    certify,
    convex_hull,
    dfw_solve,
    fcfw_solve,
    fully_corrective,
    influence,
    kkt_residual,
    minimize_influence,
    objective_exact,
    simplex_project,
    smoothness_constant,
    two_point_optimum,
)
from measurefw.geometry import contains_many, project_many
from measurefw.response import InfluenceKernel
from measurefw.solver import _ADAM_LR, _adam_descend, _minimize_influence_kernel
from helpers import CURVE, rand_discrete_eta

SQRT3 = np.sqrt(3.0)
TRI = DiscretePoints([[0, 0], [1, 0], [0.5, SQRT3 / 2]], [1 / 3] * 3)
TRI_PROBLEM = Problem(TRI, budget=1.0)
TRI_UNIFORM = DiscreteMeasure(TRI.points, np.full(3, 1 / 3), 1.0)

TWO = DiscretePoints([[0, 0], [1, 0]], [0.5, 0.5])
TWO_PROBLEM = Problem(TWO, budget=1.0)

FAST = dict(inner_restarts=4, adam_steps=40, correction_steps=30)


def test_simplex_project_examples():
    assert np.allclose(simplex_project([0.3, 0.7]), [0.3, 0.7])
    assert np.allclose(simplex_project([1.0, 1.0]), [0.5, 0.5])
    assert np.allclose(simplex_project([2.0, 0.0, 0.0]), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="empty vector"):
        simplex_project([])


def test_simplex_project_bruteforce_oracle():
    # dense grid over the 3-simplex as an independent argmin oracle
    v = np.array([2.0, 0.0, 0.0])
    step = 0.01
    best, best_d = None, np.inf
    for i in np.arange(0, 1 + step, step):
        for j in np.arange(0, 1 - i + step, step):
            cand = np.array([i, j, max(1 - i - j, 0.0)])
            d = np.sum((cand - v) ** 2)
            if d < best_d:
                best, best_d = cand, d
    assert np.allclose(simplex_project(v), best, atol=2 * step)


def test_simplex_project_properties():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        v = rng.normal(scale=3, size=n)
        p = simplex_project(v)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) <= 1e-12
        # projection optimality against random feasible points
        q = rng.random(n)
        q = q / q.sum()
        assert np.sum((v - p) ** 2) <= np.sum((v - q) ** 2) + 1e-12


def test_minimize_influence_contracts():
    rng = np.random.default_rng(1)
    cfg = SolverConfig(**FAST)
    y = np.array([0.4, 0.6])
    eta = DiscretePoints([y], [1.0])
    prob = Problem(eta, budget=1.0)
    mu = DiscreteMeasure([y], [1.0])
    x_star, h_star = minimize_influence(mu, prob, cfg, rng)
    assert h_star == 0.0
    assert np.allclose(x_star, y, atol=1e-9)
    # uniform-vertex measure on the triangle is certifiably non-optimal
    x_star, h_star = minimize_influence(TRI_UNIFORM, TRI_PROBLEM, cfg, rng)
    assert h_star <= -0.003
    # analytic two-point optimum: no direction improves
    mu_star = two_point_optimum([0, 0], [1, 0], 0.5, 0.5, 1.0)
    _, h_star = minimize_influence(mu_star, TWO_PROBLEM, cfg, rng)
    assert -1e-8 <= h_star <= 0.0


def test_fully_corrective_two_point():
    cfg = SolverConfig(**FAST)
    cfg.correction_steps = 200
    support = np.array([[0.0, 0.0], [1.0, 0.0]])
    p = fully_corrective(support, [0.9, 0.1], TWO_PROBLEM, TWO, cfg)
    assert np.allclose(p, [0.5, 0.5], atol=1e-4)
    assert kkt_residual(support, p, TWO_PROBLEM, TWO) < 1e-6
    # single support point has a single feasible weight vector
    assert np.allclose(fully_corrective(support[:1], [1.0], TWO_PROBLEM, TWO, cfg), [1.0])


def test_fully_corrective_monotone():
    rng = np.random.default_rng(2)
    cfg = SolverConfig(**FAST)
    for _ in range(10):
        eta = rand_discrete_eta(rng)
        prob = Problem(eta, budget=float(rng.uniform(0.5, 3)))
        support = rng.uniform(-1, 1, size=(5, 2))
        p0 = rng.random(5)
        p0 = p0 / p0.sum()
        mu0 = DiscreteMeasure(support, p0 * prob.budget, prob.budget, merge_eps=0)
        p1 = fully_corrective(support, p0, prob, eta, cfg)
        mu1 = DiscreteMeasure(support, p1 * prob.budget, prob.budget, merge_eps=0)
        assert objective_exact(mu1, eta, CURVE) <= objective_exact(mu0, eta, CURVE) + 1e-12


def test_two_point_optimum_cases():
    mu = two_point_optimum([0, 0], [1, 0], 0.5, 0.5, 1.0)
    assert np.allclose(np.sort(mu.weights), [0.5, 0.5])
    # lambda ratio beyond e^b clamps all mass onto the heavy point
    mu_all = two_point_optimum([0, 0], [1, 0], 0.8, 0.2, 1.0)
    assert mu_all.n_atoms == 1
    assert np.allclose(mu_all.points[0], [0, 0])
    assert mu_all.weights[0] == pytest.approx(1.0)
    mu_edge = two_point_optimum([0, 0], [1, 0], 1.0, 0.0, 1.0)
    assert mu_edge.n_atoms == 1 and mu_edge.weights[0] == pytest.approx(1.0)
    mu_log = two_point_optimum([0, 0], [1, 0], 0.6, 0.4, 2.0)
    assert mu_log.weights[np.argmin(mu_log.points[:, 0])] == pytest.approx(
        1.2027325540540823, abs=1e-12
    )
    with pytest.raises(ValueError):
        two_point_optimum([0, 0], [1, 0], 0.7, 0.6, 1.0)


def test_two_point_optimum_rejects_nan():
    for lam1, lam2, budget, match in ((np.nan, 0.5, 1.0, "lambda1, lambda2"),
                                      (0.5, np.nan, 1.0, "lambda1, lambda2"),
                                      (0.5, 0.5, np.nan, "budget must be positive")):
        with pytest.raises(ValueError, match=match):
            two_point_optimum([0, 0], [1, 0], lam1, lam2, budget)


def test_two_point_optimum_grid_search_oracle():
    eta = DiscretePoints([[0, 0], [1, 0]], [0.6, 0.4])
    b = 2.0
    best_a, best_j = None, np.inf
    for a1 in np.linspace(0, b, 2001):
        w = np.array([a1, b - a1])
        keep = w > 0
        mu = DiscreteMeasure(np.array([[0, 0], [1, 0]])[keep], w[keep], b, merge_eps=0)
        j = objective_exact(mu, eta, CURVE)
        if j < best_j:
            best_a, best_j = a1, j
    mu_star = two_point_optimum([0, 0], [1, 0], 0.6, 0.4, b)
    assert mu_star.weights[np.argmin(mu_star.points[:, 0])] == pytest.approx(best_a, abs=2e-3)
    assert objective_exact(mu_star, eta, CURVE) <= best_j + 1e-12


def test_fcfw_single_demand_point_converges_immediately():
    y = np.array([0.3, 0.8])
    prob = Problem(DiscretePoints([y], [1.0]), budget=2.0)
    cfg = SolverConfig(max_outer_iters=3, **FAST, seed=5)
    mu, trace = fcfw_solve(prob, cfg)
    expect = np.exp(-2.0) * (1 - beta(CURVE, 0.0))
    assert trace.rows[1].j_value == pytest.approx(expect, abs=1e-12)
    assert trace.rows[1].h_star == pytest.approx(0.0, abs=1e-12)
    assert objective_exact(mu, prob.eta, CURVE) == pytest.approx(expect, abs=1e-12)


def test_fcfw_two_point_reaches_analytic_optimum():
    cfg = SolverConfig(max_outer_iters=120, **FAST, seed=7)
    mu, trace = fcfw_solve(TWO_PROBLEM, cfg)
    mu_star = two_point_optimum([0, 0], [1, 0], 0.5, 0.5, 1.0)
    j_star = objective_exact(mu_star, TWO, CURVE)
    assert trace.j_values()[-1] <= j_star + 1e-8
    js = trace.j_values()
    assert np.all(np.diff(js) <= 1e-12)
    assert np.all(np.diff([r.k for r in trace.rows]) == 1)


def test_fcfw_sufficient_decrease_and_h_rate():
    cfg = SolverConfig(max_outer_iters=60, **FAST, seed=9)
    for prob in (TWO_PROBLEM, Problem(rand_discrete_eta(np.random.default_rng(3)), budget=1.5)):
        mu, trace = fcfw_solve(prob, cfg)
        b = prob.budget
        lips, radius = smoothness_constant(b), b
        js, hs = trace.j_values(), trace.h_values()
        drops = js[:-1] - js[1:]
        bound = np.minimum(b * hs[:-1] ** 2 / (2 * lips * radius**2),
                           lips * radius**2 / (2 * b))
        assert np.all(drops >= bound - 1e-9)
        # running-min stationarity rate with J_lb = 0
        j1 = js[1]
        for n in range(1, len(hs)):
            run_min = np.min(np.abs(hs[1 : n + 1]))
            assert run_min <= np.sqrt(2 * lips * radius**2 * j1 / b) / np.sqrt(n) + 1e-12


def test_fcfw_feasibility_and_budget():
    rng = np.random.default_rng(4)
    eta = rand_discrete_eta(rng)
    prob = Problem(eta, budget=1.3)
    cfg = SolverConfig(max_outer_iters=25, **FAST, seed=2)
    mu, trace = fcfw_solve(prob, cfg)
    from measurefw.geometry import contains_many

    assert np.all(contains_many(prob.domain, mu.points))
    assert abs(mu.weights.sum() - prob.budget) <= 1e-9 * prob.budget


def test_dfw_first_step_and_rate():
    cfg = SolverConfig(max_outer_iters=120, **FAST, seed=11)
    mu, trace = dfw_solve(TWO_PROBLEM, cfg)
    # eta_0 = 1 wipes the initial atom: mu_1 is a single Dirac
    assert trace.rows[1].atoms == 1
    mu_star = two_point_optimum([0, 0], [1, 0], 0.5, 0.5, 1.0)
    j_star = objective_exact(mu_star, TWO, CURVE)
    lips, radius = smoothness_constant(1.0), 1.0
    js = trace.j_values()
    ks = np.arange(len(js))
    gaps = js - j_star
    assert np.all(gaps[1:] <= 2 * lips * radius**2 / (ks[1:] + 2) + 1e-9)


def test_fcfw_and_dfw_share_the_first_iteration():
    # both loops draw the same start atom and solve the same first subproblem;
    # they differ only in the weight update that follows
    cfg = SolverConfig(max_outer_iters=6, **FAST, seed=17)
    for prob in (TRI_PROBLEM, Problem(TRI, budget=3.0)):
        mu_fc, tr_fc = fcfw_solve(prob, cfg)
        mu_d, tr_d = dfw_solve(prob, cfg)
        assert _trajectory(tr_fc)[0] == _trajectory(tr_d)[0]
        for mu in (mu_fc, mu_d):
            assert abs(mu.weights.sum() - prob.budget) <= 1e-9 * prob.budget


def test_budget_mismatch_rejected():
    # at the wrong budget the zero-mean identity fails and the influence
    # minimum can be positive, which would read as a certificate
    mu = two_point_optimum([0, 0], [1, 0], 0.5, 0.5, 2.0)
    cfg = SolverConfig(**FAST)
    with pytest.raises(ValueError, match="budget mismatch"):
        certify(mu, TWO_PROBLEM, 20, cfg)
    with pytest.raises(ValueError, match="budget mismatch"):
        minimize_influence(mu, TWO_PROBLEM, cfg, np.random.default_rng(0))


def test_fcfw_dominates_dfw_eventually():
    cfg = SolverConfig(max_outer_iters=40, **FAST, seed=13)
    _, tr_fc = fcfw_solve(TWO_PROBLEM, cfg)
    _, tr_d = dfw_solve(TWO_PROBLEM, cfg)
    j_fc, j_d = tr_fc.j_values(), tr_d.j_values()
    assert np.all(j_fc[5:] <= j_d[5:] + 1e-12)


def test_certify_two_point_and_three_point():
    cfg = SolverConfig(**FAST)
    mu_star = two_point_optimum([0, 0], [1, 0], 0.5, 0.5, 1.0)
    min_h, _ = certify(mu_star, TWO_PROBLEM, 120, cfg)
    assert min_h >= -1e-6
    # support-zero property at the optimum (all atoms carry weight)
    h_atoms = influence(mu_star, mu_star.points, TWO, CURVE)
    assert np.max(np.abs(h_atoms)) <= 1e-5
    min_h, argmin = certify(TRI_UNIFORM, TRI_PROBLEM, 60, cfg)
    assert min_h <= -0.003
    centroid = np.array([0.5, 1 / (2 * SQRT3)])
    assert np.hypot(*(argmin - centroid)) < 0.25


def test_certify_and_subproblem_on_sampled_demand():
    prob = Problem(UniformRect(Rect([0, 0], [2, 1])), budget=1.0)
    cfg = SolverConfig(**FAST, mc_batch_size=200, seed=4)
    mu = DiscreteMeasure([[0.5, 0.5], [1.5, 0.5]], [0.5, 0.5])
    batch = SampleBatch.draw(prob.eta, cfg.mc_batch_size, cfg.seed)
    # an explicit batch equal to the one certify draws itself gives its result
    min_h, argmin = certify(mu, prob, 20, cfg)
    min_b, argmin_b = certify(mu, prob, 20, cfg, eta_or_batch=batch)
    assert min_b == min_h and np.array_equal(argmin_b, argmin)
    other = SampleBatch.draw(prob.eta, cfg.mc_batch_size, cfg.seed + 1)
    assert certify(mu, prob, 20, cfg, eta_or_batch=other)[0] != min_h
    with pytest.raises(TypeError):  # the batch is keyword only
        certify(mu, prob, 20, cfg, batch)
    # the subproblem resolves the same batch from the config
    kernel = InfluenceKernel.of(mu, batch, prob.curve, prob.norm)
    x_ref, h_ref = _minimize_influence_kernel(kernel, prob, cfg, np.random.default_rng(0))
    x_star, h_star = minimize_influence(mu, prob, cfg, np.random.default_rng(0))
    assert h_star == h_ref <= 0.0 and np.array_equal(x_star, x_ref)


def _trajectory(trace):
    """Everything except the wall-clock column."""
    return [(r.k, r.j_value, r.h_star, tuple(r.x_star), r.atoms) for r in trace.rows]


def test_seed_determinism():
    cfg = SolverConfig(max_outer_iters=20, **FAST, seed=21)
    _, t1 = fcfw_solve(TRI_PROBLEM, cfg)
    _, t2 = fcfw_solve(TRI_PROBLEM, cfg)
    assert _trajectory(t1) == _trajectory(t2)  # bitwise, timing column aside


def test_trace_csv_round_trip():
    cfg = SolverConfig(max_outer_iters=8, **FAST, seed=1)
    _, trace = fcfw_solve(TWO_PROBLEM, cfg)
    buf = io.StringIO(trace.to_csv_text())
    back = SolveTrace.read_csv(buf)
    assert len(back) == len(trace)
    assert np.array_equal(back.j_values(), trace.j_values())
    assert np.array_equal(back.h_values(), trace.h_values())


def test_fw_tolerance_stops_early():
    y = np.array([0.0, 0.0])
    prob = Problem(DiscretePoints([y], [1.0]), budget=1.0)
    cfg = SolverConfig(max_outer_iters=50, fw_tolerance=1e-9, **FAST, seed=3)
    _, trace = fcfw_solve(prob, cfg)
    assert len(trace) <= 3


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_outer_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(fw_tolerance=-1.0)
    with pytest.raises(ValueError, match="fw_tolerance"):
        SolverConfig(fw_tolerance=float("nan"))
    counts = ("max_outer_iters", "inner_restarts", "adam_steps", "correction_steps",
              "mc_batch_size")
    for name in counts:
        for bad in (2.5, 3.0, "3", np.float64(2.0), 0, -1):
            with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1$"):
                SolverConfig(**{name: bad})
        assert getattr(SolverConfig(**{name: np.int64(3)}), name) == 3
    for bad in (-1, 2.5, 1.0, np.int64(-3)):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0$"):
            SolverConfig(seed=bad)
    assert SolverConfig(seed=np.uint32(7)).seed == 7


# --- successive halving of the Adam lanes -----------------------------------


def _halving_case(n, seed=0, atoms=5):
    rng = np.random.default_rng(seed)
    probs, w = rng.random(n) + 0.1, rng.random(atoms) + 0.1
    eta = DiscretePoints(rng.uniform(0, 4, size=(n, 2)), probs / probs.sum())
    mu = DiscreteMeasure(rng.uniform(0, 4, size=(atoms, 2)), w * (3.0 / w.sum()), 3.0)
    kernel = InfluenceKernel.of(mu, eta, CURVE, "l2")
    domain = convex_hull(eta.points)
    return kernel, domain, rng


def _plain_adam(kernel, domain, starts, config):
    """Every lane for every step through the public projection (no halving)."""
    lr = _ADAM_LR * max(domain.diameter, 1e-12)
    x, m, v = starts.copy(), np.zeros_like(starts), np.zeros_like(starts)
    b1, b2 = 0.9, 0.999
    for t in range(1, config.adam_steps + 1):
        g = kernel.influence_gradient(x, on_singular="mask")
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        x = x - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + 1e-8)
        x = project_many(domain, x)
    return x


def _recorded_descent(kernel, domain, starts, config):
    """Run `_adam_descend`, recording which lanes each gradient call and rung saw.

    Returns (result, live lanes per gradient call, rungs); a rung is (gradient
    calls before it, live lanes, their points, their influence values, kept
    lanes).  Kept
    lanes are found by matching the rows the next gradient call gets, first
    match in lane order.
    """
    grad, infl = kernel.influence_gradient, kernel.influence
    events = []
    def spy_grad(xs, **kw):
        events.append(("g", np.array(xs)))
        return grad(xs, **kw)

    def spy_infl(xs):
        events.append(("h", np.array(xs), infl(xs)))
        return events[-1][2]

    kernel.influence_gradient, kernel.influence = spy_grad, spy_infl
    try:
        out = _adam_descend(kernel, domain, starts, config)
    finally:
        del kernel.influence_gradient, kernel.influence
    live, calls, rungs, rung = np.arange(len(starts)), [], [], None
    for kind, xs, *h in events:
        if kind == "h":
            rung = (len(calls), live, xs, h[0])
            continue
        if rung is not None:
            step, before, xr, hr = rung
            kept, at = [], -1
            for row in xs:
                at = at + 1 + int(np.flatnonzero(np.all(xr[at + 1:] == row, axis=1))[0])
                kept.append(at)
            live = before[kept]
            rungs.append((step, before, xr, hr, live))
            rung = None
        calls.append(live)
    return out, calls, rungs


@pytest.mark.parametrize("n", [3, 2000])
def test_lane_gradient_independent_of_other_lanes(n):
    kernel, domain, rng = _halving_case(n)
    xs = rng.uniform(-0.5, 4.5, size=(64, 2))
    full = kernel.influence_gradient(xs, on_singular="mask")
    for _ in range(40):
        lanes = np.sort(rng.choice(64, size=int(rng.integers(2, 65)), replace=False))
        sub = kernel.influence_gradient(xs[lanes], on_singular="mask")
        assert np.array_equal(sub, full[lanes])
    # projection treats each point on its own, inside or outside the domain
    proj = project_many(domain, xs)
    for lanes in (np.arange(1), np.arange(2, 40, 3), rng.choice(64, 7, replace=False)):
        assert np.array_equal(project_many(domain, xs[lanes]), proj[lanes])


@pytest.mark.parametrize("n", [3, 2000])
def test_halving_survivors_follow_their_unpruned_trajectory(n):
    kernel, domain, rng = _halving_case(n, seed=1)
    cfg = SolverConfig(inner_restarts=6, adam_steps=40)
    starts = rng.uniform(0, 4, size=(6, 2))
    out, calls, rungs = _recorded_descent(kernel, domain, starts, cfg)
    survivors = calls[-1]
    assert len(survivors) == 2  # the floor
    pair = _adam_descend(kernel, domain, starts[survivors], cfg)
    assert np.array_equal(pair, out[survivors])
    assert np.array_equal(pair, _plain_adam(kernel, domain, starts[survivors], cfg))


@pytest.mark.parametrize("lanes,steps", [(6, 80), (56, 300), (5, 40), (3, 16), (7, 3), (4, 1)])
def test_halving_rungs_keep_the_lowest_influence(lanes, steps):
    kernel, domain, rng = _halving_case(2000 if lanes == 6 else 40, seed=lanes)
    starts = rng.uniform(0, 4, size=(lanes, 2))
    out, calls, rungs = _recorded_descent(kernel, domain, starts, SolverConfig(adam_steps=steps))
    assert out.shape == (lanes, 2)
    assert np.all(contains_many(domain, out))
    assert len(calls) == steps
    # a rung after steps T//8, T//4 and T//2 while more than two lanes live
    live, expected = lanes, []
    for step in sorted({steps // 8, steps // 4, steps // 2} - {0}):
        if live > 2:
            expected.append((step, live, max((live + 1) // 2, 2)))
            live = expected[-1][2]
    assert [(step, len(before), len(kept)) for step, before, _, _, kept in rungs] == expected
    for step, before, xr, h, kept in rungs:
        # the kept lanes have the lowest h, in lane order, ties to the lower lane
        assert np.array_equal(kept, before[np.sort(np.argsort(h, kind="stable")[:len(kept)])])
        dropped = ~np.isin(before, kept)
        assert h[~dropped].max() <= h[dropped].min()
        # a dropped lane's row is where it was when it was dropped
        assert np.array_equal(out[before[dropped]], xr[dropped])
    lane_steps = sum(len(c) for c in calls)
    if (lanes, steps) == (6, 80):  # the city subproblem: 480 lane-steps become 210
        assert lane_steps == 210
    if (lanes, steps) == (56, 300):  # certify's refine: 16,800 become 5,236
        assert lane_steps == 5236


@pytest.mark.parametrize("lanes", [1, 2])
def test_adam_without_halving_is_the_plain_descent(lanes):
    kernel, domain, rng = _halving_case(300, seed=3)
    cfg = SolverConfig(inner_restarts=2, adam_steps=80)  # criterion 1's lane count
    starts = rng.uniform(0, 4, size=(lanes, 2))
    assert np.array_equal(_adam_descend(kernel, domain, starts, cfg),
                          _plain_adam(kernel, domain, starts, cfg))
