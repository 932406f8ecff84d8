import warnings

import numpy as np
import pytest

from measurefw import (
    DiscreteMeasure,
    DiscretePoints,
    Problem,
    Rect,
    SampleBatch,
    UniformRect,
    beta,
    beta_prime,
    correction_gradient,
    directional_derivative,
    influence,
    influence_gradient,
    objective_exact,
    objective_mc,
    simulate_objective,
    smoothness_constant,
    survival_integral,
    tv_distance,
)
from measurefw.geometry import pairwise_distance
from measurefw import response
from measurefw.response import _CHUNK_ELEMS, _THREAD_MIN_ELEMS, InfluenceKernel
from helpers import (
    CURVE,
    mix_measures,
    mix_toward_point,
    quad_objective,
    quad_survival,
    rand_discrete_eta,
    rand_measure,
)

SQRT3 = np.sqrt(3.0)
TRI = DiscretePoints([[0, 0], [1, 0], [0.5, SQRT3 / 2]], [1 / 3] * 3)
TRI_UNIFORM = DiscreteMeasure(TRI.points, np.full(3, 1 / 3), 1.0)
CENTROID = np.array([0.5, 1 / (2 * SQRT3)])

# frozen closed-form values (double checked against quadrature below)
SURV_NO_MASS = 0.3364845287667799        # 1 - beta(0)
SURV_ATOM_AT_Y = 0.1237857404055591      # e^{-1} (1 - beta(0))
SURV_ATOM_AT_1 = 0.15904930466463202     # (beta(1)-beta(0)) + e^{-1}(1-beta(1))
J_TWO_POINT_HALF = 0.13709917004013586   # e^{-1/2}(beta(1)-beta(0)) + e^{-1}(1-beta(1))


def test_survival_frozen_values():
    zero = DiscreteMeasure([[0.0, 0.0]], [0.0], budget=0.0)
    assert survival_integral(zero, [0, 0], CURVE) == pytest.approx(SURV_NO_MASS, abs=1e-14)
    unit = DiscreteMeasure([[0.0, 0.0]], [1.0])
    assert survival_integral(unit, [0, 0], CURVE) == pytest.approx(SURV_ATOM_AT_Y, abs=1e-14)
    assert survival_integral(unit, [1, 0], CURVE) == pytest.approx(SURV_ATOM_AT_1, abs=1e-14)
    assert survival_integral(unit, [0, 1], CURVE, "l1") == pytest.approx(SURV_ATOM_AT_1, abs=1e-14)


def test_survival_matches_quadrature_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        mu = rand_measure(rng)
        y = rng.normal(size=2)
        for norm in ("l2", "l1"):
            closed = survival_integral(mu, y, CURVE, norm)
            assert closed == pytest.approx(quad_survival(mu, y, CURVE, norm), abs=1e-10)
            assert 0.0 < closed <= SURV_NO_MASS + 1e-15


def test_survival_range_and_weight_transfer():
    rng = np.random.default_rng(1)
    for _ in range(20):
        mu = rand_measure(rng, m=4)
        y = rng.normal(size=2)
        base = survival_integral(mu, y, CURVE)
        # moving an atom's mass onto y itself never hurts coverage of y
        pts = np.vstack([mu.points, y])
        shift = rng.uniform(0, mu.weights[0])
        w = np.concatenate([mu.weights, [shift]])
        w[0] -= shift
        closer = DiscreteMeasure(pts, w, mu.budget)
        assert survival_integral(closer, y, CURVE) <= base + 1e-12


def test_objective_exact_examples():
    single = DiscretePoints([[0.25, -0.5]], [1.0])
    mu = DiscreteMeasure([[0.25, -0.5]], [1.0])
    assert objective_exact(mu, single, CURVE) == pytest.approx(SURV_ATOM_AT_Y, abs=1e-14)
    two = DiscretePoints([[0, 0], [1, 0]], [0.5, 0.5])
    mu_half = DiscreteMeasure([[0, 0], [1, 0]], [0.5, 0.5])
    assert objective_exact(mu_half, two, CURVE) == pytest.approx(J_TWO_POINT_HALF, abs=1e-14)
    with pytest.raises(TypeError, match="objective_mc"):
        objective_exact(mu, UniformRect(Rect([0, 0], [1, 1])), CURVE)


def test_objective_matches_quadrature():
    rng = np.random.default_rng(2)
    for _ in range(10):
        eta = rand_discrete_eta(rng)
        mu = rand_measure(rng)
        for norm in ("l2", "l1"):
            assert objective_exact(mu, eta, CURVE, norm) == pytest.approx(
                quad_objective(mu, eta, CURVE, norm), abs=1e-10
            )


def test_norm_ordering():
    rng = np.random.default_rng(3)
    for _ in range(50):
        eta = rand_discrete_eta(rng)
        mu = rand_measure(rng)
        assert objective_exact(mu, eta, CURVE, "l2") <= objective_exact(mu, eta, CURVE, "l1") + 1e-12


def test_objective_mc_identities():
    rng = np.random.default_rng(4)
    mu = rand_measure(rng, m=3, budget=1.0)
    y = np.array([0.2, 0.4])
    batch = SampleBatch([y], seed=0)
    assert objective_mc(mu, batch, CURVE) == pytest.approx(survival_integral(mu, y, CURVE))
    # batch listing demand points with multiplicities proportional to probs
    eta = DiscretePoints([[0, 0], [1, 1]], [0.25, 0.75])
    batch2 = SampleBatch([[0, 0]] + [[1, 1]] * 3, seed=0)
    assert objective_mc(mu, batch2, CURVE) == pytest.approx(objective_exact(mu, eta, CURVE))


def test_objective_mc_self_consistency():
    rng = np.random.default_rng(5)
    eta = UniformRect(Rect([0, 0], [1, 1]))
    mu = rand_measure(rng, m=4, budget=1.0, span=1.0)
    n = 100_000
    b1 = SampleBatch.draw(eta, n, seed=11)
    b2 = SampleBatch.draw(eta, 2 * n, seed=12)
    j1, j2 = objective_mc(mu, b1, CURVE), objective_mc(mu, b2, CURVE)
    k1 = InfluenceKernel(mu.points, mu.weights, b1.points, np.full(n, 1 / n), CURVE, "l2")
    k2 = InfluenceKernel(mu.points, mu.weights, b2.points, np.full(2 * n, 1 / (2 * n)), CURVE, "l2")
    se = np.hypot(k1.survival_values.std() / np.sqrt(n), k2.survival_values.std() / np.sqrt(2 * n))
    assert abs(j1 - j2) < 3 * se


def test_influence_trivial_and_hand_expansion():
    y = np.array([0.3, 0.3])
    mu = DiscreteMeasure([y], [1.0])
    eta = DiscretePoints([y], [1.0])
    assert influence(mu, y, eta, CURVE) == pytest.approx(0.0, abs=1e-15)
    # mass at z, demand at y, query x closer to y than z:
    # h = -b (beta(|z-y|) - beta(|x-y|)) < 0
    rng = np.random.default_rng(6)
    for _ in range(20):
        b = rng.uniform(0.3, 3)
        z = rng.normal(size=2)
        yy = rng.normal(size=2)
        dz = np.hypot(*(z - yy))
        x = yy + (z - yy) * rng.uniform(0.05, 0.95)
        mu = DiscreteMeasure([z], [b])
        eta = DiscretePoints([yy], [1.0])
        want = -b * (beta(CURVE, dz) - beta(CURVE, np.hypot(*(x - yy))))
        assert influence(mu, x, eta, CURVE) == pytest.approx(want, abs=1e-12)
        assert want < 0


def test_influence_three_point_centroid():
    h = influence(TRI_UNIFORM, CENTROID, TRI, CURVE)
    # reported rounded inner value: (1/3) e^{-1/3} (-0.0129)
    assert h == pytest.approx((1 / 3) * np.exp(-1 / 3) * (-0.0129), abs=2e-4)
    assert h == pytest.approx(-0.003077578457398411, abs=1e-14)


def test_influence_matches_definition_fd():
    rng = np.random.default_rng(7)
    for _ in range(15):
        eta = rand_discrete_eta(rng)
        mu = rand_measure(rng)
        x = rng.normal(size=2)
        for norm in ("l2", "l1"):
            h = influence(mu, x, eta, CURVE, norm)
            t1, t2 = 1e-5, 2e-5
            j0 = objective_exact(mu, eta, CURVE, norm)
            f1 = (objective_exact(mix_toward_point(mu, x, t1), eta, CURVE, norm) - j0) / t1
            f2 = (objective_exact(mix_toward_point(mu, x, t2), eta, CURVE, norm) - j0) / t2
            assert h == pytest.approx(2 * f1 - f2, abs=5e-8)


def test_zero_mean_identity():
    rng = np.random.default_rng(8)
    for _ in range(100):
        eta = rand_discrete_eta(rng)
        mu = rand_measure(rng)
        norm = "l1" if rng.random() < 0.5 else "l2"
        h = influence(mu, mu.points, eta, CURVE, norm)
        assert abs(float(mu.weights @ h)) <= 1e-8 * max(mu.budget, 1e-9)


def test_influence_gradient_fd_and_symmetry():
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 30:
        eta = rand_discrete_eta(rng)
        mu = rand_measure(rng)
        x = rng.uniform(-1, 1, size=2)
        r = np.hypot(*(eta.points - x).T)
        dists = np.hypot(*(mu.points[:, None] - eta.points[None]).T).ravel()
        # keep clear of demand points and of the segment kinks
        if r.min() < 0.05 or np.min(np.abs(r[:, None] - dists[None])) < 1e-3:
            continue
        g = influence_gradient(mu, x, eta, CURVE)
        eps = 1e-5
        fd = np.array([
            (influence(mu, x + d, eta, CURVE) - influence(mu, x - d, eta, CURVE)) / (2 * eps)
            for d in (np.array([eps, 0.0]), np.array([0.0, eps]))
        ])
        assert np.linalg.norm(g - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-12)
        checked += 1
    g0 = influence_gradient(TRI_UNIFORM, CENTROID, TRI, CURVE)
    assert np.linalg.norm(g0) < 1e-10  # symmetry pins the centroid gradient
    # single demand point with all mass on it: gradient points away from y
    y = np.array([0.0, 0.0])
    mu = DiscreteMeasure([y], [1.0])
    eta1 = DiscretePoints([y], [1.0])
    for _ in range(10):
        x = rng.normal(size=2)
        g = influence_gradient(mu, x, eta1, CURVE)
        assert g @ (x - y) > 0
    with pytest.raises(ValueError, match="singular"):
        influence_gradient(mu, y, eta1, CURVE)


def test_nonfinite_queries_raise():
    kernel = InfluenceKernel(TRI_UNIFORM.points, TRI_UNIFORM.weights, TRI.points, TRI.probs,
                             CURVE, "l2")
    for bad in (np.nan, np.inf, -np.inf):
        xs = np.array([[0.2, 0.3], [bad, 0.1]])
        with pytest.raises(ValueError, match="finite"):
            kernel.influence(xs)
        with pytest.raises(ValueError, match="finite"):
            kernel.influence_gradient(xs)
        with pytest.raises(ValueError, match="finite"):
            kernel.influence(xs[1])
        with pytest.raises(ValueError, match="finite"):
            kernel.influence_gradient(xs[1])
        # a non-finite atom or demand point is rejected when the kernel is built
        with pytest.raises(ValueError, match="finite"):
            InfluenceKernel(xs, [0.5, 0.5], TRI.points, TRI.probs, CURVE, "l2")
        with pytest.raises(ValueError, match="finite"):
            InfluenceKernel(TRI_UNIFORM.points, TRI_UNIFORM.weights, xs, [0.5, 0.5], CURVE, "l2")
        with pytest.raises(ValueError, match="finite"):
            SampleBatch(xs, seed=0)
    # a flat pair of points or a transposed (2, 3) array is not (k, 2): it
    # raises instead of being read as other points
    for bad in ([0.2, 0.3, 0.4, 0.1], np.array([[0.2, 0.3], [0.4, 0.1], [0.5, 0.5]]).T, []):
        with pytest.raises(ValueError, match="array of points"):
            kernel.influence(bad)
        with pytest.raises(ValueError, match="array of points"):
            kernel.influence_gradient(bad)
    with pytest.raises(ValueError, match="array of points"):
        influence(TRI_UNIFORM, [0.2, 0.3, 0.4, 0.1], TRI, CURVE)
    with pytest.raises(ValueError, match="array of points"):
        influence_gradient(TRI_UNIFORM, [0.2, 0.3, 0.4, 0.1], TRI, CURVE)


TWO_ATOMS, TWO_DEMAND = [[0.0, 0.0], [1.0, 0.0]], [[0.2, 0.1], [0.8, 0.3]]
BAD_WEIGHTS = "weights must be 2 finite, nonnegative values"
BAD_PROBS = "demand_probs must be 2 finite, nonnegative values"
BAD_KERNEL_INPUTS = {
    "negative weight": ([0.5, -0.5], [0.5, 0.5], BAD_WEIGHTS),
    "NaN weight": ([0.5, np.nan], [0.5, 0.5], BAD_WEIGHTS),
    "infinite weight": ([np.inf, 0.5], [0.5, 0.5], BAD_WEIGHTS),
    "extra weight": ([0.5, 0.5, 0.5], [0.5, 0.5], BAD_WEIGHTS),
    "scalar weight": (1.0, [0.5, 0.5], BAD_WEIGHTS),
    "NaN probability": ([0.5, 0.5], [0.5, np.nan], BAD_PROBS),
    "negative probability": ([0.5, 0.5], [1.5, -0.5], BAD_PROBS),
    "missing probability": ([0.5, 0.5], [1.0], BAD_PROBS),
}


@pytest.mark.parametrize("weights, probs, message", BAD_KERNEL_INPUTS.values(),
                         ids=BAD_KERNEL_INPUTS.keys())
def test_kernel_rejects_bad_weights_and_probs(weights, probs, message):
    with pytest.raises(ValueError, match=message):
        InfluenceKernel(TWO_ATOMS, weights, TWO_DEMAND, probs, CURVE, "l2")


TWO_DEMAND_PROBLEM = Problem(DiscretePoints(TWO_DEMAND, [0.5, 0.5]), budget=1.0)
REJECTED_CALLS = {
    "empty batch": (lambda: SampleBatch(np.empty((0, 2)), seed=0),
                    r"batch must be a nonempty \(n, 2\) array of points"),
    "empty support": (lambda: correction_gradient(np.empty((0, 2)), [], TWO_DEMAND_PROBLEM),
                      "support must be nonempty"),
    "weights longer than support": (
        lambda: correction_gradient(TWO_ATOMS[:1], [0.5, 0.5], TWO_DEMAND_PROBLEM),
        "weight vector length must match the support"),
    "gradient under L1": (
        lambda: InfluenceKernel(TWO_ATOMS, [0.5, 0.5], TWO_DEMAND, [0.5, 0.5], CURVE,
                                "l1").influence_gradient([0.5, 0.5]),
        "influence gradient is only available under the L2 norm"),
    "kernel without atoms": (
        lambda: InfluenceKernel(np.empty((0, 2)), [], TWO_DEMAND, [0.5, 0.5], CURVE, "l2"),
        "measure must have at least one atom"),
    "fractional batch size": (lambda: SampleBatch.draw(TRI, 2.5, 0),
                              "^n must be an integer >= 1$"),
    "fractional reps": (lambda: simulate_objective(DiscreteMeasure(TWO_ATOMS, [0.5, 0.5]), TRI,
                                                   CURVE, "l2", 2.5, np.random.default_rng(0)),
                        "^reps must be an integer >= 1$"),
    "derivative at budget 0": (
        lambda: directional_derivative(DiscreteMeasure([[0.0, 0.0]], [0.0]),
                                       DiscreteMeasure([[1.0, 0.0]], [0.0]), TRI, CURVE),
        "budget must be positive"),
}


@pytest.mark.parametrize("call, message", REJECTED_CALLS.values(), ids=REJECTED_CALLS.keys())
def test_response_rejects_malformed_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_demand_of_rejects_continuous_eta():
    with pytest.raises(TypeError, match="expected a discrete incident distribution or a "
                                        "SampleBatch, got UniformRect"):
        response.demand_of(UniformRect(Rect([0, 0], [1, 1])))


def test_single_point_queries_keep_their_shape():
    x = np.array([0.2, 0.3])
    h = influence(TRI_UNIFORM, x, TRI, CURVE)
    assert isinstance(h, float)
    assert h == influence(TRI_UNIFORM, x[None], TRI, CURVE)[0]
    g = influence_gradient(TRI_UNIFORM, x, TRI, CURVE)
    assert g.shape == (2,)
    assert np.array_equal(g, influence_gradient(TRI_UNIFORM, [x], TRI, CURVE)[0])
    # an empty (0, 2) query set is still a valid query
    assert influence(TRI_UNIFORM, np.empty((0, 2)), TRI, CURVE).shape == (0,)


def test_influence_gradient_mask_zeroes_coincident_demand():
    rng = np.random.default_rng(12)
    eta = rand_discrete_eta(rng, n=5)
    mu = rand_measure(rng, m=4)
    kernel = InfluenceKernel.of(mu, eta, CURVE, "l2")
    # the first query lies 5e-10 from demand point 2, inside the singular radius
    xs = np.vstack([eta.points[2] + [3e-10, -4e-10], rng.uniform(-1, 1, size=(3, 2))])
    masked = kernel.influence_gradient(xs, on_singular="mask")
    assert np.array_equal(masked[1:], kernel.influence_gradient(xs[1:]))
    # there the gradient is that of the other demand points alone
    keep = np.arange(5) != 2
    rest = InfluenceKernel(mu.points, mu.weights, eta.points[keep], eta.probs[keep], CURVE,
                           "l2", budget=mu.budget)
    np.testing.assert_allclose(masked[0], rest.influence_gradient(xs[:1])[0], rtol=1e-12)
    with pytest.raises(ValueError, match="singular"):
        kernel.influence_gradient(xs)


@pytest.mark.parametrize("norm", ["l2", "l1"])
@pytest.mark.parametrize("n", [3, 40, 1000, 3600])
def test_influence_blocks_split_exactly(n, norm):
    rng = np.random.default_rng(n)
    demand = rng.uniform(0.0, 1.0, size=(n, 2))
    probs = rng.random(n) + 0.1
    kernel = InfluenceKernel(rng.uniform(0.0, 1.0, size=(9, 2)), rng.random(9) + 0.1,
                             demand, probs / probs.sum(), CURVE, norm)
    blk = kernel.block
    assert blk % 8 == 0
    assert blk * n <= max(_CHUNK_ELEMS, 8 * n)
    xs = rng.uniform(-0.2, 1.2, size=(3 * blk + 5, 2))
    whole = kernel.influence(xs).tobytes()
    for _ in range(3):
        cuts = np.sort(rng.choice(np.arange(1, 4), size=int(rng.integers(1, 4)),
                                  replace=False)) * blk
        parts = [kernel.influence(part) for part in np.split(xs, cuts)]
        assert np.concatenate(parts).tobytes() == whole


def _counted_executor(monkeypatch):
    """Count the thread pools `influence` creates; returns the list of pool sizes."""
    made = []

    class Counted(response.ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(response, "ThreadPoolExecutor", Counted)
    return made


@pytest.mark.parametrize("norm", ["l2", "l1"])
@pytest.mark.parametrize("m", [1, 8, 40, 64])
def test_influence_sweep_matches_per_block_formula(m, norm, monkeypatch):
    # m = 64 needs a 128-column table; m = 40 fits in 64 columns
    rng = np.random.default_rng(m)
    n = 300
    demand = rng.uniform(0.0, 1.0, size=(n, 2))
    probs = rng.random(n) + 0.1
    probs /= probs.sum()
    kernel = InfluenceKernel(rng.uniform(0.0, 1.0, size=(m, 2)), rng.random(m) + 0.1,
                             demand, probs, CURVE, norm)
    blk = kernel.block
    xs = rng.uniform(-0.2, 1.2, size=(5 * blk + 3, 2))  # a ragged last block
    assert n * len(xs) >= _THREAD_MIN_ELEMS
    want = np.concatenate([
        kernel.h_const - kernel.budget
        * (probs @ kernel.tails(pairwise_distance(demand, xs[lo : lo + blk], norm)))
        for lo in range(0, len(xs), blk)]).tobytes()
    made = _counted_executor(monkeypatch)
    for workers in ("1", "2", "4"):
        monkeypatch.setenv("MEASURE_FW_THREADS", workers)
        assert kernel.influence(xs).tobytes() == want
    assert made == [2, 4]


def test_small_or_single_worker_sweeps_create_no_executor(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("executor created")

    rng = np.random.default_rng(9)
    n = 300
    kernel = InfluenceKernel(rng.uniform(0.0, 1.0, size=(12, 2)), rng.random(12) + 0.1,
                             rng.uniform(0.0, 1.0, size=(n, 2)), np.full(n, 1.0 / n), CURVE,
                             "l2")
    below = rng.uniform(0.0, 1.0, size=(_THREAD_MIN_ELEMS // n, 2))
    above = rng.uniform(0.0, 1.0, size=(4 * kernel.block, 2))
    assert n * len(below) < _THREAD_MIN_ELEMS <= n * len(above)
    want = kernel.influence(above).tobytes()
    monkeypatch.setattr(response, "ThreadPoolExecutor", refuse)
    monkeypatch.setenv("MEASURE_FW_THREADS", "4")
    kernel.influence(below)
    monkeypatch.setenv("MEASURE_FW_THREADS", "1")
    assert kernel.influence(above).tobytes() == want
    # a single block has nothing to split, whatever the cap
    wide = InfluenceKernel(kernel.atoms, np.ones(12), rng.uniform(0.0, 1.0, size=(20_000, 2)),
                           np.full(20_000, 5e-5), CURVE, "l2")
    monkeypatch.setenv("MEASURE_FW_THREADS", "4")
    assert wide.influence(above[: wide.block]).shape == (wide.block,)


def test_kernel_finite_at_huge_coordinates():
    # squared coordinate differences overflow past ~1e154; the distance is
    # then inf, where beta is 1 and beta' is 0 exactly, as at 1e200 itself
    demand = np.array([[1e200, 0.0], [-1e200, 3e199], [0.0, 1e200]])
    probs = np.array([0.25, 0.25, 0.5])
    atoms = np.array([[0.0, 0.0], [1.0, 1.0]])
    xs = np.array([[0.5, 0.5], [-2.0, 3.0]])
    for norm in ("l2", "l1"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = InfluenceKernel(atoms, [0.5, 1.5], demand, probs, CURVE, norm)
            values = [kernel.influence(xs)]
            if norm == "l2":
                values.append(kernel.influence_gradient(xs))
        assert kernel.objective() == pytest.approx(SURV_NO_MASS, rel=1e-15)
        assert all(np.isfinite(v).all() for v in values)


def _brute_tail(w, d, r):
    """int_r^inf e^{-mass(t)} d(beta)(t), one term per constant-mass segment."""
    cuts = np.concatenate([[r], np.unique(d[d > r]), [np.inf]])
    return sum(np.exp(-w[d <= lo].sum()) * (beta(CURVE, hi) - beta(CURVE, lo))
               for lo, hi in zip(cuts[:-1], cuts[1:]))


@pytest.mark.parametrize("m", [1, 3, 4, 7, 8, 15, 16, 255, 256, 300])
def test_segment_tables_match_brute_force(m):
    # atom counts at and around the power-of-two table widths (from 256
    # atoms the table is 512 wide and the search's first step is 256);
    # integer coordinates make many distances tie exactly, and one atom sits
    # on a demand point.  Past 16 atoms the weights shrink so that the total
    # mass stays below ~17: e^{-mass} moves by mass x its rounding, which the
    # two summation orders do not share
    rng = np.random.default_rng(100 + m)
    n = 5
    demand = rng.integers(-3, 4, size=(n, 2)).astype(float)
    atoms = rng.integers(-3, 4, size=(m, 2)).astype(float)
    atoms[0] = demand[0]
    w = (rng.random(m) + 0.1) * (16 / max(m, 16))
    for norm in ("l1", "l2"):
        kernel = InfluenceKernel(atoms, w, demand, np.full(n, 1 / n), CURVE, norm)
        d = pairwise_distance(demand, atoms, norm)
        radii = np.hstack([d, np.zeros((n, 1)), d.max(axis=1, keepdims=True) + 1.0,
                           rng.uniform(0.0, 8.0, size=(n, 3))])
        want_mass = np.array([[w[d[i] <= r].sum() for r in row] for i, row in enumerate(radii)])
        want_tail = np.array([[_brute_tail(w, d[i], r) for r in row]
                              for i, row in enumerate(radii)])
        np.testing.assert_allclose(kernel.ball_masses(radii), want_mass, rtol=1e-13, atol=0)
        np.testing.assert_allclose(kernel.tails(radii), want_tail, rtol=1e-13, atol=0)


@pytest.mark.parametrize("m", [1, 7, 16, 255, 256, 300])
def test_query_major_search_is_the_transposed_segment_search(m):
    # the gradient's (query, demand) layout starts each entry at its demand
    # row and must land on the same flat index as the rows-first search,
    # tied L1 distances included
    rng = np.random.default_rng(200 + m)
    n = 6
    demand = rng.integers(-3, 4, size=(n, 2)).astype(float)
    atoms = rng.integers(-3, 4, size=(m, 2)).astype(float)
    kernel = InfluenceKernel(atoms, rng.random(m) + 0.1, demand, np.full(n, 1 / n), CURVE, "l1")
    d = pairwise_distance(demand, atoms, "l1")
    radii = np.hstack([d, np.zeros((n, 1)), rng.integers(0, 13, size=(n, 20)).astype(float)])
    rows_first = kernel._segments(radii)
    counts = np.array([[np.sum(d[i] <= r) for r in row] for i, row in enumerate(radii)])
    assert np.array_equal(rows_first - kernel._row_start[:, None], counts)
    q = np.ascontiguousarray(radii.T)
    idx = np.empty(q.shape, dtype=np.intp)
    idx[...] = kernel._row_start
    got = kernel._search(q, idx, np.empty(q.shape), np.empty(q.shape, dtype=bool))
    assert got.dtype == rows_first.dtype
    assert np.array_equal(got, rows_first.T)


# each atom count sits at or just below a table width P (2, 4, 8, 16, 16, 64),
# so a row's NaN padding is one column wide or many
@pytest.mark.parametrize("m", [1, 2, 7, 8, 15, 63])
def test_counted_segments_are_the_search_index(m):
    # the small-call gradient counts the distances at or below each radius in
    # its row of `_dist_rows`; that count must be the binary search's index
    # for radii tied with atom distances, 0, past the last atom and inf
    rng = np.random.default_rng(300 + m)
    n = 5
    demand = rng.integers(-3, 4, size=(n, 2)).astype(float)
    atoms = rng.integers(-3, 4, size=(m, 2)).astype(float)
    kernel = InfluenceKernel(atoms, rng.random(m) + 0.1, demand, np.full(n, 1 / n), CURVE, "l2")
    d = pairwise_distance(demand, atoms, "l2")
    radii = np.hstack([d, np.zeros((n, 1)), d.max(axis=1, keepdims=True) + 1.0,
                       np.full((n, 1), np.inf), rng.uniform(0.0, 8.0, size=(n, 8))])
    q = np.ascontiguousarray(radii.T)  # query-major, as in the gradient
    counted = (kernel._dist_rows <= q[..., None]).sum(axis=-1, dtype=np.intp)
    counted += kernel._row_start
    idx = np.empty(q.shape, dtype=np.intp)
    idx[...] = kernel._row_start
    searched = kernel._search(q, idx, np.empty(q.shape), np.empty(q.shape, dtype=bool))
    assert np.array_equal(counted, searched)


@pytest.mark.parametrize("m", [1, 2, 7, 8, 15, 63])
def test_counted_and_searched_gradients_are_bit_equal(m, monkeypatch):
    # queries on atoms tie their distances exactly, one sits on a demand
    # point (masked), one lies past every atom and one's distances overflow
    # to inf; the weights are positive, so a wrong segment changes the bits
    rng = np.random.default_rng(400 + m)
    n = 4
    demand = rng.integers(-3, 4, size=(n, 2)).astype(float)
    atoms = rng.integers(-3, 4, size=(m, 2)).astype(float)
    kernel = InfluenceKernel(atoms, rng.random(m) + 0.1, demand, np.full(n, 1 / n), CURVE, "l2")
    xs = np.vstack([atoms[:4], demand[:1], [[40.0, -40.0], [1e200, 0.0]],
                    rng.uniform(-4.0, 4.0, size=(5, 2))])
    grads = []
    for count_max in (0, 10**9):  # every call searched, every call counted
        monkeypatch.setattr(response, "_COUNT_MAX", count_max)
        grads.append(kernel.influence_gradient(xs, on_singular="mask"))
    assert grads[0].tobytes() == grads[1].tobytes()


def _rows_first_gradient(kernel, xs):
    """The gradient as one (demand x query) pass, singular entries masked."""
    dx = xs[:, 0] - kernel.demand[:, 0][:, None]
    dy = xs[:, 1] - kernel.demand[:, 1][:, None]
    r = np.sqrt(dx * dx + dy * dy)
    singular = r < 1e-9
    r[singular] = 1.0
    decay = kernel._decay_flat[kernel._segments(r)]
    coef = kernel.budget * kernel.probs[:, None] * decay * beta_prime(kernel.curve, r) / r
    coef[singular] = 0.0
    return np.column_stack([np.einsum("nk,nk->k", coef, dx), np.einsum("nk,nk->k", coef, dy)])


@pytest.mark.parametrize("m", [1, 11, 40, 300])
@pytest.mark.parametrize("n", [1, 2, 3, 2000])
def test_influence_gradient_matches_rows_first_formula(n, m):
    rng = np.random.default_rng(10 * n + m)
    demand = rng.uniform(0.0, 4.0, size=(n, 2))
    probs = rng.random(n) + 0.1
    kernel = InfluenceKernel(rng.uniform(0.0, 4.0, size=(m, 2)), rng.random(m) * 50 / m,
                             demand, probs / probs.sum(), CURVE, "l2")
    for k in (1, 2, 6, 56):
        xs = rng.uniform(-0.5, 4.5, size=(k, 2))
        lanes = [xs, np.vstack([demand[n // 2] + [3e-10, -4e-10], xs[1:]])]
        for q in lanes:
            got = kernel.influence_gradient(q, on_singular="mask")
            want = _rows_first_gradient(kernel, q)
            scale = np.abs(want).max(axis=1)
            assert np.all(np.abs(got - want).max(axis=1) <= 1e-12 * scale)
            # one lane alone gives the bits it gets in the full call
            for j in range(k):
                assert kernel.influence_gradient(q[j : j + 1], on_singular="mask").tobytes() \
                    == got[j].tobytes()
        with pytest.raises(ValueError, match="singular"):
            kernel.influence_gradient(lanes[1])


def test_directional_derivative():
    rng = np.random.default_rng(10)
    eta = rand_discrete_eta(rng)
    mu = rand_measure(rng, budget=1.3)
    assert directional_derivative(mu, mu, eta, CURVE) == pytest.approx(0.0, abs=1e-12)
    x = rng.normal(size=2)
    nu = DiscreteMeasure([x], [mu.budget], mu.budget)
    assert directional_derivative(mu, nu, eta, CURVE) == pytest.approx(
        influence(mu, x, eta, CURVE), abs=1e-12
    )
    for _ in range(10):
        nu = rand_measure(rng, budget=mu.budget)
        dd = directional_derivative(mu, nu, eta, CURVE)
        t = 1e-5
        fd = (objective_exact(mix_measures(mu, nu, t), eta, CURVE) -
              objective_exact(mu, eta, CURVE)) / t
        assert dd == pytest.approx(fd, rel=1e-3, abs=1e-9)
    with pytest.raises(ValueError, match="budget mismatch"):
        directional_derivative(mu, rand_measure(rng, budget=mu.budget + 1), eta, CURVE)


def test_correction_gradient():
    curve = CURVE
    # symmetric pair of demand/support points -> equal components
    eta = DiscretePoints([[0, 0], [1, 0]], [0.5, 0.5])
    prob = Problem(eta, budget=1.0)
    g = correction_gradient(np.array([[0.0, 0.0], [1.0, 0.0]]), [0.5, 0.5], prob)
    assert g[0] == pytest.approx(g[1], abs=1e-14)
    # single support point: d J / d p = -b e^{-p b} sum_y lambda_y (1 - beta(r_y))
    rng = np.random.default_rng(11)
    eta = rand_discrete_eta(rng)
    prob = Problem(eta, budget=1.7)
    x0 = rng.normal(size=2)
    r = np.hypot(*(eta.points - x0).T)
    hand = -prob.budget * np.exp(-prob.budget) * float(
        eta.probs @ (1.0 - beta(curve, r))
    )
    assert correction_gradient([x0], [1.0], prob)[0] == pytest.approx(hand, abs=1e-12)
    # generic FD match
    for _ in range(10):
        sup = rng.normal(size=(4, 2))
        p = rng.random(4)
        p = p / p.sum()
        g = correction_gradient(sup, p, prob)
        for i in range(4):
            e = np.zeros(4)
            e[i] = 1e-6

            def jp(pv):
                return InfluenceKernel(
                    sup, pv * prob.budget, eta.points, eta.probs, curve, "l2",
                    budget=prob.budget,
                ).objective()

            fd = (jp(p + e) - jp(p - e)) / 2e-6
            assert g[i] == pytest.approx(fd, abs=1e-5)
    with pytest.raises(ValueError, match="simplex"):
        correction_gradient([[0, 0], [1, 1]], [0.7, 0.6], prob)
    # a flat support [x0, y0, x1, y1] is not read as two points
    with pytest.raises(ValueError, match="array of points"):
        correction_gradient([0.0, 0.0, 1.0, 1.0], [0.5, 0.5], prob)


def test_simulate_objective_matches_closed_form():
    rng = np.random.default_rng(12)
    y = np.array([0.1, 0.2])
    mu = DiscreteMeasure([y], [1.0])
    eta = DiscretePoints([y], [1.0])
    est, se = simulate_objective(mu, eta, CURVE, "l2", 300_000, rng)
    assert abs(est - SURV_ATOM_AT_Y) <= 3 * se
    # vanishing budget: nobody responds, so the estimate is 1 - beta(0)
    tiny = DiscreteMeasure([y], [1e-9], budget=1e-9)
    est0, se0 = simulate_objective(tiny, eta, CURVE, "l2", 100_000, rng)
    assert abs(est0 - SURV_NO_MASS) <= max(3 * se0, 1e-6)
    with pytest.raises(ValueError):
        simulate_objective(mu, eta, CURVE, "l2", 0, rng)


def test_simulate_matches_exact_on_random_instances():
    rng = np.random.default_rng(13)
    misses = 0
    for _ in range(8):
        eta = rand_discrete_eta(rng, n=3)
        mu = rand_measure(rng, m=3, budget=float(rng.uniform(0.3, 2.0)))
        norm = "l1" if rng.random() < 0.5 else "l2"
        exact = objective_exact(mu, eta, CURVE, norm)
        est, se = simulate_objective(mu, eta, CURVE, norm, 200_000, rng)
        if abs(est - exact) > 3 * se:
            misses += 1
    assert misses <= 1


def test_convexity_along_segments():
    rng = np.random.default_rng(14)
    for _ in range(50):
        eta = rand_discrete_eta(rng)
        b = float(rng.uniform(0.3, 3))
        mu1, mu2 = rand_measure(rng, budget=b), rand_measure(rng, budget=b)
        j1, j2 = objective_exact(mu1, eta, CURVE), objective_exact(mu2, eta, CURVE)
        for a in (0.25, 0.5, 0.75):
            mixed = objective_exact(mix_measures(mu1, mu2, a), eta, CURVE)
            assert mixed <= (1 - a) * j1 + a * j2 + 1e-12


def test_smoothness_bound_and_functional_inequality():
    rng = np.random.default_rng(15)
    grid = np.column_stack([g.ravel() for g in np.meshgrid(
        np.linspace(-1, 1, 12), np.linspace(-1, 1, 12))])
    for _ in range(30):
        eta = rand_discrete_eta(rng)
        b = float(rng.uniform(0.3, 3))
        shared = rng.random() < 0.5
        mu1 = rand_measure(rng, budget=b)
        if shared:  # same support, different weights -> small TV distance
            w = rng.random(mu1.n_atoms) + 1e-3
            mu2 = DiscreteMeasure(mu1.points, w * (b / w.sum()), b)
        else:
            mu2 = rand_measure(rng, budget=b)
        lips = smoothness_constant(b)
        tv = tv_distance(mu1, mu2)
        h1 = influence(mu1, grid, eta, CURVE)
        h2 = influence(mu2, grid, eta, CURVE)
        assert np.max(np.abs(h1 - h2)) <= lips * tv + 1e-9
        gap = (objective_exact(mu2, eta, CURVE) - objective_exact(mu1, eta, CURVE)
               - directional_derivative(mu1, mu2, eta, CURVE))
        assert -1e-9 <= gap <= lips / (2 * b) * tv * tv + 1e-9


def test_smoothness_constant_values():
    assert smoothness_constant(1.0) == 3.0
    assert smoothness_constant(5.0) == 11.0
    assert smoothness_constant(0.5) == 2.0
    with pytest.raises(ValueError):
        smoothness_constant(0.0)


def test_sample_batch_reproducible():
    eta = UniformRect(Rect([0, 0], [1, 1]))
    b1 = SampleBatch.draw(eta, 100, seed=42)
    b2 = SampleBatch.draw(eta, 100, seed=42)
    assert np.array_equal(b1.points, b2.points)
    assert b1.seed == 42
    with pytest.raises(ValueError):
        SampleBatch.draw(eta, 0, seed=1)
