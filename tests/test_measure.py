import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from measurefw import (
    DiscreteMeasure,
    ball_mass,
    convex_hull,
    merge_and_prune,
    objective_exact,
    restrict_to_domain,
    tv_distance,
)
from measurefw.measure import _cluster_points
from helpers import CURVE, rand_discrete_eta, rand_measure

UNIT_SQUARE = convex_hull([[0, 0], [1, 0], [1, 1], [0, 1]])


def test_constructor_validates():
    with pytest.raises(ValueError):
        DiscreteMeasure([[0, 0]], [0.5], budget=1.0)  # sum != budget
    with pytest.raises(ValueError):
        DiscreteMeasure([[0, 0], [1, 1]], [1.5, -0.5])
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((0, 2)), [])
    with pytest.raises(ValueError):
        DiscreteMeasure([[np.inf, 0]], [1.0])


@pytest.mark.parametrize("points, weights, budget, message", [
    ([[0, 0], [1, 1]], [1.0], None, "points and weights must have the same length"),
    ([[0, 0]], [np.nan], None, "atom weights must be finite"),
    ([[0, 0], [1, 1]], [np.inf, 1.0], None, "atom weights must be finite"),
    ([[0, 0]], [1.0], np.inf, "budget must be finite and nonnegative"),
    ([[0, 0]], [1.0], np.nan, "budget must be finite and nonnegative"),
], ids=["length mismatch", "NaN weight", "infinite weight", "infinite budget", "NaN budget"])
def test_constructor_rejects_malformed_input(points, weights, budget, message):
    with pytest.raises(ValueError, match=message):
        DiscreteMeasure(points, weights, budget)


def test_constructor_merges_coincident_atoms():
    mu = DiscreteMeasure([[0.3, 0.3], [0.3, 0.3]], [0.4, 0.6])
    assert mu.n_atoms == 1
    assert mu.weights[0] == pytest.approx(1.0)


def test_ball_mass_examples():
    mu = DiscreteMeasure([[0, 0], [2, 0]], [0.3, 0.7])
    assert ball_mass(mu, [0, 0], 1.0, "l2") == pytest.approx(0.3)
    assert ball_mass(mu, [0, 0], 2.0, "l2") == pytest.approx(1.0)  # closed ball
    mu1 = DiscreteMeasure([[1, 1]], [0.5])
    assert ball_mass(mu1, [0, 0], 1.9, "l1") == 0.0
    assert ball_mass(mu1, [0, 0], 2.0, "l1") == pytest.approx(0.5)
    with pytest.raises(ValueError):
        ball_mass(mu, [0, 0], -0.1)
    with pytest.raises(ValueError, match="finite"):
        ball_mass(mu, [np.nan, 0], 1.0)


def test_ball_mass_monotone_and_saturates():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mu = rand_measure(rng)
        c = rng.normal(size=2)
        radii = np.sort(rng.uniform(0, 5, size=8))
        vals = [ball_mass(mu, c, r) for r in radii]
        assert np.all(np.diff(vals) >= 0)
        assert ball_mass(mu, c, 1e9) == pytest.approx(mu.budget)


def _tv_bruteforce(mu1, mu2):
    """Max |mu1(A) - mu2(A)| over all subsets of the union of atoms."""
    pts = np.unique(np.vstack([mu1.points, mu2.points]), axis=0)
    diffs = []
    for keep in itertools.product([False, True], repeat=len(pts)):
        sel = pts[np.array(keep, dtype=bool)]
        m1 = sum(w for p, w in zip(mu1.points, mu1.weights)
                 if any(np.array_equal(p, s) for s in sel))
        m2 = sum(w for p, w in zip(mu2.points, mu2.weights)
                 if any(np.array_equal(p, s) for s in sel))
        diffs.append(abs(m1 - m2))
    return max(diffs)


def test_tv_examples_and_bruteforce_oracle():
    p, q = [0.0, 0.0], [1.0, 1.0]
    mu = DiscreteMeasure([p, q], [0.6, 0.4])
    assert tv_distance(mu, mu) == 0.0
    d1 = DiscreteMeasure([p], [2.0])
    d2 = DiscreteMeasure([q], [2.0])
    assert tv_distance(d1, d2) == pytest.approx(2.0)
    nu = DiscreteMeasure([p, q], [0.4, 0.6])
    assert tv_distance(mu, nu) == pytest.approx(0.2)
    assert tv_distance(mu, nu) == pytest.approx(_tv_bruteforce(mu, nu))
    rng = np.random.default_rng(1)
    for _ in range(10):
        b = rng.uniform(0.5, 2)
        m1 = rand_measure(rng, m=3, budget=b)
        m2 = rand_measure(rng, m=4, budget=b)
        assert tv_distance(m1, m2) == pytest.approx(_tv_bruteforce(m1, m2), abs=1e-12)


def test_tv_metric_properties_and_diameter():
    rng = np.random.default_rng(2)
    for _ in range(30):
        b = rng.uniform(0.5, 3)
        m1, m2, m3 = (rand_measure(rng, budget=b) for _ in range(3))
        d12, d21 = tv_distance(m1, m2), tv_distance(m2, m1)
        assert d12 == pytest.approx(d21)
        assert tv_distance(m1, m3) <= d12 + tv_distance(m2, m3) + 1e-12
        assert d12 <= b + 1e-12


def test_tv_budget_mismatch():
    with pytest.raises(ValueError, match="budget mismatch"):
        tv_distance(DiscreteMeasure([[0, 0]], [1.0]), DiscreteMeasure([[0, 0]], [2.0]))


def test_restrict_examples():
    inside = DiscreteMeasure([[0.2, 0.2], [0.8, 0.9]], [0.5, 0.5])
    out = restrict_to_domain(inside, UNIT_SQUARE)
    assert np.allclose(out.points, inside.points)
    clamp = restrict_to_domain(DiscreteMeasure([[2, 2]], [1.0]), UNIT_SQUARE)
    assert np.allclose(clamp.points, [[1, 1]])
    assert clamp.budget == 1.0


def test_restrict_never_increases_objective():
    # the projection moves every atom closer to every point of the hull,
    # so coverage can only improve
    rng = np.random.default_rng(3)
    for _ in range(100):
        eta = rand_discrete_eta(rng)
        hull = convex_hull(eta.points)
        mu = rand_measure(rng, span=6.0)
        nu = restrict_to_domain(mu, hull)
        assert objective_exact(nu, eta, CURVE) <= objective_exact(mu, eta, CURVE) + 1e-12


def test_merge_and_prune():
    mu = DiscreteMeasure([[0, 0], [1, 1]], [1 - 1e-15, 1e-15], budget=1.0)
    out = merge_and_prune(mu, merge_eps=1e-9, weight_tol=1e-12)
    assert out.n_atoms == 1
    assert out.weights[0] == pytest.approx(1.0)
    assert out.budget == 1.0
    spread = DiscreteMeasure([[0, 0], [1, 1]], [0.5, 0.5])
    same = merge_and_prune(spread, merge_eps=1e-6)
    assert same.n_atoms == 2
    near = DiscreteMeasure([[0, 0], [1e-4, 0]], [0.25, 0.75], merge_eps=0.0)
    merged = merge_and_prune(near, merge_eps=1e-3)
    assert merged.n_atoms == 1
    assert np.allclose(merged.points[0], [0.75e-4, 0.0])  # weight-weighted centroid
    # single linkage: a-b and b-c lie within eps, a-c does not, all three merge
    chain = DiscreteMeasure([[0, 0], [2, 2], [6e-4, 0], [1.2e-3, 0]], [0.1, 0.4, 0.2, 0.3],
                            merge_eps=0.0)
    merged = merge_and_prune(chain, merge_eps=1e-3)
    assert merged.n_atoms == 2
    assert np.allclose(merged.points, [[(0.2 * 6e-4 + 0.3 * 1.2e-3) / 0.6, 0.0], [2, 2]])
    assert np.allclose(merged.weights, [0.6, 0.4])
    with pytest.raises(ValueError, match="empty measure"):
        merge_and_prune(DiscreteMeasure([[0, 0]], [1.0]), weight_tol=2.0)
    with pytest.raises(ValueError):
        merge_and_prune(spread, merge_eps=-1.0)


def _single_linkage_oracle(points, weights, eps):
    """Brute-force clusters: flood fill over the dense distance matrix."""
    near = np.hypot(*(points[:, None, :] - points[None, :, :]).T) <= eps
    label = np.full(len(points), -1)
    for start in range(len(points)):
        if label[start] < 0:
            label[start] = start
            stack = [start]
            while stack:
                for j in np.flatnonzero(near[stack.pop()] & (label < 0)):
                    label[j] = start
                    stack.append(j)
    roots = np.unique(label)  # clusters in order of their lowest-index member
    w = np.array([weights[label == r].sum() for r in roots])
    pts = [np.average(points[label == r], axis=0,
                      weights=weights[label == r] if w[i] > 0 else None)
           for i, r in enumerate(roots)]
    return np.array(pts), w


def test_cluster_points_matches_single_linkage_oracle():
    rng = np.random.default_rng(21)
    eps = 1e-3
    for trial in range(40):
        m = int(rng.integers(2, 60))
        seeds = rng.random((max(m // 4, 1), 2))
        pts = seeds[rng.integers(0, len(seeds), m)] + rng.normal(size=(m, 2)) * 6e-4
        if trial % 2:
            pts[:, 0] = np.round(pts[:, 0], 1)  # shared x coordinates
        w = rng.random(m) * (rng.random(m) < 0.7)
        got_pts, got_w = _cluster_points(pts, w, eps)
        want_pts, want_w = _single_linkage_oracle(pts, w, eps)
        assert got_w.shape == want_w.shape
        np.testing.assert_allclose(got_w, want_w, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got_pts, want_pts, rtol=1e-12, atol=1e-15)


def test_measures_do_not_import_scipy():
    code = ("import sys, measurefw\n"
            "mu = measurefw.DiscreteMeasure([[0, 0], [0, 1e-12], [1, 1]], [1, 1, 1])\n"
            "assert mu.n_atoms == 2\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_budget_conservation_across_ops():
    rng = np.random.default_rng(4)
    for _ in range(20):
        mu = rand_measure(rng, span=5.0)
        for out in (
            restrict_to_domain(mu, UNIT_SQUARE),
            merge_and_prune(mu, merge_eps=0.05),
        ):
            assert abs(out.weights.sum() - out.budget) <= 1e-9 * max(1.0, out.budget)
            assert out.budget == mu.budget


def test_json_round_trip():
    mu = DiscreteMeasure([[0.1, 0.2], [0.9, -0.4]], [0.25, 0.75], budget=1.0)
    doc = mu.to_json()
    text = json.dumps(doc)
    back = DiscreteMeasure.from_json(json.loads(text))
    assert np.allclose(back.points, mu.points)
    assert np.allclose(back.weights, mu.weights)
    assert back.budget == mu.budget
    with pytest.raises(ValueError, match="malformed measure"):
        DiscreteMeasure.from_json({"budget": 1.0})
