import numpy as np
import pytest
from scipy.stats import chisquare

from measurefw.geometry import (
    ConvexPolygon,
    Rect,
    as_point,
    build_grid,
    contains,
    contains_many,
    convex_hull,
    distance,
    pairwise_distance,
    project,
    project_many,
    sample_uniform,
)

SQRT3 = np.sqrt(3.0)
UNIT_SQUARE = convex_hull([[0, 0], [1, 0], [1, 1], [0, 1]])
TRIANGLE = convex_hull([[0, 0], [1, 0], [0.5, SQRT3 / 2]])


def test_hull_single_point():
    poly = convex_hull([[0.0, 0.0]])
    assert poly.n_vertices == 1
    assert np.allclose(poly.vertices, [[0, 0]])
    assert poly.area == 0.0


def test_hull_drops_interior_point():
    poly = convex_hull([[0, 0], [1, 0], [0.5, 0.2], [0.5, SQRT3 / 2]])
    assert poly.n_vertices == 3
    got = {tuple(np.round(v, 12)) for v in poly.vertices}
    assert got == {(0, 0), (1, 0), (0.5, round(SQRT3 / 2, 12))}


def test_hull_square_with_center():
    poly = convex_hull([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
    assert poly.n_vertices == 4
    assert poly.area == pytest.approx(1.0)


def test_hull_collinear_collapses_to_segment():
    poly = convex_hull([[0, 0], [1, 0], [2, 0], [3, 0]])
    assert poly.n_vertices == 2
    assert poly.area == 0.0


def test_hull_empty_errors():
    with pytest.raises(ValueError, match="empty point set"):
        convex_hull(np.zeros((0, 2)))


def test_hull_rejects_nonfinite():
    with pytest.raises(ValueError):
        convex_hull([[0.0, np.nan]])


def test_as_point_rejects_other_shapes():
    for bad, shape in (([1.0, 2.0, 3.0], r"\(3,\)"), ([[1.0, 2.0]], r"\(1, 2\)"), (1.0, r"\(\)")):
        with pytest.raises(ValueError, match=rf"expected a planar point, got shape {shape}"):
            as_point(bad)


def test_project_examples():
    assert np.allclose(project(UNIT_SQUARE, [0.3, 0.3]), [0.3, 0.3])
    assert np.allclose(project(UNIT_SQUARE, [2, 2]), [1, 1])
    assert np.allclose(project(UNIT_SQUARE, [0.5, -1]), [0.5, 0])


def test_project_idempotent_and_optimal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        poly = convex_hull(rng.uniform(-1, 1, size=(6, 2)))
        p = rng.uniform(-3, 3, size=2)
        q = project(poly, p)
        assert np.allclose(project(poly, q), q, atol=1e-12)
        assert contains(poly, q)
        # no polygon point is closer than the projection
        others = sample_uniform(poly, rng, size=1000)
        d_proj = np.hypot(*(p - q))
        d_others = np.hypot(*(others - p).T)
        assert np.all(d_proj <= d_others + 1e-12)


def test_project_degenerate_domains():
    point = convex_hull([[0.5, 0.5]])
    assert np.allclose(project(point, [3, 3]), [0.5, 0.5])
    segment = convex_hull([[0, 0], [1, 0]])
    assert np.allclose(project(segment, [0.25, 1.0]), [0.25, 0.0])
    assert np.allclose(project(segment, [-1.0, -1.0]), [0.0, 0.0])


def test_contains_examples():
    assert contains(UNIT_SQUARE, [0, 0])
    assert not contains(UNIT_SQUARE, [1.0001, 0.5])
    assert contains(TRIANGLE, [0.5, 1 / (2 * SQRT3)])


def test_distance_examples():
    assert distance([0, 0], [3, 4], "l2") == pytest.approx(5.0)
    assert distance([0, 0], [3, 4], "l1") == pytest.approx(7.0)
    assert distance([1.2, -0.3], [1.2, -0.3], "l2") == 0.0
    assert distance([1.2, -0.3], [1.2, -0.3], "l1") == 0.0
    with pytest.raises(ValueError):
        distance([0, 0], [1, 1], "linf")


def test_distance_triangle_inequality_and_norm_order():
    rng = np.random.default_rng(1)
    for _ in range(300):
        p, q, r = rng.normal(size=(3, 2))
        for norm in ("l1", "l2"):
            assert distance(p, r, norm) <= distance(p, q, norm) + distance(q, r, norm) + 1e-12
        assert distance(p, q, "l1") >= distance(p, q, "l2") - 1e-12


def test_l2_pairwise_distance_within_one_ulp_of_hypot():
    rng = np.random.default_rng(4)
    for scale in 10.0 ** np.arange(-3, 7):
        a = rng.uniform(-scale, scale, size=(60, 2))
        b = rng.uniform(-scale, scale, size=(50, 2))
        want = np.hypot(a[:, 0][:, None] - b[:, 0], a[:, 1][:, None] - b[:, 1])
        got = pairwise_distance(a, b, "l2")
        assert np.all(np.abs(got - want) <= np.spacing(want))


def test_pairwise_distance_validates_points():
    with pytest.raises(ValueError, match="shape"):
        pairwise_distance([[0, 1, 2], [0, 0, 0]], [[0, 0]])  # transposed (2, 3)
    with pytest.raises(ValueError, match="shape"):
        pairwise_distance([[0, 0]], [[0, 1, 2], [0, 0, 0]])
    for norm in ("l1", "l2"):
        with pytest.raises(ValueError, match="finite"):
            pairwise_distance([[0, np.nan]], [[0, 0]], norm)
        with pytest.raises(ValueError, match="finite"):
            pairwise_distance([[0, 0]], [[np.inf, 0]], norm)
        assert pairwise_distance(np.empty((0, 2)), [[0, 0], [1, 1]], norm).shape == (0, 2)
        assert pairwise_distance([[0, 0], [1, 1]], np.empty((0, 2)), norm).shape == (2, 0)


def test_sample_uniform_containment_and_mean():
    rng = np.random.default_rng(2)
    pts = sample_uniform(UNIT_SQUARE, rng, size=100_000)
    assert np.all((pts >= -1e-12) & (pts <= 1 + 1e-12))
    assert np.allclose(pts.mean(axis=0), [0.5, 0.5], atol=0.01)


def test_sample_uniform_triangle_area_fractions():
    rng = np.random.default_rng(3)
    pts = sample_uniform(TRIANGLE, rng, size=100_000)
    # the half-plane x <= 0.5 covers half the equilateral triangle's area
    frac = np.mean(pts[:, 0] <= 0.5)
    assert abs(frac - 0.5) < 0.01


def test_sample_uniform_chi_square_subcells():
    rng = np.random.default_rng(4)
    pts = sample_uniform(UNIT_SQUARE, rng, size=100_000)
    ix = np.clip((pts[:, 0] * 4).astype(int), 0, 3)
    iy = np.clip((pts[:, 1] * 4).astype(int), 0, 3)
    counts = np.bincount(ix * 4 + iy, minlength=16)
    assert chisquare(counts).pvalue > 0.001


def test_sample_uniform_degenerate_errors():
    with pytest.raises(ValueError, match="degenerate domain"):
        sample_uniform(convex_hull([[0, 0], [1, 0]]), np.random.default_rng(0))


def test_rect_validation_and_corners():
    r = Rect([0, 0], [2, 1])
    assert r.area == pytest.approx(2.0)
    assert r.corners().shape == (4, 2)
    with pytest.raises(ValueError):
        Rect([1, 0], [0, 1])


def test_polygon_constructor_idempotent():
    again = ConvexPolygon(TRIANGLE.vertices)
    assert np.allclose(again.vertices, TRIANGLE.vertices)


def test_project_many_matches_scalar():
    rng = np.random.default_rng(5)
    poly = convex_hull(rng.uniform(-1, 1, size=(7, 2)))
    pts = rng.uniform(-3, 3, size=(50, 2))
    batch = project_many(poly, pts)
    single = np.array([project(poly, p) for p in pts])
    assert np.allclose(batch, single, atol=1e-12)


def _broadcast_contains(poly, pts):
    """`contains_many` as one broadcast expression per domain kind (the reference)."""
    v = poly.vertices
    atol = 1e-9 * (1.0 + poly.diameter)
    if len(v) == 1:
        return np.max(np.abs(pts - v[0]), axis=1) <= atol
    if len(v) == 2:
        ab = v[1] - v[0]
        t = np.clip((pts - v[0]) @ ab / float(ab @ ab), 0.0, 1.0)
        return np.hypot(*(pts - (v[0] + t[:, None] * ab)).T) <= atol
    e = np.roll(v, -1, axis=0) - v
    cross = (e[:, 0][:, None] * (pts[:, 1][None, :] - v[:, 1][:, None])
             - e[:, 1][:, None] * (pts[:, 0][None, :] - v[:, 0][:, None]))
    return np.all(cross / np.hypot(e[:, 0], e[:, 1])[:, None] >= -atol, axis=0)


def _broadcast_project(poly, pts):
    """`project_many` over `_broadcast_contains` (the reference)."""
    v, pts = poly.vertices, pts.copy()
    if len(v) == 1:
        return np.broadcast_to(v[0], pts.shape).copy()
    inside = _broadcast_contains(poly, pts)
    if np.all(inside):
        return pts
    out = pts[~inside]
    e = np.roll(v, -1, axis=0) - v
    a, denom = v, np.einsum("ed,ed->e", e, e)
    if len(v) == 2:
        a, e, denom = a[:1], e[:1], denom[:1]
    t = np.clip(np.einsum("ked,ed->ke", out[:, None, :] - a[None, :, :], e) / denom, 0.0, 1.0)
    feet = a[None, :, :] + t[:, :, None] * e[None, :, :]
    best = np.argmin(np.sum((feet - out[:, None, :]) ** 2, axis=2), axis=1)
    pts[~inside] = feet[np.arange(len(out)), best]
    return pts


def _regular_polygon(k, radius, centre):
    angles = 2 * np.pi * np.arange(k) / k + 0.3
    return convex_hull(np.column_stack([np.cos(angles), np.sin(angles)]) * radius + centre)


@pytest.mark.parametrize("poly", [
    TRIANGLE,
    _regular_polygon(7, 50.0, [3.0, -2.0]),  # edges ~43 long
    _regular_polygon(5, 0.01, [0.2, 0.1]),  # edges ~0.012 long
    convex_hull([[0.0, 0.0], [3.0, 4.0]]),
    convex_hull([[0.5, -1.5]]),
], ids=["triangle", "heptagon-large", "pentagon-small", "segment", "point"])
def test_contains_and_project_match_broadcast_reference(poly):
    # vertices, points along each edge, and the same points moved off the
    # edge along its outward normal by multiples of the tolerance: edges far
    # from unit length make a distance not divided by the edge length land
    # on the other side of the tolerance
    rng = np.random.default_rng(21)
    v = poly.vertices
    atol = 1e-9 * (1.0 + poly.diameter)
    e = np.roll(v, -1, axis=0) - v
    length = np.maximum(np.hypot(e[:, 0], e[:, 1]), 1e-300)
    normal = np.column_stack([e[:, 1], -e[:, 0]]) / length[:, None]
    t = np.array([0.0, 0.25, 0.5, 1 / 3, 0.999])
    on_edges = (v[:, None, :] + t[None, :, None] * e[:, None, :]).reshape(-1, 2)
    offsets = np.array([-2.0, -1.0, -0.5, 0.5, 0.99, 1.0, 1.01, 2.0, 40.0]) * atol
    near = (on_edges.reshape(len(v), len(t), 1, 2)
            + offsets[None, None, :, None] * normal[:, None, None, :]).reshape(-1, 2)
    box = poly.bounding_box()
    spread = rng.uniform(box.lo - 1.0, box.hi + 1.0, size=(200, 2))
    pts = np.vstack([v, on_edges, near, spread])
    got = contains_many(poly, pts)
    assert got.tobytes() == _broadcast_contains(poly, pts).tobytes()
    assert got.any() and not got.all()
    assert project_many(poly, pts).tobytes() == _broadcast_project(poly, pts).tobytes()


def test_build_grid_thins_axes_evenly_keeping_extremes():
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.random(200), rng.integers(0, 10, 200).astype(float)])
    full = build_grid(pts)
    thin = build_grid(pts, max_per_axis=64)
    assert len(full.xs) == 200 and len(thin.xs) == 64
    assert thin.xs[0] == full.xs[0] and thin.xs[-1] == full.xs[-1]
    assert np.all(np.isin(thin.xs, full.xs)) and np.all(np.diff(thin.xs) > 0)
    assert np.array_equal(thin.ys, full.ys)  # an axis under the cap is kept whole
    assert np.array_equal(thin.vertices.reshape(64, 10, 2)[:, 0, 0], thin.xs)
    assert not thin.vertices.flags.writeable
