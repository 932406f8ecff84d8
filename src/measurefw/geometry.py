"""Planar geometry: convex polygons, projection, uniform sampling, distances,
and the vertex grid spanned by demand coordinates.

Coordinates are plain floats in abstract length units.  Polygons are stored
in a canonical counter-clockwise form with collinear vertices removed, so
containment and projection never reason about redundant vertices.  Degenerate
hulls (a single point, a segment) are first-class citizens: they arise
whenever the incident distribution is supported on one or two points.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "L1",
    "L2",
    "norm_key",
    "as_point",
    "as_points",
    "distance",
    "pairwise_distance",
    "Rect",
    "DemandGrid",
    "build_grid",
    "ConvexPolygon",
    "convex_hull",
    "contains",
    "contains_many",
    "project",
    "project_many",
    "sample_uniform",
]

L1 = "l1"
L2 = "l2"
_NORMS = (L1, L2)


def norm_key(norm) -> str:
    """Normalize a norm spelling ('L1', 'l2', ...) to 'l1' or 'l2'."""
    key = str(norm).lower()
    if key not in _NORMS:
        raise ValueError(f"unknown norm {norm!r}; expected 'l1' or 'l2'")
    return key


def as_point(p) -> np.ndarray:
    """Validate and return a point as a float array of shape (2,)."""
    q = np.asarray(p, dtype=float)
    if q.shape != (2,):
        raise ValueError(f"expected a planar point, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError("point coordinates must be finite")
    return q


def as_points(pts) -> np.ndarray:
    """Validate points as a (k, 2) float array (k >= 0); one (2,) point becomes (1, 2).

    Any other shape, flat or transposed, or a non-finite coordinate raises ValueError.
    """
    arr = np.asarray(pts, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        if arr.shape != (2,):
            raise ValueError(f"expected an (n, 2) array of points, got shape {arr.shape}")
        arr = arr.reshape(1, 2)
    if not np.isfinite(arr).all():
        raise ValueError("point coordinates must be finite")
    return arr


def distance(p, q, norm=L2) -> float:
    """Distance between two points under the L2 (Euclidean) or L1 norm."""
    p = as_point(p)
    q = as_point(q)
    d = p - q
    if norm_key(norm) == L2:
        return float(np.hypot(d[0], d[1]))
    return float(abs(d[0]) + abs(d[1]))


def pairwise_distance(a, b, norm=L2) -> np.ndarray:
    """All distances between rows of `a` (n, 2) and rows of `b` (m, 2).

    Returns an (n, m) array.  L2 distances are sqrt(dx*dx + dy*dy), within
    1 ulp of `np.hypot` and several times faster; squares overflow to inf
    only past coordinate differences of ~1e154.  Both arguments are checked
    by `as_points`: any other shape or a non-finite coordinate raises
    ValueError.
    """
    a = as_points(a)
    b = as_points(b)
    shape = (len(a), len(b))
    return _distances_into(a, b, norm, np.empty(shape), np.empty(shape))


def _distances_into(a, b, norm, out, scratch) -> np.ndarray:
    """`pairwise_distance` of float arrays, written to `out`; `scratch` is overwritten."""
    dx, dy = out, scratch
    np.subtract(a[:, 0][:, None], b[:, 0][None, :], out=dx)
    np.subtract(a[:, 1][:, None], b[:, 1][None, :], out=dy)
    if norm_key(norm) == L2:
        with np.errstate(over="ignore"):
            np.multiply(dx, dx, out=dx)
            np.multiply(dy, dy, out=dy)
        dx += dy
        return np.sqrt(dx, out=dx)
    np.abs(dx, out=dx)
    np.abs(dy, out=dy)
    dx += dy
    return dx


class Rect:
    """Axis-aligned rectangle given by its min and max corners."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = as_point(lo)
        hi = as_point(hi)
        if not np.all(lo <= hi):
            raise ValueError("rectangle min corner must be <= max corner componentwise")
        self.lo = lo
        self.hi = hi
        self.lo.setflags(write=False)
        self.hi.setflags(write=False)

    @property
    def width(self) -> float:
        return float(self.hi[0] - self.lo[0])

    @property
    def height(self) -> float:
        return float(self.hi[1] - self.lo[1])

    @property
    def area(self) -> float:
        return self.width * self.height

    def corners(self) -> np.ndarray:
        """The four corners, counter-clockwise from the min corner; (4, 2)."""
        x0, y0 = self.lo
        x1, y1 = self.hi
        return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])

    def __repr__(self):
        return f"Rect(lo=({self.lo[0]}, {self.lo[1]}), hi=({self.hi[0]}, {self.hi[1]}))"


class DemandGrid:
    """Grid spanned by the coordinate order statistics of demand points.

    `vertices` lists the (x, y) pairs x-major (like meshgrid "ij"); all
    arrays are read-only.
    """

    __slots__ = ("xs", "ys", "vertices")

    def __init__(self, xs, ys):
        self.xs = np.array(xs, dtype=float)
        self.ys = np.array(ys, dtype=float)
        # filled in place: one allocation costs half of meshgrid + column_stack
        grid = np.empty((len(self.xs), len(self.ys), 2))
        grid[:, :, 0] = self.xs[:, None]
        grid[:, :, 1] = self.ys
        self.vertices = grid.reshape(-1, 2)
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


def build_grid(points, max_per_axis=None) -> DemandGrid:
    """Demand grid from points: deduplicated sorted coordinates per axis.

    Axes with more than `max_per_axis` coordinates are thinned evenly to
    that many, extremes kept, before the vertices are formed.
    """
    pts = as_points(points)
    if len(pts) == 0:
        raise ValueError("empty point set")
    axes = [np.unique(pts[:, 0]), np.unique(pts[:, 1])]
    if max_per_axis is not None:
        axes = [a[np.unique(np.linspace(0, len(a) - 1, max_per_axis).astype(int))]
                if len(a) > max_per_axis else a for a in axes]
    return DemandGrid(*axes)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_vertices(pts: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; CCW order, strictly convex turns only."""
    pts = np.unique(pts, axis=0)  # lexicographic sort + exact dedup
    n = len(pts)
    if n <= 2:
        return pts
    span = float(np.max(np.ptp(pts, axis=0)))
    tol = 1e-12 * span * span

    def half_chain(ordered):
        chain = []
        for p in ordered:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= tol:
                chain.pop()
            chain.append(p)
        return chain

    lower = half_chain(pts)
    upper = half_chain(pts[::-1])
    # each chain runs between the two extremes: collinear input keeps just those
    return np.asarray(lower[:-1] + upper[:-1])


class ConvexPolygon:
    """Convex polygon in canonical CCW form; may degenerate to a segment or point.

    The constructor accepts any point set and keeps its convex hull, so
    `ConvexPolygon(vertices)` is idempotent on already-canonical input.
    """

    __slots__ = ("vertices", "_area", "_diameter", "_edges", "_edge_sq", "_half_planes")

    def __init__(self, vertices):
        pts = as_points(vertices)
        if len(pts) == 0:
            raise ValueError("empty point set")
        self.vertices = _hull_vertices(pts)
        self.vertices.setflags(write=False)
        v = self.vertices
        if len(v) >= 3:
            x, y = v[:, 0], v[:, 1]
            self._area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        else:
            self._area = 0.0
        d = pairwise_distance(v, v, L2)
        self._diameter = float(d.max())
        # edge i runs from vertex i to vertex i + 1 (cyclically)
        e = np.roll(v, -1, axis=0) - v
        self._edges = e
        self._edge_sq = np.einsum("ed,ed->e", e, e)
        # (E, 1) columns of edge x, edge y, start x, start y and edge length,
        # which broadcast against a row of query coordinates in `_contains`
        self._half_planes = tuple(c[:, None] for c in (
            e[:, 0], e[:, 1], v[:, 0], v[:, 1], np.hypot(e[:, 0], e[:, 1])))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def area(self) -> float:
        return self._area

    @property
    def diameter(self) -> float:
        return self._diameter

    def bounding_box(self) -> Rect:
        return Rect(self.vertices.min(axis=0), self.vertices.max(axis=0))

    def __repr__(self):
        return f"ConvexPolygon({self.n_vertices} vertices, area={self.area:.6g})"


def convex_hull(points) -> ConvexPolygon:
    """Convex hull of a nonempty point set, with collinear points removed."""
    return ConvexPolygon(points)


def contains_many(poly: ConvexPolygon, pts) -> np.ndarray:
    """Boolean mask: which of the (k, 2) points lie in the closed polygon."""
    return _contains(poly, as_points(pts))


def _contains(poly: ConvexPolygon, pts: np.ndarray) -> np.ndarray:
    v = poly.vertices
    atol = 1e-9 * (1.0 + poly.diameter)
    if len(v) == 1:
        return np.max(np.abs(pts - v[0]), axis=1) <= atol
    if len(v) == 2:
        a, b = v[0], v[1]
        ab = b - a
        denom = float(ab @ ab)
        t = np.clip((pts - a) @ ab / denom, 0.0, 1.0)
        feet = a + t[:, None] * ab
        return np.hypot(*(pts - feet).T) <= atol
    ex, ey, vx, vy, edge_len = poly._half_planes
    # signed perpendicular distance of each point from each CCW edge:
    # (ex (py - vy) - ey (px - vx)) / |e|, one in-place pass per operation
    cross = np.subtract(pts[:, 1], vy)
    cross *= ex
    rhs = np.subtract(pts[:, 0], vx)
    rhs *= ey
    cross -= rhs
    cross /= edge_len
    return np.logical_and.reduce(cross >= -atol, axis=0)


def contains(poly: ConvexPolygon, p) -> bool:
    """True iff `p` lies in the closed polygon (boundary included)."""
    return bool(contains_many(poly, as_point(p).reshape(1, 2))[0])


def project_many(poly: ConvexPolygon, pts) -> np.ndarray:
    """Euclidean projection of each of the (k, 2) points onto the polygon."""
    return _project(poly, as_points(pts).copy())


def _project(poly: ConvexPolygon, pts: np.ndarray) -> np.ndarray:
    """`project_many` without validation; may overwrite the (k, 2) float array `pts`."""
    v = poly.vertices
    if len(v) == 1:
        return np.broadcast_to(v[0], pts.shape).copy()
    inside = _contains(poly, pts)
    if inside.all():
        return pts
    out = pts[~inside]
    a, e, denom = v, poly._edges, poly._edge_sq
    if len(v) == 2:  # a segment has one edge, not two
        a, e, denom = a[:1], e[:1], denom[:1]
    t = np.clip(np.einsum("ked,ed->ke", out[:, None, :] - a[None, :, :], e) / denom, 0.0, 1.0)
    feet = a[None, :, :] + t[:, :, None] * e[None, :, :]  # (k, E, 2)
    d2 = np.sum((feet - out[:, None, :]) ** 2, axis=2)
    best = np.argmin(d2, axis=1)  # first edge wins ties, in vertex order
    pts[~inside] = feet[np.arange(len(out)), best]
    return pts


def project(poly: ConvexPolygon, p) -> np.ndarray:
    """Closest point of the polygon to `p` in Euclidean distance.

    Returns `p` itself when it is inside or on the boundary; ties between
    edges are broken by the first edge in vertex order.
    """
    return project_many(poly, as_point(p).reshape(1, 2))[0]


def sample_uniform(poly: ConvexPolygon, rng, size=None):
    """Uniform sample from a positive-area polygon.

    Fan-triangulates from the first vertex, picks a triangle proportionally
    to area, then samples uniformly inside it.  Returns shape (2,) when
    `size` is None, else (size, 2).
    """
    if poly.area <= 0.0:
        raise ValueError("degenerate domain")
    v = poly.vertices
    a0 = v[0]
    bs = v[1:-1]
    cs = v[2:]
    tri_areas = 0.5 * np.abs(
        (bs[:, 0] - a0[0]) * (cs[:, 1] - a0[1]) - (bs[:, 1] - a0[1]) * (cs[:, 0] - a0[0])
    )
    probs = tri_areas / tri_areas.sum()
    n = 1 if size is None else int(size)
    idx = rng.choice(len(tri_areas), size=n, p=probs)
    u = rng.random(n)
    w = rng.random(n)
    flip = u + w > 1.0
    u[flip] = 1.0 - u[flip]
    w[flip] = 1.0 - w[flip]
    pts = a0 + u[:, None] * (bs[idx] - a0) + w[:, None] * (cs[idx] - a0)
    if size is None:
        return pts[0]
    return pts
