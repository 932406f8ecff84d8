"""Finite discrete measures with a fixed total mass (the volunteer budget).

A `DiscreteMeasure` is the solver's decision variable: weighted planar atoms
whose nonnegative weights sum to the budget `b`.  Measures are immutable
after construction and canonicalized so that no two atoms sit closer than
the merge tolerance.
"""

from __future__ import annotations

import numpy as np

from .geometry import ConvexPolygon, as_point, as_points, pairwise_distance, project_many

__all__ = [
    "MERGE_EPS",
    "DiscreteMeasure",
    "ball_mass",
    "check_budget",
    "tv_distance",
    "restrict_to_domain",
    "merge_and_prune",
]

#: Atoms closer than this (in length units) are merged at construction.
MERGE_EPS = 1e-9

_BUDGET_RTOL = 1e-9


def _cluster_points(points: np.ndarray, weights: np.ndarray, eps: float):
    """Single-linkage merge of atoms within `eps`; weighted-centroid locations.

    Candidate pairs pair each atom with the atoms after it in x order whose
    x lies within `eps`; the pairs within Euclidean distance `eps` link.
    """
    order = np.argsort(points[:, 0], kind="stable")
    xs = points[order, 0]
    counts = np.searchsorted(xs, xs + eps, side="right") - np.arange(1, len(xs) + 1)
    first = np.repeat(np.arange(len(xs)), counts)
    # the candidates of sorted atom k are the next counts[k] atoms in x order
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(counts) - counts, counts)
    i, j = order[first], order[second]
    d = points[i] - points[j]
    close = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= eps * eps
    if not np.any(close):
        return points, weights
    i, j = i[close], j[close]
    # each atom ends at the lowest index linked to it: push the smaller label
    # across every pair and jump labels to their labels until nothing moves
    labels, prev = np.arange(len(points)), None
    while not np.array_equal(labels, prev):
        prev = labels.copy()
        np.minimum.at(labels, i, prev[j])
        np.minimum.at(labels, j, prev[i])
        labels = labels[labels]
    # clusters are numbered in order of their lowest-index member
    _, inverse = np.unique(labels, return_inverse=True)
    wsum = np.bincount(inverse, weights)
    safe = wsum > 0
    # zero-weight clusters fall back to a plain average of member locations
    out = [np.where(safe, np.bincount(inverse, weights * c) / np.where(safe, wsum, 1.0),
                    np.bincount(inverse, c) / np.bincount(inverse)) for c in points.T]
    return np.column_stack(out), wsum


class DiscreteMeasure:
    """Immutable finite atomic measure: locations (m, 2), weights (m,), budget."""

    __slots__ = ("points", "weights", "budget")

    def __init__(self, points, weights, budget=None, *, merge_eps=MERGE_EPS):
        pts = as_points(points)
        w = np.asarray(weights, dtype=float).reshape(-1)
        if len(pts) != len(w):
            raise ValueError("points and weights must have the same length")
        if len(pts) == 0:
            raise ValueError("empty measure")
        if not np.all(np.isfinite(w)):
            raise ValueError("atom weights must be finite")
        total = float(w.sum())
        if budget is None:
            budget = total
        budget = float(budget)
        if not np.isfinite(budget) or budget < 0.0:
            raise ValueError("budget must be finite and nonnegative")
        scale = max(1.0, budget)
        if np.any(w < -_BUDGET_RTOL * scale):
            raise ValueError("atom weights must be nonnegative")
        w = np.maximum(w, 0.0)
        if abs(total - budget) > _BUDGET_RTOL * scale:
            raise ValueError(
                f"weights sum to {total}, which differs from budget {budget} "
                f"beyond the {_BUDGET_RTOL:g} relative tolerance"
            )
        if merge_eps > 0 and len(pts) > 1:
            pts, w = _cluster_points(pts, w, merge_eps)
        self.points = np.ascontiguousarray(pts)
        self.weights = np.ascontiguousarray(w)
        self.budget = budget
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    def to_json(self) -> dict:
        """Serialize as {"budget": b, "atoms": [{"x", "y", "w"}, ...]}."""
        return {
            "budget": self.budget,
            "atoms": [
                {"x": float(x), "y": float(y), "w": float(w)}
                for (x, y), w in zip(self.points, self.weights)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DiscreteMeasure":
        try:
            atoms = obj["atoms"]
            budget = float(obj["budget"])
            pts = [[float(a["x"]), float(a["y"])] for a in atoms]
            w = [float(a["w"]) for a in atoms]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed measure document: {exc}") from exc
        return cls(pts, w, budget)

    def __repr__(self):
        return f"DiscreteMeasure({self.n_atoms} atoms, budget={self.budget:.6g})"


def ball_mass(mu: DiscreteMeasure, center, radius: float, norm="l2") -> float:
    """Mass of the closed ball of the given radius around `center`."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    d = pairwise_distance(as_point(center), mu.points, norm)[0]
    return float(mu.weights[d <= radius].sum())


def check_budget(mu: DiscreteMeasure, budget: float) -> None:
    """Raise ValueError unless mu's budget equals `budget` within the relative tolerance."""
    if abs(mu.budget - budget) > _BUDGET_RTOL * max(1.0, abs(budget)):
        raise ValueError(f"budget mismatch: measure budget {mu.budget}, expected {budget}")


def tv_distance(mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> float:
    """Total variation distance between two measures of equal budget.

    For discrete measures with a common budget this is half the sum of
    absolute weight differences over the union of atom locations.
    """
    check_budget(mu2, mu1.budget)
    allpts = np.vstack([mu1.points, mu2.points])
    _, inverse = np.unique(allpts, axis=0, return_inverse=True)
    diff = np.zeros(inverse.max() + 1)
    np.add.at(diff, inverse[: mu1.n_atoms], mu1.weights)
    np.add.at(diff, inverse[mu1.n_atoms :], -mu2.weights)
    return 0.5 * float(np.abs(diff).sum())


def restrict_to_domain(mu: DiscreteMeasure, domain: ConvexPolygon) -> DiscreteMeasure:
    """Replace every atom outside the domain by its Euclidean projection.

    Weights are untouched, so the budget is preserved and the support of the
    result lies inside the domain.
    """
    return DiscreteMeasure(project_many(domain, mu.points), mu.weights, mu.budget)


def merge_and_prune(mu: DiscreteMeasure, merge_eps=MERGE_EPS, weight_tol=None) -> DiscreteMeasure:
    """Merge atoms within `merge_eps` and drop atoms lighter than `weight_tol`.

    Merged atoms sit at the weight-weighted centroid of their cluster; the
    mass of pruned atoms is redistributed proportionally over the survivors,
    so the budget is preserved exactly.
    """
    if weight_tol is None:
        weight_tol = 1e-12 * mu.budget
    if merge_eps < 0 or weight_tol < 0:
        raise ValueError("tolerances must be nonnegative")
    pts, w = mu.points.copy(), mu.weights.copy()
    if merge_eps > 0 and len(pts) > 1:
        pts, w = _cluster_points(pts, w, merge_eps)
    keep = w >= weight_tol
    if not np.any(keep):
        raise ValueError("empty measure")
    pts, w = pts[keep], w[keep]
    total = w.sum()
    if total > 0:
        w = w * (mu.budget / total)
    return DiscreteMeasure(pts, w, mu.budget, merge_eps=0.0)
