"""Problem specification: death curve, incident distribution, budget, domain.

The death curve `beta(t) = 1 - (1 + e^{a + c t})^{-1}` maps response time to
death probability; it is continuous, strictly increasing and strictly concave
on [0, inf) whenever `a >= 0` and `c > 0`, with `beta(inf) = 1`.  The default
parameters (0.679, 0.262) are the survival-analysis values used throughout
the numerical experiments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import ConvexPolygon, Rect, as_points, contains_many, convex_hull, norm_key

__all__ = [
    "ScenarioError",
    "DeathCurve",
    "beta",
    "beta_prime",
    "DiscretePoints",
    "UniformRect",
    "RectMixture",
    "IncidentDistribution",
    "sample_incident",
    "support_hull",
    "Problem",
    "load_scenario",
    "make_city",
]

DEFAULT_BETA_A = 0.679
DEFAULT_BETA_C = 0.262

_PROB_TOL = 1e-12


class ScenarioError(ValueError):
    """Raised for malformed or inconsistent scenario documents."""


@dataclass(frozen=True)
class DeathCurve:
    """Parameters (a, c) of the logistic death-probability curve."""

    a: float = DEFAULT_BETA_A
    c: float = DEFAULT_BETA_C

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.c)):
            raise ValueError("death curve parameters must be finite")
        if self.c <= 0:
            raise ValueError("death curve slope c must be positive")
        if self.a < 0:
            raise ValueError("death curve intercept a must be nonnegative for strict concavity")


def _beta_values(curve: DeathCurve, arr: np.ndarray, out=None) -> np.ndarray:
    """beta over an array of response times, without validating them.

    Each pass writes to `out` (a new array when None), which may be `arr`.
    """
    out = np.empty(np.shape(arr)) if out is None else out
    np.multiply(arr, curve.c, out=out)
    out += curve.a
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _beta_prime_values(curve: DeathCurve, arr: np.ndarray) -> np.ndarray:
    """beta' over an array of response times, without validating them."""
    z = curve.a + curve.c * arr
    ez = np.exp(-z)
    return curve.c * ez / (1.0 + ez) ** 2


def _response_times(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if np.any(np.isnan(arr)) or np.any(arr < 0):
        raise ValueError("response time must be nonnegative")
    return arr


def beta(curve: DeathCurve, t):
    """Death probability at response time t >= 0; beta(inf) = 1 exactly.

    Accepts scalars or arrays; +inf is a valid input.
    """
    arr = _response_times(t)
    out = _beta_values(curve, arr)
    if np.isscalar(t) or arr.ndim == 0:
        return float(out)
    return out


def beta_prime(curve: DeathCurve, t):
    """Derivative of the death curve: c e^{a+ct} / (1 + e^{a+ct})^2."""
    arr = _response_times(t)
    out = _beta_prime_values(curve, arr)
    if np.isscalar(t) or arr.ndim == 0:
        return float(out)
    return out


def _check_probs(probs: np.ndarray, what: str) -> np.ndarray:
    probs = np.asarray(probs, dtype=float).reshape(-1)
    if np.any(~np.isfinite(probs)) or np.any(probs < 0):
        raise ScenarioError(f"{what} must be finite and nonnegative")
    if abs(probs.sum() - 1.0) > _PROB_TOL:
        raise ScenarioError("probabilities must sum to 1")
    return probs


class DiscretePoints:
    """Incident law supported on finitely many demand points."""

    __slots__ = ("points", "probs")

    def __init__(self, points, probs):
        self.points = as_points(points)
        self.probs = _check_probs(probs, "demand probabilities")
        if len(self.points) != len(self.probs):
            raise ScenarioError("demand points and probabilities must have the same length")
        if len(np.unique(self.points, axis=0)) != len(self.points):
            raise ScenarioError("demand points must be distinct")
        self.points.setflags(write=False)
        self.probs.setflags(write=False)

    def __repr__(self):
        return f"DiscretePoints({len(self.points)} points)"


class UniformRect:
    """Incident law uniform over a positive-area rectangle."""

    __slots__ = ("rect",)

    def __init__(self, rect: Rect):
        if rect.area <= 0:
            raise ScenarioError("uniform rectangle must have positive area")
        self.rect = rect

    def __repr__(self):
        return f"UniformRect({self.rect!r})"


class RectMixture:
    """Incident law: weighted mixture of uniform laws on rectangles."""

    __slots__ = ("rects", "probs")

    def __init__(self, rects, probs):
        rects = list(rects)
        if not rects:
            raise ScenarioError("mixture must have at least one component")
        for r in rects:
            if r.area <= 0:
                raise ScenarioError("mixture rectangles must have positive area")
        self.rects = tuple(rects)
        self.probs = _check_probs(probs, "mixture weights")
        if len(self.rects) != len(self.probs):
            raise ScenarioError("mixture components and weights must have the same length")
        self.probs.setflags(write=False)

    def __repr__(self):
        return f"RectMixture({len(self.rects)} components)"


IncidentDistribution = DiscretePoints | UniformRect | RectMixture


def _sample_rect(rect: Rect, rng, n: int) -> np.ndarray:
    u = rng.random((n, 2))
    return rect.lo + u * (rect.hi - rect.lo)


def sample_incident(eta: IncidentDistribution, rng, size=None):
    """Draw incident location(s) from eta; (2,) when size is None, else (size, 2)."""
    n = 1 if size is None else int(size)
    if isinstance(eta, DiscretePoints):
        idx = rng.choice(len(eta.probs), size=n, p=eta.probs)
        out = eta.points[idx]
    elif isinstance(eta, UniformRect):
        out = _sample_rect(eta.rect, rng, n)
    elif isinstance(eta, RectMixture):
        comp = rng.choice(len(eta.probs), size=n, p=eta.probs)
        u = rng.random((n, 2))
        lo = np.array([r.lo for r in eta.rects])[comp]
        hi = np.array([r.hi for r in eta.rects])[comp]
        out = lo + u * (hi - lo)
    else:
        raise TypeError(f"unknown incident distribution type {type(eta).__name__}")
    if size is None:
        return out[0]
    return out


def support_hull(eta: IncidentDistribution) -> ConvexPolygon:
    """Convex hull of the support of eta (demand points or rectangle corners)."""
    if isinstance(eta, DiscretePoints):
        return convex_hull(eta.points)
    if isinstance(eta, UniformRect):
        return convex_hull(eta.rect.corners())
    if isinstance(eta, RectMixture):
        return convex_hull(np.vstack([r.corners() for r in eta.rects]))
    raise TypeError(f"unknown incident distribution type {type(eta).__name__}")


class Problem:
    """Scenario bundle: incident law, budget, travel norm, death curve, domain."""

    __slots__ = ("eta", "budget", "norm", "curve", "domain")

    def __init__(self, eta, budget, norm="l2", curve=None, domain=None):
        self.eta = eta
        self.budget = float(budget)
        if not math.isfinite(self.budget) or self.budget <= 0:
            raise ScenarioError("budget must be positive")
        self.norm = norm_key(norm)
        self.curve = curve if curve is not None else DeathCurve()
        hull = support_hull(eta)
        if domain is None:
            self.domain = hull
        else:
            self.domain = domain if isinstance(domain, ConvexPolygon) else ConvexPolygon(domain)
            if not np.all(contains_many(self.domain, hull.vertices)):
                raise ScenarioError("domain must contain the support of the incident distribution")

    def __repr__(self):
        return (
            f"Problem(eta={self.eta!r}, budget={self.budget}, norm={self.norm!r}, "
            f"curve=DeathCurve(a={self.curve.a}, c={self.curve.c}))"
        )


def _rect_from_json(obj) -> Rect:
    arr = np.asarray(obj, dtype=float).reshape(-1)
    if arr.shape != (4,):
        raise ScenarioError("rectangle must be [xmin, ymin, xmax, ymax]")
    try:
        return Rect(arr[:2], arr[2:])
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _incident_from_json(obj) -> IncidentDistribution:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ScenarioError("eta must be an object with a 'type' field")
    kind = obj["type"]
    try:
        if kind == "discrete":
            points = obj["points"]
            probs = obj.get("probs")
            if probs is None:
                probs = np.full(len(points), 1.0 / max(len(points), 1))
            return DiscretePoints(points, probs)
        if kind == "uniform_rect":
            return UniformRect(_rect_from_json(obj["rect"]))
        if kind == "mixture":
            comps = obj["components"]
            rects = [_rect_from_json(c["rect"]) for c in comps]
            probs = [float(c["prob"]) for c in comps]
            return RectMixture(rects, probs)
    except KeyError as exc:
        raise ScenarioError(f"eta is missing required field {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"malformed eta: {exc}") from exc
    raise ScenarioError(f"unknown eta type {kind!r}")


def load_scenario(source) -> Problem:
    """Build a validated Problem from a scenario document.

    `source` may be a dict, a JSON string (first non-blank character '{'),
    or a path to a JSON file.  Scenario schema::

        {"budget": number, "norm": "l2"|"l1",
         "beta": {"a": number, "c": number},
         "eta": {"type": "discrete"|"uniform_rect"|"mixture", ...},
         "domain": [[x, y], ...]}        # optional; defaults to support hull
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            path = Path(text)
            if not path.is_file():
                raise ScenarioError(f"scenario file not found: {path}")
            text = path.read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid scenario JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    if "budget" not in doc:
        raise ScenarioError("scenario is missing required field 'budget'")
    if "eta" not in doc:
        raise ScenarioError("scenario is missing required field 'eta'")
    try:
        budget = float(doc["budget"])
    except (TypeError, ValueError) as exc:
        raise ScenarioError("budget must be a number") from exc
    eta = _incident_from_json(doc["eta"])
    norm = doc.get("norm", "l2")
    try:
        norm = norm_key(norm)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    bparams = doc.get("beta", {})
    try:
        curve = DeathCurve(
            float(bparams.get("a", DEFAULT_BETA_A)), float(bparams.get("c", DEFAULT_BETA_C))
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed beta parameters: {exc}") from exc
    domain = doc.get("domain")
    if domain is not None:
        try:
            domain = ConvexPolygon(as_points(domain))
        except ValueError as exc:
            raise ScenarioError(f"malformed domain: {exc}") from exc
    return Problem(eta, budget, norm, curve, domain)


def make_city(units: int, seed: int, budget: float = 1.0, norm: str = "l2") -> dict:
    """Synthetic city scenario: a grid of `units` unit-square area cells.

    Cell weights are normalized heavy-tailed (lognormal) draws, standing in
    for empirical per-unit incident rates.  Returns a scenario document
    suitable for `load_scenario`.
    """
    units = int(units)
    if units < 1:
        raise ScenarioError("units must be >= 1")
    rng = np.random.default_rng(seed)
    cols = int(math.ceil(math.sqrt(units)))
    weights = rng.lognormal(mean=0.0, sigma=1.25, size=units)
    weights = weights / weights.sum()
    components = []
    for i in range(units):
        r, c = divmod(i, cols)
        components.append(
            {"rect": [float(c), float(r), float(c + 1), float(r + 1)], "prob": float(weights[i])}
        )
    return {
        "budget": float(budget),
        "norm": norm_key(norm),
        "beta": {"a": DEFAULT_BETA_A, "c": DEFAULT_BETA_C},
        "eta": {"type": "mixture", "components": components},
    }
