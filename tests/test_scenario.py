import json

import numpy as np
import pytest
from scipy.stats import chisquare

from measurefw import (
    DeathCurve,
    DiscretePoints,
    Problem,
    Rect,
    RectMixture,
    ScenarioError,
    UniformRect,
    beta,
    beta_prime,
    load_scenario,
    make_city,
    sample_incident,
    support_hull,
)

CURVE = DeathCurve()
SQRT3 = np.sqrt(3.0)

# the four-quadrant mixture used in the continuous experiments
MIX = RectMixture(
    [
        Rect([0, 0], [0.5, 0.5]),
        Rect([0.5, 0], [1, 0.5]),
        Rect([0, 0.5], [0.5, 1]),
        Rect([0.5, 0.5], [1, 1]),
    ],
    [0.1, 0.2, 0.3, 0.4],
)


def test_beta_values():
    assert beta(CURVE, 0.0) == pytest.approx(0.6635154712332201, abs=1e-14)
    assert beta(CURVE, 1.0) == pytest.approx(0.7193016084922631, abs=1e-14)
    assert beta(CURVE, np.inf) == 1.0
    with pytest.raises(ValueError):
        beta(CURVE, -0.5)


def test_beta_in_place_passes_match_the_formula():
    # beta is evaluated in place, one pass per operation, in the formula's order
    t = np.concatenate([[0.0, np.inf], np.geomspace(1e-9, 1e3, 997)])
    for curve in (CURVE, DeathCurve(a=0.3, c=2.5)):
        want = 1.0 / (1.0 + np.exp(-(curve.a + curve.c * t)))
        assert beta(curve, t).tobytes() == want.tobytes()
        assert beta(curve, 0.7) == float(1.0 / (1.0 + np.exp(-(curve.a + curve.c * 0.7))))


def test_beta_monotone():
    rng = np.random.default_rng(0)
    t = np.sort(rng.uniform(0, 30, size=(200, 2)), axis=1)
    lo, hi = beta(CURVE, t[:, 0]), beta(CURVE, t[:, 1])
    assert np.all(hi >= lo)
    assert np.all((lo > 0) & (lo < 1))


def test_beta_prime_matches_finite_difference():
    rng = np.random.default_rng(1)
    for t in rng.uniform(0.01, 20, size=50):
        fd = (beta(CURVE, t + 1e-6) - beta(CURVE, t - 1e-6)) / 2e-6
        assert beta_prime(CURVE, t) == pytest.approx(fd, abs=1e-6)
    assert beta_prime(CURVE, 0.0) == pytest.approx(0.05849482495485303, abs=1e-12)
    assert beta_prime(CURVE, 200.0) < 1e-10
    with pytest.raises(ValueError):
        beta_prime(CURVE, -1.0)


def test_beta_prime_decreasing_for_nonnegative_intercept():
    t = np.linspace(0, 20, 500)
    vals = beta_prime(CURVE, t)
    assert np.all(np.diff(vals) <= 0)


def test_beta_strictly_concave():
    rng = np.random.default_rng(2)
    t = rng.uniform(0, 25, size=(1000, 2))
    lam = rng.uniform(0.05, 0.95, size=1000)
    mid = beta(CURVE, lam * t[:, 0] + (1 - lam) * t[:, 1])
    chord = lam * beta(CURVE, t[:, 0]) + (1 - lam) * beta(CURVE, t[:, 1])
    distinct = np.abs(t[:, 0] - t[:, 1]) > 1e-6
    assert np.all(mid[distinct] > chord[distinct])


def test_death_curve_validation():
    with pytest.raises(ValueError):
        DeathCurve(a=0.679, c=0.0)
    with pytest.raises(ValueError):
        DeathCurve(a=-0.1, c=0.262)


def test_sample_single_point():
    eta = DiscretePoints([[0.3, 0.7]], [1.0])
    rng = np.random.default_rng(3)
    for _ in range(10):
        assert np.allclose(sample_incident(eta, rng), [0.3, 0.7])


def test_sample_mixture_respects_weights():
    rng = np.random.default_rng(4)
    pts = sample_incident(MIX, rng, size=100_000)
    quadrant = (pts[:, 0] >= 0.5).astype(int) + 2 * (pts[:, 1] >= 0.5).astype(int)
    freq = np.bincount(quadrant, minlength=4) / len(pts)
    assert np.allclose(freq, [0.1, 0.2, 0.3, 0.4], atol=0.01)
    counts = np.bincount(quadrant, minlength=4)
    assert chisquare(counts, f_exp=np.array([0.1, 0.2, 0.3, 0.4]) * len(pts)).pvalue > 0.001


def test_sample_uniform_rect_mean():
    rng = np.random.default_rng(5)
    eta = UniformRect(Rect([0, 0], [1, 1]))
    pts = sample_incident(eta, rng, size=100_000)
    assert np.allclose(pts.mean(axis=0), [0.5, 0.5], atol=0.01)


def test_support_hull():
    tri = DiscretePoints([[0, 0], [1, 0], [0.5, SQRT3 / 2]], [1 / 3] * 3)
    assert support_hull(tri).n_vertices == 3
    rect = UniformRect(Rect([0, 0], [2, 1]))
    assert support_hull(rect).area == pytest.approx(2.0)
    seg = DiscretePoints([[0, 0], [1, 0]], [0.5, 0.5])
    hull = support_hull(seg)
    assert hull.n_vertices == 2
    assert hull.area == 0.0


THREE_POINT_DOC = {
    "budget": 1.0,
    "norm": "l2",
    "beta": {"a": 0.679, "c": 0.262},
    "eta": {
        "type": "discrete",
        "points": [[0, 0], [1, 0], [0.5, SQRT3 / 2]],
        "probs": [1 / 3, 1 / 3, 1 / 3],
    },
}


def test_load_scenario_three_point(tmp_path):
    path = tmp_path / "three.json"
    path.write_text(json.dumps(THREE_POINT_DOC))
    prob = load_scenario(str(path))
    assert isinstance(prob.eta, DiscretePoints)
    assert prob.budget == 1.0
    assert prob.norm == "l2"
    assert prob.curve == DeathCurve()
    assert prob.domain.n_vertices == 3  # defaults to the support hull
    assert load_scenario(THREE_POINT_DOC).budget == 1.0  # also accepts dicts
    # a string is always a path, never JSON text
    with pytest.raises(ScenarioError, match="scenario file not found"):
        load_scenario(json.dumps(THREE_POINT_DOC))


def test_discrete_eta_without_probs_is_uniform():
    points = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    prob = load_scenario(_doc(eta={"type": "discrete", "points": points}))
    assert np.array_equal(prob.eta.points, points)
    assert np.array_equal(prob.eta.probs, np.full(3, 1.0 / 3))


def test_load_scenario_errors(tmp_path):
    bad = dict(THREE_POINT_DOC)
    bad["eta"] = dict(THREE_POINT_DOC["eta"], probs=[0.3, 0.3, 0.3])
    with pytest.raises(ScenarioError, match="probabilities must sum to 1"):
        load_scenario(bad)
    with pytest.raises(ScenarioError, match="budget must be positive"):
        load_scenario(dict(THREE_POINT_DOC, budget=-1.0))
    with pytest.raises(ScenarioError, match="missing required field 'budget'"):
        load_scenario({"eta": THREE_POINT_DOC["eta"]})
    with pytest.raises(ScenarioError, match="unknown eta type"):
        load_scenario(dict(THREE_POINT_DOC, eta={"type": "gaussian"}))
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario("no/such/file.json")
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ScenarioError, match="invalid scenario JSON"):
        load_scenario(str(bad_json))
    bad_json.write_bytes(b'{"budget": 1.0, "note": "caf\xe9"}')  # Latin-1, not UTF-8
    with pytest.raises(ScenarioError, match="invalid scenario JSON: 'utf-8' codec"):
        load_scenario(str(bad_json))
    bad_json.write_text("[" * 100_000 + "]" * 100_000)  # nested deeper than json can parse
    with pytest.raises(ScenarioError, match="invalid scenario JSON: maximum recursion depth"):
        load_scenario(str(bad_json))
    with pytest.raises(ScenarioError, match="must contain the support"):
        load_scenario(dict(THREE_POINT_DOC, domain=[[0, 0], [0.1, 0], [0, 0.1]]))


def test_problem_validation():
    eta = DiscretePoints([[0, 0], [1, 0]], [0.5, 0.5])
    with pytest.raises(ScenarioError, match="budget must be positive"):
        Problem(eta, budget=0.0)
    with pytest.raises(ValueError):
        Problem(eta, budget=1.0, norm="l3")
    with pytest.raises(ScenarioError, match="distinct"):
        DiscretePoints([[0, 0], [0, 0]], [0.5, 0.5])


def test_make_city():
    doc = make_city(287, seed=7)
    comps = doc["eta"]["components"]
    assert len(comps) == 287
    assert sum(c["prob"] for c in comps) == pytest.approx(1.0, abs=1e-12)
    prob = load_scenario(doc)
    assert isinstance(prob.eta, RectMixture)
    single = make_city(1, seed=7)
    assert len(single["eta"]["components"]) == 1
    assert single["eta"]["components"][0]["prob"] == pytest.approx(1.0)
    assert make_city(12, seed=9) == make_city(12, seed=9)  # seed determinism
    with pytest.raises(ValueError, match="^units must be an integer >= 1$"):
        make_city(0, seed=1)


def _doc(**fields):
    """THREE_POINT_DOC with top-level fields replaced (None removes a field)."""
    doc = dict(THREE_POINT_DOC, **fields)
    return {k: v for k, v in doc.items() if v is not None}


FLAT = Rect([0, 0], [0, 1])  # zero area
REJECTED = {
    "non-finite curve": (lambda: DeathCurve(a=np.nan), ValueError,
                         "death curve parameters must be finite"),
    "negative probability": (lambda: DiscretePoints([[0, 0], [1, 0]], [1.5, -0.5]),
                             ScenarioError, "demand probabilities must be finite and nonnegative"),
    "NaN mixture weight": (lambda: RectMixture([Rect([0, 0], [1, 1])], [np.nan]),
                           ScenarioError, "mixture weights must be finite and nonnegative"),
    "points and probabilities": (lambda: DiscretePoints([[0, 0], [1, 0]], [1.0]),
                                 ScenarioError, "must have the same length"),
    "components and weights": (lambda: RectMixture([Rect([0, 0], [1, 1])] * 2, [1.0]),
                               ScenarioError, "must have the same length"),
    "empty mixture": (lambda: RectMixture([], []), ScenarioError,
                      "mixture must have at least one component"),
    "zero-area mixture": (lambda: RectMixture([FLAT], [1.0]), ScenarioError,
                          "mixture rectangles must have positive area"),
    "zero-area uniform rect": (lambda: UniformRect(FLAT), ScenarioError,
                               "uniform rectangle must have positive area"),
    "sample unknown type": (lambda: sample_incident(object(), np.random.default_rng(0)),
                            TypeError, "unknown incident distribution type object"),
    "hull of unknown type": (lambda: support_hull("points"), TypeError,
                             "unknown incident distribution type str"),
    "malformed rect": (lambda: load_scenario(_doc(eta={"type": "uniform_rect",
                                                       "rect": [0, 0, 1]})),
                       ScenarioError, r"rectangle must be \[xmin, ymin, xmax, ymax\]"),
    "inverted rect": (lambda: load_scenario(_doc(eta={"type": "uniform_rect",
                                                      "rect": [1, 1, 0, 0]})),
                      ScenarioError, "min corner must be <= max corner"),
    "eta without type": (lambda: load_scenario(_doc(eta={"points": [[0, 0]]})),
                         ScenarioError, "eta must be an object with a 'type' field"),
    "eta not an object": (lambda: load_scenario(_doc(eta=[[0, 0]])),
                          ScenarioError, "eta must be an object with a 'type' field"),
    "missing eta field": (lambda: load_scenario(_doc(eta={"type": "uniform_rect"})),
                          ScenarioError, "eta is missing required field 'rect'"),
    "malformed eta": (lambda: load_scenario(_doc(eta={
        "type": "mixture", "components": [{"rect": [0, 0, 1, 1], "prob": "half"}]})),
                      ScenarioError, "malformed eta: could not convert string to float"),
    "missing eta": (lambda: load_scenario(_doc(eta=None)), ScenarioError,
                    "scenario is missing required field 'eta'"),
    "non-numeric budget": (lambda: load_scenario(_doc(budget="one")), ScenarioError,
                           "budget must be a number"),
    "bad norm": (lambda: load_scenario(_doc(norm="l3")), ScenarioError,
                 "unknown norm 'l3'; expected 'l1' or 'l2'"),
    "non-numeric beta": (lambda: load_scenario(_doc(beta={"a": "x"})), ScenarioError,
                         "malformed beta parameters"),
    "non-finite beta": (lambda: load_scenario(_doc(beta={"c": float("inf")})), ScenarioError,
                        "malformed beta parameters: death curve parameters must be finite"),
    # dict(..., beta=None) keeps the field as JSON null; _doc would drop it
    "beta null": (lambda: load_scenario(dict(THREE_POINT_DOC, beta=None)), ScenarioError,
                  "beta must be an object with fields 'a' and 'c', got None"),
    "beta list": (lambda: load_scenario(_doc(beta=[1, 2])), ScenarioError,
                  r"beta must be an object with fields 'a' and 'c', got \[1, 2\]"),
    "beta string": (lambda: load_scenario(_doc(beta="x")), ScenarioError,
                    "beta must be an object with fields 'a' and 'c', got 'x'"),
    "beta number": (lambda: load_scenario(_doc(beta=5)), ScenarioError,
                    "beta must be an object with fields 'a' and 'c', got 5"),
    "malformed domain": (lambda: load_scenario(_doc(domain=[0, 0, 1, 0, 1, 1])), ScenarioError,
                         r"malformed domain: expected an \(n, 2\) array of points"),
    "empty discrete eta": (lambda: load_scenario(_doc(eta={"type": "discrete", "points": []})),
                           ScenarioError, r"malformed eta: expected an \(n, 2\) array of points, "
                           r"got shape \(0,\)"),
    "fractional city units": (lambda: make_city(2.5, seed=1), ValueError,
                              "^units must be an integer >= 1$"),
    "empty discrete eta with probs": (
        lambda: load_scenario(_doc(eta={"type": "discrete", "points": [], "probs": []})),
        ScenarioError, r"malformed eta: expected an \(n, 2\) array of points, got shape \(0,\)"),
}


@pytest.mark.parametrize("make, exc, message", REJECTED.values(), ids=REJECTED.keys())
def test_scenario_rejects_malformed_input(make, exc, message):
    with pytest.raises(exc, match=message):
        make()
